"""The per-sample float kernels against their dense forms in reference.py.

Polyhedron.slack, _Coverage.update and the draws of sample_span must give
the same bits as the dense forms, on every preset
and on the edge cases of each rewrite: ties between vertices,
displacements of exactly MIN_DISPLACEMENT, a polyhedron with no facets,
batched shapes, and draws over several streams.  A draw judged in chunks
of any size must give the bits of the whole draw judged at once.  iwasawa
of a draw, which works from its factors, must stay within 1e-13 of the
60-digit H of the elements the draw stands for, on every preset up to
radius 20, with any center component of H in front.
"""
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from orbitcone import harness
from orbitcone.harness import (_DEFAULT_A_LOG, MIN_DISPLACEMENT, Tally,
                               _Coverage, _float_rows, _h_probes, _judge)
from orbitcone.matrixgrp import (BLOCK, Draw, SingularInput, h_pq, iwasawa,
                                 realization, root_matrix, sample_H,
                                 sample_span, sample_unipotent)
from orbitcone.parabolic import all_positive_systems
from orbitcone.polyhedra import cone, gamma_aq, gamma_cone, omega
from orbitcone.rootsys import weyl_orbit

from iwasawa_reference import iwasawa_ideal
from reference import (coverage_update_dense, draw_elements,
                       sample_span_dense, slack_dense)


def _main_omega(rz):
    a_log = tuple(Fraction(c) for c in _DEFAULT_A_LOG[rz.name])
    return omega(weyl_orbit(rz.small_weyl, a_log), gamma_cone(rz.base_parabolic))


def _main_points(rz, count: int, seed: int) -> np.ndarray:
    """Projections a h of the main check at radii 0.5, 2 and 4."""
    a = np.exp([float(c) for c in _DEFAULT_A_LOG[rz.name]])[:, None]
    return np.concatenate([h_pq(rz, a * draw_elements(sample_H(
        rz, r, count, seed + k)), rz.base_parabolic)
                           for k, r in enumerate((0.5, 2.0, 4.0))])


# --- Polyhedron.slack --------------------------------------------------------

def test_slack_equals_the_dense_form(rz):
    rng = np.random.default_rng(60)
    P = rz.base_parabolic
    regions = (_main_omega(rz), gamma_cone(P),
               gamma_aq(sorted(P.classification.sigmatheta_part), rz.datum))
    for region in regions:
        on_faces = _float_rows(region.vertices, rz.dim)
        for x in (rng.normal(scale=3.0, size=rz.dim),
                  rng.normal(scale=3.0, size=(1, rz.dim)),
                  rng.normal(scale=3.0, size=(257, rz.dim)),
                  rng.normal(scale=3.0, size=(3, 5, rz.dim)),
                  on_faces, _main_points(rz, 100, seed=61)):
            got, want = region.slack(x), slack_dense(region, x)
            assert np.shape(got) == np.shape(want) == x.shape[:-1]
            assert np.array_equal(got, want)


def test_slack_without_facets_is_inf():
    plane = cone([(1, 0), (-1, 0), (0, 1), (0, -1)], 2)
    assert plane.hrep == ()
    rng = np.random.default_rng(62)
    for x in (np.zeros(2), rng.normal(size=(4, 2)), rng.normal(size=(2, 3, 2))):
        got = plane.slack(x)
        assert np.shape(got) == x.shape[:-1]
        assert np.all(got == np.inf)
        assert np.array_equal(got, slack_dense(plane, x))


# --- _Coverage.update --------------------------------------------------------

def _both(verts, gens):
    return (_Coverage(np.array(verts, dtype=float), np.array(gens, dtype=float)),
            _Coverage(np.array(verts, dtype=float), np.array(gens, dtype=float)))


def _feed_both(cover, dense, vals):
    cover.update(vals)
    coverage_update_dense(dense, vals)
    assert np.array_equal(cover.vdist, dense.vdist)
    assert np.array_equal(cover.gaps, dense.gaps)


def test_coverage_update_equals_the_dense_form(rz):
    om = _main_omega(rz)
    verts = _float_rows(om.vertices, rz.dim)
    gens = _float_rows(om.generators, rz.dim)
    rng = np.random.default_rng(63)
    near_vertices = (verts[rng.integers(len(verts), size=300)]
                     + rng.normal(scale=0.7, size=(300, rz.dim)))
    for vs in (verts, np.zeros((1, rz.dim))):      # Omega, and a gk cone's 0
        cover, dense = _both(vs, gens)
        for vals in (near_vertices[:7], _main_points(rz, 400, seed=64),
                     near_vertices):
            _feed_both(cover, dense, vals)


@pytest.mark.parametrize("order", [1, -1])
def test_coverage_ties_go_to_the_first_vertex(order):
    """Every point is exactly as far from both vertices.  The displacement
    is taken from the first, as np.argmin does, and only the one from
    (-1, 0) meets the generator (1, 0)."""
    verts = np.array([[-1.0, 0.0], [1.0, 0.0]])[::order]
    cover, dense = _both(verts, [[1.0, 0.0], [0.0, 1.0]])
    vals = np.stack([np.zeros(5), np.linspace(-2.0, 2.0, 5)], axis=1)
    _feed_both(cover, dense, vals)
    if order == 1:
        assert cover.gaps[0] == 0.0
    else:
        assert cover.gaps[0] > np.pi / 2


def test_coverage_keeps_displacements_of_exactly_min_displacement():
    h = MIN_DISPLACEMENT
    cover, dense = _both(np.zeros((1, 2)), [[1.0, 0.0], [0.0, 1.0]])
    # the second point falls one ulp short and would meet (0, 1) at angle 0
    vals = np.array([[h, 0.0], [0.0, np.nextafter(h, 0.0)]])
    _feed_both(cover, dense, vals)
    assert list(cover.gaps) == [0.0, np.pi / 2]
    assert list(cover.vdist) == [np.nextafter(h, 0.0)]


# --- the draws of sample_span ------------------------------------------------

@pytest.mark.parametrize("seed", [0, 68])
def test_sample_span_equals_the_dense_product(rz, seed):
    basis = np.stack(rz.h_basis)
    for radius, count in ((0.5, 7), (4.0, 2 * BLOCK + 3)):
        got = draw_elements(sample_span(basis, radius, count, [seed]))
        assert np.array_equal(got, sample_span_dense(basis, radius, count, seed))
    empty = np.zeros((0, rz.dim, rz.dim))
    assert np.array_equal(draw_elements(sample_span(empty, 1.0, 9, [seed])),
                          sample_span_dense(empty, 1.0, 9, seed))


def test_a_draw_over_several_streams_is_their_draws_in_turn(rz):
    """sample_span and sample_unipotent join the rows of every stream into
    one draw; each stream's rows are bit for bit its draw alone."""
    seeds = [np.random.SeedSequence(69, spawn_key=(k,)) for k in range(3)]
    basis = np.stack(rz.h_basis)
    for radius, count in ((0.5, 7), (4.0, BLOCK + 3)):
        want = [sample_span_dense(basis, radius, count, s) for s in seeds]
        got = draw_elements(sample_span(basis, radius, count, seeds))
        assert np.array_equal(got, np.concatenate(want))
    nilpotent = np.zeros((1, rz.dim, rz.dim))
    nilpotent[0, 0, -1] = 1.0
    want = [sample_unipotent(nilpotent, 2.0, 5, [s]).t for s in seeds]
    assert np.array_equal(sample_unipotent(nilpotent, 2.0, 5, seeds).t,
                          np.concatenate(want))


# --- a draw judged in chunks -------------------------------------------------

def _judged(rz, draw):
    """_judge of draw against Omega of the main base point at twice and
    half that point, into one tally with coverage: each base point gives
    witnesses on two presets."""
    om = _main_omega(rz)
    tally = Tally(1e-7, _Coverage(_float_rows(om.vertices, rz.dim),
                                  _float_rows(om.generators, rz.dim)))
    vals = [_judge(rz, rz.base_parabolic, tally, om, [(
        tuple(f * Fraction(c) for c in _DEFAULT_A_LOG[rz.name]), draw)])
            for f in (Fraction(2), Fraction(1, 2))]
    return (vals, tally.count, repr(tally.worst), tally.witnesses,
            tally.coverage.vdist, tally.coverage.gaps)


@pytest.mark.parametrize("chunk", [1, 7, BLOCK - 1, BLOCK + 3, 4 * BLOCK, None],
                         ids=["1", "7", "BLOCK-1", "BLOCK+3", "4BLOCK", "whole"])
def test_a_draw_judged_in_chunks_gives_the_whole_stacks_bits(monkeypatch, rz,
                                                             chunk):
    """_judge fed the draw chunk rows at a time gives the projections,
    tally and coverage of the whole draw judged as one chunk.  The draw
    spans several iwasawa blocks; chunks of 1 and 7 rows judge a draw of 64
    chunks and five rows, which keeps the test quick."""
    rows = min(4 * BLOCK + 5, 64 * (chunk or BLOCK) + 5)
    chunk = chunk or rows
    draw = sample_H(rz, 4.0, rows, seed=71)
    monkeypatch.setattr(harness, "CHUNK", chunk)
    streamed = _judged(rz, draw)
    monkeypatch.setattr(harness, "CHUNK", rows)
    want = _judged(rz, draw)
    assert streamed[3], "no witness to compare"
    for got, ref in zip(streamed, want):
        assert np.array_equal(got, ref)


# --- iwasawa of a draw -------------------------------------------------------

def test_iwasawa_of_a_draw_is_iwasawa_of_its_elements(rz):
    """On every gk pair (P, Q), iwasawa of a unipotent draw over the support
    of N_Q cap bar-N_P, of 2 BLOCK + 3 rows, is within 1e-13 of the
    60-digit H of the elements exp(Y) that its first rows stand for.  It
    does not give the bits of its rounded elements: those lose digits that
    the factors keep."""
    systems = all_positive_systems(rz.datum)
    for pi, P in enumerate(systems):
        for qi, Q in enumerate(systems):
            support = sorted(Q.positive & P.negative)
            if not support:
                continue
            basis = np.stack([root_matrix(rz.dim, a) for a in support])
            draw = sample_unipotent(basis, 4.0, 2 * BLOCK + 3, [(92, pi, qi)])
            got = iwasawa(rz, draw, P)
            assert got.shape == (2 * BLOCK + 3, rz.dim)
            want = iwasawa_ideal(rz, draw, P, rows=range(4))
            assert np.abs(got[:4] - want).max() <= 1e-13


@pytest.mark.parametrize("preset", sorted(_DEFAULT_A_LOG))
def test_iwasawa_of_draws_and_probes_is_the_ideal_elements_to_1e_13(preset):
    """At radii 4, 12 and 20, on the base system and on one other, iwasawa
    of main's draws at its base point, and of its probes at theirs, is
    within 1e-13 of the 60-digit H of the ideal element a exp(Y) with the
    float t.  The probes at a Weyl vertex give that vertex exactly."""
    rz = realization(preset)
    a_log = tuple(Fraction(c) for c in _DEFAULT_A_LOG[preset])
    radii = (4.0, 12.0, 20.0)
    for P in {rz.base_parabolic, all_positive_systems(rz.datum)[-1]}:
        parts = [(a_log, sample_H(rz, r, 10, seed=(94, k)))
                 for k, r in enumerate(radii)] + _h_probes(rz, P, radii, a_log)
        for point, draw in parts:
            a = _float_rows([point], rz.dim)[0]
            got = iwasawa(rz, draw, P, a)
            assert np.abs(got - iwasawa_ideal(rz, draw, P, a)).max() <= 1e-13
            if not len(draw.basis):
                assert np.array_equal(got, np.broadcast_to(a, got.shape))


@pytest.mark.parametrize("preset", sorted(_DEFAULT_A_LOG))
def test_a_center_component_leaves_iwasawa_of_a_draw_alone(preset):
    """H(a z exp(Y) n) = H(a exp(Y) n) for every center component z, which
    is why no draw holds z: on the base system and on one other, iwasawa of
    draws of h at radii 4 and 12 with a right factor n in N_P is within
    1e-13 of the 60-digit H of a z exp(Y) n, each z taking its share of
    the rows."""
    rz = realization(preset)
    a = np.array([float(c) for c in _DEFAULT_A_LOG[preset]])
    rows = 60
    for P in {rz.base_parabolic, all_positive_systems(rz.datum)[-1]}:
        inside = np.stack([root_matrix(rz.dim, alpha)
                           for alpha in sorted(P.positive)])
        for k, radius in enumerate((4.0, 12.0)):
            draw = replace(sample_H(rz, radius, rows, seed=(95, k)),
                           right=sample_unipotent(inside, 4.0, rows, [(96, k)]))
            got = iwasawa(rz, draw, P, a)
            for j, z in enumerate(rz.z_reps):
                mine = range(j, rows, len(rz.z_reps))
                want = iwasawa_ideal(rz, draw, P, a, mine, z)
                assert np.abs(got[mine] - want).max() <= 1e-13


def test_iwasawa_of_a_draw_past_the_plain_range(rz_sl3):
    """Coefficients of 1e61, whose elements leave the dense kernel's plain
    range, give a finite H from the factors.  A non-finite coefficient
    raises the range message of an exponential past double precision."""
    systems = all_positive_systems(rz_sl3.datum)
    P = systems[0]
    Q = next(Q for Q in systems if len(Q.positive & P.negative) == 2)
    basis = np.stack([root_matrix(3, a) for a in sorted(Q.positive & P.negative)])
    t = sample_unipotent(basis, 4.0, 2 * BLOCK + 3, [93]).t
    t[BLOCK:2 * BLOCK] *= 1e61
    got = iwasawa(rz_sl3, Draw(t, basis), P)
    assert np.all(np.isfinite(got))
    assert np.abs(got[BLOCK:2 * BLOCK]).max() > 60 * np.log(10.0)
    assert np.abs(got[:BLOCK]).max() < 60 * np.log(10.0)
    for bad in (np.inf, -np.inf, np.nan):
        t_bad = t.copy()
        t_bad[2 * BLOCK + 1, 1] = bad
        with pytest.raises(SingularInput) as direct:
            iwasawa(rz_sl3, Draw(t_bad, basis), P)
        assert str(direct.value) == "exponential overflows double precision"
