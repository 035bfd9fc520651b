import json
from fractions import Fraction
from functools import cached_property, lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm

from orbitcone import exactlin as ex
from orbitcone import critical, harness, matrixgrp, parabolic, polyhedra
from orbitcone.critical import (F, NotRegular, SampleStack, analytic_hessian,
                                critical_value, ensure_regular, h_x_coords,
                                hessian, kernel_dim, numeric_hessian, omega_X,
                                predicted_signature, sample_H_X, sample_NPH,
                                transversal_signature, vanishing_patterns)
from orbitcone.harness import VerificationConfig, run
from orbitcone.matrixgrp import a_matrix, realization, sample_H
from orbitcone.polyhedra import gamma_aq, omega
from orbitcone.rootsys import weyl_orbit

import reference
import reference as fx
from iwasawa_reference import iwasawa_by_matmul
from reference import (analytic_hessian_fresh, critical_image_per_draw,
                       draw_elements, h_x_coords_fresh,
                       kernel_dim_per_call, numeric_hessian_fresh,
                       predicted_signature_per_call, sigma_grp,
                       signature_per_call, transversal_signature_lstsq,
                       transversal_signature_per_call, weyl_group, weyl_rep)

A_LOGS = {
    "kostant_sl2": (1, -1),
    "sl2_so11": (1, -1),
    "sl3_so21": (2, 1, -3),
    "group_sl2": (1, -1, -1, 1),
}


def _a_log(rz):
    return ex.exact(A_LOGS[rz.name])


def _stack(rz, Xs):
    """The SampleStack of the samples Xs, made exact."""
    return SampleStack.of(rz, [ex.exact(X) for X in Xs])


class NotALocalMin(ValueError):
    pass


def grad_F(rz, a_log, X, h) -> np.ndarray:
    """Components B(U_i, Ad(n^{-1})X) over the h-basis, n the unipotent part
    for the base system."""
    a = a_matrix(np.exp(np.asarray(fx.vec(a_log), dtype=float)))
    Xm = a_matrix(np.asarray(fx.vec(X), dtype=float))
    _, _, nn = iwasawa_by_matmul(rz, a @ np.asarray(h, dtype=float),
                                 rz.base_parabolic)
    adX = np.linalg.inv(nn) @ Xm @ nn
    basis = np.stack(rz.h_basis)
    return rz.kappa * np.einsum("dij,...ji->...d", basis, adX)


def local_min_halfspace_check(rz, a_log, X, w) -> bool:
    """All of the predicted image sits on the upper side of the level plane,
    for the base system."""
    P = rz.base_parabolic
    a_exact = ex.exact(a_log)
    X = ex.exact(X)
    posdef, _ = predicted_signature(rz, a_exact, _stack(rz, [X]), w, P)
    if not posdef[0]:
        raise NotALocalMin("a transversal direction has negative curvature")
    orbit = weyl_orbit(rz.small_weyl, a_exact)
    om = omega(orbit, gamma_aq(sorted(P.classification.minus_part), rz.datum))
    gX = fx.mat_vec(rz.datum.gram, X)
    level = fx.dot(gX, fx.mat_vec(ex.mat_inv(w), a_exact))
    if any(fx.dot(gX, u) < level for u in om.vertices):
        return False
    if any(fx.dot(gX, g) < 0 for g in om.generators):
        return False
    return True


def _identity_w(rz):
    eye = ex.identity(rz.dim)
    return next(w for w in rz.small_weyl if w == eye)


def test_ensure_regular(rz):
    a = ensure_regular(rz, _a_log(rz))
    assert isinstance(a, ex.Exact)


def test_ensure_regular_rejects_wall(rz_sl3):
    with pytest.raises(NotRegular):
        ensure_regular(rz_sl3, ex.exact((1, 1, -2)))


def test_ensure_regular_rejects_off_aq(rz_group):
    # sigma-fixed direction, projects to zero
    with pytest.raises(ValueError):
        ensure_regular(rz_group, ex.exact((1, -1, 1, -1)))


def test_ensure_in_aq_accepts_every_default_base_point(rz):
    a = critical.ensure_in_aq(rz, VerificationConfig(preset=rz.name).a_log_exact())
    assert fx.vec(a) == tuple(Fraction(c) for c in harness._DEFAULT_A_LOG[rz.name])


def test_ensure_in_aq_rejects_a_point_off_the_span_of_the_roots(rz):
    # (I - sigma)/2 fixes the all-ones direction on the J-presets, but no
    # root sum reaches it: it is off a, hence off a_q
    ones = (1,) * rz.dim
    with pytest.raises(ValueError, match="base point must lie in a_q"):
        critical.ensure_in_aq(rz, ex.exact(fx.add(
            fx.vec(harness._DEFAULT_A_LOG[rz.name]), fx.vec(ones))))


def test_reps_are_critical_points(rz):
    a_log = _a_log(rz)
    X = _a_log(rz)
    ensure_regular(rz, a_log)
    ws = rz.small_weyl
    for w, level in zip(ws, fx.vec(critical_value(rz, a_log, _stack(rz, [X]), ws)[0])):
        xw = weyl_rep(rz, w)
        val = float(level)
        assert abs(float(F(rz, a_log, fx.vec(X), xw, rz.base_parabolic)) - val) < 1e-9
        g = grad_F(rz, a_log, X, xw)
        assert np.abs(g).max() < 1e-8


# base points beside the defaults at which the parity below is pinned;
# at kostant 3,-3 the hessian check's fixed step gives a false FAIL
_PARITY_POINTS = {
    "kostant_sl2": [("2", "-2"), ("3", "-3")],
    "sl2_so11": [("2", "-2")],
    "sl3_so21": [("4", "2", "-6"), ("1", "3", "-4")],
    "group_sl2": [("2", "-2", "-2", "2")],
}


def test_weyl_points_at_a_w_equal_the_x_w_form(rz):
    """H(a x_w h) = H(a_w h): on every positive system, F at x_w, taken at
    the identity at a_w, and the Hessian stencil's projected logs, taken at
    a_w, are within 1e-14 of the forms through the numpy x_w, and equal to
    the last bit at the default base point."""
    X = _stack(rz, [X for _, wits in vanishing_patterns(rz) for X in wits]).floats
    for a in [_a_log(rz)] + _PARITY_POINTS[rz.name]:
        a_log = ensure_regular(rz, fx.exact_vec(a))
        for P in parabolic.all_positive_systems(rz.datum):
            for w in rz.small_weyl:
                xw, a_w = weyl_rep(rz, w), critical.weyl_image(rz, a_log, w)
                for at_a_w, at_x_w in (
                        (F(rz, a_w, X, harness._zero(rz, 1), P),
                         F(rz, a_log, X, xw[None], P)),
                        (critical._WeylPoint(rz, P, a_w).stencil_values,
                         matrixgrp.h_pq(rz, xw @ critical._stencil_exp(rz), P,
                                        ex.floats(a_log)))):
                    if a_log == _a_log(rz):
                        assert np.array_equal(at_a_w, at_x_w)
                    assert np.abs(at_a_w - at_x_w).max() <= 1e-14


def test_grad_matches_finite_differences(rz):
    a_log = _a_log(rz)
    X = _a_log(rz)
    hs = draw_elements(sample_H(rz, 0.8, 4, seed=11))
    basis = np.stack(rz.h_basis)
    P = rz.base_parabolic
    g = grad_F(rz, a_log, X, hs)
    X = fx.vec(X)

    def fd(eps):
        plus = F(rz, a_log, X, hs[:, None] @ expm(eps * basis)[None, :], P)
        minus = F(rz, a_log, X, hs[:, None] @ expm(-eps * basis)[None, :], P)
        return (plus - minus) / (2 * eps)

    d1, d2 = fd(1e-3), fd(5e-4)
    rich = (4.0 * d2 - d1) / 3.0
    scale = max(1.0, np.abs(g).max())
    assert np.abs(g - rich).max() / scale < 1e-7


def _random_exact_X(rz, rng):
    coef = [Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
            for _ in rz.datum.aq_basis]
    X = fx.zeros(rz.dim)
    for c, b in zip(coef, rz.datum.aq_basis):
        X = fx.add(X, fx.scale(c, b))
    return X


def test_hessian_agreement_and_kernel(rz):
    a_log = _a_log(rz)
    rng = np.random.Generator(np.random.PCG64(29))
    Xs = [_random_exact_X(rz, rng) for _ in range(3)]
    xs, P = _stack(rz, Xs), rz.base_parabolic
    kd = kernel_dim(rz, xs, P)
    for w in rz.small_weyl:
        rep = hessian(rz, a_log, xs, w, P)
        scale = np.maximum(np.abs(rep.analytic_form), 1.0)
        rel = np.abs(rep.numeric_form - rep.analytic_form) / scale
        assert rel.max() < 1e-6
        assert np.array_equal(rep.signature[:, 1], kd)
        tsig = transversal_signature(rz, rep, xs, P)
        posdef, certified = predicted_signature(rz, a_log, xs, w, P)
        assert (tsig[:, 1] == 0).all()
        assert np.array_equal(tsig[:, 2] == 0, posdef)
        assert np.array_equal(posdef, certified)
        for X, ok in zip(Xs, certified):
            _, certs = predicted_signature_per_call(rz, a_log, X, w)
            assert ok == all(c["positive"] for c in certs)


def test_predicted_certificates_cover_transversal(rz):
    a_log = _a_log(rz)
    X = _a_log(rz)
    xs, P = _stack(rz, [X]), rz.base_parabolic
    for w in rz.small_weyl:
        _, certs = predicted_signature_per_call(rz, a_log, X, w)
        total = sum(c["transversal_dim"] for c in certs)
        assert total == len(rz.h_basis) - kernel_dim(rz, xs, P)[0]
        _, certified = predicted_signature(rz, a_log, xs, w, P)
        assert certified[0] == all(c["positive"] for c in certs)
        for c in certs:
            assert c["case"] in ("a", "b.1", "b.2.1", "b.2.2")
            assert len(c["eigenvalues"]) <= c["transversal_dim"]


def test_so11_hessian_closed_form(rz_so11):
    w = _identity_w(rz_so11)
    for t in (0.3, 1.0):
        a_log = ex.exact((Fraction(t).limit_denominator(10),
                          -Fraction(t).limit_denominator(10)))
        tf = float(fx.vec(a_log)[0])
        expected = 8.0 * (1.0 + np.exp(-4.0 * tf))
        rep = hessian(rz_so11, a_log, _stack(rz_so11, [(1, -1)]), w,
                      rz_so11.base_parabolic)
        assert abs(rep.analytic_form[0, 0, 0] - expected) < 1e-9
        assert abs(rep.numeric_form[0, 0, 0] - expected) < 1e-6
        assert rep.signature.tolist() == [[1, 0, 0]]


def test_kostant_hessian_closed_form(rz_kostant):
    eye = ex.identity(2)
    t = 0.7
    a_log = ex.exact((Fraction(7, 10), Fraction(-7, 10)))
    for x in (1.5, -0.8):
        X = (Fraction(x).limit_denominator(10),
             -Fraction(x).limit_denominator(10))
        for w in rz_kostant.small_weyl:
            sign = 1.0 if w == eye else -1.0
            expected = 8.0 * x * (np.exp(-4.0 * sign * t) - 1.0)
            xs, P = _stack(rz_kostant, [X]), rz_kostant.base_parabolic
            rep = hessian(rz_kostant, a_log, xs, w, P)
            scale = max(1.0, abs(expected))
            assert abs(rep.analytic_form[0, 0, 0] - expected) / scale < 1e-9
            assert abs(rep.numeric_form[0, 0, 0] - expected) / scale < 1e-6
            posdef, _ = predicted_signature(rz_kostant, a_log, xs, w, P)
            assert posdef.tolist() == [x * sign * t < 0]


def test_kernel_dims_frozen(rz):
    zero = fx.zeros(rz.dim)
    expected = {
        "kostant_sl2": [((1, -1), 0), (zero, 1)],
        "sl2_so11": [((1, -1), 0), (zero, 1)],
        "sl3_so21": [((2, 1, -3), 0), ((1, 1, -2), 1), (zero, 3)],
        "group_sl2": [((1, -1, -1, 1), 2), (zero, 3)],
    }[rz.name]
    P = rz.base_parabolic
    for X, kd in expected:
        assert kernel_dim(rz, _stack(rz, [X]), P).tolist() == [kd], (rz.name, X)
    assert kernel_dim(rz, _stack(rz, [X for X, _ in expected]), P).tolist() \
        == [kd for _, kd in expected]


def test_halfspace_check(rz_so11):
    w = _identity_w(rz_so11)
    assert local_min_halfspace_check(rz_so11, (1, -1), (1, -1), w)
    with pytest.raises(NotALocalMin):
        local_min_halfspace_check(rz_so11, (1, -1), (-1, 1), w)


def test_halfspace_check_kostant(rz_kostant):
    w = _identity_w(rz_kostant)
    assert local_min_halfspace_check(rz_kostant, (1, -1), (-1, 1), w)
    with pytest.raises(NotALocalMin):
        local_min_halfspace_check(rz_kostant, (1, -1), (1, -1), w)


def test_omega_X_at_zero_is_full_hull(rz):
    a_log = ensure_regular(rz, _a_log(rz))
    minus = rz.base_parabolic.classification.minus_part
    full = omega(weyl_orbit(rz.small_weyl, a_log),
                 gamma_aq(sorted(minus), rz.datum))
    out = omega_X(rz, a_log, ex.zeros(rz.dim), rz.base_parabolic)
    for w, om in out.items():
        assert om.vertices == full.vertices
        assert frozenset(om.generators) == frozenset(full.generators)


def test_omega_X_generic_is_singleton(rz):
    a_log = ensure_regular(rz, _a_log(rz))
    X = a_log
    out = omega_X(rz, a_log, X, rz.base_parabolic)
    for w, om in out.items():
        wln = ex.mat_vec(ex.mat_inv(w), a_log)
        assert om.vertices == (wln,)
        assert om.generators == ()


def test_omega_X_wall_sl3(rz_sl3):
    a_log = ensure_regular(rz_sl3, ex.exact((2, 1, -3)))
    X = ex.exact((1, 1, -2))
    out = omega_X(rz_sl3, a_log, X, rz_sl3.base_parabolic)
    gX = fx.mat_vec(rz_sl3.datum.gram, X)
    for w, om in out.items():
        assert 1 <= len(om.vertices) <= 2
        assert om.generators == ()
        level = min(fx.dot(gX, u) for u in om.vertices)
        assert level == fx.vec(critical_value(rz_sl3, a_log, _stack(rz_sl3, [X]),
                                              [w])[0])[0]


def test_sample_H_X_centralizes(rz):
    X = _a_log(rz)
    Xm = a_matrix(ex.floats(X))
    hs = draw_elements(sample_H_X(rz, X, 1.0, 16, seeds=[4]))
    assert np.abs(hs @ Xm - Xm @ hs).max() < 1e-9
    assert np.abs(sigma_grp(rz, hs) - hs).max() < 1e-9
    assert np.array_equal(hs, draw_elements(sample_H_X(rz, X, 1.0, 16,
                                                       seeds=[4])))


@pytest.mark.parametrize("radius", [0.0, 1.5, 4.0])
def test_sample_H_X_at_zero_is_sample_H(rz, radius):
    # the centralizer of 0 is all of H, drawn from the same stream
    hs = draw_elements(sample_H_X(rz, ex.zeros(rz.dim), radius, 64,
                                  seeds=[11]))
    assert np.array_equal(hs, draw_elements(sample_H(rz, radius, 64, seed=11)))


def test_sample_NPH_shape(rz):
    draw = sample_NPH(rz, rz.base_parabolic, 8)
    assert np.array_equal(draw_elements(draw), np.tile(np.eye(rz.dim), (8, 1, 1)))
    # on the span fixed by the involution, strictly inside the nilradical
    # for the base order; the span is 0 on every preset but group_sl2
    assert len(draw.basis) == (rz.name == "group_sl2")
    for B in draw.basis:
        assert np.array_equal(rz.sigma_alg(B), B)
        assert not np.tril(B).any()


def test_vanishing_patterns(rz):
    counts = {"kostant_sl2": 2, "sl2_so11": 2, "sl3_so21": 5, "group_sl2": 2}
    pats = vanishing_patterns(rz, per_pattern=4, seed=1)
    assert len(pats) == counts[rz.name]
    pos = {lam for lam in rz.restricted.roots_q if lam > ex.neg(lam)}
    seen = set()
    for S, wits in pats:
        seen.add(S)
        assert wits
        for X in wits:
            assert rz.datum.pr_q(X) == X
            for lam in pos:
                if lam in S:
                    assert fx.dot(lam, X) == 0
                else:
                    assert fx.dot(lam, X) != 0
    assert frozenset() in seen
    assert frozenset(pos) in seen


def test_critical_image_classifies_its_system_once(monkeypatch):
    # a fresh positive system: the classification is computed on first use,
    # in one sigma_classification call, and then cached
    calls = []
    real = parabolic.sigma_classification
    monkeypatch.setattr(parabolic, "sigma_classification",
                        lambda P: calls.append(P) or real(P))
    cfg = VerificationConfig(preset="sl3_so21", samples=100,
                             chamber=("3", "2", "1"),
                             checks=frozenset({"critical_image"}))
    assert run(cfg).passed
    assert len(calls) == 1


def test_h_x_coords_matches_a_fresh_computation(rz):
    rng = np.random.default_rng(9)
    n = rz.dim
    generic = tuple(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
                    for _ in range(n))
    tied = (generic[0],) + generic[:-1]
    for X in (generic, tied, fx.zeros(n)):
        assert h_x_coords(rz, ex.exact(X)) == h_x_coords_fresh(rz, X)


def test_h_x_coords_is_cached_per_tie_pattern(rz):
    X1 = ex.exact(Fraction(k + 1, 3) for k in range(rz.dim))
    X2 = ex.exact(Fraction(-2 * (k + 1)) for k in range(rz.dim))
    assert h_x_coords(rz, X1) is h_x_coords(rz, X2)
    assert h_x_coords(rz, X2) == h_x_coords_fresh(rz, X2)


def test_omega_X_depends_only_on_the_vanishing_pattern(rz):
    a_log = ensure_regular(rz, _a_log(rz))
    P = rz.base_parabolic
    for S, wits in vanishing_patterns(rz, per_pattern=10, seed=47):
        first = omega_X(rz, a_log, wits[0], P)
        for X in wits[1:]:
            out = omega_X(rz, a_log, X, P)
            assert out.keys() == first.keys()
            for w, om in out.items():
                assert om.vertices == first[w].vertices
                assert om.generators == first[w].generators


def test_the_stabiliser_of_X_is_the_closure_of_its_vanishing_plus_roots(rz):
    # Chevalley's lemma, on which omega_X takes W_X as the stabiliser of X
    # in the small Weyl group, at every witness of every pattern
    a_log = ensure_regular(rz, _a_log(rz))
    for S, wits in vanishing_patterns(rz):
        for X in wits:
            W_X = weyl_group([lam for lam in rz.restricted.plus_set
                              if fx.dot(lam, X) == 0], rz.datum.gram)
            assert W_X == tuple(w for w in rz.small_weyl
                                if ex.mat_vec(w, X) == X)
            for w, om in omega_X(rz, a_log, X, rz.base_parabolic).items():
                assert set(om.vertices) == weyl_orbit(
                    W_X, critical.weyl_image(rz, a_log, w))


def test_weyl_image_is_the_diagonal_of_the_conjugated_base_point(rz, monkeypatch):
    # the checks judge a x_w h at the base point weyl_image(rz, a_log, w),
    # for H(a x_w h) = H(a_w h) with a_w = x_w^T a x_w; limits reads it at
    # the default base point and at every step of its sequence, all in a_q
    seen = set()
    monkeypatch.setattr(harness, "weyl_image", lambda rz_, a_log, w: seen.add(
        a_log) or critical.weyl_image(rz_, a_log, w))
    report = run(VerificationConfig(preset=rz.name, samples=20,
                                    checks=frozenset({"limits"})))
    assert _a_log(rz) in seen
    assert len(seen) == report.results[0].detail["sequence_length"] + 1
    for a_log in seen:
        for w in rz.weyl_reps:
            xw = weyl_rep(rz, w)
            assert np.isin(xw, (-1.0, 0.0, 1.0)).all()
            x = xw.astype(int).tolist()
            assert fx.vec(critical.weyl_image(rz, a_log, w)) == tuple(
                sum(x[i][c] ** 2 * fx.vec(a_log)[i] for i in range(rz.dim))
                for c in range(rz.dim))


def test_critical_image_builds_one_hrep_per_pattern_and_weyl_element(monkeypatch):
    # one Omega_X per vanishing pattern: the H-rep of each (pattern, w) is
    # built once and serves every witness of the pattern
    expected = {"kostant_sl2": 4, "sl2_so11": 2, "sl3_so21": 10, "group_sl2": 4}
    real = polyhedra.project_polyhedron
    for preset, count in expected.items():
        calls = []
        monkeypatch.setattr(polyhedra, "project_polyhedron",
                            lambda *a: calls.append(a) or real(*a))
        cfg = VerificationConfig(preset=preset, samples=2000, seed=0,
                                 checks=frozenset({"critical_image"}))
        assert run(cfg).passed
        assert len(calls) == count, preset


# the cases on which the batched critical_image check must give the report
# of the per-draw oracle
CRITICAL_IMAGE_CASES = (
    [{"preset": p, "seed": s} for p in ("kostant_sl2", "sl2_so11", "sl3_so21",
                                        "group_sl2") for s in (0, 5)]
    + [{"preset": "sl3_so21", "chamber": ("3", "2", "1")},
       {"preset": "group_sl2", "chamber": ("1", "-1", "1", "-1")},
       {"preset": "sl3_so21", "radii": (1.0, 12.0)}])

# the worst_slack repr of the per-draw check on each case, recorded from its
# own run (count, patterns and exact_level_failures as the oracle gives);
# the oracle reads the library's samplers and h_pq, so a change made in both
# shows here only
PER_DRAW_WORST_SLACK = (
    "0.0", "0.0", "0.0", "0.0",
    "-4.440892098500626e-16", "-4.440892098500626e-16",
    "-1.1102230246251565e-16", "-1.1102230246251565e-16",
    "-4.440892098500626e-16", "-1.1102230246251565e-16",
    "-8.881784197001252e-16")

# the witnesses of the per-draw check under the Omega_X fault below
PER_DRAW_OMEGA_FAULT_WITNESSES = (
    (1.0, 3.764691717989, -4.764691717989),
    (1.0, 4.138789729864, -5.138789729864),
    (1.0, 4.138789729864, -5.138789729864),
    (1.0, 3.868082981833, -4.868082981833),
    (1.0, 4.138789729864, -5.138789729864),
    (1.0, 2.418467099203, -3.418467099203),
    (1.0, 4.138789729864, -5.138789729864),
    (1.0, 4.138789729864, -5.138789729864),
    (1.0, 2.592151754946, -3.592151754946),
    (1.0, 3.5901450142, -4.5901450142))


def _critical_image_reports(**kw):
    """The batched check's result and the per-draw oracle's on one case."""
    cfg = VerificationConfig(checks=frozenset({"critical_image"}), **kw)
    rz = realization(cfg.preset)
    P = cfg.positive_system(rz)
    return (harness._check_critical_image(rz, P, cfg),
            critical_image_per_draw(rz, P, cfg))


def _same_report(got, want):
    assert got.passed == want.passed
    assert got.count == want.count
    assert got.detail == want.detail
    assert repr(got.worst_slack) == repr(want.worst_slack)
    assert got.witnesses == want.witnesses


@pytest.mark.parametrize("case", CRITICAL_IMAGE_CASES, ids=str)
def test_critical_image_check_equals_the_per_draw_oracle(case):
    got, want = _critical_image_reports(**case)
    assert got.passed
    _same_report(got, want)


@pytest.mark.parametrize("case, worst", zip(CRITICAL_IMAGE_CASES,
                                            PER_DRAW_WORST_SLACK), ids=str)
def test_critical_image_check_keeps_the_recorded_per_draw_reports(case, worst):
    cfg = VerificationConfig(checks=frozenset({"critical_image"}), **case)
    rz = realization(cfg.preset)
    got = harness._check_critical_image(rz, cfg.positive_system(rz), cfg)
    assert got.passed and not got.witnesses
    assert repr(got.worst_slack) == worst
    count, pats = {"kostant_sl2": (880, 2), "sl2_so11": (440, 2),
                   "sl3_so21": (3280, 5), "group_sl2": (880, 2)}[cfg.preset]
    assert got.count == count
    assert got.detail == {"patterns": pats, "exact_level_failures": 0}


def _patch(monkeypatch, name, fn):
    """Replace name in the check's module and in the oracle's."""
    for module in (harness, reference):
        monkeypatch.setattr(module, name, fn)


def test_a_failing_critical_image_check_keeps_its_witnesses(monkeypatch):
    # Omega_X of the first Weyl element of the first pattern whose Omega_X
    # has generators loses them: the points along the cut cone fall outside
    real = critical.omega_X
    chosen = []                 # the witness of the pattern that is faulted

    def vertices_alone(rz, a_log, X, P):
        out = real(rz, a_log, X, P)
        with_generators = sorted(w for w, om in out.items() if om.generators)
        if with_generators and chosen in ([], [X]):
            chosen[:] = [X]
            w = with_generators[0]
            out[w] = polyhedra.Polyhedron(out[w].vertices)
        return out
    _patch(monkeypatch, "omega_X", vertices_alone)
    got, want = _critical_image_reports(preset="sl3_so21")
    assert not got.passed and got.witnesses
    assert got.detail["exact_level_failures"] == 0
    _same_report(got, want)
    assert repr(got.worst_slack) == "-2.1387897298643956"
    assert got.witnesses == PER_DRAW_OMEGA_FAULT_WITNESSES
    # every level off by one: the vertex and the F test fail on every draw
    monkeypatch.undo()
    real_value = critical.critical_value
    _patch(monkeypatch, "critical_value", lambda *a: [
        ex.Exact(tuple(lv + row.den for lv in row.num), row.den)
        for row in real_value(*a)])
    got, want = _critical_image_reports(preset="sl2_so11")
    assert not got.passed
    draws = got.count // max(8, 2000 // 50)
    assert got.detail["exact_level_failures"] == 2 * draws
    _same_report(got, want)


def test_faults_on_several_weyl_elements_keep_the_oracle_witnesses(
        monkeypatch):
    # Omega_X of every Weyl element whose Omega_X has generators loses them.
    # At 100 samples a block has 8 draws, so the first ten witnesses span
    # two blocks: on sl3_so21, where two w are faulted, they come from two
    # Weyl elements, in the (w, X) order of the check and of the oracle
    real = critical.omega_X
    faulted = set()

    def vertices_alone(rz, a_log, X, P):
        out = real(rz, a_log, X, P)
        for w, om in out.items():
            if om.generators:
                out[w] = polyhedra.Polyhedron(om.vertices)
                faulted.add(w)
        return out
    _patch(monkeypatch, "omega_X", vertices_alone)
    # per preset: the faulted Weyl elements and the witnesses
    for preset, ws, wits in (("kostant_sl2", 0, 0), ("sl2_so11", 1, 8),
                             ("sl3_so21", 2, 10), ("group_sl2", 0, 0)):
        faulted.clear()
        got, want = _critical_image_reports(preset=preset, samples=100)
        assert (len(faulted), len(got.witnesses)) == (ws, wits), preset
        assert got.passed == (not wits)
        _same_report(got, want)


def test_critical_image_work_depends_on_patterns_and_ties_only(monkeypatch):
    # per pattern: one sample_H_X, as its witnesses share one tie pattern,
    # one sample_NPH, which draws nothing, and an Iwasawa call per Weyl element
    # (its draws); one per Weyl element for F at a_w over every witness;
    # G X once per X
    work = {}
    for name, module in (("sample_H_X", harness), ("sample_NPH", harness),
                         ("iwasawa", matrixgrp)):
        def counted(*a, _real=getattr(module, name), _name=name, **k):
            work[_name] = work.get(_name, 0) + 1
            return _real(*a, **k)
        monkeypatch.setattr(module, name, counted)
    # the rows of every G X a stack builds
    gram_X = []
    real_gram = SampleStack.gram.func
    gram = cached_property(lambda xs: gram_X.extend(xs.den) or real_gram(xs))
    gram.__set_name__(SampleStack, "gram")
    monkeypatch.setattr(SampleStack, "gram", gram)
    for preset in ("kostant_sl2", "sl2_so11", "sl3_so21", "group_sl2"):
        rz = realization(preset)
        counts = []
        for samples in (100, 2000):
            work.clear()
            gram_X.clear()
            cfg = VerificationConfig(preset=preset, samples=samples, seed=0,
                                     checks=frozenset({"critical_image"}))
            assert run(cfg).passed
            counts.append(dict(work, gram_X=len(gram_X)))
        pats = vanishing_patterns(rz, per_pattern=10,
                                  seed=harness._stream(cfg, "critical_image", 0))
        ties = sum(len({frozenset((i, j) for i in range(rz.dim)
                                  for j in range(rz.dim) if X.num[i] == X.num[j])
                        for X in wits}) for _, wits in pats)
        assert ties == len(pats), preset
        assert counts[0] == counts[1] == {
            "sample_H_X": len(pats), "sample_NPH": len(pats),
            "iwasawa": len(rz.small_weyl) * (len(pats) + 1),
            "gram_X": sum(len(wits) for _, wits in pats)}, preset


def test_hessian_check_validates_its_base_point_once(monkeypatch):
    # the check validates a_log once; hessian and predicted_signature take
    # it as given for every (sample, w)
    real = critical.ensure_regular
    for preset in ("kostant_sl2", "sl2_so11", "sl3_so21", "group_sl2"):
        calls = []
        for module in (critical, harness):
            monkeypatch.setattr(module, "ensure_regular",
                                lambda rz, a: calls.append(a) or real(rz, a))
        cfg = VerificationConfig(preset=preset, samples=5,
                                 checks=frozenset({"hessian"}))
        assert run(cfg).passed
        assert len(calls) == 1, preset


def test_transversal_signature_matches_reference(rz):
    # the kernel as flattened matrices paired with the h-basis, against the
    # kernel in h-coordinates with the nilpotent part by least squares
    a_log = _a_log(rz)
    rng = np.random.Generator(np.random.PCG64(13))
    tied = [wits[0] for S, wits in vanishing_patterns(rz, per_pattern=1, seed=5)
            if S]
    Xs = [_random_exact_X(rz, rng) for _ in range(3)] + tied + [fx.zeros(rz.dim)]
    xs, P = _stack(rz, Xs), rz.base_parabolic
    for w in rz.small_weyl:
        rep = hessian(rz, a_log, xs, w, P)
        got = transversal_signature(rz, rep, xs, P)
        for i, X in enumerate(Xs):
            assert tuple(got[i]) \
                == transversal_signature_lstsq(rz, rep.numeric_form[i], X)


def _systems(rz):
    """The base system and up to two other positive systems."""
    base = rz.base_parabolic
    others = [Q for Q in parabolic.all_positive_systems(rz.datum) if Q != base]
    return [base] + others[:2]


def _assert_fresh(rz, a_log, Xs, w, P):
    num = numeric_hessian(rz, a_log, _stack(rz, Xs), w, P)
    ana = analytic_hessian(rz, a_log, _stack(rz, Xs), w, P)
    assert num.shape == ana.shape == (len(Xs),) + (len(rz.h_basis),) * 2
    for i, X in enumerate(Xs):
        assert np.array_equal(num[i], numeric_hessian_fresh(rz, a_log, X, w, P))
        assert np.array_equal(ana[i], analytic_hessian_fresh(rz, a_log, X, w, P))


def test_hessians_equal_the_fresh_reference(rz):
    # the forms built from the memoised stencil values and transport equal,
    # bit for bit, the forms computed anew with one expm and one F per call
    a_log = _a_log(rz)
    rng = np.random.Generator(np.random.PCG64(31))
    Xs = [_random_exact_X(rz, rng) for _ in range(3)] + [fx.zeros(rz.dim)]
    for P in _systems(rz):
        for w in rz.small_weyl:
            _assert_fresh(rz, a_log, Xs, w, P)


def test_fresh_hessians_default_to_the_base_system(rz):
    # like the other oracles of reference.py, an omitted P is the base system
    a_log = _a_log(rz)
    X = _random_exact_X(rz, np.random.Generator(np.random.PCG64(38)))
    base = rz.base_parabolic
    for w in rz.small_weyl:
        for fresh in (numeric_hessian_fresh, analytic_hessian_fresh):
            assert np.array_equal(fresh(rz, a_log, X, w),
                                  fresh(rz, a_log, X, w, base))


def test_hessian_memos_keep_presets_base_points_and_chambers_apart(monkeypatch):
    # interleaved in one session, each (preset, base point, chamber) must
    # get its own memo entry: a key without the preset, a_log or P would
    # hand one case the parts of an earlier one.  kostant_sl2 and sl2_so11
    # share their base points, Weyl elements and root coordinates.
    critical._WeylPoint.cache_clear()
    rng = np.random.Generator(np.random.PCG64(37))
    cases = {}
    for name in ("kostant_sl2", "sl2_so11", "sl3_so21"):
        rz = realization(name)
        a1 = _a_log(rz)
        a2 = ex.Exact(a1.num, 2 * a1.den)
        P1, P2 = _systems(rz)[:2]
        X = _random_exact_X(rz, rng)
        cases[name] = [(rz, a, P, X) for a, P in
                       ((a1, P1), (a2, P1), (a1, P2), (a1, P1))]
    order = [cases["kostant_sl2"][0], cases["sl2_so11"][0]] + \
        cases["kostant_sl2"][1:] + cases["sl2_so11"][1:] + cases["sl3_so21"]
    for rz, a_log, P, X in order:
        for w in rz.small_weyl:
            _assert_fresh(rz, a_log, [X], w, P)
            got = predicted_signature(rz, a_log, _stack(rz, [X]), w, P)
            with monkeypatch.context() as m:
                m.setattr(critical, "_WeylPoint", lru_cache(maxsize=None)(
                    critical._WeylPoint.__wrapped__))
                fresh = predicted_signature(rz, a_log, _stack(rz, [X]), w, P)
            assert np.array_equal(got, fresh)
            assert got[0][0] == predicted_signature_per_call(rz, a_log, X, w, P)[0]


LAYER_CALLS = ("hessian", "predicted_signature", "transversal_signature",
               "kernel_dim")


def _run_hessian_check(monkeypatch, cfg):
    """Run one hessian check with a fresh kernel memo.  Returns its result,
    the calls of each layer function, the kernel SVDs it made, and the
    number of tie patterns of its samples, each of which takes two SVDs."""
    args = {layer: [] for layer in LAYER_CALLS}
    for layer in LAYER_CALLS:
        real = getattr(critical, layer)
        monkeypatch.setattr(harness, layer, lambda *a, _log=args[layer],
                            _real=real: _log.append(a) or _real(*a))
    svds = []
    real_svd = np.linalg.svd
    monkeypatch.setattr(critical, "_KERNELS", {})
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *a, **k: svds.append(a) or real_svd(*a, **k))
    result = run(cfg).results[0]
    monkeypatch.setattr(np.linalg, "svd", real_svd)
    (_, xs, _), = args["kernel_dim"]
    return result, {k: len(v) for k, v in args.items()}, len(svds), \
        len(set(xs.ties))


def test_hessian_check_does_per_sample_only_what_depends_on_the_sample(
        monkeypatch):
    # the stencil is exponentiated once per realization and projected once
    # per (positive system, base point, Weyl element), whatever the number
    # of samples; the layer functions are called per Weyl element, not per
    # sample, and each predicted kernel takes its two SVDs once per tie
    # pattern
    critical._WeylPoint.cache_clear()
    monkeypatch.setattr(critical, "_stencil_exp",
                        lru_cache(maxsize=None)(critical._stencil_exp.__wrapped__))
    expm_calls, h_pq_calls = [], []
    real_expm, real_h_pq = critical.expm, critical.h_pq
    monkeypatch.setattr(critical, "expm",
                        lambda Z: expm_calls.append(Z) or real_expm(Z))
    monkeypatch.setattr(critical, "h_pq",
                        lambda *a: h_pq_calls.append(a) or real_h_pq(*a))
    for name in A_LOGS:
        rz = realization(name)
        n_w = len(rz.small_weyl)
        n_expm = len(expm_calls)
        a1 = _a_log(rz)
        chambers = [None] + [tuple(ex.strs(Q.chamber_vector))
                             for Q in _systems(rz)[1:]]
        for a_log in (a1, ex.Exact(a1.num, 2 * a1.den)):
            for chamber in chambers:
                n_h_pq = len(h_pq_calls)
                calls = {}
                for samples in (5, 50):
                    cfg = VerificationConfig(
                        preset=name, samples=samples,
                        a_log=tuple(ex.strs(a_log)),
                        chamber=chamber, checks=frozenset({"hessian"}))
                    # a non-base chamber may FAIL on the finite-difference
                    # step (ROADMAP item 8); the counts are what is checked
                    result, calls[samples], svds, patterns = \
                        _run_hessian_check(monkeypatch, cfg)
                    assert result.count == samples * n_w
                    assert svds == 2 * patterns, (name, chamber, samples)
                    if samples == 5:
                        made = len(h_pq_calls) - n_h_pq
                        assert 1 <= made <= len(rz.small_weyl), \
                            (name, chamber)
                assert len(h_pq_calls) - n_h_pq == made, (name, chamber)
                assert calls[50] == calls[5] == {
                    "hessian": n_w, "predicted_signature": n_w,
                    "transversal_signature": n_w, "kernel_dim": 1}, name
        assert len(expm_calls) - n_expm == 1, name


def _mixed_stack(rz):
    """Generic samples, one tied sample per vanishing pattern, and X = 0."""
    rng = np.random.Generator(np.random.PCG64(41))
    tied = [wits[0] for S, wits in vanishing_patterns(rz, per_pattern=1, seed=7)
            if S]
    return [_random_exact_X(rz, rng) for _ in range(3)] + tied \
        + [fx.zeros(rz.dim)]


def test_a_stack_of_mixed_tie_patterns_equals_the_per_call_layer(rz):
    # generic, tied and zero samples in one stack have kernels, hence
    # complement bases, of different shapes; every form, signature, kernel
    # dimension and prediction equals the per-call one, at the base and two
    # other positive systems
    a_log = _a_log(rz)
    Xs = _mixed_stack(rz)
    xs = _stack(rz, Xs)
    for P in _systems(rz):
        kd = kernel_dim(rz, xs, P)
        assert kd.tolist() == [kernel_dim_per_call(rz, X, P) for X in Xs]
        for w in rz.small_weyl:
            rep = hessian(rz, a_log, xs, w, P)
            tsig = transversal_signature(rz, rep, xs, P)
            for i, X in enumerate(Xs):
                num = numeric_hessian_fresh(rz, a_log, X, w, P)
                assert np.array_equal(rep.numeric_form[i], num)
                assert np.array_equal(rep.analytic_form[i],
                                      analytic_hessian_fresh(rz, a_log, X, w, P))
                assert tuple(rep.signature[i]) == signature_per_call(num, num)
                assert tuple(tsig[i]) \
                    == transversal_signature_per_call(rz, num, X, P)
    # the kernel shapes differ within the stack
    assert len(set(kernel_dim(rz, xs, rz.base_parabolic).tolist())) > 1


def _same_parts(xs, ref):
    """Whether a stack has the oracle's X, gram, ties, signs and floats;
    G X comes as integer rows over one denominator each."""
    gx, gd = xs.gram
    return (tuple(fx.vec(xs.exact(i)) for i in range(len(xs.den))) == ref.X
            and tuple(tuple(Fraction(x, d) for x in row) for row, d in zip(
                gx.tolist(), gd.tolist())) == ref.gram
            and xs.ties == ref.ties
            and np.array_equal(xs.floats, ref.floats)
            and xs.signs.keys() == ref.signs.keys()
            and all(np.array_equal(xs.signs[a], s) for a, s in ref.signs.items()))


def test_the_integer_stack_equals_the_fraction_oracle(rz, monkeypatch):
    """The hessian check's seed-0 draw with tied and zero coordinate rows,
    over the a_q basis and over a basis with denominators, also on a
    realization whose Gram matrix and roots have denominators, and exact
    samples (generic, tied, zero, and past 2**53 in numerator or
    denominator) give the parts of the Fraction stack; floats, ties and
    signs make no Fraction."""
    aq, n = rz.datum.aq_basis, rz.dim
    cfg = VerificationConfig(preset=rz.name, checks=frozenset({"hessian"}))
    rng = np.random.default_rng(harness._stream(cfg, "hessian"))
    drawn = [[Fraction(c).limit_denominator(40) for c in row]
             for row in rng.normal(size=(100, len(aq)))]
    drawn += [[Fraction(0)] * len(aq), [Fraction(-5, 3)] * len(aq),
              [Fraction(7, 4)] + [Fraction(0)] * (len(aq) - 1)]
    # float(2**60 + 32 + k) / 3 rounds twice, to another float than the
    # Fraction's; (2**60 + 1) / 3 and 2**60 / 3 are one float
    big = 2 ** 60
    huge = [tuple(Fraction(big + 32 + k, 3) for k in range(n)),
            tuple(Fraction(big + k % 2, 3) for k in range(n)),
            tuple(Fraction(-big * 5 + k, big + 1) for k in range(n))]
    # a basis, and a stand-in realization's Gram matrix and roots, with
    # denominators of their own
    thirds = tuple(fx.scale(Fraction(1, k + 3), b) for k, b in enumerate(aq))
    thirds = tuple(map(ex.exact, thirds))
    odd = SimpleNamespace(dim=n, datum=SimpleNamespace(
        gram=ex.exact(tuple(g / 7 + Fraction(i == j + 1, 2) for j, g in enumerate(row))
                      for i, row in enumerate(fx.mat(rz.datum.gram))),
        roots=frozenset(ex.exact(c / (k + 2) for k, c in enumerate(fx.vec(a)))
                        for a in rz.datum.roots)))
    for real, rows, basis in ((rz, drawn, aq), (rz, drawn, thirds),
                              (odd, drawn, thirds),
                              (rz, _mixed_stack(rz) + huge, None)):
        rows = [fx.vec(row) for row in rows]
        xs = (SampleStack.of(real, list(map(ex.exact, rows))) if basis is None
              else SampleStack.on_basis(
                  real, [[c.as_integer_ratio() for c in row] for row in rows], basis))
        made = []
        new = Fraction.__new__
        with monkeypatch.context() as m:
            m.setattr(Fraction, "__new__", staticmethod(
                lambda cls, *a, **k: made.append(a) or new(cls, *a, **k)))
            xs.floats, xs.ties, xs.signs
        assert made == []
        assert _same_parts(xs, reference.FractionSampleStack(
            real, tuple(map(tuple, rows)), basis))
    # the last two huge rows tie in floats only
    assert all(len(set(row)) == 1 for row in xs.floats[-2:])
    r = range(n)
    assert xs.ties[-2:] == (
        frozenset((i, j) for i in r for j in r if i % 2 == j % 2),
        frozenset((i, i) for i in r))


def test_the_predictions_of_a_stack_equal_the_per_call_ones(rz):
    # every positive system: group_sl2 has classes of case b.2.1 only at
    # some of them
    a_log = _a_log(rz)
    Xs = _mixed_stack(rz)
    for P in parabolic.all_positive_systems(rz.datum):
        for w in rz.small_weyl:
            posdef, certified = predicted_signature(rz, a_log, _stack(rz, Xs),
                                                    w, P)
            for i, X in enumerate(Xs):
                one_posdef, certs = predicted_signature_per_call(
                    rz, a_log, X, w, P)
                assert posdef[i] == one_posdef
                assert certified[i] == all(c["positive"] for c in certs)


def test_a_failing_hessian_check_reports_its_witnesses(monkeypatch):
    # a flipped prediction at one Weyl element fails exactly the pairs at
    # that element, reported in sample order with X, w, the relative
    # error, the signature, kd and the prediction, up to MAX_WITNESSES
    real = critical.predicted_signature
    for name in ("kostant_sl2", "sl3_so21", "group_sl2"):
        rz = realization(name)
        w_bad = rz.small_weyl[-1]

        def flipped(rz_, a_log, xs, w, P):
            posdef, certified = real(rz_, a_log, xs, w, P)
            return (~posdef, ~certified) if w == w_bad else (posdef, certified)
        monkeypatch.setattr(harness, "predicted_signature", flipped)
        cfg = VerificationConfig(preset=name, samples=12, seed=3,
                                 checks=frozenset({"hessian"}))
        r = run(cfg).results[0]
        monkeypatch.setattr(harness, "predicted_signature", real)
        passing = run(cfg).results[0]
        assert passing.passed and passing.witnesses == ()
        assert not r.passed
        assert (r.count, r.detail) == (passing.count, passing.detail)
        assert len(r.witnesses) == harness.MAX_WITNESSES
        json.dumps(r.to_dict())
        for X, w, rel, sig, kd, posdef in r.witnesses:
            assert w == [[str(c) for c in row] for row in fx.mat(w_bad)]
            X = tuple(Fraction(c) for c in X)
            P = rz.base_parabolic
            num = numeric_hessian_fresh(rz, _a_log(rz), X, w_bad, P)
            ana = analytic_hessian_fresh(rz, _a_log(rz), X, w_bad, P)
            scale = max(np.abs(ana).max(), 1.0)
            assert rel == float(np.abs(num - ana).max() / scale) <= 1e-6
            assert tuple(sig) == signature_per_call(num, num)
            assert kd == kernel_dim_per_call(rz, X)
            assert posdef == (not predicted_signature_per_call(
                rz, _a_log(rz), X, w_bad)[0])
        # the witnesses are the first samples drawn, in draw order
        rng = np.random.default_rng(harness._stream(cfg, "hessian"))
        aq = rz.datum.aq_basis
        drawn = [fx.combination([Fraction(c).limit_denominator(40)
                                 for c in rng.normal(size=len(aq))], aq, rz.dim)
                 for _ in range(harness.MAX_WITNESSES)]
        assert [w[0] for w in r.witnesses] \
            == [[str(c) for c in X] for X in drawn]
