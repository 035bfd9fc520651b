import itertools
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from orbitcone import exactlin as ex
from orbitcone.critical import (_centralizer_basis, _stencil_exp, h_x_coords,
                                nph_basis, sample_NPH, vanishing_patterns)
from orbitcone.harness import _DEFAULT_A_LOG
from orbitcone.matrixgrp import (BLOCK, NotCubic, Realization, SingularInput,
                                 _clip_factors, a_matrix, ek_projection, h_pq,
                                 iwasawa, realization, root_entry, root_matrix,
                                 sample_H, sample_span, sample_unipotent,
                                 span_form)
from orbitcone.parabolic import all_positive_systems

from iwasawa_reference import (iwasawa_by_matmul, iwasawa_exact,
                               iwasawa_gram_schmidt)
from paper_claims import (NotInNP, NotUnipotent, default_z_q, exp_nilpotent,
                          factor_nilpotent, unipotent_log)
import reference as fx
from reference import (clip_factors_dense, contains, draw_elements,
                       exp_span_dense, sigma_grp, sl2_triple, span_form_exact,
                       weyl_rep)


def _np_vec(v) -> np.ndarray:
    return np.array([float(x) for x in fx.vec(v)])


def _np_mat(m) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in fx.mat(m)])


def validate_realization(rz: Realization) -> dict[str, float]:
    """Max deviations of the structural invariants; all should be tiny."""
    rng = np.random.Generator(np.random.PCG64(0))
    n = rz.dim
    Y = rng.normal(size=(1000, n, n))
    errs = {}

    def theta_alg(Z):
        return -np.swapaxes(Z, -1, -2)

    aq_basis_np = tuple(_np_vec(v) for v in rz.datum.aq_basis)
    errs["involutions_commute"] = float(
        np.abs(rz.sigma_alg(theta_alg(Y)) - theta_alg(rz.sigma_alg(Y))).max())
    errs["sigma_squared"] = float(np.abs(rz.sigma_alg(rz.sigma_alg(Y)) - Y).max())
    errs["h_basis_fixed"] = max(
        float(np.abs(rz.sigma_alg(b) - b).max()) for b in rz.h_basis)
    sig_a = _np_mat(rz.datum.sigma_on_a)
    errs["sigma_on_a_matches"] = max(
        (float(np.abs(np.diagonal(rz.sigma_alg(a_matrix(_np_vec(v))))
                      - sig_a @ _np_vec(v)).max()) for v in rz.datum.a_basis),
        default=0.0)
    werr = 0.0
    for w in rz.weyl_reps:
        xw = weyl_rep(rz, w)
        werr = max(werr, float(np.abs(xw.T @ xw - np.eye(n)).max()))
        werr = max(werr, float(np.abs(sigma_grp(rz, xw) - xw).max()))
        wf = _np_mat(w)
        for v in aq_basis_np:
            lhs = xw @ a_matrix(v) @ xw.T
            werr = max(werr, float(np.abs(lhs - a_matrix(wf @ v)).max()))
    errs["weyl_reps"] = werr
    zerr = 0.0
    for z in rz.z_reps:
        zerr = max(zerr, float(np.abs(z.T @ z - np.eye(n)).max()))
        zerr = max(zerr, float(np.abs(sigma_grp(rz, z) - z).max()))
        for v in aq_basis_np:
            zerr = max(zerr, float(np.abs(z @ a_matrix(v) @ z.T - a_matrix(v)).max()))
    errs["z_reps"] = zerr
    return errs


def test_realization_registry():
    with pytest.raises(KeyError):
        realization("unknown")
    assert realization("sl3_so21") is realization("sl3_so21")


def test_validate_realization(rz):
    errs = validate_realization(rz)
    assert errs, rz.name
    worst = max(errs.values())
    assert worst < 1e-12, errs


def test_a_matrix_and_root_entry():
    a = a_matrix(np.array([2.0, 3.0, 4.0]))
    assert np.array_equal(a, np.diag([2.0, 3.0, 4.0]))
    batch = a_matrix(np.ones((5, 3)))
    assert batch.shape == (5, 3, 3)
    assert root_entry(ex.exact((Fraction(1), Fraction(0), Fraction(-1)))) == (0, 2)
    assert root_entry(ex.exact((Fraction(-1), Fraction(1), Fraction(0)))) == (1, 0)


def test_iwasawa_reconstructs(rz):
    rng = np.random.Generator(np.random.PCG64(12))
    n = rz.dim
    for P in all_positive_systems(rz.datum):
        g = expm(0.3 * rng.normal(size=(40, n, n)))
        k, H, nn = iwasawa_by_matmul(rz, g, P)
        assert np.abs(iwasawa(rz, g, P) - H).max() <= 1e-13
        rec = k @ a_matrix(np.exp(H)) @ nn
        assert np.abs(rec - g).max() < 1e-10
        # k orthogonal, n unipotent with unit diagonal
        assert np.abs(np.swapaxes(k, -1, -2) @ k - np.eye(n)).max() < 1e-10
        assert np.abs(np.diagonal(nn, axis1=-2, axis2=-1) - 1.0).max() < 1e-10


def test_iwasawa_batch_matches_loop(rz_sl3):
    rng = np.random.Generator(np.random.PCG64(5))
    g = expm(0.4 * rng.normal(size=(7, 3, 3)))
    P = rz_sl3.base_parabolic
    H = iwasawa(rz_sl3, g, P)
    for i in range(7):
        assert np.abs(iwasawa(rz_sl3, g[i], P) - H[i]).max() < 1e-12


def test_iwasawa_equals_the_matmul_reference(rz):
    rng = np.random.Generator(np.random.PCG64(31))
    n = rz.dim
    g = expm(0.5 * rng.normal(size=(25, n, n)))
    for P in all_positive_systems(rz.datum):
        for x in (g, g[3]):
            _, H, _ = iwasawa_by_matmul(rz, x, P)
            assert np.abs(iwasawa(rz, x, P) - H).max() <= 1e-13
            assert np.abs(h_pq(rz, x, P) - H @ rz.q_proj_np.T).max() <= 1e-13


@pytest.mark.parametrize("preset", ["sl2_so11", "sl3_so21", "group_sl2"])
def test_iwasawa_is_as_accurate_as_the_qr(preset):
    """The Gram-Schmidt oracle, on the 40 worst-conditioned of 2,000
    main-check elements a h: within 1e-13 of the exact H at radius 4, and no
    worse than LAPACK's QR at radius 12, where conditioning costs both about
    five digits.  The library takes such elements as Draws."""
    rz = realization(preset)
    a = a_matrix(np.exp([float(c) for c in _DEFAULT_A_LOG[preset]]))
    for radius in (4.0, 12.0):
        g = a @ draw_elements(sample_H(rz, radius, 2000, seed=60))
        g = g[np.argsort(np.linalg.cond(g))[-40:]]
        exact = iwasawa_exact(g)
        err = np.abs(iwasawa_gram_schmidt(rz, g, rz.base_parabolic)
                     - exact).max()
        err_qr = np.abs(iwasawa_by_matmul(rz, g, rz.base_parabolic)[1] - exact).max()
        assert err <= (1e-13 if radius == 4.0 else err_qr), (radius, err, err_qr)


def test_iwasawa_keeps_r22_on_row_graded_input(rz_so11):
    """a h with a = exp(-25, 25): R_22 ~ e^-25 / |h_21| lies far below
    eps |a h|, and LAPACK's QR rounds it to 0.  The Gram-Schmidt oracle,
    with a second projection pass, keeps it to working accuracy."""
    a = a_matrix(np.exp([-25.0, 25.0]))
    g = a @ draw_elements(sample_H(rz_so11, 4.0, 200, seed=61))
    assert np.abs(iwasawa_gram_schmidt(rz_so11, g, rz_so11.base_parabolic)
                  - iwasawa_exact(g)).max() <= 1e-12


@pytest.mark.parametrize("preset", ["sl3_so21", "group_sl2"])
def test_iwasawa_blocks_match_one_matrix_at_a_time(preset):
    rz = realization(preset)
    g = draw_elements(sample_H(rz, 3.0, 2 * BLOCK + 3, seed=62))
    for P in (rz.base_parabolic, all_positive_systems(rz.datum)[-1]):
        batch = iwasawa(rz, g, P)
        assert np.array_equal(batch, np.stack([iwasawa(rz, x, P) for x in g]))


@pytest.mark.filterwarnings("error")
def test_iwasawa_is_scale_free(rz):
    """H(s g) = H(g) + log s, also where s g leaves the range in which a
    kernel takes it plainly: the Gram-Schmidt oracle does its block again
    scaled, iwasawa divides each such matrix by its largest entry.  The
    plain matrices in that block keep their bits."""
    rng = np.random.Generator(np.random.PCG64(63))
    g = expm(0.4 * rng.normal(size=(6, rz.dim, rz.dim)))
    for kernel in (iwasawa_gram_schmidt, iwasawa):
        H = kernel(rz, g, rz.base_parabolic)
        for s in (1e-200, 1e-70, 1e70, 1e200):
            scaled = kernel(rz, np.concatenate([s * g, g]), rz.base_parabolic)
            assert np.abs(scaled[:6] - (H + np.log(s))).max() <= 1e-13
            assert np.array_equal(scaled[6:], H)


def test_iwasawa_rejects_bad_input(rz_sl3):
    P = all_positive_systems(rz_sl3.datum)[-1]
    bad = np.eye(3)
    bad[1, 2] = np.nan
    singular = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 1.0], [3.0, 0.0, 1.0]])
    for x in (bad, singular, np.stack([np.eye(3), singular])):
        for Q in (rz_sl3.base_parabolic, P):
            with pytest.raises(SingularInput):
                iwasawa(rz_sl3, x, Q)
    # a NaN inside a stack propagates through its entry maxima
    with pytest.raises(SingularInput, match="non-finite entries"):
        iwasawa(rz_sl3, np.stack([np.eye(3), bad, np.eye(3)]), P)


def _dense_inputs(rz: Realization, P) -> list[np.ndarray]:
    """Every stack that the program and its oracles hand iwasawa: the
    Hessian stencil exp Z, each x_w and x_w exp Z (the oracles' F and
    stencil), the rotations of the kostant check on a 2 x 2 preset, and
    gk's probes I + s E over the supports of its pairs (P, Q)."""
    n = rz.dim
    xws = np.stack([weyl_rep(rz, w) for w in rz.weyl_reps])
    out = [_stencil_exp(rz), xws, xws[:, None] @ _stencil_exp(rz)]
    if n == 2:
        phi = np.linspace(0.0, np.pi / 2, 1000)
        c, s = np.cos(phi), np.sin(phi)
        out.append(np.stack([c, -s, s, c], axis=-1).reshape(-1, 2, 2))
    for Q in all_positive_systems(rz.datum):
        for alpha in sorted(Q.positive & P.negative):
            out.append(np.eye(n) + root_matrix(n, alpha)
                       * np.array([1.0, 3.0])[:, None, None])
    return out


@pytest.mark.parametrize("preset", sorted(_DEFAULT_A_LOG))
def test_iwasawa_of_the_programs_stacks_is_exact_to_1e_14(preset):
    """On every stack that the program passes, at the base system and one
    other, at the default base point and at a = 1, the Laplace minors give
    H within 1e-14 of its 60-digit value: their minors do not cancel."""
    rz = realization(preset)
    for P in (rz.base_parabolic, all_positive_systems(rz.datum)[-1]):
        p = np.array(P.perm)
        for a_log in (np.array([float(c) for c in _DEFAULT_A_LOG[preset]]),
                      None):
            for g in _dense_inputs(rz, P):
                g = g.reshape(-1, rz.dim, rz.dim)
                want = np.empty(g.shape[:-1])
                want[:, p] = iwasawa_exact(
                    g[:, p][:, :, p], None if a_log is None else a_log[p])
                assert np.abs(iwasawa(rz, g, P, a_log) - want).max() <= 1e-14


def test_a_right_factor_in_n_p_leaves_h_alone(rz):
    """H(a e^Y n) = H(a e^Y) for n = exp of a span in n_P, the bits of
    the draw without it, and H of the built elements to 1e-10; a right
    factor outside N_P, or one with a right factor of its own, raises
    ValueError."""
    a_log = np.array([float(c) for c in _DEFAULT_A_LOG[rz.name]])
    for P in all_positive_systems(rz.datum):
        draw = sample_H(rz, 1.0, 50, seed=64)
        inside = np.stack([root_matrix(rz.dim, alpha)
                           for alpha in sorted(P.positive)])
        with_n = replace(draw, right=sample_unipotent(inside, 1.0, 50, [65]))
        H = iwasawa(rz, with_n, P, a_log)
        assert np.array_equal(H, iwasawa(rz, draw, P, a_log))
        g = a_matrix(np.exp(a_log)) @ draw_elements(with_n)
        assert not np.allclose(g, a_matrix(np.exp(a_log))
                               @ draw_elements(draw))
        assert np.abs(H - iwasawa_by_matmul(rz, g, P)[1]).max() <= 1e-10
        outside = replace(draw, right=sample_unipotent(
            np.swapaxes(inside, 1, 2), 1.0, 50, [65]))
        nested = replace(draw, right=replace(with_n.right, right=outside.right))
        for bad in (outside, nested):
            with pytest.raises(ValueError, match="not in N_P"):
                iwasawa(rz, bad, P, a_log)


def _nilpotent_spans(rz: Realization) -> list[np.ndarray]:
    """The spans sample_unipotent draws from: the sigma-fixed nilpotent
    radicals of sample_NPH and the N_Q cap bar-N_P supports of the gk
    check, over every pair of positive systems."""
    systems = all_positive_systems(rz.datum)
    bases = [nph_basis(rz, P) for P in systems]
    bases += [[root_matrix(rz.dim, a) for a in sorted(Q.positive & P.negative)]
              for P in systems for Q in systems]
    return [np.stack(b) for b in bases if len(b)]


def _combine(t: np.ndarray, basis: np.ndarray) -> np.ndarray:
    return np.einsum("ck,kij->cij", t, basis)


def test_exp_nilpotent_matches_expm_on_triangular_batches():
    rng = np.random.Generator(np.random.PCG64(40))
    for n in (3, 4):
        N = np.triu(rng.normal(size=(500, n, n)), 1)
        assert np.abs(exp_nilpotent(N) - expm(N)).max() < 1e-14
        assert np.abs(exp_nilpotent(N[0]) - expm(N[0])).max() < 1e-14


def test_exp_nilpotent_matches_expm_on_the_checked_supports(rz):
    """On the spans sample_unipotent draws from, exp_span_dense, the tests'
    exponential, is bit for bit the series I + N + N^2/2 + ..., and within
    1e-14 of expm, at the scales the checks use and far outside them."""
    rng = np.random.Generator(np.random.PCG64(41))
    spans = _nilpotent_spans(rz)
    assert spans
    for B in spans:
        assert not span_form(B).any()
        t = rng.normal(0.0, 2.0, size=(100, len(B)))
        N = _combine(t, B)
        E = exp_span_dense(t, B)
        assert np.array_equal(E, exp_nilpotent(N))
        assert np.abs(E - expm(N)).max() < 1e-14
        for scale in (1e-80, 1e80):
            assert np.array_equal(exp_span_dense(scale * t, B),
                                  exp_nilpotent(scale * N))


def test_exp_nilpotent_is_exact_at_zero_and_rejects_non_nilpotent():
    for n in (2, 3, 4):
        assert np.array_equal(exp_nilpotent(np.zeros((n, n))), np.eye(n))
        assert np.array_equal(exp_nilpotent(np.zeros((5, n, n))),
                              np.broadcast_to(np.eye(n), (5, n, n)))
    with pytest.raises(NotUnipotent):
        exp_nilpotent(np.diag([1.0, -1.0, 0.0]))
    with pytest.raises(NotUnipotent):
        exp_nilpotent(np.stack([np.zeros((3, 3)), np.diag([1.0, -1.0, 0.0])]))


def _h_coefficients(rz: Realization, radius: float, count: int, seed: int
                    ) -> np.ndarray:
    """count coefficient rows over the h-basis, of elements of Frobenius norm
    radius in random directions."""
    basis = np.stack(rz.h_basis)
    t = np.random.default_rng(seed).normal(size=(count, len(basis)))
    Y = _combine(t, basis)
    return radius * t / np.sqrt(np.sum(Y * Y, axis=(-2, -1)))[:, None]


def _relative_deviation(A: np.ndarray, B: np.ndarray) -> float:
    """Largest entry of |A - B| over the largest entry of |B|, per matrix."""
    return float((np.abs(A - B).max(axis=(-2, -1))
                  / np.abs(B).max(axis=(-2, -1))).max())


@pytest.mark.parametrize("radius", [1e-3, 1.0, 2.0, 4.0, 8.0])
def test_exp_h_matches_expm_on_h(rz, radius):
    B = np.stack(rz.h_basis)
    t = _h_coefficients(rz, radius, 300, seed=43)
    Y = _combine(t, B)
    assert _relative_deviation(exp_span_dense(t, B), expm(Y)) <= 1e-11
    assert _relative_deviation(exp_span_dense(t[:1], B)[0],
                               expm(Y[0])) <= 1e-11


def test_exp_h_is_exact_on_zero_and_agrees_with_exp_nilpotent():
    for name in ("kostant_sl2", "sl2_so11", "sl3_so21", "group_sl2"):
        B = np.stack(realization(name).h_basis)
        n = B.shape[-1]
        eye = np.broadcast_to(np.eye(n), (5, n, n))
        assert np.array_equal(exp_span_dense(np.zeros((5, len(B))), B), eye)
        assert np.array_equal(exp_span_dense(np.zeros((5, len(B))), B, 1.0),
                              eye)
        assert exp_span_dense(np.zeros((0, len(B))), B).shape == (0, n, n)
        assert np.array_equal(exp_span_dense(np.zeros((5, 0)),
                                             np.zeros((0, n, n))), eye)
    # the strictly upper triangular span of sl(3) has Y^3 = 0
    upper = np.eye(9)[[1, 2, 5]].reshape(3, 3, 3)      # E_01, E_02, E_12
    t = np.random.default_rng(44).normal(size=(100, 3))
    assert np.array_equal(exp_span_dense(t, upper),
                          exp_nilpotent(_combine(t, upper)))


def test_exp_h_on_compact_light_like_and_near_zero_c(rz_sl3, rz_group,
                                                      rz_kostant):
    # sl3_so21: rot, boost1, boost2; group_sl2: H, e, f
    sl3, group = rz_sl3, rz_group
    cases = {
        "c < 0, so(2)": (sl3, (3.0, 0.0, 0.0)),
        "c < 0, kostant": (rz_kostant, (5.0,)),
        "c = 0, so(2,1) light-like": (sl3, (1.0, 1.0, 0.0)),
        "c = 0, so(2,1) light-like, scaled": (sl3, (2.5, 0.0, -2.5)),
        "c = 0, diagonal sl2 light-like": (group, (1.0, 1.0, -1.0)),
        "c = 0, nilpotent e": (group, (0.0, 3.0, 0.0)),
    }
    for s in (0.5e-3, 0.999e-3, 1e-3, 1.001e-3, 2e-3):
        cases[f"c = {s * s:.3g}"] = (sl3, (0.0, s, 0.0))
        cases[f"c = -{s * s:.3g}"] = (sl3, (s, 0.0, 0.0))
        cases[f"c = {s * s:.3g}, mixed"] = (sl3, (s, 0.0, np.sqrt(2.0) * s))
    for label, (rz, t) in cases.items():
        B = np.stack(rz.h_basis)
        t = np.array([t])
        Y = _combine(t, B)[0]
        assert _relative_deviation(exp_span_dense(t, B)[0],
                                   expm(Y)) <= 1e-14, label
        if label.startswith("c = 0"):
            # Y^3 = 0, so exp Y = I + Y + Y^2/2 with no rounding
            assert np.array_equal(exp_span_dense(t, B)[0],
                                  np.eye(len(Y)) + Y + Y @ Y / 2), label


@pytest.mark.filterwarnings("error")
def test_exp_h_of_a_huge_square_zero_matrix_is_one_plus_it():
    # there m^2 f2 overflows, and its product with U^2 = 0 once gave nan
    for n in (2, 3, 4):
        corner = np.zeros((1, n, n))
        corner[0, 0, n - 1] = 1.0
        for B, t in ((corner, np.array([[1e200], [-1e200], [0.0]])),
                     (sl2_triple(n), np.array([[0.0, 1e200, 0.0],
                                                [0.0, -1e200, 0.0],
                                                [0.0, 0.0, 0.0]]))):
            N = _combine(t, B)
            assert np.array_equal(exp_span_dense(t, B), np.eye(n) + N)


def test_exp_h_rejects_matrices_outside_the_class():
    diagonal = np.stack([np.diag([1.0, -1.0, 0.0]), np.diag([0.0, 1.0, -1.0])])
    upper = np.stack([root_matrix(4, ex.exact(a)) for a in
                      [(1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1)]])
    generic = np.random.default_rng(45).integers(-3, 4, size=(1, 3, 3))
    for B in (diagonal, upper, generic.astype(float)):
        with pytest.raises(NotCubic):
            span_form(B)
        with pytest.raises(NotCubic):
            span_form_exact(B)
        with pytest.raises(NotCubic):
            exp_span_dense(np.ones((1, len(B))), B)
    # each element alone is of the class; their span is not
    assert span_form(diagonal[:1]).tolist() == [[1.0]]
    with pytest.raises(ValueError, match="integer"):
        span_form(0.5 * diagonal)


def test_a_span_outside_the_class_is_rejected_before_any_draw(rz_sl3):
    diagonal = np.stack([np.diag([1.0, -1.0, 0.0]), np.diag([0.0, 1.0, -1.0])])
    draws = (lambda rng: sample_span(diagonal, 1.0, 8, [rng]),
             lambda rng: sample_unipotent(diagonal, 1.0, 8, [rng]))
    for draw in draws:
        rng = np.random.default_rng(70)
        state = rng.bit_generator.state
        with pytest.raises(NotCubic):
            draw(rng)
        assert rng.bit_generator.state == state


def test_span_form_agrees_with_the_fraction_form(rz):
    """On every span a check draws from: h, the centralizer C h of every tie
    pattern, C the coordinates of h_x_coords, and the nilpotent spans."""
    h = np.stack(rz.h_basis)
    assert not span_form(h).flags.writeable
    spans = [h] + _nilpotent_spans(rz)
    for X in itertools.product(range(rz.dim), repeat=rz.dim):
        C = np.array([[float(c) for c in row] for row in h_x_coords(rz, ex.exact(X))]
                     ).reshape(-1, len(h))
        spans.append(_combine(C, h))
    for B in spans:
        exact = np.array([[float(q) for q in row] for row in span_form_exact(B)]
                         ).reshape(len(B), len(B))
        assert np.array_equal(span_form(B), exact)


def test_exp_h_inverse_is_exp_h_of_minus(rz):
    B = np.stack(rz.h_basis)
    for radius in (1.0, 4.0):
        t = _h_coefficients(rz, radius, 200, seed=46)
        prod = exp_span_dense(t, B) @ exp_span_dense(-t, B)
        bound = 1e-14 * np.exp(2.0 * radius)
        assert np.abs(prod - np.eye(rz.dim)).max() <= bound


def test_exp_h_blocks_match_one_matrix_at_a_time(rz_sl3):
    """exp_span_dense gives a row alone the bits it has in a stack, so
    draw_elements builds any rows of a draw as the whole draw has them."""
    B = np.stack(rz_sl3.h_basis)
    t = _h_coefficients(rz_sl3, 3.0, 2 * BLOCK + 1, seed=47)
    for radius in (None, 2.0):
        batch = exp_span_dense(t, B, radius)
        assert np.array_equal(batch, np.concatenate(
            [exp_span_dense(t[i:i + 1], B, radius) for i in range(len(t))]))


def _peak_slope(draw) -> float:
    """Traced peak bytes per extra row of draw(count), from 25,000 to
    100,000 rows."""
    peaks = []
    for count in (25_000, 100_000):
        tracemalloc.start()
        try:
            draw(count)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return (peaks[1] - peaks[0]) / 75_000


def test_a_single_stream_keeps_its_draw_uncopied(rz_sl3):
    """sample_H keeps 24 bytes of t per sample, and a two-root
    sample_unipotent 16; joining the streams' arrays copied them once more
    (48 and 32 bytes), and a center index per sample took 8 more."""
    roots = sorted(rz_sl3.base_parabolic.positive)[:2]
    basis = np.stack([root_matrix(3, a) for a in roots])
    assert _peak_slope(lambda c: sample_H(rz_sl3, 4.0, c, 0)) <= 28
    assert _peak_slope(lambda c: sample_unipotent(basis, 4.0, c, [0])) <= 20


@pytest.mark.filterwarnings("error")
def test_exp_h_is_scale_free_far_below_one(rz):
    """c is formed from t / max|Y|: from the raw t, t^T Q t is subnormal at
    1e-160 and zero at 1e-200."""
    B = np.stack(rz.h_basis)
    mixed = np.random.default_rng(51).normal(size=(20, len(B)))
    for scale in (1e-59, 1e-61, 1e-80, 1e-120, 1e-160, 1e-200, 1e-300):
        for t in (scale * np.eye(len(B)), scale * mixed):
            E = exp_span_dense(t, B)
            Y = _combine(t, B)
            assert _relative_deviation(E, expm(Y)) <= 1e-15, scale
            assert np.abs(E - np.eye(rz.dim)).max() <= 4.0 * scale


@pytest.mark.filterwarnings("error")
def test_exp_h_raises_singular_input_outside_double_range(rz):
    B = np.stack(rz.h_basis)
    Q = span_form(B)
    for bad in (np.nan, np.inf, -np.inf):
        t = np.zeros((2, len(B)))
        t[1, 0] = bad
        with pytest.raises(SingularInput):
            exp_span_dense(t, B)
    # a hyperbolic element: a finite exponent, an exponential past double range
    for k in np.nonzero(np.diagonal(Q) > 0)[0]:
        unit = np.eye(len(B))[k]
        assert np.all(np.isfinite(exp_span_dense(700.0 * unit[None], B)))
        for big in (720.0, 1e100, 1e200, 1e300):
            with pytest.raises(SingularInput):
                exp_span_dense(np.stack([unit, big * unit]), B)
    # a compact element: a rotation at every finite scale
    for k in np.nonzero(np.diagonal(Q) < 0)[0]:
        unit = np.eye(len(B))[k]
        for big in (1e70, 1e100, 1e154, 1e300):
            E = exp_span_dense(big * unit[None], B)[0]
            assert np.abs(E @ E.T - np.eye(rz.dim)).max() <= 1e-15


def test_clip_keeps_the_plain_norm_at_normal_radii(rz):
    """_clip_factors scales each Y to radius / |Y| where it is longer, the
    plain norm, from the columns of t on h; 2 h, whose entries are not
    single +-t_k, is refused."""
    lengths = np.array([0.5, 3.0, 1e-80, 40.0, 1e100])
    t = _h_coefficients(rz, 1.0, len(lengths), seed=50) * lengths[:, None]
    basis = np.stack(rz.h_basis)
    Y = _combine(t, basis)
    for radius in (2.0, 1e-90, 1e120):
        plain = np.sqrt(np.sum(Y * Y, axis=(-2, -1)))
        scale = np.where(plain > radius, radius / plain, 1.0)
        assert np.array_equal(_clip_factors(t, basis, radius), scale)
    with pytest.raises(ValueError, match="single"):
        _clip_factors(t, 2.0 * basis, 2.0)


def _radius_spans(rz: Realization) -> list[np.ndarray]:
    """The spans the program draws from with a radius: h and the
    centralizer of h at each witness of each vanishing pattern."""
    spans = {B.tobytes(): B for B in [np.stack(rz.h_basis)] + [
        _centralizer_basis(rz, X) for _, wits in vanishing_patterns(rz)
        for X in wits] if len(B)}
    return list(spans.values())


def test_the_factored_path_clips_as_exp_span_clips(rz):
    """_clip_factors, which the factored Iwasawa kernel scales t by, gives
    the bits of exp_span_dense's clip from the columns of t, on every span
    the program draws with a radius and on sl2_triple: at row counts about
    np.sum's eight accumulators and about BLOCK, and at coefficient scales
    up to where a norm overflows, which raises."""
    rng = np.random.default_rng(51)
    for basis in _radius_spans(rz) + [sl2_triple(rz.dim)]:
        mixed = rng.normal(scale=3.0, size=(2 * BLOCK + 5, len(basis)))
        mixed[:3] *= np.array([[0.0], [1e-80], [1e100]])
        counts = (1, 2, 7, 8, 9, 17, BLOCK - 1, BLOCK, BLOCK + 1)
        scales = (1.0, 1e-160, 1e100, 1e154, 1e160)
        for t in [mixed] + [s * rng.normal(scale=3.0, size=(c, len(basis)))
                            for c in counts for s in scales]:
            Y = _combine(t, basis)
            with np.errstate(over="ignore"):
                finite = np.isfinite(np.sum(Y * Y, axis=(-2, -1))).all()
            for radius in (2.0, 1e-90, 1e5):
                if not finite:
                    with pytest.raises(SingularInput, match="exponent over"):
                        _clip_factors(t, basis, radius)
                    continue
                assert np.array_equal(_clip_factors(t, basis, radius),
                                      clip_factors_dense(t, basis, radius))
    with pytest.raises(SingularInput):
        _clip_factors(np.array([[np.inf]]), np.stack(rz.h_basis)[:1], 1.0)


def test_the_clip_keeps_at_most_56_bytes_per_row(rz_sl3):
    """_clip_factors adds the squares of t's columns one column at a time:
    its peak on BLOCK rows of sl3_so21 is about 41 bytes per row, where
    adding a (rows, n^2) gather of them with np.sum took 112."""
    basis = np.stack(rz_sl3.h_basis)
    t = _h_coefficients(rz_sl3, 8.0, BLOCK, seed=52)
    _clip_factors(t, basis, 4.0)
    tracemalloc.start()
    try:
        _clip_factors(t, basis, 4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 56 * BLOCK, peak


def test_center_signs_are_the_diagonals_of_the_center(rz):
    """Every center component z is a diagonal sign matrix, so z commutes
    with a and H(a z exp(Y)) = H(a exp(Y)): the samplers draw no z, and
    _h_probes gives each z the row of the span 0."""
    for z in rz.z_reps:
        signs = np.diagonal(z)
        assert np.array_equal(z, a_matrix(signs))
        assert np.array_equal(np.abs(signs), np.ones(rz.dim))


@pytest.mark.filterwarnings("error")
def test_sample_H_past_double_range_raises(rz):
    """A norm that overflowed once clipped every draw to zero, so that all
    samples were central and the main check passed vacuously."""
    for radius in (1e160, 1e200, 1e300):
        with pytest.raises(SingularInput, match="exponent overflows"):
            iwasawa(rz, sample_H(rz, radius, 8, seed=3), rz.base_parabolic)


def test_exp_nilpotent_inverts_unipotent_log(rz_sl3):
    rng = np.random.Generator(np.random.PCG64(42))
    N = np.triu(rng.normal(size=(200, 3, 3)), 1)
    assert np.abs(unipotent_log(rz_sl3, exp_nilpotent(N)) - N).max() < 1e-14


def test_h_pq_is_projected_H(rz_group):
    rng = np.random.Generator(np.random.PCG64(8))
    g = expm(0.3 * rng.normal(size=(10, 4, 4)))
    pr = np.array([[float(c) for c in row]
                   for row in fx.mat(rz_group.datum.q_projector)])
    P = rz_group.base_parabolic
    assert np.abs(h_pq(rz_group, g, P) - iwasawa(rz_group, g, P) @ pr.T).max() < 1e-12


def test_sample_H_lands_in_H(rz):
    hs = draw_elements(sample_H(rz, 1.5, 64, seed=2))
    assert hs.shape == (64, rz.dim, rz.dim)
    assert np.abs(sigma_grp(rz, hs) - hs).max() < 1e-8
    assert np.array_equal(hs, draw_elements(sample_H(rz, 1.5, 64, seed=2)))
    assert not np.array_equal(hs, draw_elements(sample_H(rz, 1.5, 64, seed=3)))


def _sampled_draws(rz: Realization) -> list:
    """A draw from every span the samplers draw from: at radius 4 on h and
    on the centralizers of h, without a radius on the sigma-fixed nilpotent
    radicals and the gk supports, and a draw on h with the nph draw of the
    base system as its right factor, as critical_image pairs them."""
    draws = [sample_span(B, 4.0, 50, [(80, k)])
             for k, B in enumerate(_radius_spans(rz))]
    draws += [sample_unipotent(B, 4.0, 50, [(81, k)])
              for k, B in enumerate(_nilpotent_spans(rz))]
    return draws + [replace(draws[0], right=sample_NPH(
        rz, rz.base_parabolic, 4.0, 50, [82]))]


def test_draw_elements_is_expm_of_the_clipped_draw(rz):
    """reference.draw_elements, with which the tests build the elements of
    a draw, against scipy's expm of each Y clipped to norm radius, times n,
    on every span the samplers draw from."""
    def expm_of(draw):
        Y = _combine(draw.t, draw.basis)
        if draw.radius is not None:
            norm = np.linalg.norm(Y, axis=(-2, -1))
            Y *= np.minimum(1.0, draw.radius / np.maximum(norm, 1e-300)
                            )[:, None, None]
        E = expm(Y)
        return E if draw.right is None else E @ expm_of(draw.right)
    for draw in _sampled_draws(rz):
        assert _relative_deviation(draw_elements(draw), expm_of(draw)) <= 1e-13


def test_unipotent_log_round_trip(rz_sl3):
    N = np.zeros((3, 3))
    N[0, 1], N[0, 2], N[1, 2] = 0.7, -1.2, 0.4
    m = expm(N)
    assert np.abs(unipotent_log(rz_sl3, m) - N).max() < 1e-12
    with pytest.raises(ValueError):
        unipotent_log(rz_sl3, np.diag([2.0, 1.0, 0.5]))


def test_factor_nilpotent_round_trip(rz):
    rng = np.random.Generator(np.random.PCG64(21))
    for P in all_positive_systems(rz.datum):
        coef = {a: rng.normal(size=32) for a in P.positive}
        Z = np.zeros((32, rz.dim, rz.dim))
        for a, c in coef.items():
            i, j = root_entry(a)
            Z[:, i, j] = c
        m = expm(Z)
        nu, nh = factor_nilpotent(rz, m, P)
        assert np.abs(nu @ nh - m).max() < 1e-10
        # the second factor is fixed by the involution
        assert np.abs(sigma_grp(rz, nh) - nh).max() < 1e-10


def test_factor_nilpotent_rejects_off_support(rz_sl3):
    m = np.eye(3)
    m = m + np.diag([0.0, 0.0, 0.0])
    m[2, 0] = 0.5
    with pytest.raises(NotInNP):
        factor_nilpotent(rz_sl3, m)


def test_factor_idempotent_on_pure_factors(rz_group):
    P = rz_group.base_parabolic
    z_q = default_z_q(rz_group, P)
    # build a pure H-side factor: root spaces negative on z_q, symmetrized
    v = np.zeros((4, 4))
    hit = False
    for alpha in sorted(P.positive):
        if fx.dot(alpha, z_q) < 0:
            i, j = root_entry(alpha)
            E = np.zeros((4, 4))
            E[i, j] = 1.0
            v += 0.8 * (E + rz_group.sigma_alg(E))
            hit = True
    assert hit
    m = expm(v)
    nu, nh = factor_nilpotent(rz_group, m, P)
    assert np.array_equal(nu, np.eye(4))
    assert np.abs(nh - m).max() < 1e-14
    # and a pure unipotent-side factor comes back with trivial H part
    u = np.zeros((4, 4))
    for alpha in sorted(P.positive):
        if fx.dot(alpha, z_q) > 0:
            i, j = root_entry(alpha)
            u[i, j] = 0.6
    mu = expm(u)
    nu2, nh2 = factor_nilpotent(rz_group, mu, P)
    assert np.array_equal(nh2, np.eye(4))
    assert np.abs(nu2 - mu).max() < 1e-14


def test_gk_sample_membership(rz_sl3):
    from orbitcone.polyhedra import gk_cone
    systems = all_positive_systems(rz_sl3.datum)
    rng = np.random.Generator(np.random.PCG64(3))
    for P in systems[:3]:
        for Q in systems[:3]:
            inter = sorted(Q.positive & P.negative)
            Z = np.zeros((3, 3))
            for alpha in inter:
                i, j = root_entry(alpha)
                Z[i, j] = rng.normal()
            H = iwasawa(rz_sl3, expm(Z), P)
            assert contains(gk_cone(P, Q), H, tol=1e-9)


def test_ek_projection_properties(rz_sl3):
    rng = np.random.Generator(np.random.PCG64(7))
    for P in all_positive_systems(rz_sl3.datum):
        V = rng.normal(size=(6, 3, 3))
        K = ek_projection(V, P)
        # the k part is antisymmetric and the difference is upper triangular
        assert np.abs(K + np.swapaxes(K, -1, -2)).max() < 1e-12
        w = np.eye(3)[:, np.array(P.perm)]
        rest = w.T @ (V - K) @ w
        assert np.abs(np.tril(rest, -1)).max() < 1e-12
        # idempotent on its image
        assert np.abs(ek_projection(K, P) - K).max() < 1e-12


def test_weyl_rep_lookup(rz_sl3):
    assert set(rz_sl3.weyl_reps) == set(rz_sl3.small_weyl)
    for w in rz_sl3.small_weyl:
        xw = weyl_rep(rz_sl3, w)
        assert np.abs(xw.T @ xw - np.eye(3)).max() < 1e-12


def test_default_z_q_properties(rz):
    for P in all_positive_systems(rz.datum):
        z_q = default_z_q(rz, P)
        d = rz.datum
        assert d.pr_q(z_q) == z_q
        for alpha in P.classification.sigmatheta_part:
            assert fx.dot(alpha, z_q) > 0
