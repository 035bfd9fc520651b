import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from orbitcone import exactlin as ex
from orbitcone.critical import nph_basis
from orbitcone.harness import _DEFAULT_A_LOG
from orbitcone.matrixgrp import (BLOCK, NotCubic, NotInNP, NotUnipotent,
                                 Realization, SingularInput, _clip, a_matrix,
                                 chamber_perm, default_z_q, ek_projection,
                                 exp_h, exp_nilpotent, factor_nilpotent, h_pq,
                                 iwasawa, realization, root_entry, root_matrix,
                                 sample_H, unipotent_log)
from orbitcone.parabolic import all_positive_systems

from iwasawa_reference import iwasawa_by_matmul, iwasawa_exact
from reference import contains, sigma_grp


def _np_vec(v) -> np.ndarray:
    return np.array([float(x) for x in v])


def _np_mat(m) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in m])


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
    for w, xw in rz.weyl_reps.items():
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
    assert root_entry((Fraction(1), Fraction(0), Fraction(-1))) == (0, 2)
    assert root_entry((Fraction(-1), Fraction(1), Fraction(0))) == (1, 0)


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
    H = iwasawa(rz_sl3, g)
    for i in range(7):
        assert np.abs(iwasawa(rz_sl3, g[i]) - H[i]).max() < 1e-12


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
    """On the 40 worst-conditioned of 2,000 main-check draws a h: within
    1e-13 of the exact H at radius 4, and no worse than LAPACK's QR at
    radius 12, where conditioning costs both about five digits."""
    rz = realization(preset)
    a = a_matrix(np.exp([float(c) for c in _DEFAULT_A_LOG[preset]]))
    for radius in (4.0, 12.0):
        g = a @ sample_H(rz, radius, 2000, seed=60)
        g = g[np.argsort(np.linalg.cond(g))[-40:]]
        exact = iwasawa_exact(g)
        err = np.abs(iwasawa(rz, g) - exact).max()
        err_qr = np.abs(iwasawa_by_matmul(rz, g, rz.base_parabolic)[1] - exact).max()
        assert err <= (1e-13 if radius == 4.0 else err_qr), (radius, err, err_qr)


def test_iwasawa_keeps_r22_on_row_graded_input(rz_so11):
    """a h with a = exp(-25, 25): R_22 ~ e^-25 / |h_21| lies far below
    eps |a h|, and LAPACK's QR rounds it to 0.  Gram-Schmidt with a second
    projection pass keeps it to working accuracy."""
    a = a_matrix(np.exp([-25.0, 25.0]))
    g = a @ sample_H(rz_so11, 4.0, 200, seed=61)
    assert np.abs(iwasawa(rz_so11, g) - iwasawa_exact(g)).max() <= 1e-12


@pytest.mark.parametrize("preset", ["sl3_so21", "group_sl2"])
def test_iwasawa_blocks_match_one_matrix_at_a_time(preset):
    rz = realization(preset)
    g = sample_H(rz, 3.0, 2 * BLOCK + 3, seed=62)
    for P in (None, all_positive_systems(rz.datum)[-1]):
        batch = iwasawa(rz, g, P)
        assert np.array_equal(batch, np.stack([iwasawa(rz, x, P) for x in g]))


@pytest.mark.filterwarnings("error")
def test_iwasawa_is_scale_free(rz):
    """H(s g) = H(g) + log s, also where s g leaves [1e-60, 1e60] and its
    block is done again scaled; the plain matrices in that block keep
    their bits."""
    rng = np.random.Generator(np.random.PCG64(63))
    g = expm(0.4 * rng.normal(size=(6, rz.dim, rz.dim)))
    H = iwasawa(rz, g)
    for s in (1e-200, 1e-70, 1e70, 1e200):
        scaled = iwasawa(rz, np.concatenate([s * g, g]))
        assert np.abs(scaled[:6] - (H + np.log(s))).max() <= 1e-13
        assert np.array_equal(scaled[6:], H)


def test_iwasawa_rejects_bad_input(rz_sl3):
    P = all_positive_systems(rz_sl3.datum)[-1]
    bad = np.eye(3)
    bad[1, 2] = np.nan
    singular = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 1.0], [3.0, 0.0, 1.0]])
    for x in (bad, singular, np.stack([np.eye(3), singular])):
        for Q in (None, P):
            with pytest.raises(SingularInput):
                iwasawa(rz_sl3, x, Q)


def test_exp_nilpotent_matches_expm_on_triangular_batches():
    rng = np.random.Generator(np.random.PCG64(40))
    for n in (3, 4):
        N = np.triu(rng.normal(size=(500, n, n)), 1)
        assert np.abs(exp_nilpotent(N) - expm(N)).max() < 1e-14
        assert np.abs(exp_nilpotent(N[0]) - expm(N[0])).max() < 1e-14


def test_exp_nilpotent_matches_expm_on_the_checked_supports(rz):
    """The sigma-fixed nilpotent radicals sampled by sample_NPH and the
    N_Q cap bar-N_P supports of the gk check, at the scales they use."""
    rng = np.random.Generator(np.random.PCG64(41))
    systems = all_positive_systems(rz.datum)
    bases = []
    for P in systems:
        bases.append(nph_basis(rz, P))
        for Q in systems:
            bases.append([root_matrix(rz.dim, a)
                          for a in sorted(Q.positive & P.negative)])
    bases = [np.stack(b) for b in bases if len(b)]
    assert bases
    for B in bases:
        Y = np.einsum("ck,kij->cij", rng.normal(0.0, 2.0, size=(100, len(B))), B)
        assert np.abs(exp_nilpotent(Y) - expm(Y)).max() < 1e-14


def test_exp_nilpotent_is_exact_at_zero_and_rejects_non_nilpotent():
    for n in (2, 3, 4):
        assert np.array_equal(exp_nilpotent(np.zeros((n, n))), np.eye(n))
        assert np.array_equal(exp_nilpotent(np.zeros((5, n, n))),
                              np.broadcast_to(np.eye(n), (5, n, n)))
    with pytest.raises(NotUnipotent):
        exp_nilpotent(np.diag([1.0, -1.0, 0.0]))
    with pytest.raises(NotUnipotent):
        exp_nilpotent(np.stack([np.zeros((3, 3)), np.diag([1.0, -1.0, 0.0])]))


def _h_elements(rz: Realization, radius: float, count: int, seed: int
                ) -> np.ndarray:
    """count elements of h of Frobenius norm radius, in random directions."""
    basis = np.stack(rz.h_basis)
    coef = np.random.default_rng(seed).normal(size=(count, len(basis)))
    Y = np.einsum("ck,kij->cij", coef, basis)
    return radius * Y / np.sqrt(np.sum(Y * Y, axis=(-2, -1)))[:, None, None]


def _relative_deviation(A: np.ndarray, B: np.ndarray) -> float:
    """Largest entry of |A - B| over the largest entry of |B|, per matrix."""
    return float((np.abs(A - B).max(axis=(-2, -1))
                  / np.abs(B).max(axis=(-2, -1))).max())


@pytest.mark.parametrize("radius", [1e-3, 1.0, 2.0, 4.0, 8.0])
def test_exp_h_matches_expm_on_h(rz, radius):
    Y = _h_elements(rz, radius, 300, seed=43)
    assert _relative_deviation(exp_h(Y), expm(Y)) <= 1e-11
    assert _relative_deviation(exp_h(Y[0]), expm(Y[0])) <= 1e-11


def test_exp_h_on_compact_light_like_and_near_zero_c(rz_sl3, rz_group,
                                                      rz_kostant):
    rot, boost1, boost2 = rz_sl3.h_basis
    H, e, f = rz_group.h_basis
    cases = {
        "c < 0, so(2)": 3.0 * rot,
        "c < 0, kostant": 5.0 * rz_kostant.h_basis[0],
        "c = 0, so(2,1) light-like": rot + boost1,
        "c = 0, so(2,1) light-like, scaled": 2.5 * (rot - boost2),
        "c = 0, diagonal sl2 light-like": H + e - f,
        "c = 0, nilpotent e": 3.0 * e,
    }
    for s in (0.5e-3, 0.999e-3, 1e-3, 1.001e-3, 2e-3):
        cases[f"c = {s * s:.3g}"] = s * boost1
        cases[f"c = -{s * s:.3g}"] = s * rot
        cases[f"c = {s * s:.3g}, mixed"] = s * (rot + np.sqrt(2.0) * boost2)
    for label, Y in cases.items():
        assert _relative_deviation(exp_h(Y), expm(Y)) <= 1e-14, label
    # a light-like Y has Y^3 = 0, so exp Y = I + Y + Y^2/2 with no rounding
    for Y in (rot + boost1, H + e - f):
        assert np.array_equal(exp_h(Y), np.eye(len(Y)) + Y + Y @ Y / 2)


def test_exp_h_is_exact_on_zero_and_agrees_with_exp_nilpotent():
    for n in (2, 3, 4):
        assert np.array_equal(exp_h(np.zeros((n, n))), np.eye(n))
        assert np.array_equal(exp_h(np.zeros((5, n, n))),
                              np.broadcast_to(np.eye(n), (5, n, n)))
    assert exp_h(np.zeros((0, 3, 3))).shape == (0, 3, 3)
    N = np.triu(np.random.default_rng(44).normal(size=(100, 3, 3)), 1)
    assert np.array_equal(exp_h(N), exp_nilpotent(N))


@pytest.mark.filterwarnings("error")
def test_exp_h_of_a_huge_square_zero_matrix_is_one_plus_it():
    # there m^2 f2 overflows, and its product with U^2 = 0 once gave nan
    for n in (2, 3):
        N = np.zeros((n, n))
        N[0, n - 1] = 1e200
        assert np.array_equal(exp_h(N), np.eye(n) + N)
        assert np.array_equal(exp_h(np.stack([N, -N, np.zeros((n, n))])),
                              np.stack([np.eye(n) + N, np.eye(n) - N, np.eye(n)]))


def test_exp_h_rejects_matrices_outside_the_class():
    generic = np.random.default_rng(45).normal(size=(3, 3))
    with pytest.raises(NotCubic):
        exp_h(generic)
    # one bad matrix in a batch of good ones, and a small one
    with pytest.raises(NotCubic):
        exp_h(np.stack([np.zeros((3, 3)), 1e-3 * generic]))
    N = np.triu(np.ones((4, 4)), 1)          # N^3 != 0
    with pytest.raises(NotCubic):
        exp_h(N)


def test_exp_h_inverse_is_exp_h_of_minus(rz):
    for radius in (1.0, 4.0):
        Y = _h_elements(rz, radius, 200, seed=46)
        prod = exp_h(Y) @ exp_h(-Y)
        bound = 1e-14 * np.exp(2.0 * radius)
        assert np.abs(prod - np.eye(rz.dim)).max() <= bound


def test_exp_h_blocks_match_one_matrix_at_a_time(rz_sl3):
    Y = _h_elements(rz_sl3, 3.0, 2 * BLOCK + 1, seed=47)
    batch = exp_h(Y)
    assert np.array_equal(batch, np.stack([exp_h(y) for y in Y]))
    assert np.array_equal(exp_h(Y.reshape(3, -1, 3, 3)),
                          batch.reshape(3, -1, 3, 3))


def test_exp_h_memory_grows_by_the_output_only(rz_sl3):
    """Temporaries live one block at a time: the peak of twice the batch
    exceeds the smaller peak by the extra output, not by a few copies."""
    Y = _h_elements(rz_sl3, 4.0, 100_000, seed=48)
    peaks = []
    for k in (50_000, 100_000):
        tracemalloc.start()
        try:
            exp_h(Y[:k])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    extra_output = 50_000 * 9 * 8
    assert peaks[1] - peaks[0] <= 1.25 * extra_output


@pytest.mark.filterwarnings("error")
def test_exp_h_is_scale_free_far_below_one(rz):
    """c and the class test are formed on Y / max|Y|: on the raw entries
    <Y^3, Y> is subnormal at 1e-80 and zero at 1e-200."""
    basis = np.stack(rz.h_basis)
    mixed = np.einsum("cd,dij->cij",
                      np.random.default_rng(51).normal(size=(20, len(basis))), basis)
    for scale in (1e-59, 1e-61, 1e-80, 1e-120, 1e-200, 1e-300):
        for Y in (scale * basis, scale * mixed):
            E = exp_h(Y)
            assert _relative_deviation(E, expm(Y)) <= 1e-15, scale
            assert np.abs(E - np.eye(rz.dim)).max() <= 4.0 * scale


@pytest.mark.filterwarnings("error")
def test_exp_h_raises_singular_input_outside_double_range(rz):
    basis0 = rz.h_basis[0]
    for Y in (np.full_like(basis0, np.nan), np.where(basis0 != 0, np.inf, 0.0)):
        with pytest.raises(SingularInput):
            exp_h(np.stack([np.zeros_like(Y), Y]))
    # a hyperbolic element: a finite exponent, an exponential past double range
    hyperbolic = [b for b in rz.h_basis if np.abs(b @ b @ b - b).max() == 0]
    for b in hyperbolic:
        assert np.all(np.isfinite(exp_h(700.0 * b)))
        for big in (720.0, 1e100, 1e200, 1e300):
            with pytest.raises(SingularInput):
                exp_h(np.stack([b, big * b]))
    # a compact element: a rotation at every finite scale
    compact = [b for b in rz.h_basis if np.abs(b @ b @ b + b).max() == 0]
    for b in compact:
        for big in (1e70, 1e100, 1e300):
            E = exp_h(big * b)
            assert np.abs(E @ E.T - np.eye(rz.dim)).max() <= 1e-15


def test_clip_keeps_the_plain_norm_at_normal_radii(rz):
    lengths = np.array([0.5, 3.0, 1e-80, 40.0, 1e100])
    Y = _h_elements(rz, 1.0, len(lengths), seed=50) * lengths[:, None, None]
    for radius in (2.0, 1e-90, 1e120):
        plain = np.sqrt(np.sum(Y * Y, axis=(-2, -1)))
        expected = Y * np.where(plain > radius, radius / plain, 1.0)[:, None, None]
        assert np.array_equal(_clip(Y.copy(), radius), expected)


@pytest.mark.filterwarnings("error")
def test_sample_H_past_double_range_raises(rz):
    """A norm that overflowed once clipped every draw to zero, so that all
    samples were central and the main check passed vacuously."""
    for radius in (1e160, 1e200, 1e300):
        with pytest.raises(SingularInput):
            sample_H(rz, radius, 8, seed=3)


def test_exp_nilpotent_inverts_unipotent_log(rz_sl3):
    rng = np.random.Generator(np.random.PCG64(42))
    N = np.triu(rng.normal(size=(200, 3, 3)), 1)
    assert np.abs(unipotent_log(rz_sl3, exp_nilpotent(N)) - N).max() < 1e-14


def test_h_pq_is_projected_H(rz_group):
    rng = np.random.Generator(np.random.PCG64(8))
    g = expm(0.3 * rng.normal(size=(10, 4, 4)))
    pr = np.array([[float(c) for c in row]
                   for row in rz_group.datum.q_projector])
    assert np.abs(h_pq(rz_group, g) - iwasawa(rz_group, g) @ pr.T).max() < 1e-12


def test_sample_H_lands_in_H(rz):
    hs = sample_H(rz, 1.5, 64, seed=2)
    assert hs.shape == (64, rz.dim, rz.dim)
    assert np.abs(sigma_grp(rz, hs) - hs).max() < 1e-8
    assert np.array_equal(hs, sample_H(rz, 1.5, 64, seed=2))
    assert not np.array_equal(hs, sample_H(rz, 1.5, 64, seed=3))


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
        if ex.dot(alpha, z_q) < 0:
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
        if ex.dot(alpha, z_q) > 0:
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
        K = ek_projection(rz_sl3, V, P)
        # the k part is antisymmetric and the difference is upper triangular
        assert np.abs(K + np.swapaxes(K, -1, -2)).max() < 1e-12
        w = np.eye(3)[:, chamber_perm(rz_sl3, P)]
        rest = w.T @ (V - K) @ w
        assert np.abs(np.tril(rest, -1)).max() < 1e-12
        # idempotent on its image
        assert np.abs(ek_projection(rz_sl3, K, P) - K).max() < 1e-12


def test_weyl_rep_lookup(rz_sl3):
    assert set(rz_sl3.weyl_reps) == set(rz_sl3.small_weyl.elements)
    for w in rz_sl3.small_weyl.elements:
        xw = rz_sl3.weyl_reps[w]
        assert np.abs(xw.T @ xw - np.eye(3)).max() < 1e-12


def test_default_z_q_properties(rz):
    for P in all_positive_systems(rz.datum):
        z_q = default_z_q(rz, P)
        d = rz.datum
        assert d.pr_q(z_q) == z_q
        for alpha in P.classification.sigmatheta_part:
            assert ex.dot(alpha, z_q) > 0
