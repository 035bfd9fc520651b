from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from orbitcone import exactlin as ex
from orbitcone.critical import nph_basis
from orbitcone.matrixgrp import (NotInNP, NotUnipotent, Realization,
                                 SingularInput, a_matrix, chamber_perm,
                                 default_z_q, ek_projection, exp_nilpotent,
                                 factor_nilpotent, h_pq, iwasawa, realization,
                                 root_entry, root_matrix, sample_H,
                                 unipotent_log)
from orbitcone.parabolic import all_positive_systems

from iwasawa_reference import iwasawa_by_matmul
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
        assert np.array_equal(iwasawa(rz, g, P), H)
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
            assert np.array_equal(iwasawa(rz, x, P), H)
            assert np.array_equal(h_pq(rz, x, P), H @ rz.q_proj_np.T)


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
