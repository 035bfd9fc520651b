from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from orbitcone import exactlin as ex
from orbitcone.critical import nph_basis
from orbitcone.matrixgrp import (NotInNP, NotInPH, NotUnipotent, Realization,
                                 SingularInput, a_matrix, chamber_perm,
                                 check_PH_split, default_z_q, ek_projection,
                                 exp_nilpotent, factor_nilpotent, gk_sample,
                                 h_pq, iwasawa, realization, root_entry,
                                 root_matrix, sample_H, unipotent_log,
                                 validate_realization, weyl_rep)
from orbitcone.parabolic import all_positive_systems, sigma_classification


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
        tri = iwasawa(rz, g, P)
        a = a_matrix(np.exp(tri.H))
        rec = tri.k @ a @ tri.n
        assert np.abs(rec - g).max() < 1e-10
        # k orthogonal, n unipotent with unit diagonal
        assert np.abs(np.swapaxes(tri.k, -1, -2) @ tri.k - np.eye(n)).max() < 1e-10
        assert np.abs(np.diagonal(tri.n, axis1=-2, axis2=-1) - 1.0).max() < 1e-10


def test_iwasawa_batch_matches_loop(rz_sl3):
    rng = np.random.Generator(np.random.PCG64(5))
    g = expm(0.4 * rng.normal(size=(7, 3, 3)))
    tri = iwasawa(rz_sl3, g)
    for i in range(7):
        ti = iwasawa(rz_sl3, g[i])
        assert np.abs(ti.H - tri.H[i]).max() < 1e-12


def _iwasawa_by_matmul(rz, g, P):
    """Reference K A N_P factorization: full QR, conjugated by permutation
    matrices, all three factors computed at once."""
    g = np.asarray(g, dtype=float)
    single = g.ndim == 2
    G = g[None] if single else g
    w = chamber_perm(rz, P)
    q, r = np.linalg.qr(w.T @ G @ w)
    s = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    q = q * s[..., None, :]
    r = r * s[..., :, None]
    dpos = np.diagonal(r, axis1=-2, axis2=-1)
    H, n = np.log(dpos) @ w.T, w @ (r / dpos[..., :, None]) @ w.T
    k = w @ q @ w.T
    return (k[0], H[0], n[0]) if single else (k, H, n)


def test_iwasawa_equals_the_matmul_reference(rz):
    rng = np.random.Generator(np.random.PCG64(31))
    n = rz.dim
    g = expm(0.5 * rng.normal(size=(25, n, n)))
    for P in all_positive_systems(rz.datum):
        for x in (g, g[3]):
            tri = iwasawa(rz, x, P)
            k, H, nn = _iwasawa_by_matmul(rz, x, P)
            assert np.array_equal(tri.H, H)
            assert np.array_equal(tri.k, k)
            assert np.array_equal(tri.n, nn)
            assert tri.k is tri.k and tri.n is tri.n
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
    tri = iwasawa(rz_group, g)
    pr = np.array([[float(c) for c in row]
                   for row in rz_group.datum.q_projector])
    assert np.abs(h_pq(rz_group, g) - tri.H @ pr.T).max() < 1e-12


def test_sample_H_lands_in_H(rz):
    hs = sample_H(rz, 1.5, 64, seed=2)
    assert hs.shape == (64, rz.dim, rz.dim)
    assert np.abs(rz.sigma_grp(hs) - hs).max() < 1e-8
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
        assert np.abs(rz.sigma_grp(nh) - nh).max() < 1e-10


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


def test_check_PH_split(rz_group):
    P = rz_group.base_parabolic
    # diagonal H-element times unipotent H-element
    lv = a_matrix(np.exp(np.array([0.3, -0.3, 0.3, -0.3])))
    z_q = default_z_q(rz_group, P)
    v = np.zeros((4, 4))
    for alpha in sorted(P.positive):
        if ex.dot(alpha, z_q) < 0:
            i, j = root_entry(alpha)
            E = np.zeros((4, 4))
            E[i, j] = 1.0
            v += 0.5 * (E + rz_group.sigma_alg(E))
    p = lv @ expm(v)
    l0, n0 = check_PH_split(rz_group, p, P)
    assert np.abs(l0 @ n0 - p).max() < 1e-12
    assert np.abs(np.diag(np.diagonal(l0)) - l0).max() == 0.0
    with pytest.raises(NotInPH):
        check_PH_split(rz_group, np.eye(4) + np.diag([1.0, 0.0, 0.0], -1), P)


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
            x = expm(Z)
            H = gk_sample(rz_sl3, P, Q, x)
            assert gk_cone(P, Q).contains(H, tol=1e-9)
    # off-support input is rejected
    P, Q = systems[0], systems[1]
    bad = np.eye(3)
    support = {root_entry(a) for a in Q.positive & P.negative}
    i, j = next(e for e in [(0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1)]
                if e not in support)
    bad[i, j] = 0.7
    with pytest.raises(NotInNP):
        gk_sample(rz_sl3, P, Q, bad)


def test_ek_projection_properties(rz_sl3):
    rng = np.random.Generator(np.random.PCG64(7))
    for P in all_positive_systems(rz_sl3.datum):
        V = rng.normal(size=(6, 3, 3))
        K = ek_projection(rz_sl3, V, P)
        # the k part is antisymmetric and the difference is upper triangular
        assert np.abs(K + np.swapaxes(K, -1, -2)).max() < 1e-12
        w = chamber_perm(rz_sl3, P)
        rest = w.T @ (V - K) @ w
        assert np.abs(np.tril(rest, -1)).max() < 1e-12
        # idempotent on its image
        assert np.abs(ek_projection(rz_sl3, K, P) - K).max() < 1e-12


def test_weyl_rep_lookup(rz_sl3):
    for w in rz_sl3.small_weyl.elements:
        xw = weyl_rep(rz_sl3, w)
        assert np.abs(xw.T @ xw - np.eye(3)).max() < 1e-12
    with pytest.raises(KeyError):
        weyl_rep(rz_sl3, ((Fraction(2), Fraction(0), Fraction(0)),
                          (Fraction(0), Fraction(1), Fraction(0)),
                          (Fraction(0), Fraction(0), Fraction(1))))


def test_default_z_q_properties(rz):
    for P in all_positive_systems(rz.datum):
        z_q = default_z_q(rz, P)
        d = rz.datum
        assert d.pr_q(z_q) == z_q
        for alpha in sigma_classification(P).sigmatheta_part:
            assert ex.dot(alpha, z_q) > 0
