"""Claims of the paper that the tests check and no check of the package
reads: the properness of a projection on a cone, the restricted-coroot
cone Upsilon(P), which equals Gamma(P) on q-extreme systems, and the
factorization of N_P as N_+ (N_P intersect H) with its unipotent log and
splitting element.  ``feasible`` is the exact LP feasibility they and the
membership oracle of the tests rest on.  ``exp_nilpotent``, the finite
exponential series, is the factorization's exponential; the tests hold
``reference.exp_span_dense`` on nilpotent spans to its bits."""
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

import reference as fx
from orbitcone import exactlin as ex
from orbitcone.matrixgrp import Realization, root_entry, root_matrix
from orbitcone.parabolic import PositiveSystem, is_q_extreme
from orbitcone.polyhedra import Polyhedron, cone
from orbitcone.rootsys import coroot, restricted_roots


class NotQExtreme(ValueError):
    pass


class NotInNP(ValueError):
    pass


class NotUnipotent(ValueError):
    pass


def _lp_solve(A: Sequence, b, c=None):
    """exactlin.lp_solve of rows of rationals."""
    return ex.lp_solve([ex.exact(row) for row in A], ex.exact(b),
                       None if c is None else ex.exact(c))


def feasible(A: Sequence, b) -> bool:
    """Exact feasibility of {A x = b, x >= 0}."""
    return _lp_solve(A, b)[0] == ex.OPTIMAL


def proper_on_cone(p, c: Polyhedron) -> bool:
    """ker p meets the cone c only at 0."""
    gens = [fx.vec(g) for g in c.generators if not fx.is_zero(g)]
    if not gens:
        return True
    p = fx.mat(p)
    n, m = len(gens[0]), len(gens)
    pg = [fx.mat_vec(p, g) for g in gens]
    # K = {nu >= 0, sum nu = 1, (p g) nu = 0}; proper iff G nu = 0 on all of K
    A = [tuple(v[i] for v in pg) for i in range(len(pg[0]))]
    A.append(tuple([Fraction(1)] * m))
    b = tuple([Fraction(0)] * len(pg[0]) + [Fraction(1)])
    if not feasible(A, b):
        return True
    for i in range(n):
        c = tuple(g[i] for g in gens)
        for sign in (1, -1):
            status, _, val = _lp_solve(A, b, fx.scale(sign, c))
            if status == ex.OPTIMAL and val > 0:
                return False
    return True


def upsilon_cone(P: PositiveSystem) -> Polyhedron:
    """Restricted-coroot cone over Delta^+_-; q-extreme systems only.  It
    equals gamma_cone(P) there, which the tests check exactly both ways."""
    if not is_q_extreme(P):
        raise NotQExtreme("upsilon cone needs a q-extreme positive system")
    d = P.datum
    rest = restricted_roots(d)
    delta_plus = {d.restrict(a) for a in P.classification.sigmatheta_part}
    delta_plus.discard(ex.zeros(len(d.gram.num)))
    delta_minus = sorted(lam for lam in delta_plus if lam in rest.minus_set)
    return cone([coroot(lam, d.gram) for lam in delta_minus], len(d.gram.num))


# --- unipotent factorizations ----------------------------------------------

def exp_nilpotent(N) -> np.ndarray:
    """Finite exponential series I + N + ... + N^(n-1)/(n-1)! for (..., n, n)
    input N; exact for nilpotent N.  Raises NotUnipotent when N^n is not
    negligible."""
    N = np.asarray(N, dtype=float)
    n = N.shape[-1]
    power, out = N, np.eye(n) + N
    for k in range(2, n):
        power = power @ N
        out = out + power / math.factorial(k)
    with np.errstate(over="ignore"):
        tail = np.abs(power @ N).max() > 1e-9 * (1.0 + np.abs(N).max() ** n)
    if tail:
        raise NotUnipotent("series argument is not nilpotent")
    return out


def unipotent_log(rz: Realization, m) -> np.ndarray:
    """Finite Mercator series in M = m - I, M - M^2/2 + ... for (..., n, n)
    input; exact for unipotent m.  Raises NotUnipotent when M^n is not
    negligible."""
    M = np.asarray(m, dtype=float) - np.eye(rz.dim)
    n = M.shape[-1]
    power, out = M, M
    for k in range(2, n):
        power = power @ M
        out = out + ((-1) ** (k + 1) / k) * power
    with np.errstate(over="ignore"):
        tail = np.abs(power @ M).max() > 1e-9 * (1.0 + np.abs(M).max() ** n)
    if tail:
        raise NotUnipotent("series argument is not nilpotent")
    return out


def _support_mask(rz: Realization, alphas) -> np.ndarray:
    mask = np.zeros((rz.dim, rz.dim), dtype=bool)
    for a in alphas:
        mask[root_entry(a)] = True
    return mask


def default_z_q(rz: Realization, P: PositiveSystem | None = None) -> ex.Exact:
    """Exact element of a_q, positive on Sigma(P, sigma-theta) and regular."""
    P = P if P is not None else rz.base_parabolic
    d = rz.datum
    pos = sorted(P.positive)
    st_part = P.classification.sigmatheta_part
    for prime in (97, 991, 9973, 99991):
        z_p = fx.combination([Fraction(prime + k, prime) for k in range(len(pos))],
                             pos, rz.dim)
        if any(fx.dot(a, z_p) <= 0 for a in pos):
            continue
        z_q = fx.sub(z_p, fx.mat_vec(d.sigma_on_a, z_p))
        if any(fx.dot(a, z_q) <= 0 for a in st_part):
            continue
        if any(fx.dot(a, z_q) == 0 and not d.in_ah_star(a) for a in d.roots):
            continue
        return ex.exact(z_q)
    raise ArithmeticError("no valid splitting element found")


def _split_ops(rz: Realization, P: PositiveSystem, z_q):
    """Linear maps (flattened) sending supported log matrices to (u, v) parts."""
    n = rz.dim
    U_op = np.zeros((n * n, n * n))
    V_op = np.zeros((n * n, n * n))
    for alpha in sorted(P.positive):
        i, j = root_entry(alpha)
        col = i * n + j
        E = root_matrix(n, alpha)
        sgn = fx.dot(alpha, z_q)
        if sgn > 0:
            U_op[col, col] = 1.0
        elif sgn == 0:
            V_op[:, col] = E.reshape(-1)        # root space already inside h
        else:
            sE = rz.sigma_alg(E)
            V_op[:, col] = (E + sE).reshape(-1)
            U_op[:, col] = (-sE).reshape(-1)
    return U_op, V_op


def factor_nilpotent(rz: Realization, m, P: PositiveSystem | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Split n in N_P as n_plus * n_H; accepts stacked input (..., n, n)."""
    P = P if P is not None else rz.base_parabolic
    m = np.asarray(m, dtype=float)
    L = unipotent_log(rz, m)
    mask = _support_mask(rz, P.positive)
    off = np.abs(np.where(mask, 0.0, L)).max()
    if off > 1e-9 * (1.0 + np.abs(L).max()):
        raise NotInNP("log is not supported on the positive root spaces")
    U_op, V_op = _split_ops(rz, P, default_z_q(rz, P))
    n = rz.dim
    flat = L.reshape(L.shape[:-2] + (n * n,))
    u = (flat @ U_op.T).reshape(L.shape)
    v = (flat @ V_op.T).reshape(L.shape)
    tol = 1e-14 * (1.0 + np.abs(L).max())
    for _ in range(80):
        resid = unipotent_log(rz, exp_nilpotent(u) @ exp_nilpotent(v)) - L
        if np.abs(resid).max() <= tol:
            break
        rflat = resid.reshape(L.shape[:-2] + (n * n,))
        u = u - (rflat @ U_op.T).reshape(L.shape)
        v = v - (rflat @ V_op.T).reshape(L.shape)
    else:
        raise ArithmeticError("nilpotent factorization did not converge")
    return exp_nilpotent(u), exp_nilpotent(v)


