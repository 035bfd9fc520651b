"""Matrix models of the symmetric pairs and their Iwasawa machinery.

Four presets are shipped: a compact-subgroup case inside SL(2,R), the split
pairs (SL(2,R), SO(1,1)) and (SL(3,R), SO(2,1)), and the doubled group case
realized block-diagonally in SL(4,R).  The Cartan involution is always
Y -> -Y^T; the second involution is either Y -> -J Y^T J for a signature
matrix J or conjugation by the block swap.

The Iwasawa log comes from one QR kernel for the upper-triangular base
system; every other positive system is conjugated into it by an index
permutation.
Exponentials of nilpotent matrices are the finite series ``exp_nilpotent``.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg import expm

from . import exactlin as ex
from .exactlin import Mat, Vec
from .parabolic import PositiveSystem, from_chamber
from .rootsys import (SymmetricPairDatum, build_pair_datum, reflection_matrix,
                      restricted_roots, weyl_group)

class SingularInput(ValueError):
    pass


class NotUnipotent(ValueError):
    pass


class NotInNP(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Realization:
    name: str
    dim: int
    kappa: int                       # B(Y,Z) = kappa * tr(YZ)
    datum: SymmetricPairDatum
    kind: str                        # "J": sigma(Y) = -J Y^T J; "S": sigma(Y) = S Y S
    inv_np: np.ndarray
    h_basis: tuple[np.ndarray, ...]
    z_reps: tuple[np.ndarray, ...]
    weyl_gen_reps: tuple[tuple[Mat, np.ndarray], ...]

    def sigma_alg(self, Y: np.ndarray) -> np.ndarray:
        if self.kind == "J":
            return -self.inv_np @ np.swapaxes(Y, -1, -2) @ self.inv_np
        return self.inv_np @ Y @ self.inv_np

    def pi_h(self, Y: np.ndarray) -> np.ndarray:
        return 0.5 * (Y + self.sigma_alg(Y))

    @cached_property
    def base_parabolic(self) -> PositiveSystem:
        cham = tuple(Fraction(self.dim - i) for i in range(self.dim))
        return from_chamber(self.datum, cham)

    @cached_property
    def restricted(self):
        return restricted_roots(self.datum)

    @cached_property
    def small_weyl(self):
        """Reflection group of the restricted roots carrying a plus space."""
        gens = frozenset(self.restricted.plus_set)
        return weyl_group(gens if gens else frozenset(), self.datum.gram)

    @cached_property
    def weyl_reps(self) -> dict[Mat, np.ndarray]:
        n = self.dim
        ident = ex.identity(n)
        reps = {ident: np.eye(n)}
        frontier = [ident]
        while frontier:
            nxt = []
            for w in frontier:
                for gen, gen_rep in self.weyl_gen_reps:
                    prod = ex.mat_mul(gen, w)
                    if prod not in reps:
                        reps[prod] = gen_rep @ reps[w]
                        nxt.append(prod)
            frontier = nxt
        missing = [w for w in self.small_weyl.elements if w not in reps]
        if missing:
            raise RuntimeError("Weyl representatives do not cover the reflection group")
        return reps

    @cached_property
    def q_proj_np(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.datum.q_projector])


def a_matrix(v) -> np.ndarray:
    """Diagonal matrix of an ambient coordinate vector; batched over v."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape + (v.shape[-1],))
    idx = np.arange(v.shape[-1])
    out[..., idx, idx] = v
    return out


def root_entry(alpha: Vec) -> tuple[int, int]:
    """Matrix position (i, j) of the root space for alpha = e_i - e_j."""
    i = j = None
    for k, c in enumerate(alpha):
        if c == 1:
            i = k
        elif c == -1:
            j = k
        elif c != 0:
            raise ValueError("root is not of the form e_i - e_j")
    if i is None or j is None:
        raise ValueError("root is not of the form e_i - e_j")
    return i, j


def root_matrix(n: int, alpha: Vec) -> np.ndarray:
    """Unit matrix spanning the root space of alpha = e_i - e_j."""
    E = np.zeros((n, n))
    E[root_entry(alpha)] = 1.0
    return E


# --- preset registry -------------------------------------------------------

def _diag_frac(vals) -> Mat:
    n = len(vals)
    return tuple(tuple(Fraction(vals[i]) if i == j else Fraction(0)
                       for j in range(n)) for i in range(n))


def _gl_roots(n, pairs=None):
    out = []
    rng = pairs if pairs is not None else [(i, j) for i in range(n) for j in range(n) if i != j]
    for i, j in rng:
        v = [Fraction(0)] * n
        v[i], v[j] = Fraction(1), Fraction(-1)
        out.append(tuple(v))
    return out


def _pair_datum(roots, kappa: int, sigma_on_a: Mat, mult) -> SymmetricPairDatum:
    """The datum with Gram matrix kappa * I: B(Y, Z) = kappa tr(YZ) on the
    diagonal matrices."""
    return build_pair_datum(roots, _diag_frac([kappa] * len(roots[0])),
                            sigma_on_a, mult)


def _rot90():
    return np.array([[0.0, -1.0], [1.0, 0.0]])


def _build_kostant_sl2() -> Realization:
    roots = _gl_roots(2)
    sig = _diag_frac([-1, -1])
    mult = {r: (1, 1, 0) for r in roots}
    datum = _pair_datum(roots, 4, sig, mult)
    lam = roots[0]
    gen = reflection_matrix(lam, datum.gram)
    return Realization(
        name="kostant_sl2", dim=2, kappa=4, datum=datum,
        kind="J", inv_np=np.eye(2),
        h_basis=(np.array([[0.0, -1.0], [1.0, 0.0]]),),
        z_reps=(np.eye(2), -np.eye(2)),
        weyl_gen_reps=((gen, _rot90()),))


def _build_sl2_so11() -> Realization:
    roots = _gl_roots(2)
    sig = _diag_frac([-1, -1])
    mult = {r: (1, 0, 1) for r in roots}
    datum = _pair_datum(roots, 4, sig, mult)
    return Realization(
        name="sl2_so11", dim=2, kappa=4, datum=datum,
        kind="J", inv_np=np.diag([1.0, -1.0]),
        h_basis=(np.array([[0.0, 1.0], [1.0, 0.0]]),),
        z_reps=(np.eye(2), -np.eye(2)),
        weyl_gen_reps=())


def _build_sl3_so21() -> Realization:
    roots = _gl_roots(3)
    sig = _diag_frac([-1, -1, -1])
    mult = {}
    for r in roots:
        fixed_pair = r[2] == 0           # +-(e1 - e2) stays inside so(2) x so(1)
        mult[r] = (1, 1, 0) if fixed_pair else (1, 0, 1)
    datum = _pair_datum(roots, 6, sig, mult)
    lam = next(r for r in roots if r[0] == 1 and r[1] == -1)
    gen = reflection_matrix(lam, datum.gram)
    s12 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    zs = (np.diag([1.0, 1.0, 1.0]), np.diag([-1.0, -1.0, 1.0]),
          np.diag([-1.0, 1.0, -1.0]), np.diag([1.0, -1.0, -1.0]))
    return Realization(
        name="sl3_so21", dim=3, kappa=6, datum=datum,
        kind="J", inv_np=np.diag([1.0, 1.0, -1.0]),
        h_basis=(np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
                 np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
                 np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])),
        z_reps=zs,
        weyl_gen_reps=((gen, s12),))


def _build_group_sl2() -> Realization:
    roots = _gl_roots(4, pairs=[(0, 1), (1, 0), (2, 3), (3, 2)])
    swap = tuple(tuple(Fraction(1) if (i + 2) % 4 == j else Fraction(0)
                       for j in range(4)) for i in range(4))
    mult = {r: (1, None, None) for r in roots}
    datum = _pair_datum(roots, 4, swap, mult)
    rest = restricted_roots(datum)
    lam = max(rest.plus_set)
    gen = reflection_matrix(lam, datum.gram)
    rot2 = np.zeros((4, 4))
    rot2[:2, :2] = _rot90()
    rot2[2:, 2:] = _rot90()
    S = np.zeros((4, 4))
    S[:2, 2:] = np.eye(2)
    S[2:, :2] = np.eye(2)
    e = np.zeros((4, 4))
    e[0, 1] = e[2, 3] = 1.0
    f = e.T.copy()
    return Realization(
        name="group_sl2", dim=4, kappa=4, datum=datum,
        kind="S", inv_np=S,
        h_basis=(np.diag([1.0, -1.0, 1.0, -1.0]), e, f),
        z_reps=(np.eye(4), -np.eye(4)),
        weyl_gen_reps=((gen, rot2),))


PRESETS = {
    "kostant_sl2": _build_kostant_sl2,
    "sl2_so11": _build_sl2_so11,
    "sl3_so21": _build_sl3_so21,
    "group_sl2": _build_group_sl2,
}


@lru_cache(maxsize=None)
def realization(name: str) -> Realization:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return PRESETS[name]()


# --- permutation bookkeeping -----------------------------------------------

_PERM_CACHE: dict[tuple[str, tuple], np.ndarray] = {}


def chamber_perm(rz: Realization, P: PositiveSystem) -> np.ndarray:
    """Index permutation p such that the permutation matrix w with
    w[p[c], c] = 1 maps Sigma(base) onto Sigma(P)."""
    key = (rz.name, P.key())
    if key not in _PERM_CACHE:
        base_pos = rz.base_parabolic.positive
        for perm in itertools.permutations(range(rz.dim)):
            moved = frozenset(tuple(a[perm.index(r)] for r in range(rz.dim))
                              for a in base_pos)
            if moved == P.positive:
                _PERM_CACHE[key] = np.array(perm)
                break
        else:
            raise ValueError("positive system is not a coordinate permutation "
                             "of the base")
    return _PERM_CACHE[key]


def _base_perm(rz: Realization, P: PositiveSystem | None) -> np.ndarray | None:
    """chamber_perm of P, or None when P is the base system."""
    if P is None or P.positive == rz.base_parabolic.positive:
        return None
    return chamber_perm(rz, P)


def _conjugate(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """w^T x w for the permutation matrix w with w[p[c], c] = 1; batched."""
    return x[..., p, :][..., :, p]


# --- Iwasawa decomposition -------------------------------------------------

def iwasawa(rz: Realization, g, P: PositiveSystem | None = None) -> np.ndarray:
    """Iwasawa log H of g = k exp(H) n with n in N_P, in ambient diagonal
    coordinates; accepts stacked input (..., n, n).  g is conjugated into the
    base system by chamber_perm, and H is log|diag R| of its QR."""
    g = np.asarray(g, dtype=float)
    if not np.all(np.isfinite(g)):
        raise SingularInput("input matrix has non-finite entries")
    perm = _base_perm(rz, P)
    if perm is not None:
        g = _conjugate(g, perm)
    d = np.abs(np.diagonal(np.linalg.qr(g, mode="r"), axis1=-2, axis2=-1))
    if np.min(d) < 1e-250:
        raise SingularInput("matrix is numerically singular")
    H = np.log(d)
    return H if perm is None else H[..., np.argsort(perm)]


def h_pq(rz: Realization, g, P: PositiveSystem | None = None) -> np.ndarray:
    """Projection of the Iwasawa log onto a_q, ambient coordinates."""
    return iwasawa(rz, g, P) @ rz.q_proj_np.T


# --- sampling --------------------------------------------------------------

def sample_span(rz: Realization, basis: np.ndarray, radius: float, count: int,
                seed) -> np.ndarray:
    """Draw count elements z * exp(Y): Y Gaussian in the span of basis (k, n, n)
    clipped to |Y| <= radius, z a uniform center component.  No Gaussian is
    drawn when the span is zero.  seed is anything np.random.default_rng
    takes; an int gives the stream of PCG64(seed)."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    rng = np.random.default_rng(seed)
    if len(basis):
        coef = rng.normal(0.0, radius / 2.0, size=(count, len(basis)))
        Y = np.einsum("cd,dij->cij", coef, basis)
        norms = np.sqrt(np.sum(Y * Y, axis=(-2, -1)))
        scale = np.where(norms > radius, radius / np.maximum(norms, 1e-300), 1.0)
        Y = Y * scale[:, None, None]
    else:
        Y = np.zeros((count, rz.dim, rz.dim))
    zs = np.stack(rz.z_reps)[rng.integers(0, len(rz.z_reps), size=count)]
    return zs @ expm(Y)     # Y is not nilpotent in general


def sample_H(rz: Realization, radius: float, count: int, seed) -> np.ndarray:
    """Draw count elements z * exp(Y), Y Gaussian in h clipped to |Y| <= radius."""
    return sample_span(rz, np.stack(rz.h_basis), radius, count, seed)


# --- unipotent factorizations ----------------------------------------------

def _nilpotent_series(N: np.ndarray, start: np.ndarray, term) -> np.ndarray:
    """start + sum of term(k, N^k) over 2 <= k < n for (..., n, n) input N;
    exact when N is nilpotent.  Raises NotUnipotent when N^n is not
    negligible."""
    n = N.shape[-1]
    power, out = N, start
    for k in range(2, n):
        power = power @ N
        out = out + term(k, power)
    if np.abs(power @ N).max() > 1e-9 * (1.0 + np.abs(N).max() ** n):
        raise NotUnipotent("series argument is not nilpotent")
    return out


def exp_nilpotent(N) -> np.ndarray:
    """Finite exponential series; exact for nilpotent input, batched."""
    N = np.asarray(N, dtype=float)
    return _nilpotent_series(N, np.eye(N.shape[-1]) + N,
                             lambda k, power: power / math.factorial(k))


def unipotent_log(rz: Realization, m) -> np.ndarray:
    """Finite Mercator series in m - I; exact for unipotent input, batched."""
    M = np.asarray(m, dtype=float) - np.eye(rz.dim)
    return _nilpotent_series(M, M, lambda k, power: ((-1) ** (k + 1) / k) * power)


def sample_unipotent(basis: np.ndarray, radius: float, count: int, seed
                     ) -> np.ndarray:
    """Draw count elements exp(Y), Y = sum_k c_k basis[k] over nilpotent
    matrices basis (k, n, n), the c_k Gaussian with deviation radius / 2;
    seed as in sample_span."""
    coef = np.random.default_rng(seed).normal(0.0, radius / 2.0,
                                              size=(count, len(basis)))
    return exp_nilpotent(np.einsum("ck,kij->cij", coef, basis))


def _support_mask(rz: Realization, alphas) -> np.ndarray:
    mask = np.zeros((rz.dim, rz.dim), dtype=bool)
    for a in alphas:
        mask[root_entry(a)] = True
    return mask


def default_z_q(rz: Realization, P: PositiveSystem | None = None) -> Vec:
    """Exact element of a_q, positive on Sigma(P, sigma-theta) and regular."""
    P = P if P is not None else rz.base_parabolic
    d = rz.datum
    pos = sorted(P.positive)
    st_part = P.classification.sigmatheta_part
    for prime in (97, 991, 9973, 99991):
        z_p = ex.combination([Fraction(prime + k, prime) for k in range(len(pos))],
                             pos, rz.dim)
        if any(ex.dot(a, z_p) <= 0 for a in pos):
            continue
        z_q = ex.sub(z_p, ex.mat_vec(d.sigma_on_a, z_p))
        if any(ex.dot(a, z_q) <= 0 for a in st_part):
            continue
        if any(ex.dot(a, z_q) == 0 and not d.in_ah_star(a) for a in d.roots):
            continue
        return z_q
    raise ArithmeticError("no valid splitting element found")


def _split_ops(rz: Realization, P: PositiveSystem, z_q: Vec):
    """Linear maps (flattened) sending supported log matrices to (u, v) parts."""
    n = rz.dim
    U_op = np.zeros((n * n, n * n))
    V_op = np.zeros((n * n, n * n))
    for alpha in sorted(P.positive):
        i, j = root_entry(alpha)
        col = i * n + j
        E = root_matrix(n, alpha)
        sgn = ex.dot(alpha, z_q)
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


# --- Lie-algebra projections used by the Hessian layer ---------------------

def ek_projection(rz: Realization, V, P: PositiveSystem | None = None) -> np.ndarray:
    """Component in k of the decomposition g = k + a + n_P; batched."""
    V = np.asarray(V, dtype=float)
    perm = _base_perm(rz, P)
    low = np.tril(V if perm is None else _conjugate(V, perm), -1)
    k0 = low - np.swapaxes(low, -1, -2)
    return k0 if perm is None else _conjugate(k0, np.argsort(perm))
