"""Critical-point analysis of the test functionals h -> <X, log-part of ah>.

The combinatorial layer (critical values, predicted Hessian signature,
predicted critical image) is exact rational arithmetic; the numeric layer
(the functional and its finite-difference Hessians) runs on the matrix
models and is compared against it.

The Hessian and critical-image layers take a SampleStack of samples X, an
exact base point a_log and an explicit positive system P, and compute each
part once per value of what it depends on.  The stack keeps X on integer
rows and what depends on X alone: X in floats, its tie pattern {(i, j) :
X_i = X_j}, the signs of alpha(X) and G X, each from the integer rows; a
sample's Fractions are built only where they are read.  The
centralizer basis of X in h and the predicted Hessian kernel depend on X
only through its ties and are kept per tie pattern.  critical_value gives
the levels of a stack at every w.  x_w lies in K and normalises a, so
H(a x_w h) = H(a_w h), log a_w = weyl_image(rz, a_log, w): F and its
Hessians at x_w are taken at a_w.  The exponential of numeric_hessian's
stencil depends on the realization only.  The stencil's projected Iwasawa
logs, with a_w beside exp Z, analytic_hessian's transport and the signs
of alpha(w^{-1} a_log) depend on (realization, P, a_w) and are kept in a
_WeylPoint, made once for each; their pairing with the stack is one
batched pass per w.  A positive system is equal to, and hashed as, its
positive roots, so the memos key by P itself.
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
from .matrixgrp import (Draw, Realization, SingularInput, a_matrix,
                        ek_projection, h_pq, root_matrix, sample_span,
                        sample_unipotent)
from .parabolic import PositiveSystem
from .polyhedra import Polyhedron, gamma_aq, omega
from .rootsys import weyl_orbit

SV_TOL = 1e-7
FD_STEP = 2e-3      # finite-difference step of numeric_hessian
# numeric_hessian's stencil: the signs of (U_i, U_j) at its four corners,
# at each of its two steps
_SIGNS = np.array([(1, 1), (1, -1), (-1, 1), (-1, -1)], dtype=float)
_STEPS = np.array([FD_STEP, FD_STEP / 2])


class NotRegular(ValueError):
    pass


def _exact_vec(v) -> Vec:
    return tuple(Fraction(str(x)) if not isinstance(x, Fraction) else x for x in v)


def is_regular(rz: Realization, v: Vec) -> bool:
    """No restricted root vanishes on v."""
    return all(ex.dot(lam, v) != 0 for lam in rz.restricted.roots_q)


def ensure_in_aq(rz: Realization, a_log) -> Vec:
    """a_log as an exact vector; ValueError unless it lies in a_q =
    span(aq_basis), which pr_q alone does not decide off a = span(roots)."""
    a_log = _exact_vec(a_log)
    aq = rz.datum.aq_basis
    if len(ex.rref(aq + (a_log,))[0]) != len(aq):
        raise ValueError("base point must lie in a_q")
    return a_log


def ensure_regular(rz: Realization, a_log) -> Vec:
    a_log = ensure_in_aq(rz, a_log)
    if not is_regular(rz, a_log):
        raise NotRegular("a restricted root vanishes on the base point")
    return a_log


# --- scalar functional -----------------------------------------------------

def F(rz: Realization, a_log, X, h, P: PositiveSystem) -> np.ndarray:
    """<X, a_q-projection of the Iwasawa log of exp(a_log) h>; batched over
    h, and over X (m, n) for h a well-conditioned stack (k, n, n) or a Draw
    of k rows, giving shape (m, k); h goes to h_pq with a_log beside it."""
    return np.matmul(h_pq(rz, h, P, np.asarray(a_log, dtype=float)),
                     _dual(rz, X)[..., None])[..., 0]


def _dual(rz: Realization, X) -> np.ndarray:
    """G X in floats, batched over X: F is the projected Iwasawa log times
    this vector.  A stacked matmul makes one G x per X."""
    G = np.array([[float(x) for x in row] for row in rz.datum.gram])
    return np.matmul(G, np.asarray(X, dtype=float)[..., None])[..., 0]


@lru_cache(maxsize=None)
def weyl_image(rz: Realization, a_log: Vec, w: Mat) -> Vec:
    """w^{-1} a_log, exact, as the solution of w y = a_log; once per
    realization, base point and w.  For a_log in a_q it is the log of
    a_w = x_w^T a x_w, at which a x_w h is judged."""
    return tuple(row[-1] for row in ex.rref([r + (x,) for r, x in zip(w, a_log)])[0])


def critical_value(rz: Realization, a_log: Vec, xs: SampleStack, ws
                   ) -> list[list[Fraction]]:
    """<X, w^{-1} a_log> in the exact layer; a row per sample X, a column per
    w, on integer rows: one Fraction per level."""
    (num, den), (wlns, d) = xs.gram, ex.integer_rows([
        weyl_image(rz, a_log, w) for w in ws])
    return [[Fraction(v, d * e) for v in row] for row, e in zip(
        (num @ np.array(wlns, dtype=object).T).tolist(), den.tolist())]


# --- subspaces of h --------------------------------------------------------

def h_x_coords(rz: Realization, X) -> tuple[Vec, ...]:
    """Coordinates (over the h-basis) of a basis of the centralizer of X in h.

    [X, U][i, j] = (X_i - X_j) U[i, j]: the row space of the system, hence
    its RREF and the basis, depends on X only through the pattern of ties
    X_i = X_j, and the basis is cached on that pattern."""
    return _centralizer(rz, frozenset((i, j) for i, x in enumerate(X)
                                      for j, y in enumerate(X) if x == y))


def _centralizer_basis(rz: Realization, X) -> np.ndarray:
    """The basis of h_x_coords as matrices; shape (k, dim, dim)."""
    C = np.array([[float(c) for c in row] for row in h_x_coords(rz, X)])
    return np.einsum("kd,dij->kij", C.reshape(-1, len(rz.h_basis)),
                     np.stack(rz.h_basis))


@lru_cache(maxsize=None)
def _centralizer(rz: Realization, ties: frozenset) -> tuple[Vec, ...]:
    # the h-basis as integer rows: its floats are read exactly
    n, basis = rz.dim, [U.tolist() for U in rz.h_basis]
    return tuple(ex.nullspace(list(dict.fromkeys(map(tuple, ex.integer_rows(
        [[0 if (i, j) in ties else U[i][j] for U in basis]
         for i in range(n) for j in range(n)])[0])))))


def nph_basis(rz: Realization, P: PositiveSystem) -> tuple[np.ndarray, ...]:
    """Basis of the sigma-fixed part of the nilpotent radical."""
    out = []
    seen = set()
    for alpha in sorted(P.classification.sigma_part):
        if alpha in seen:
            continue
        sa = rz.datum.sigma_root(alpha)
        seen.add(alpha)
        seen.add(sa)
        E = root_matrix(rz.dim, alpha)
        sE = rz.sigma_alg(E)
        if sa == alpha:
            if np.abs(sE - E).max() < 1e-12:
                out.append(E)
            continue
        out.append(E + sE)
    return tuple(out)


# --- the stack of samples ---------------------------------------------------

@dataclass(frozen=True, eq=False)
class SampleStack:
    """Exact samples X in a_q as rows X_i = num[i] / den[i] of Python ints,
    den[i] > 0, and what the Hessian layer reads of X alone, each built on
    first use by the layer function that first needs it: floats, ties,
    signs and the integer rows of G X by array operations on num, the
    Fractions of X where read."""
    rz: Realization
    num: np.ndarray     # (m, dim), dtype object
    den: np.ndarray     # (m,), dtype object

    @classmethod
    def of(cls, rz: Realization, Xs) -> SampleStack:
        """The stack of the samples Xs, rows of Fractions or ints."""
        return cls.on_basis(rz, [[x.as_integer_ratio() for x in X] for X in Xs])

    @classmethod
    def on_basis(cls, rz: Realization, ratios, basis=None) -> SampleStack:
        """X = sum_k (p_k / q_k) basis_k, q_k > 0, for the rows of pairs
        (p_k, q_k) of ratios; X = (p_k / q_k)_k without a basis."""
        pq = np.array(ratios, dtype=object).reshape(len(ratios), -1, 2)
        if basis is not None:
            # basis_k = B.num[k] / B.den[k]: B.den[k] joins q_k
            B = cls.of(rz, basis)
            pq[..., 1] *= B.den
        den = np.lcm.reduce(pq[..., 1], axis=1)
        num = pq[..., 0] * (den[:, None] // pq[..., 1])
        return cls(rz, num if basis is None else num @ B.num, den)

    def exact(self, i: int) -> Vec:
        """Sample i as Fractions."""
        return tuple(Fraction(n, self.den[i]) for n in self.num[i])

    @cached_property
    def floats(self) -> np.ndarray:
        # the true division of Python ints rounds as float(Fraction) does
        return (self.num / self.den[:, None]).astype(float)

    @cached_property
    def gram(self) -> tuple[np.ndarray, np.ndarray]:
        """G X per sample as integer rows over one denominator each, (num,
        den) with G X_i = num[i] / den[i], from the integer rows of G and X."""
        G, d = ex.integer_rows(self.rz.datum.gram)
        return self.num @ np.array(G, dtype=object).T, self.den * d

    @cached_property
    def ties(self) -> tuple[frozenset, ...]:
        """The tie pattern {(i, j) : X_i = X_j} of each sample, from equal
        numerators; one frozenset per distinct pattern."""
        n = self.rz.dim
        eq = (self.num[:, :, None] == self.num[:, None, :]).tobytes()
        rows = [eq[k:k + n * n] for k in range(0, len(eq), n * n)]
        sets = {r: frozenset(divmod(k, n) for k in range(n * n) if r[k])
                for r in set(rows)}
        return tuple(map(sets.__getitem__, rows))

    @cached_property
    def signs(self) -> dict[Vec, np.ndarray]:
        """sign alpha(X) per sample for every root alpha; exact."""
        roots = tuple(self.rz.datum.roots)
        s = np.sign(self.num @ SampleStack.of(self.rz, roots).num.T)
        return {alpha: s[:, k].astype(int) for k, alpha in enumerate(roots)}


# the predicted kernel per (realization, P, tie pattern); a dict, as a
# missing one is built from a sample of the pattern
_KERNELS: dict[tuple, tuple[int, np.ndarray]] = {}


def _predicted_kernels(rz: Realization, xs: SampleStack,
                       P: PositiveSystem) -> list[tuple[int, np.ndarray]]:
    """Per sample, (dim, T) of the predicted Hessian kernel K, the span of
    (centralizer of X in h) + (sigma-fixed nilpotent part), with T a basis
    over the h-basis of its complement for the theta-twisted inner product.
    X enters only through its ties, so each is built once per (realization,
    P, ties), and read once per tie pattern of xs."""
    n = rz.dim * rz.dim
    kernels = {}
    for ties, i in {t: i for i, t in enumerate(xs.ties)}.items():
        key = (rz, P, ties)
        if key not in _KERNELS:
            K = np.concatenate([_centralizer_basis(rz, xs.exact(i)).reshape(-1, n),
                                np.reshape(nph_basis(rz, P), (-1, n))])
            # (K B^T) v = 0 says sum_j v_j U_j is orthogonal to K for
            # <Y, Z> = kappa tr(Y Z^T), whose kappa leaves it alone; an
            # empty K has the identity for vt
            _, sv, vt = np.linalg.svd(K @ np.reshape(rz.h_basis, (-1, n)).T)
            _KERNELS[key] = (_rank(np.linalg.svd(K, compute_uv=False)),
                             vt[_rank(sv):].T)
        kernels[ties] = _KERNELS[key]
    return list(map(kernels.__getitem__, xs.ties))


def _rank(sv: np.ndarray) -> int:
    """Numerical rank from singular values, relative to max(1, largest)."""
    return int(np.sum(sv > SV_TOL * max(1.0, sv.max(initial=0.0))))


def kernel_dim(rz: Realization, xs: SampleStack, P: PositiveSystem
               ) -> np.ndarray:
    """dim of (centralizer of X in h) + (nilpotent part inside h), per
    sample."""
    return np.array([d for d, _ in _predicted_kernels(rz, xs, P)])


# --- Hessian ---------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class HessianReport:
    """The Hessians at x_w of a stack of m samples."""
    numeric_form: np.ndarray     # (m, dh, dh)
    analytic_form: np.ndarray    # (m, dh, dh)
    signature: np.ndarray        # (m, 3): n_plus, n_zero, n_minus


@lru_cache(maxsize=None)
def _stencil_exp(rz: Realization) -> np.ndarray:
    """exp Z over numeric_hessian's stencil Z = s (+-U_i +- U_j), U the
    h-basis and s both steps; shape (2 dh^2 4, dim, dim), built on first
    use."""
    basis = np.stack(rz.h_basis)
    # stencil[i, j, c] = _SIGNS[c, 0] basis[i] + _SIGNS[c, 1] basis[j]
    stencil = (_SIGNS[:, 0, None, None] * basis[:, None, None]
               + _SIGNS[:, 1, None, None] * basis[None, :, None])
    return expm(np.multiply.outer(_STEPS, stencil).reshape(-1, rz.dim, rz.dim))


@lru_cache(maxsize=None)
@dataclass(frozen=True, eq=False)
class _WeylPoint:
    """The parts of F and its Hessians at x_w that do not depend on X, for
    one realization, positive system and a_w_log = weyl_image(rz, a_log, w),
    made once for each by the lru_cache; each part is built on first use."""
    rz: Realization
    P: PositiveSystem
    a_w_log: Vec

    @cached_property
    def stencil_values(self) -> np.ndarray:
        """h_pq(a_w exp Z, P) over the stencil of _stencil_exp, with a_w_log
        beside exp Z; F there is this times G X.  Shape (2 dh^2 4, dim)."""
        return h_pq(self.rz, _stencil_exp(self.rz), self.P,
                    np.asarray(self.a_w_log, dtype=float))

    @cached_property
    def transport(self) -> np.ndarray:
        """a_w ek(a_w U a_w^{-1}) a_w^{-1} over the h-basis U; shape (dh,
        dim, dim).  Raises SingularInput when a_w U a_w^{-1} or the result
        leaves double range."""
        aw = a_matrix(np.exp(np.asarray(self.a_w_log, dtype=float)))
        aw_inv = np.linalg.inv(aw)
        with np.errstate(over="ignore", invalid="ignore"):
            conj = aw @ np.stack(self.rz.h_basis) @ aw_inv
            out = aw @ ek_projection(conj, self.P) @ aw_inv
        if not (np.all(np.isfinite(conj)) and np.all(np.isfinite(out))):
            raise SingularInput("transport overflows double precision")
        return out

    @cached_property
    def signs(self) -> dict[Vec, int]:
        """sign alpha(w^{-1} a_log) for every root alpha; exact."""
        return {a: np.sign(ex.dot(a, self.a_w_log)) for a in self.rz.datum.roots}


def analytic_hessian(rz: Realization, a_log: Vec, xs: SampleStack, w: Mat,
                     P: PositiveSystem) -> np.ndarray:
    """Forms <U_i, L_w U_j>, one per sample, with L_w assembled from the
    transport operator of (realization, P, a_w); only the commutator
    with the stacked diagonal X and one einsum are per stack."""
    V = _WeylPoint(rz, P, weyl_image(rz, a_log, w)).transport
    Xm = a_matrix(xs.floats)[:, None]
    LV = -rz.pi_h(Xm @ V - V @ Xm)
    return rz.kappa * np.einsum("iab,mjab->mij", np.stack(rz.h_basis), LV)


def numeric_hessian(rz: Realization, a_log: Vec, xs: SampleStack, w: Mat,
                    P: PositiveSystem) -> np.ndarray:
    """Cross-stencil second differences of F at x_w at steps FD_STEP and
    FD_STEP / 2, Richardson-extrapolated, one per sample.  F is linear in X:
    the projected Iwasawa logs of the stencil, kept per (realization, P,
    a_w), times the stacked G X.  A stacked matmul makes one matrix-vector
    product per sample; one gemm over the stack would round differently."""
    dh = len(rz.h_basis)
    D = _dual(rz, xs.floats)
    stencil = _WeylPoint(rz, P, weyl_image(rz, a_log, w)).stencil_values
    vals = np.matmul(stencil[None], D[:, :, None]).reshape(len(D), 2, dh, dh, 4)
    d = ((vals[..., 0] - vals[..., 1] - vals[..., 2] + vals[..., 3])
         / (4 * _STEPS[:, None, None] ** 2))
    out = (4.0 * d[:, 1] - d[:, 0]) / 3.0
    return 0.5 * (out + np.swapaxes(out, 1, 2))


def hessian(rz: Realization, a_log: Vec, xs: SampleStack, w: Mat,
            P: PositiveSystem) -> HessianReport:
    """Numeric and analytic Hessians of F at x_w, per sample.  a_log must be
    a regular point of a_q; ensure_regular checks it, and the caller does so
    once."""
    num = numeric_hessian(rz, a_log, xs, w, P)
    return HessianReport(numeric_form=num, signature=_signature(num, num),
                         analytic_form=analytic_hessian(rz, a_log, xs, w, P))


def _signature(forms: np.ndarray, full: np.ndarray) -> np.ndarray:
    """Rows (n_plus, n_zero, n_minus) of a stack of symmetric forms, from one
    batched eigvalsh; eigenvalues within SV_TOL * max(1, largest entry of
    the full Hessian) of 0 count as zero."""
    tol = SV_TOL * np.maximum(np.abs(full).max(axis=(1, 2)), 1.0)[:, None]
    ev = np.linalg.eigvalsh(forms)
    n_plus, n_minus = np.sum(ev > tol, axis=1), np.sum(ev < -tol, axis=1)
    return np.stack([n_plus, ev.shape[1] - n_plus - n_minus, n_minus], axis=1)


def transversal_signature(rz: Realization, report: HessianReport,
                          xs: SampleStack, P: PositiveSystem) -> np.ndarray:
    """Signature of each numeric form restricted to the complement of its
    predicted kernel, orthogonal for the theta-twisted inner product.  The
    samples are grouped by the width of the complement's basis T, with one
    T^T form T and eigvalsh per group."""
    Ts = [T for _, T in _predicted_kernels(rz, xs, P)]
    form = report.numeric_form
    width = np.array([T.shape[1] for T in Ts])
    out = np.empty((len(form), 3), dtype=int)
    for r in np.unique(width):
        rows = np.flatnonzero(width == r)
        T = np.stack([Ts[i] for i in rows])
        out[rows] = _signature(np.swapaxes(T, 1, 2) @ form[rows] @ T,
                               form[rows])
    return out


# --- predicted signature ----------------------------------------------------

def predicted_signature(rz: Realization, a_log: Vec, xs: SampleStack, w: Mat,
                        P: PositiveSystem):
    """Per sample, the exact positivity prediction and whether every orbit
    certificate is positive.  A product alpha(X) alpha(w^{-1} a_log) is
    tested by the signs of its factors, kept per sample and per Weyl point.
    a_log must be a regular point of a_q; ensure_regular checks it."""
    sx, sw = xs.signs, _WeylPoint(rz, P, weyl_image(rz, a_log, w)).signs
    posdef = np.ones(len(xs.den), dtype=bool)
    for a in P.classification.plus_part:
        posdef &= sx[a] * sw[a] <= 0
    for a in P.classification.minus_part:
        posdef &= sx[a] >= 0
    certified = np.ones_like(posdef)
    for cls in P.orbit_classes:
        aX = sx[cls.root]
        opposed = aX * sw[cls.root] < 0
        _, mp, mm = cls.mult
        if cls.in_sigma_part:                                  # case b.1
            ok = opposed
        elif not cls.in_aq_star:                               # case b.2.1
            ok = opposed & (aX > 0)
        else:                                                  # case b.2.2
            ok = (opposed | (not mp)) & ((aX > 0) | (not mm))
        certified &= ok | (aX == 0)                            # case a
    return posdef, certified


# --- the predicted critical image ------------------------------------------

def omega_X(rz: Realization, a_log: Vec, X: Vec, P: PositiveSystem
            ) -> dict[Mat, Polyhedron]:
    """Per Weyl element, in the order of rz.small_weyl: hull of the
    X-centralizer orbit plus the X-cut cone; a_log and X exact.  W_X is
    the stabiliser of X in the small Weyl group: the reflections in the
    plus roots vanishing on X (Chevalley's lemma)."""
    (x,), _ = ex.integer_rows([X])
    cut = sorted(a for a in P.classification.minus_part if ex.dot(a, x) == 0)
    gam = gamma_aq(cut, rz.datum)
    W_X = tuple(w for w in rz.small_weyl if ex.mat_vec(w, x) == tuple(x))
    return {w: omega(weyl_orbit(W_X, weyl_image(rz, a_log, w)), gam)
            for w in rz.small_weyl}


def sample_H_X(rz: Realization, X, radius: float, count: int, seeds) -> Draw:
    """Draw count elements exp(Y) per seed, Y in the centralizer of X in h."""
    return sample_span(_centralizer_basis(rz, X), radius, count, seeds)


def sample_NPH(rz: Realization, P: PositiveSystem, radius: float, count: int,
               seeds) -> Draw:
    """Draw count unipotent elements fixed by the involution per seed."""
    basis = np.array(nph_basis(rz, P)).reshape(-1, rz.dim, rz.dim)
    return sample_unipotent(basis, radius, count, seeds)


# --- vanishing patterns -----------------------------------------------------

def vanishing_patterns(rz: Realization, per_pattern: int = 10, seed=0
                       ) -> list[tuple[frozenset, tuple[Vec, ...]]]:
    """Realizable zero-sets of restricted roots, with exact witnesses in a_q."""
    d = rz.datum
    pos = sorted({lam for lam in rz.restricted.roots_q
                  if lam > ex.neg(lam)})
    aq = d.aq_basis
    rng = np.random.default_rng(seed)
    out = []
    for r in range(len(pos) + 1):
        for s_tuple in itertools.combinations(pos, r):
            S = frozenset(s_tuple)
            rows = tuple(tuple(ex.dot(lam, b) for b in aq) for lam in sorted(S))
            null = ex.nullspace(rows) if rows else ex.identity(len(aq))
            if not null:
                if S == frozenset(pos):
                    out.append((S, (ex.zeros(rz.dim),)))
                continue
            # null = N / e and aq = A / f: t = sum_k (p_k / q_k) null_k is
            # X = sum_k c_k NA_k / (q e f), c_k = p_k q / q_k and NA = N A
            N, e = ex.integer_rows(null)
            A, f = ex.integer_rows(aq)
            NA = [[ex.int_dot(row, col) for col in zip(*A)] for row in N]
            lam_rows = [[ex.int_dot(ex.integer_row([ex.dot(lam, b) for b in aq]),
                                    row) for row in N] for lam in pos if lam not in S]
            if any(not any(row) for row in lam_rows):
                continue
            wits = []
            attempts = 0
            while len(wits) < per_pattern and attempts < per_pattern * 50:
                attempts += 1
                pq = [(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
                      for _ in null]
                q = math.lcm(*(b for _, b in pq))
                c = [a * (q // b) for a, b in pq]
                if any(ex.int_dot(c, row) == 0 for row in lam_rows):
                    continue
                wits.append(tuple(Fraction(x, q * e * f) for x in map(
                    ex.int_dot, itertools.repeat(c), zip(*NA))))
            if len(wits) == per_pattern:
                out.append((S, tuple(wits)))
    return out
