"""Critical-point analysis of the test functionals h -> <X, log-part of ah>.

The combinatorial layer (critical values, predicted Hessian signature,
predicted critical image) is exact rational arithmetic; the numeric layer
(the functional and its finite-difference Hessians) runs on the matrix
models and is compared against it.  The centralizer basis of X in h is
computed once per realization and tie pattern {(i, j) : X_i = X_j}.  The
predicted Hessian kernel is built in one place, ``_predicted_kernel``, which
both ``kernel_dim`` and ``transversal_signature`` read, once per sample.

The Hessian layer computes each part once per value of what it depends on.
The exponential of numeric_hessian's stencil depends on the realization
only.  The stencil's projected Iwasawa logs and analytic_hessian's
transport depend on (preset, P, a_log, w) and are kept in a _WeylPoint
under that key; only their pairing with X is per call.  w^{-1} a_log is
kept per (realization, a_log, w), and the orbit classes of Sigma(P) are a
cached property of P.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg import expm

from . import exactlin as ex
from .exactlin import Mat, Vec
from .matrixgrp import (Realization, a_matrix, ek_projection, h_pq, root_matrix,
                        sample_span, sample_unipotent)
from .parabolic import PositiveSystem
from .polyhedra import Polyhedron, gamma_aq, omega
from .rootsys import weyl_group, weyl_orbit

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

def F(rz: Realization, a_log, X, h, P: PositiveSystem | None = None) -> np.ndarray:
    """<X, a_q-projection of the Iwasawa log of exp(a_log) h>; batched over h."""
    a = a_matrix(np.exp(np.asarray(a_log, dtype=float)))
    return h_pq(rz, a @ np.asarray(h, dtype=float), P) @ _dual(rz, X)


def _dual(rz: Realization, X) -> np.ndarray:
    """G X in floats: F is the projected Iwasawa log times this vector."""
    G = np.array([[float(x) for x in row] for row in rz.datum.gram])
    return G @ np.asarray(X, dtype=float)


@lru_cache(maxsize=None)
def _weyl_image(rz: Realization, a_log: Vec, w: Mat) -> Vec:
    """w^{-1} a_log, exact; once per realization, base point and w."""
    return ex.mat_vec(rz.small_weyl.inverse(w), a_log)


def critical_value(rz: Realization, a_log, X, w: Mat) -> Fraction:
    """<X, w^{-1} a_log> in the exact layer."""
    wln = _weyl_image(rz, _exact_vec(a_log), w)
    return ex.dot(ex.mat_vec(rz.datum.gram, _exact_vec(X)), wln)


# --- subspaces of h --------------------------------------------------------

def _h_basis_exact(rz: Realization) -> tuple[Mat, ...]:
    """The h-basis as Fractions; Fraction(float) is exact."""
    return tuple(ex.mat(b) for b in rz.h_basis)


def h_x_coords(rz: Realization, X) -> tuple[Vec, ...]:
    """Coordinates (over the h-basis) of a basis of the centralizer of X in h.

    [X, U][i, j] = (X_i - X_j) U[i, j]: the row space of the system, hence
    its RREF and the basis, depends on X only through the pattern of ties
    X_i = X_j, and the basis is cached on that pattern."""
    X = _exact_vec(X)
    n = rz.dim
    ties = frozenset((i, j) for i in range(n) for j in range(n) if X[i] == X[j])
    return _centralizer(rz, ties)


@lru_cache(maxsize=None)
def _centralizer(rz: Realization, ties: frozenset) -> tuple[Vec, ...]:
    n = rz.dim
    basis = _h_basis_exact(rz)
    A = tuple(tuple(Fraction(0) if (i, j) in ties else U[i][j] for U in basis)
              for i in range(n) for j in range(n))
    return tuple(ex.nullspace(A))


def nph_basis(rz: Realization, P: PositiveSystem | None = None) -> tuple[np.ndarray, ...]:
    """Basis of the sigma-fixed part of the nilpotent radical."""
    P = P if P is not None else rz.base_parabolic
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


# the predicted kernel of the last sample, under (preset, P, X).  Here and
# in _WEYL_POINTS, P enters a key as P.positive, the set that P.key() sorts:
# a frozenset keeps its hash, a tuple of Fractions hashes them on every call
_KERNEL: dict[tuple, np.ndarray] = {}


def _predicted_kernel(rz: Realization, X, P: PositiveSystem | None) -> np.ndarray:
    """Spanning set of (centralizer of X in h) + (sigma-fixed nilpotent
    part), as rows of flattened matrices; shape (k, dim * dim).  The last
    one built is kept under (preset, P, X), so that kernel_dim and the
    transversal signature at every w of one sample share it."""
    P = P if P is not None else rz.base_parabolic
    key = (rz.name, P.positive, _exact_vec(X))
    K = _KERNEL.get(key)
    if K is None:
        vecs = [np.asarray(sum(float(c) * b for c, b in zip(coords, rz.h_basis))
                           ).reshape(-1) for coords in h_x_coords(rz, X)]
        vecs += [B.reshape(-1) for B in nph_basis(rz, P)]
        K = np.stack(vecs) if vecs else np.zeros((0, rz.dim * rz.dim))
        _KERNEL.clear()
        _KERNEL[key] = K
    return K


def _rank(sv: np.ndarray) -> int:
    """Numerical rank from singular values, relative to max(1, largest)."""
    return int(np.sum(sv > SV_TOL * max(1.0, sv.max(initial=0.0))))


def kernel_dim(rz: Realization, X, P: PositiveSystem | None = None) -> int:
    """dim of (centralizer of X in h) + (nilpotent part inside h)."""
    return _rank(np.linalg.svd(_predicted_kernel(rz, X, P), compute_uv=False))


# --- Hessian ---------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class HessianReport:
    w: Mat
    numeric_form: np.ndarray
    analytic_form: np.ndarray
    signature: tuple[int, int, int]


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


@dataclass(frozen=True, eq=False)
class _WeylPoint:
    """The parts of F and its Hessians at x_w that do not depend on X, for
    one realization, positive system, base point and Weyl element; each is
    built on first use."""
    rz: Realization
    P: PositiveSystem
    a_log: Vec
    w: Mat

    @cached_property
    def a(self) -> np.ndarray:
        """diag(exp a_log)."""
        return a_matrix(np.exp(np.asarray(self.a_log, dtype=float)))

    @cached_property
    def stencil_values(self) -> np.ndarray:
        """h_pq(a x_w exp Z, P) over the stencil of _stencil_exp; F there is
        this times G X.  Shape (2 dh^2 4, dim)."""
        xw = self.rz.weyl_reps[self.w]
        return h_pq(self.rz, self.a @ (xw @ _stencil_exp(self.rz)), self.P)

    @cached_property
    def transport(self) -> np.ndarray:
        """a_w ek(a_w U a_w^{-1}) a_w^{-1} over the h-basis U, with
        a_w = x_w^T a x_w; shape (dh, dim, dim)."""
        xw = self.rz.weyl_reps[self.w]
        aw = xw.T @ self.a @ xw
        aw_inv = np.linalg.inv(aw)
        V = ek_projection(self.rz, aw @ np.stack(self.rz.h_basis) @ aw_inv,
                          self.P)
        return aw @ V @ aw_inv


_WEYL_POINTS: dict[tuple, _WeylPoint] = {}


def _weyl_point(rz: Realization, a_log, w: Mat,
                P: PositiveSystem | None) -> _WeylPoint:
    """The _WeylPoint of (preset, P, exact a_log, w), made once."""
    P = P if P is not None else rz.base_parabolic
    a_exact = _exact_vec(a_log)
    key = (rz.name, P.positive, a_exact, w)
    point = _WEYL_POINTS.get(key)
    if point is None:
        point = _WEYL_POINTS[key] = _WeylPoint(rz, P, a_exact, w)
    return point


def analytic_hessian(rz: Realization, a_log, X, w: Mat,
                     P: PositiveSystem | None = None) -> np.ndarray:
    """Form <U_i, L_w U_j> with L_w assembled from the transport operator.
    The transport of the h-basis is computed once per (preset, P, a_log,
    w); only its commutator with X and the pairing are per call."""
    V = _weyl_point(rz, a_log, w, P).transport
    Xm = a_matrix(np.asarray(X, dtype=float))
    LV = -rz.pi_h(Xm @ V - V @ Xm)
    return rz.kappa * np.einsum("iab,jab->ij", np.stack(rz.h_basis), LV)


def numeric_hessian(rz: Realization, a_log, X, w: Mat,
                    P: PositiveSystem | None = None) -> np.ndarray:
    """Cross-stencil second differences of F at x_w at steps FD_STEP and
    FD_STEP / 2, Richardson-extrapolated.  F is linear in X, so the stencil
    values are the projected Iwasawa logs of one (preset, P, a_log, w),
    computed once, times G X; the exponential of the stencil is computed
    once per realization."""
    dh = len(rz.h_basis)
    vals = _weyl_point(rz, a_log, w, P).stencil_values @ _dual(rz, X)
    vals = vals.reshape(2, dh, dh, 4)
    d = ((vals[..., 0] - vals[..., 1] - vals[..., 2] + vals[..., 3])
         / (4 * _STEPS[:, None, None] ** 2))
    out = (4.0 * d[1] - d[0]) / 3.0
    return 0.5 * (out + out.T)


def hessian(rz: Realization, a_log, X, w: Mat,
            P: PositiveSystem | None = None) -> HessianReport:
    """Numeric and analytic Hessians of F at x_w.  a_log must be a regular
    point of a_q; ensure_regular checks it, and the caller does so once."""
    num = numeric_hessian(rz, a_log, X, w, P)
    ana = analytic_hessian(rz, a_log, X, w, P)
    return HessianReport(w=w, numeric_form=num, analytic_form=ana,
                         signature=_signature(num, num))


def _signature(form: np.ndarray, full: np.ndarray) -> tuple[int, int, int]:
    """(n_plus, n_zero, n_minus) of a symmetric form; eigenvalues within
    SV_TOL * max(1, largest entry of the full Hessian) of 0 count as zero."""
    scale = max(np.abs(full).max(), 1.0)
    ev = np.linalg.eigvalsh(form)
    n_plus = int(np.sum(ev > SV_TOL * scale))
    n_minus = int(np.sum(ev < -SV_TOL * scale))
    return (n_plus, len(ev) - n_plus - n_minus, n_minus)


def transversal_signature(rz: Realization, report: HessianReport, X,
                          P: PositiveSystem | None = None) -> tuple[int, int, int]:
    """Signature of the numeric form restricted to the complement of its
    predicted kernel, orthogonal for the theta-twisted inner product."""
    K = _predicted_kernel(rz, X, P)
    if len(K):
        # (K B^T) v = 0 says sum_j v_j U_j is orthogonal to the kernel for
        # <Y, Z> = kappa tr(Y Z^T); kappa does not change the null space
        B = np.stack([b.reshape(-1) for b in rz.h_basis])
        _, sv, vt = np.linalg.svd(K @ B.T)
        T = vt[_rank(sv):].T
    else:
        T = np.eye(len(rz.h_basis))
    return _signature(T.T @ report.numeric_form @ T, report.numeric_form)


# --- predicted signature ----------------------------------------------------

def predicted_signature(rz: Realization, a_log, X, w: Mat,
                        P: PositiveSystem | None = None):
    """Exact positivity prediction plus per-orbit certificates.  a_log must
    be a regular point of a_q; ensure_regular checks it."""
    P = P if P is not None else rz.base_parabolic
    X = _exact_vec(X)
    wln = _weyl_image(rz, _exact_vec(a_log), w)
    parts = P.classification
    posdef = (all(ex.dot(a, X) * ex.dot(a, wln) <= 0 for a in parts.plus_part)
              and all(ex.dot(a, X) >= 0 for a in parts.minus_part))
    certs = []
    for cls in P.orbit_classes:
        alpha = cls.root
        aX = ex.dot(alpha, X)
        awl = ex.dot(alpha, wln)
        dim_full, mp, mm = cls.mult
        entry = {"root": [str(c) for c in alpha],
                 "alpha_X": str(aX), "alpha_w_log_a": str(awl)}
        decay = float(np.exp(-2.0 * float(awl)))
        # the eigenvalue pair of a class outside Sigma(P, sigma) (cases b.2)
        lam_p = 0.5 * float(aX) * (decay - 1.0)
        lam_m = 0.5 * float(aX) * (decay + 1.0)
        if aX == 0:
            entry.update(case="a", transversal_dim=0, eigenvalues=[], positive=True)
        elif cls.in_sigma_part:
            scalar = 0.5 * float(aX) * (decay - 1.0 / decay)
            entry.update(case="b.1", transversal_dim=dim_full,
                         eigenvalues=[scalar], positive=bool(aX * awl < 0))
        elif not cls.in_aq_star:
            entry.update(case="b.2.1", transversal_dim=2 * dim_full,
                         eigenvalues=[lam_p, lam_m],
                         positive=bool(aX > 0 and aX * awl < 0))
        else:
            eigs, ok = [], True
            if mp:
                eigs.append(lam_p)
                ok = ok and aX * awl < 0
            if mm:
                eigs.append(lam_m)
                ok = ok and aX > 0
            entry.update(case="b.2.2", transversal_dim=(mp or 0) + (mm or 0),
                         eigenvalues=eigs, positive=bool(ok))
        certs.append(entry)
    return posdef, tuple(certs)


# --- the predicted critical image ------------------------------------------

def omega_X(rz: Realization, a_log, X, P: PositiveSystem | None = None
            ) -> dict[Mat, Polyhedron]:
    """Per Weyl element: hull of the X-centralizer orbit plus the X-cut cone."""
    P = P if P is not None else rz.base_parabolic
    a_exact = _exact_vec(a_log)
    X = _exact_vec(X)
    d = rz.datum
    cut = sorted(a for a in P.classification.minus_part if ex.dot(a, X) == 0)
    gam = gamma_aq(cut, d)
    vanishing = frozenset(lam for lam in rz.restricted.plus_set
                          if ex.dot(lam, X) == 0)
    W_X = weyl_group(vanishing, d.gram)
    out = {}
    for w in rz.small_weyl.elements:
        out[w] = omega(weyl_orbit(W_X, _weyl_image(rz, a_exact, w)), gam)
    return out


def sample_H_X(rz: Realization, X, radius: float, count: int, seed) -> np.ndarray:
    """Draw from the centralizer of X in H: z * exp(Y), Y in the fixed algebra."""
    C = np.array([[float(c) for c in row] for row in h_x_coords(rz, X)])
    basis = np.einsum("kd,dij->kij", C.reshape(-1, len(rz.h_basis)),
                      np.stack(rz.h_basis))
    return sample_span(rz, basis, radius, count, seed)


def sample_NPH(rz: Realization, P: PositiveSystem | None = None,
               radius: float = 1.0, count: int = 1, seed=0) -> np.ndarray:
    """Draw unipotent elements fixed by the involution."""
    P = P if P is not None else rz.base_parabolic
    basis = np.array(nph_basis(rz, P)).reshape(-1, rz.dim, rz.dim)
    return sample_unipotent(basis, radius, count, seed)


# --- vanishing patterns -----------------------------------------------------

def vanishing_patterns(rz: Realization, per_pattern: int = 10, seed=0
                       ) -> list[tuple[frozenset, tuple[Vec, ...]]]:
    """Realizable zero-sets of restricted roots, with exact witnesses in a_q."""
    import itertools as it
    d = rz.datum
    pos = sorted({lam for lam in rz.restricted.roots_q
                  if lam > ex.neg(lam)})
    aq = d.aq_basis
    rng = np.random.default_rng(seed)
    out = []
    for r in range(len(pos) + 1):
        for s_tuple in it.combinations(pos, r):
            S = frozenset(s_tuple)
            rows = tuple(tuple(ex.dot(lam, b) for b in aq) for lam in sorted(S))
            null = ex.nullspace(rows) if rows else ex.identity(len(aq))
            if not null:
                if S == frozenset(pos):
                    out.append((S, (ex.zeros(rz.dim),)))
                continue
            lam_rows = {lam: tuple(ex.dot(lam, b) for b in aq) for lam in pos if lam not in S}
            if any(all(ex.dot(row, nv) == 0 for nv in null) for row in lam_rows.values()):
                continue
            wits = []
            attempts = 0
            while len(wits) < per_pattern and attempts < per_pattern * 50:
                attempts += 1
                cs = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
                      for _ in null]
                t = ex.combination(cs, null, len(aq))
                Xv = ex.combination(t, aq, rz.dim)
                if any(ex.dot(row, t) == 0 for row in lam_rows.values()):
                    continue
                wits.append(Xv)
            if len(wits) == per_pattern:
                out.append((S, tuple(wits)))
    return out
