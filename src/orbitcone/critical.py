"""Critical-point analysis of the test functionals h -> <X, log-part of ah>.

The combinatorial layer (critical values, predicted Hessian signature,
predicted critical image) is exact rational arithmetic; the numeric layer
(the functional and its finite-difference Hessians) runs on the matrix
models and is compared against it.  The centralizer basis of X in h is
computed once per realization and tie pattern {(i, j) : X_i = X_j}.  The
predicted Hessian kernel is built in one place, ``_predicted_kernel``, which
both ``kernel_dim`` and ``transversal_signature`` read.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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
    Xf = np.asarray(X, dtype=float)
    v = h_pq(rz, a @ np.asarray(h, dtype=float), P)
    G = np.array([[float(x) for x in row] for row in rz.datum.gram])
    return v @ (G @ Xf)


def critical_value(rz: Realization, a_log, X, w: Mat) -> Fraction:
    """<X, w^{-1} a_log> in the exact layer."""
    a_log = _exact_vec(a_log)
    X = _exact_vec(X)
    wln = ex.mat_vec(rz.small_weyl.inverse(w), a_log)
    return ex.dot(ex.mat_vec(rz.datum.gram, X), wln)


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


def _predicted_kernel(rz: Realization, X, P: PositiveSystem | None) -> np.ndarray:
    """Spanning set of (centralizer of X in h) + (sigma-fixed nilpotent
    part), as rows of flattened matrices; shape (k, dim * dim)."""
    P = P if P is not None else rz.base_parabolic
    vecs = [np.asarray(sum(float(c) * b for c, b in zip(coords, rz.h_basis))).reshape(-1)
            for coords in h_x_coords(rz, X)]
    vecs += [B.reshape(-1) for B in nph_basis(rz, P)]
    return np.stack(vecs) if vecs else np.zeros((0, rz.dim * rz.dim))


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


def analytic_hessian(rz: Realization, a_log, X, w: Mat,
                     P: PositiveSystem | None = None) -> np.ndarray:
    """Form <U_i, L_w U_j> with L_w assembled from the transport operator."""
    xw = rz.weyl_reps[w]
    a = a_matrix(np.exp(np.asarray(a_log, dtype=float)))
    aw = xw.T @ a @ xw
    aw_inv = np.linalg.inv(aw)
    Xm = a_matrix(np.asarray(X, dtype=float))
    basis = np.stack(rz.h_basis)
    V = aw @ basis @ aw_inv
    V = ek_projection(rz, V, P)
    V = aw @ V @ aw_inv
    V = Xm @ V - V @ Xm
    LV = -rz.pi_h(V)
    return rz.kappa * np.einsum("iab,jab->ij", basis, LV)


def numeric_hessian(rz: Realization, a_log, X, w: Mat,
                    P: PositiveSystem | None = None) -> np.ndarray:
    """Cross-stencil second differences of F at x_w at steps FD_STEP and
    FD_STEP / 2, Richardson-extrapolated; both stencils go through one expm
    and one F call."""
    xw = rz.weyl_reps[w]
    basis = np.stack(rz.h_basis)
    dh = len(basis)
    signs = np.array([(1, 1), (1, -1), (-1, 1), (-1, -1)], dtype=float)
    steps = np.array([FD_STEP, FD_STEP / 2])
    # stencil[i, j, c] = signs[c, 0] basis[i] + signs[c, 1] basis[j]
    stencil = (signs[:, 0, None, None] * basis[:, None, None]
               + signs[:, 1, None, None] * basis[None, :, None])
    Z = np.multiply.outer(steps, stencil).reshape(-1, rz.dim, rz.dim)
    vals = F(rz, a_log, X, xw @ expm(Z), P)
    vals = vals.reshape(2, dh, dh, 4)
    d = ((vals[..., 0] - vals[..., 1] - vals[..., 2] + vals[..., 3])
         / (4 * steps[:, None, None] ** 2))
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

def _orbit_classes(P: PositiveSystem) -> list[frozenset]:
    """Classes of Sigma(P) under the four-group generated by the involutions."""
    d = P.datum
    seen = set()
    out = []
    for alpha in sorted(P.positive):
        if alpha in seen:
            continue
        orbit = {alpha, d.sigma_root(alpha), ex.neg(alpha),
                 ex.neg(d.sigma_root(alpha))}
        cls = frozenset(orbit & P.positive)
        seen |= cls
        out.append(cls)
    return out


def predicted_signature(rz: Realization, a_log, X, w: Mat,
                        P: PositiveSystem | None = None):
    """Exact positivity prediction plus per-orbit certificates.  a_log must
    be a regular point of a_q; ensure_regular checks it."""
    P = P if P is not None else rz.base_parabolic
    a_exact = _exact_vec(a_log)
    X = _exact_vec(X)
    d = rz.datum
    wln = ex.mat_vec(rz.small_weyl.inverse(w), a_exact)
    parts = P.classification
    posdef = (all(ex.dot(a, X) * ex.dot(a, wln) <= 0 for a in parts.plus_part)
              and all(ex.dot(a, X) >= 0 for a in parts.minus_part))
    certs = []
    for cls in _orbit_classes(P):
        alpha = min(cls)
        aX = ex.dot(alpha, X)
        awl = ex.dot(alpha, wln)
        dim_full, mp, mm = d.mult(alpha) if d.is_sigmatheta_fixed(alpha) \
            else (d.mult(alpha)[0], None, None)
        entry = {"root": [str(c) for c in alpha],
                 "alpha_X": str(aX), "alpha_w_log_a": str(awl)}
        decay = float(np.exp(-2.0 * float(awl)))
        # the eigenvalue pair of a class outside Sigma(P, sigma) (cases b.2)
        lam_p = 0.5 * float(aX) * (decay - 1.0)
        lam_m = 0.5 * float(aX) * (decay + 1.0)
        if aX == 0:
            entry.update(case="a", transversal_dim=0, eigenvalues=[], positive=True)
        elif alpha in parts.sigma_part:
            scalar = 0.5 * float(aX) * (decay - 1.0 / decay)
            entry.update(case="b.1", transversal_dim=dim_full,
                         eigenvalues=[scalar], positive=bool(aX * awl < 0))
        elif not d.in_aq_star(alpha):
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
        wln = ex.mat_vec(rz.small_weyl.inverse(w), a_exact)
        out[w] = omega(weyl_orbit(W_X, wln), gam)
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
    basis = nph_basis(rz, P)
    if not basis:
        return np.tile(np.eye(rz.dim), (count, 1, 1))
    return sample_unipotent(np.stack(basis), radius, count, seed)


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
