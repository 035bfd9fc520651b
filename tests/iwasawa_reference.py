"""Reference K A N_P factorization used by several test files.

One full QR of the input conjugated by the permutation matrix of
chamber_perm gives all three factors at once.  The library computes only
the Iwasawa log H; the tests compare it with this reference and take the
unipotent factor n from here.  iwasawa_gram_schmidt is the vectorised
Gram-Schmidt kernel that the library once ran on stacks, kept as a second
oracle that holds its digits on ill-conditioned input.  iwasawa_exact
gives H of the base system to 60 digits, for judging the accuracy of all
three.
iwasawa_ideal gives H of the element that a Draw stands for, a z exp(Y)
with Y formed from the float t, to 60 digits, for judging the factored
kernel that never forms the element.
"""
import math
from fractions import Fraction

import mpmath
import numpy as np

from orbitcone.matrixgrp import (BLOCK, _UNSCALED, SingularInput, _clip_factors,
                                 _scales, chamber_perm)

# an R_kk below 1e-250 makes the input numerically singular
_LOG_TINY = math.log(1e-250)


def iwasawa_by_matmul(rz, g, P):
    """(k, H, n) with g = k exp(H) n, k orthogonal and n in N_P; accepts
    stacked input (..., n, n)."""
    g = np.asarray(g, dtype=float)
    single = g.ndim == 2
    G = g[None] if single else g
    w = np.eye(rz.dim)[:, chamber_perm(rz, P)]
    q, r = np.linalg.qr(w.T @ G @ w)
    s = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    q = q * s[..., None, :]
    r = r * s[..., :, None]
    dpos = np.diagonal(r, axis1=-2, axis2=-1)
    H, n = np.log(dpos) @ w.T, w @ (r / dpos[..., :, None]) @ w.T
    k = w @ q @ w.T
    return (k[0], H[0], n[0]) if single else (k, H, n)


def iwasawa_gram_schmidt(rz, g, P) -> np.ndarray:
    """H of a stack g (..., n, n) as log|diag R| of its QR after conjugation
    by chamber_perm(rz, P), from the Gram-Schmidt kernel _log_r_block, a
    block of BLOCK matrices at a time.  Raises SingularInput when g has
    non-finite entries or some |R_kk| < 1e-250."""
    p = chamber_perm(rz, P)
    g = np.asarray(g, dtype=float)
    n = g.shape[-1]
    flat = g.reshape(-1, n, n)
    H = np.empty((len(flat), n))
    # the plain pass may overflow or divide 0 by 0; _log_r_block redoes or
    # rejects the blocks where it did
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for start in range(0, len(flat), BLOCK):
            rows = slice(start, start + BLOCK)
            C = flat[rows].transpose(2, 1, 0)[p[:, None], p]
            _log_r_block(C, p, H[rows], flat.__getitem__, rows)
    return H.reshape(g.shape[:-1])


def _log_r_block(C, p, out, stack, rows) -> None:
    """log|R_kk| of the QR of each x = g[:, p][:, :, p] of a block g =
    stack(rows) (m, n, n), from its layout C[j, i] = x[:, i, j], written into
    out[:, p[k]], which maps it back to ambient coordinates.  The arithmetic
    is the plain one while every R_kk lies in _UNSCALED.  Otherwise the block
    is done again with each matrix of g whose largest entry leaves _UNSCALED
    divided by that entry, as in exp_span."""
    _gram_schmidt(C, p, out)
    if _UNSCALED[0] ** 2 <= out.min() and out.max() <= _UNSCALED[1] ** 2:
        np.log(out, out=out)
        out *= 0.5
        return
    C = stack(rows).transpose(2, 1, 0)[p[:, None], p]
    peak = np.abs(C).max(axis=(0, 1))
    if not np.all(np.isfinite(peak)):
        raise SingularInput("input matrix has non-finite entries")
    m = _scales(peak)
    C /= m
    _gram_schmidt(C, p, out)
    np.log(out, out=out)
    out *= 0.5
    out += np.log(m)[:, None]
    if not out.min() >= _LOG_TINY:
        raise SingularInput("matrix is numerically singular")


def _gram_schmidt(C, p, out) -> None:
    """Modified Gram-Schmidt on the columns C[j] (rows i, matrices last) of
    a stack (n, n, m), in place; writes |R_kk|^2 into out[:, p[k]].  Each
    step is one array operation over the whole stack.  Each column is
    projected off the later ones twice: one pass leaves rounding of order
    eps |x| along it, which swamps R_kk on row-graded input such as a h with
    a = exp(-25, 25).  The sums are ufunc reductions, which add in the same
    order at every stack size, so a matrix gets the same bits alone and in
    a batch."""
    for k in range(len(C)):
        q = C[k]
        ss = np.add.reduce(q * q, axis=0, out=out[:, p[k]])
        if k + 1 < len(C):
            rest, t = C[k + 1:], q / ss
            for _ in range(2):
                rest -= np.add.reduce(rest * q, axis=1, keepdims=True) * t


def _det(rows) -> Fraction:
    """Determinant of a square matrix of Fractions by exact elimination."""
    a = [list(r) for r in rows]
    det = Fraction(1)
    for k in range(len(a)):
        piv = next((i for i in range(k, len(a)) if a[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


def iwasawa_exact(g, a_log=None) -> np.ndarray:
    """log|R_kk| of the QR of exp(a_log) x for each matrix x of the stack g
    (m, n, n), as (log D_k - log D_{k-1}) / 2 with D_k the leading k x k
    minor of x^T exp(2 a_log) x.  Without a_log the minors are exact in the
    binary rationals of g, and only the logarithms round, at 60 digits;
    with it, the weights e^(2 a_i) round too, at 60 digits."""
    out = []
    with mpmath.workdps(60):
        w = [1] * np.shape(g)[-1] if a_log is None else [
            mpmath.exp(2 * mpmath.mpf(float(c))) for c in a_log]
        for x in np.asarray(g, dtype=float):
            cols = [[Fraction(v) for v in col] for col in x.T]
            gram = [[sum(wr * a * b for wr, a, b in zip(w, ci, cj)) for cj in cols]
                    for ci in cols]
            logs = [mpmath.mpf(0)] + [
                mpmath.log(mpmath.mpf(d.numerator) / d.denominator
                           if isinstance(d, Fraction) else d)
                for d in (_det([r[:k] for r in gram[:k]])
                          for k in range(1, len(cols) + 1))]
            out.append([float((hi - lo) / 2) for lo, hi in zip(logs, logs[1:])])
    return np.array(out)


def iwasawa_ideal(rz, draw, P, a_log=None, rows=None) -> np.ndarray:
    """H of a z exp(Y) for the given rows of a Draw (all when None), a =
    exp(a_log): Y = sum_k t_k basis[k] from the float t as the Draw clips
    it, exp by mpmath's expm, and (log D_k - log D_{k-1}) / 2 with D_k the
    leading k x k minor of x^T x, x the element conjugated by
    chamber_perm(rz, P); every step at 60 digits, rounded at the end."""
    with mpmath.workdps(60):
        return np.array([[float(h) for h in H] for H in _ideal_logs(
            rz, draw, P, a_log, rows)]).reshape(-1, rz.dim)


def _ideal_logs(rz, draw, P, a_log, rows) -> list:
    """iwasawa_ideal's rows as mpmath numbers, at the working precision."""
    n, p = rz.dim, chamber_perm(rz, P)
    a = np.zeros(n) if a_log is None else np.asarray(a_log, dtype=float)
    t = draw.t if draw.radius is None else draw.t * _clip_factors(
        draw.t, draw.basis, draw.radius)[:, None]
    out = []
    for i in range(len(t)) if rows is None else rows:
        Y = mpmath.matrix(n, n)
        for c, B in zip(t[i], draw.basis):
            Y += mpmath.mpf(c) * mpmath.matrix(B.tolist())
        g = mpmath.diag([mpmath.exp(mpmath.mpf(x)) for x in a]) * mpmath.expm(Y)
        if draw.centers is not None:
            g = mpmath.diag(draw.signs[draw.centers[i]].tolist()) * g
        x = mpmath.matrix([[g[int(r), int(c)] for c in p] for r in p])
        gram = x.T * x
        logs = [mpmath.mpf(0)] + [mpmath.log(mpmath.det(gram[:k, :k]))
                                  for k in range(1, n + 1)]
        H = [None] * n
        for k, lo, hi in zip(p, logs, logs[1:]):
            H[k] = (hi - lo) / 2
        out.append(H)
    return out
