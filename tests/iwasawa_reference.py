"""Reference K A N_P factorization used by several test files.

One full QR of the input conjugated by the permutation matrix of
chamber_perm gives all three factors at once.  The library computes only
the Iwasawa log H, from R alone; the tests compare it with this reference
and take the unipotent factor n from here.  iwasawa_exact gives H of the
base system to 60 digits, for judging the accuracy of both.
iwasawa_ideal gives H of the element that a Draw stands for, a z exp(Y)
with Y formed from the float t, to 60 digits, for judging the factored
kernel that never forms the element.
"""
from fractions import Fraction

import mpmath
import numpy as np

from orbitcone.matrixgrp import _clip_factors, chamber_perm


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


def iwasawa_exact(g) -> np.ndarray:
    """log|R_kk| of the QR of each matrix of the stack g (m, n, n), as
    (log D_k - log D_{k-1}) / 2 with D_k the leading k x k minor of g^T g.
    The minors are exact in the binary rationals of g, and only the
    logarithms round, at 60 digits."""
    out = []
    with mpmath.workdps(60):
        for x in np.asarray(g, dtype=float):
            cols = [[Fraction(v) for v in col] for col in x.T]
            gram = [[sum(a * b for a, b in zip(ci, cj)) for cj in cols]
                    for ci in cols]
            logs = [mpmath.mpf(0)] + [
                mpmath.log(mpmath.mpf(d.numerator) / d.denominator)
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
