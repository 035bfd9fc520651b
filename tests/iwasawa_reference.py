"""Reference K A N_P factorization used by several test files.

One full QR of the input conjugated by the permutation matrix of
chamber_perm gives all three factors at once.  The library computes only
the Iwasawa log H, from R alone; the tests compare it with this reference
and take the unipotent factor n from here.
"""
import numpy as np

from orbitcone.matrixgrp import chamber_perm


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
