"""Helpers that only the tests read, and uncached references for the library.

``sigma_grp`` and ``contains`` state properties the tests check: the
involution on the group and membership up to a slack.  ``h_x_coords_fresh``
is the centralizer computation without the per-tie-pattern cache of
``critical.h_x_coords``; the tests require both to agree exactly.
``transversal_signature_lstsq`` builds the predicted Hessian kernel in
h-coordinates, the nilpotent part by least squares, where
``critical.transversal_signature`` pairs flattened matrices; the tests
require equal signatures.  ``lp_project`` is the projection of
``polyhedra._eliminate`` pruned by one exact LP per row, the pass that the
incidence-rank facet test of ``polyhedra._facets`` replaced; the tests
require both to give the same rows.
"""
from fractions import Fraction

import numpy as np

from orbitcone import exactlin as ex
from orbitcone.critical import (SV_TOL, _exact_vec, _h_basis_exact,
                                h_x_coords, nph_basis)
from orbitcone.polyhedra import _eliminate, _free_lp


def sigma_grp(rz, g):
    """The involution of G whose differential is rz.sigma_alg; batched."""
    if rz.kind == "J":
        return rz.inv_np @ np.swapaxes(np.linalg.inv(g), -1, -2) @ rz.inv_np
    return rz.inv_np @ g @ rz.inv_np


def contains(region, x, tol: float = 1e-7) -> bool:
    """Membership up to Euclidean distance tol outside every facet
    hyperplane; exact when tol == 0."""
    if tol == 0:
        return region.contains_exact(x)
    return bool(region.slack(x) >= -tol)


def _implied(row, others, n: int) -> bool:
    a_i, r_i = row
    # min a_i.x subject to the others, as max of -a_i.x
    status, _, val = _free_lp(others, n, ex.neg(a_i[:n]))
    return status == ex.OPTIMAL and -val >= r_i


def lp_project(eqs, ineqs, n_keep: int) -> list:
    """Sorted projection of {eq rows with equality, ineq rows with >=} onto
    the first n_keep coordinates: the rows of _eliminate, each in turn
    dropped when the rows still kept imply it (one exact LP per row)."""
    rows = _eliminate(eqs, ineqs, n_keep)
    i = 0
    while i < len(rows):
        others = rows[:i] + rows[i + 1:]
        if others and _implied(rows[i], others, n_keep):
            rows.pop(i)
        else:
            i += 1
    return sorted((tuple(a[:n_keep]), r) for a, r in rows)


def h_x_coords_fresh(rz, X):
    """Coordinates (over the h-basis) of a basis of the centralizer of X in
    h, from the nullspace of [X, U] over the h-basis U, computed anew."""
    X = _exact_vec(X)
    n = rz.dim
    Xm = tuple(tuple(X[i] if i == j else Fraction(0) for j in range(n)) for i in range(n))
    cols = []
    for U in _h_basis_exact(rz):
        br = ex.mat_sub(ex.mat_mul(Xm, U), ex.mat_mul(U, Xm))
        cols.append(tuple(br[i][j] for i in range(n) for j in range(n)))
    A = tuple(tuple(col[k] for col in cols) for k in range(n * n))
    return tuple(ex.nullspace(A))


def transversal_signature_lstsq(rz, report, X, P=None):
    """Signature of report.numeric_form on the complement of the predicted
    kernel, orthogonal for <Y, Z> = kappa tr(Y Z^T), with the kernel in
    coordinates over the h-basis."""
    P = P if P is not None else rz.base_parabolic
    dh = len(rz.h_basis)
    gram_h = np.array([[rz.kappa * np.trace(bi @ bj.T) for bj in rz.h_basis]
                       for bi in rz.h_basis])
    kern = [np.array([float(c) for c in coords]) for coords in h_x_coords(rz, X)]
    B = np.stack([b.reshape(-1) for b in rz.h_basis]).T
    for V in nph_basis(rz, P):
        sol = np.linalg.lstsq(B, V.reshape(-1), rcond=None)[0]
        if np.abs(B @ sol - V.reshape(-1)).max() > 1e-9:
            raise ValueError("matrix is not in the span of the h-basis")
        kern.append(sol)
    if kern:
        # complement: vectors v with (K G) v = 0
        _, sv, vt = np.linalg.svd(np.stack(kern) @ gram_h)
        rank = int(np.sum(sv > SV_TOL * max(1.0, sv[0] if len(sv) else 1.0)))
        T = vt[rank:].T
    else:
        T = np.eye(dh)
    if T.shape[1] == 0:
        return (0, 0, 0)
    form = T.T @ report.numeric_form @ T
    scale = max(np.abs(report.numeric_form).max(), 1.0)
    ev = np.linalg.eigvalsh(form)
    n_plus = int(np.sum(ev > SV_TOL * scale))
    n_minus = int(np.sum(ev < -SV_TOL * scale))
    return (n_plus, len(ev) - n_plus - n_minus, n_minus)
