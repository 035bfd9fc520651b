"""Helpers that only the tests read, and uncached references for the library.

``sigma_grp`` and ``contains`` state properties the tests check: the
involution on the group and membership up to a slack.  ``weyl_group`` is
the reflection group of a set of roots, closed from its reflection
matrices; the tests require the one closure of the package,
``Realization.weyl_reps``, and what it feeds (the small Weyl group, the
stabilisers W_X and the positive systems) to agree with it.  ``weyl_rep``
is a representative x_w in K of w, closed from one matrix per generator of
``Realization.weyl_gens`` in the package's closure order; the package
takes every point a x_w h at the Weyl image a_w instead, and the tests
hold the two forms to each other.  ``h_x_coords_fresh``
is the centralizer computation without the per-tie-pattern cache of
``critical.h_x_coords``; the tests require both to agree exactly.
``FractionSampleStack`` is ``critical.SampleStack`` in Fraction arithmetic,
every part read off the exact vectors X; the tests require the stack on
integer rows to give the same parts.
``transversal_signature_lstsq`` builds the predicted Hessian kernel in
h-coordinates, the nilpotent part by least squares, where
``critical.transversal_signature`` pairs flattened matrices; the tests
require equal signatures.  ``lp_project`` projects a lift by exact
Fourier-Motzkin elimination (``_lift`` builds the lift of conv(V) + cone(G)
and ``_eliminate`` projects it) and prunes the rows by one exact LP per
row; the tests require ``polyhedra.project_polyhedron``, which enumerates
the facets directly, to give the same facets with each normal taken
within the set's affine hull, and the same implicit equalities up to
span.  ``numeric_hessian_fresh`` and
``analytic_hessian_fresh`` are the Hessians of ``critical`` computed anew on
every call, one sample at a time, with one ``expm`` and one ``F`` per
numeric form; the tests require the memoised forms of a stack of samples
to equal them bit for bit.  ``kernel_dim_per_call``,
``signature_per_call``, ``transversal_signature_per_call`` and
``predicted_signature_per_call`` are the Hessian layer of one sample and
one Weyl element per call, the last with its per-orbit certificate dicts
(case, eigenvalues, transversal dimension) and with the products
alpha(X) alpha(w^{-1} a_log) taken of exact Fractions; the tests require
the batched layer to give the same kernel dimensions, signatures and
predictions.  ``critical_image_per_draw`` is the critical_image check
with one sample_H_X, sample_NPH, h_pq and level per draw; the tests
require the check, which batches per vanishing pattern, to give the same
report.  ``slack_dense`` and ``coverage_update_dense`` are the per-sample
kernels in their dense forms, with reductions over the short trailing
axes; the tests require the kernels to equal them bit for bit.
``exp_span_dense`` is the exponential of a span by the hyperbolic
Rodrigues formula, which the package never forms: it takes each sampled
point from its factors.  ``draw_elements`` builds from it the elements
exp(Y) n that the rows of a Draw stand for; the tests hold both to
scipy's ``expm`` and hand the built elements to the oracles that take
matrices.  ``sample_span_dense`` draws as ``matrixgrp.sample_span`` does
and builds its elements; the tests require ``draw_elements`` of the
sampler's draw to equal it bit for bit, which pins the stream.
``span_form_exact`` is the class test of a
span over Fractions; the tests hold ``matrixgrp.span_form`` to it.
``span_form_sym`` is span_form with its cubic checked on the 5-index
Sym(B_i B_j B_k) tensor, ``wedge_terms_loops`` is ``matrixgrp._wedge_terms``
with the wedge derivation built by loops over the subsets, and
``project_polyhedron_nullspace`` is ``polyhedra.project_polyhedron`` with
one Fraction nullspace per candidate normal; the tests require the
integer forms to give the same forms, terms and H-representations.
``sl2_triple`` is a span with square-zero elements and a nonzero form on
every n.  The Fraction algebra (``vec``, ``mat``, ``dot``, ``add``,
``combination``, ``mat_vec``, ``mat_mul``, ``unit_lead`` and the rest) is
the vector algebra the package kept in Fractions before every exact object
became an ``exactlin.Exact``; each function takes Exacts and rationals
alike and returns Fractions, so that the tests state what they expect in
Fractions.  ``hrep_pairs`` reads a Polyhedron's H-representation as pairs
(a, r) of Fractions, and ``exact_vec`` reads a base point given as floats
or strings.  ``rref_fraction``, ``nullspace_fraction`` and
``mat_inv_fraction`` are the exact kernels of ``exactlin`` in Fraction
arithmetic, the rows with pivot 1 and the kernel vectors with 1 at their
free column; the tests require the fraction-free kernels to return the
same rationals.  ``lp_solve_fraction`` is the two-phase simplex in
Fractions, with an objective; the tests require ``exactlin.lp_solve``, its
phase 1 on integer rows, to return the same point, and ``lp_project`` and
``paper_claims.proper_on_cone`` optimise with it.
"""
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg import expm

from orbitcone import exactlin as ex
from orbitcone.critical import (FD_STEP, SV_TOL, SampleStack, _dual,
                                critical_value,
                                h_x_coords, nph_basis, omega_X, sample_H_X,
                                sample_NPH, vanishing_patterns)
from orbitcone.harness import (MIN_DISPLACEMENT, Tally, _float_rows,
                               _require_regular, _stream)
from orbitcone.matrixgrp import (_UNSCALED, NotCubic, SingularInput, _scales,
                                 _SERIES_C, a_matrix, ek_projection, h_pq,
                                 span_form)
from orbitcone.rootsys import reflection_matrix


def sigma_grp(rz, g):
    """The involution of G whose differential is rz.sigma_alg; batched."""
    if rz.kind == "J":
        return rz.inv_np @ np.swapaxes(np.linalg.inv(g), -1, -2) @ rz.inv_np
    return rz.inv_np @ g @ rz.inv_np


def weyl_group(root_set, gram) -> tuple:
    """The group generated by the reflections in root_set, one per root
    direction, closed breadth first; its elements sorted."""
    gens = {unit_lead(a): reflection_matrix(a, gram)
            for a in sorted(set(map(ex.exact, root_set)))}
    ident = ex.identity(len(ex.exact(gram).num))
    elements, frontier = {ident}, [ident]
    while frontier:
        frontier = [w for w in {ex.mat_mul(s, w) for w in frontier
                                for s in gens.values()} if w not in elements]
        elements.update(frontier)
    return tuple(sorted(elements))


_ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])
# per preset, the representative in K of each of its Weyl generators
_WEYL_GEN_REPS = {
    "kostant_sl2": (_ROT90,),
    "sl2_so11": (),
    "sl3_so21": (np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]]),),
    "group_sl2": (np.kron(np.eye(2), _ROT90),),
}


def weyl_rep(rz, w) -> np.ndarray:
    """x_w in K with x_w^T a x_w = exp(w^{-1} log a): the product of the
    generator representatives along the first word of w in the closure
    order of rz.weyl_reps."""
    return _weyl_reps(rz)[w]


@lru_cache(maxsize=None)
def _weyl_reps(rz) -> dict:
    reps = {ex.identity(rz.dim): np.eye(rz.dim)}
    for w in rz.weyl_reps:
        for gen, x in zip(rz.weyl_gens, _WEYL_GEN_REPS[rz.name], strict=True):
            reps.setdefault(ex.mat_mul(gen, w), x @ reps[w])
    return reps


def contains(region, x, tol: float = 1e-7) -> bool:
    """Membership up to Euclidean distance tol outside every facet
    hyperplane; exact when tol == 0."""
    if tol == 0:
        return region.contains_exact(x)
    return bool(region.slack(x) >= -tol)


def _prune(rows):
    seen, out = set(), []
    for a, r in rows:
        if all(x == 0 for x in a):
            if r > 0:
                raise ValueError("projection produced an infeasible row")
            continue
        # a != 0, so the lead that scales the row comes from a
        key = unit_lead(tuple(a) + (r,))
        if key not in seen:
            seen.add(key)
            out.append((list(key[:-1]), key[-1]))
    return out


def _fm_eliminate(rows, j):
    pos, neg, zero = [], [], []
    for a, r in rows:
        c = a[j]
        (pos if c > 0 else neg if c < 0 else zero).append((a, r))
    out = list(zero)
    for ap, rp in pos:
        for an, rn in neg:
            cp, cn = ap[j], -an[j]
            a = [cn * x + cp * y for x, y in zip(ap, an)]
            a[j] = Fraction(0)
            out.append((a, cn * rp + cp * rn))
    return out


def _eliminate(eqs, ineqs, n_keep: int) -> list[tuple[list, Fraction]]:
    """Project {z : eq rows hold with equality, ineq rows with >=} onto the
    first n_keep coordinates.  Equalities are solved out first; remaining
    eliminated variables go through Fourier-Motzkin.  Every row comes back
    zero past n_keep and distinct up to positive scaling; an equality left
    over comes back as two opposite rows.  Redundant rows stay."""
    work_eqs = [([Fraction(x) for x in a], Fraction(r)) for a, r in eqs]
    work_ineqs = [([Fraction(x) for x in a], Fraction(r)) for a, r in ineqs]
    nvar = len((work_eqs + work_ineqs)[0][0])
    elim = list(range(n_keep, nvar))
    kept_eqs = []
    while work_eqs:
        a, r = work_eqs.pop()
        j = next((k for k in elim if a[k] != 0), None)
        if j is None:
            kept_eqs.append((a, r))
            continue
        c = a[j]
        expr = [x / c for x in a]
        expr[j] = Fraction(0)
        rr = r / c          # var_j = rr - expr . z

        def subst(rows):
            out = []
            for b, s in rows:
                cb = b[j]
                if cb != 0:
                    b = [x - cb * e for x, e in zip(b, expr)]
                    b[j] = Fraction(0)
                    s = s - cb * rr
                out.append((b, s))
            return out

        work_eqs = subst(work_eqs)
        work_ineqs = subst(work_ineqs)
        elim.remove(j)
    for j in elim:
        work_ineqs = _prune(_fm_eliminate(work_ineqs, j))
    return _prune(work_ineqs + kept_eqs + [([-x for x in a], -r) for a, r in kept_eqs])


def _lift(V, G):
    """(eqs, ineqs) of {(x, lambda, mu) : x = V^T lambda + G^T mu,
    sum lambda = 1, lambda, mu >= 0}, whose projection onto x is
    conv(V) + cone(G)."""
    cols = [vec(c) for c in list(V) + list(G)]
    n = len(cols[0])
    nvar = n + len(cols)
    eqs = []
    for i in range(n):
        row = [Fraction(0)] * nvar
        row[i] = Fraction(1)
        for k, c in enumerate(cols):
            row[n + k] = -c[i]
        eqs.append((row, Fraction(0)))
    srow = [Fraction(0)] * nvar
    for k in range(len(V)):
        srow[n + k] = Fraction(1)
    eqs.append((srow, Fraction(1)))
    ineqs = []
    for k in range(len(cols)):
        row = [Fraction(0)] * nvar
        row[n + k] = Fraction(1)
        ineqs.append((row, Fraction(0)))
    return eqs, ineqs


def _free_lp(rows, n: int, c):
    """lp_solve_fraction of max c.x subject to a[:n].x >= r for the pairs
    (a, r) of rows, x free, in the standard form x = u - v, u, v >= 0, one
    surplus per row; x comes back as u - v."""
    m = len(rows)
    A = [tuple(a[:n]) + neg(a[:n]) + tuple(-Fraction(t == k) for t in range(m))
         for k, (a, _) in enumerate(rows)]
    c = tuple(c) + neg(c) + zeros(m)
    status, x, val = lp_solve_fraction(A, [r for _, r in rows], c)
    return status, (None if x is None else sub(vec(x)[:n], vec(x)[n:2 * n])), val


def _implied(row, others, n: int) -> bool:
    a_i, r_i = row
    # min a_i.x subject to the others, as max of -a_i.x
    status, _, val = _free_lp(others, n, neg(a_i[:n]))
    return status == OPTIMAL and -val >= r_i


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


def _h_basis_exact(rz):
    """The h-basis as Fractions; Fraction(float) is exact."""
    return tuple(mat(b) for b in rz.h_basis)


def h_x_coords_fresh(rz, X):
    """Coordinates (over the h-basis) of a basis of the centralizer of X in
    h, from the nullspace of [X, U] over the h-basis U, computed anew."""
    X = vec(exact_vec(X))
    n = rz.dim
    Xm = tuple(tuple(X[i] if i == j else Fraction(0) for j in range(n)) for i in range(n))
    cols = []
    for U in _h_basis_exact(rz):
        br = mat_sub(mat_mul(Xm, U), mat_mul(U, Xm))
        cols.append(tuple(br[i][j] for i in range(n) for j in range(n)))
    A = tuple(tuple(col[k] for col in cols) for k in range(n * n))
    return tuple(nullspace_fraction(A))


@dataclass(frozen=True, eq=False)
class FractionSampleStack:
    """The parts of critical.SampleStack in Fraction arithmetic: the samples
    X = sum_k coords_k basis_k (X = coords without a basis), each entry one
    exact dot of the coordinates with a basis column, and every part read
    off the Fraction vectors."""
    rz: object
    coords: tuple
    basis: tuple | None = None

    @cached_property
    def X(self):
        if self.basis is None:
            return self.coords
        cols = transpose(self.basis)
        return tuple(mat_vec(cols, c) for c in self.coords)

    @cached_property
    def floats(self):
        return np.array(self.X, dtype=float).reshape(-1, self.rz.dim)

    @cached_property
    def gram(self):
        return tuple(mat_vec(self.rz.datum.gram, X) for X in self.X)

    @cached_property
    def ties(self):
        r = range(self.rz.dim)
        return tuple(frozenset((i, j) for i in r for j in r if X[i] == X[j])
                     for X in self.X)

    @cached_property
    def signs(self):
        out = {}
        for alpha in self.rz.datum.roots:
            if alpha not in out:
                s = np.sign(np.array([dot(alpha, X) for X in self.X],
                                     dtype=object)).astype(int)
                out[alpha], out[ex.neg(alpha)] = s, -s
        return out


def transversal_signature_lstsq(rz, form, X, P=None):
    """Signature of the numeric form on the complement of the predicted
    kernel, orthogonal for <Y, Z> = kappa tr(Y Z^T), with the kernel in
    coordinates over the h-basis."""
    P = P if P is not None else rz.base_parabolic
    dh = len(rz.h_basis)
    gram_h = np.array([[rz.kappa * np.trace(bi @ bj.T) for bj in rz.h_basis]
                       for bi in rz.h_basis])
    kern = [np.array([float(c) for c in coords])
            for coords in h_x_coords(rz, exact_vec(X))]
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
    return signature_per_call(T.T @ form @ T, form)


# --- the per-call Hessian layer: one sample and one Weyl element a call ----

def _predicted_kernel_per_call(rz, X, P=None):
    """Spanning set of (centralizer of X in h) + (sigma-fixed nilpotent
    part), as rows of flattened matrices; shape (k, dim * dim)."""
    P = P if P is not None else rz.base_parabolic
    vecs = [np.asarray(sum(float(c) * b for c, b in zip(coords, rz.h_basis))
                       ).reshape(-1) for coords in h_x_coords(rz, exact_vec(X))]
    vecs += [B.reshape(-1) for B in nph_basis(rz, P)]
    return np.stack(vecs) if vecs else np.zeros((0, rz.dim * rz.dim))


def _rank_per_call(sv):
    return int(np.sum(sv > SV_TOL * max(1.0, sv.max(initial=0.0))))


def kernel_dim_per_call(rz, X, P=None):
    """dim of (centralizer of X in h) + (nilpotent part inside h)."""
    return _rank_per_call(np.linalg.svd(_predicted_kernel_per_call(rz, X, P),
                                        compute_uv=False))


def signature_per_call(form, full):
    """(n_plus, n_zero, n_minus) of one symmetric form; eigenvalues within
    SV_TOL * max(1, largest entry of the full Hessian) of 0 count as zero."""
    scale = max(np.abs(full).max(), 1.0)
    ev = np.linalg.eigvalsh(form)
    n_plus = int(np.sum(ev > SV_TOL * scale))
    n_minus = int(np.sum(ev < -SV_TOL * scale))
    return (n_plus, len(ev) - n_plus - n_minus, n_minus)


def transversal_signature_per_call(rz, form, X, P=None):
    """Signature of one numeric form restricted to the complement of its
    predicted kernel, orthogonal for the theta-twisted inner product."""
    K = _predicted_kernel_per_call(rz, X, P)
    if len(K):
        B = np.stack([b.reshape(-1) for b in rz.h_basis])
        _, sv, vt = np.linalg.svd(K @ B.T)
        T = vt[_rank_per_call(sv):].T
    else:
        T = np.eye(len(rz.h_basis))
    return signature_per_call(T.T @ form @ T, form)


def predicted_signature_per_call(rz, a_log, X, w, P=None):
    """Exact positivity prediction plus per-orbit certificates, from the
    products alpha(X) alpha(w^{-1} a_log) of exact Fractions."""
    P = P if P is not None else rz.base_parabolic
    X = exact_vec(X)
    wln = mat_vec(mat_inv_fraction(w), exact_vec(a_log))
    parts = P.classification
    posdef = (all(dot(a, X) * dot(a, wln) <= 0 for a in parts.plus_part)
              and all(dot(a, X) >= 0 for a in parts.minus_part))
    certs = []
    for cls in P.orbit_classes:
        alpha = cls.root
        aX = dot(alpha, X)
        awl = dot(alpha, wln)
        dim_full, mp, mm = cls.mult
        entry = {"root": [str(c) for c in vec(alpha)],
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


def numeric_hessian_fresh(rz, a_log, X, w, P=None):
    """Cross-stencil second differences of F at x_w at steps FD_STEP and
    FD_STEP / 2, Richardson-extrapolated; both stencils go through one expm
    and one h_pq call, contracted with the dual of X by a gemv."""
    P = P if P is not None else rz.base_parabolic
    xw = weyl_rep(rz, w)
    basis = np.stack(rz.h_basis)
    dh = len(basis)
    signs = np.array([(1, 1), (1, -1), (-1, 1), (-1, -1)], dtype=float)
    steps = np.array([FD_STEP, FD_STEP / 2])
    # stencil[i, j, c] = signs[c, 0] basis[i] + signs[c, 1] basis[j]
    stencil = (signs[:, 0, None, None] * basis[:, None, None]
               + signs[:, 1, None, None] * basis[None, :, None])
    Z = np.multiply.outer(steps, stencil).reshape(-1, rz.dim, rz.dim)
    vals = h_pq(rz, xw @ expm(Z), P, np.asarray(vec(a_log), dtype=float)) \
        @ _dual(rz, np.asarray(vec(X), dtype=float))
    vals = vals.reshape(2, dh, dh, 4)
    d = ((vals[..., 0] - vals[..., 1] - vals[..., 2] + vals[..., 3])
         / (4 * steps[:, None, None] ** 2))
    out = (4.0 * d[1] - d[0]) / 3.0
    return 0.5 * (out + out.T)


def analytic_hessian_fresh(rz, a_log, X, w, P=None):
    """Form <U_i, L_w U_j> with L_w assembled from the transport operator."""
    P = P if P is not None else rz.base_parabolic
    xw = weyl_rep(rz, w)
    a = a_matrix(np.exp(np.asarray(vec(a_log), dtype=float)))
    aw = xw.T @ a @ xw
    aw_inv = np.linalg.inv(aw)
    Xm = a_matrix(np.asarray(vec(X), dtype=float))
    basis = np.stack(rz.h_basis)
    V = aw @ basis @ aw_inv
    V = ek_projection(V, P)
    V = aw @ V @ aw_inv
    V = Xm @ V - V @ Xm
    LV = -rz.pi_h(V)
    return rz.kappa * np.einsum("iab,jab->ij", basis, LV)


def critical_image_per_draw(rz, P, cfg):
    """harness._check_critical_image one draw at a time: per (Weyl element
    w, witness X), in that order, its own sample_H_X on one stream, its own
    sample_NPH, h_pq and Tally.feed, one critical_value per (X, w), and F's
    value at every x_w from one h_pq per X, contracted with the dual of X
    by a gemv.  A draw h = e^Y n is projected at a_w = diag(x_w^T a x_w),
    with n as its right factor: H(a x_w h) = H(a_w h)."""
    a_exact = _require_regular(rz, cfg)
    pats = vanishing_patterns(rz, per_pattern=10,
                              seed=_stream(cfg, "critical_image", 0))
    n_per = max(8, cfg.samples // 50)
    radius = cfg.radii[-1]
    a = _float_rows([a_exact], rz.dim)[0]
    tally = Tally(cfg.tol)
    exact_fail = 0
    for pi, (S, wits) in enumerate(pats):
        oms = sorted(omega_X(rz, a_exact, wits[0], P).items())
        xws = np.stack([weyl_rep(rz, w) for w, _ in oms])
        fvs = [h_pq(rz, xws, P, a) @ _dual(rz, _float_rows([X], rz.dim)[0])
               for X in wits]
        for wi, ((w, om), xw) in enumerate(zip(oms, xws)):
            for xi, X in enumerate(wits):
                draw = (pi, xi, wi)
                hx = sample_H_X(rz, X, radius, n_per,
                                [_stream(cfg, "critical_image", 1, *draw)])
                nh = sample_NPH(rz, P, n_per)
                a_w = np.diagonal(xw.T @ a_matrix(a) @ xw)
                tally.feed(om, h_pq(rz, replace(hx, right=nh), P, a_w))
                lv = vec(critical_value(rz, a_exact, SampleStack.of(rz, (X,)),
                                        [w])[0])[0]
                gX = mat_vec(rz.datum.gram, X)
                if min(dot(gX, u) for u in om.vertices) != lv:
                    exact_fail += 1
                if any(dot(gX, g) < 0 for g in om.generators):
                    exact_fail += 1
                fv = float(fvs[xi][wi])
                if abs(fv - float(lv)) > 1e-8 * max(1.0, abs(float(lv))):
                    exact_fail += 1
    return tally.result("critical_image", exact_fail == 0,
                        detail={"patterns": len(pats),
                                "exact_level_failures": exact_fail})


def slack_dense(region, x):
    """Polyhedron.slack with the facets along the last axis of x @ A.T."""
    A, b, norm = region._unit_rows
    x = np.asarray(x, dtype=float)
    return ((x @ A.T - b) / norm).min(axis=-1, initial=np.inf)


def coverage_update_dense(cover, vals):
    """_Coverage.update from the (points, vertices, coordinates) array of
    differences: norms and np.argmin over its short axes, and an arccos per
    point and generator."""
    d = vals[:, None, :] - cover.verts[None, :, :]
    dist = np.linalg.norm(d, axis=-1)
    cover.vdist = np.minimum(cover.vdist, dist.min(axis=0))
    if len(cover.gens) == 0:
        return
    pick = np.argmin(dist, axis=1)
    disp = vals - cover.verts[pick]
    nd = np.linalg.norm(disp, axis=-1)
    ok = nd >= MIN_DISPLACEMENT
    if not ok.any():
        return
    disp = disp[ok]
    nd = nd[ok]
    for i, g in enumerate(cover.gens):
        gu = g / np.linalg.norm(g)
        cos = np.clip((disp @ gu) / nd, -1.0, 1.0)
        cover.gaps[i] = min(cover.gaps[i], float(np.arccos(cos).min()))


def _rodrigues_dense(U, cu, m):
    """I + (m f1) U + (m^2 f2) U^2 for c = cu m^2, with f1 and f2 of c as in
    matrixgrp._column_coefficients, and f2 taken as 0 where U^2 = 0 over the
    two matrix axes.  Call under np.errstate(over="ignore",
    invalid="ignore")."""
    U2 = U @ U
    c = cu * m * m
    small = np.abs(c) < _SERIES_C
    su2 = np.where(small, 1.0, np.abs(cu))
    su = np.sqrt(su2)
    s = su * m
    hyper = c > 0
    half = np.where(hyper, np.sinh(s / 2), np.sin(s / 2))
    g1 = np.where(small, (1.0 + c / 6.0 + c * c / 120.0) * m,
                  np.where(hyper, np.sinh(s), np.sin(s)) / su)
    g2 = np.where(small, (0.5 + c / 24.0 + c * c / 720.0) * (m * m),
                  2.0 * half * half / su2)
    g2 = np.where(np.any(U2, axis=(-2, -1)), g2, 0.0)
    out = g1[:, None, None] * U
    out += np.eye(U.shape[-1])
    out += g2[:, None, None] * U2
    return out


def _finite(out):
    if not np.all(np.isfinite(out)):
        raise SingularInput("exponential overflows double precision")
    return out


def exp_span_dense(t, basis, radius=None):
    """exp Y for Y = sum_k t[:, k] basis[k], one per row of t (count, k), on
    a span with Y^3 = c Y for c = t^T Q t, Q = span_form(basis):
    I + f1(c) Y + f2(c) Y^2 with f1 = sinh(s)/s and f2 = 2 sinh(s/2)^2/c for
    s = sqrt(c), sin for sinh when c < 0, and exactly I + Y + Y^2/2 where
    Q = 0.  With radius, each Y longer than radius is first scaled down to
    that Frobenius norm, the squares added by np.sum, and its row of t with
    it.  Where the largest entry m of Y leaves _UNSCALED, Y / m and t / m
    give c.  Raises NotCubic as span_form does, SingularInput when exp Y is
    not finite in double precision."""
    t = np.array(t, dtype=float)
    Q = span_form(basis)
    n = basis.shape[-1]
    if radius is not None:
        t *= clip_factors_dense(t, basis, radius)[:, None]
    Y = np.einsum("cd,dij->cij", t, basis)
    with np.errstate(over="ignore", invalid="ignore"):
        if not Q.any():
            return _finite(np.eye(n) + Y + 0.5 * (Y @ Y))
        m = _scales(np.abs(Y).max(axis=(-2, -1)), _UNSCALED)
        tu = t / m[:, None]
        cu = sum(Q[i, j] * tu[:, i] * tu[:, j] for i, j in zip(*np.nonzero(Q)))
        return _finite(_rodrigues_dense(Y / m[:, None, None], cu, m))


def clip_factors_dense(t, basis, radius):
    """radius / |Y| for each Y = sum_k t[:, k] basis[k] whose Frobenius
    norm |Y|, the squares added by np.sum over the two matrix axes, exceeds
    radius, else 1."""
    Y = np.einsum("cd,dij->cij", t, basis)
    plain = np.sqrt(np.sum(Y * Y, axis=(-2, -1)))
    return np.where(plain > radius, radius / np.maximum(plain, 1e-300), 1.0)


def draw_elements(draw, rows=slice(None)) -> np.ndarray:
    """The elements exp(Y) n of the given rows of a Draw: exp_span_dense of
    the rows, and the elements of the same rows of the right factor
    multiplied on the right."""
    E = exp_span_dense(draw.t[rows], draw.basis, draw.radius)
    return E if draw.right is None else E @ draw_elements(draw.right, rows)


def sample_span_dense(basis, radius, count, seed):
    """matrixgrp.sample_span with exp_span_dense."""
    rng = np.random.default_rng(seed)
    coef = rng.normal(0.0, radius / 2.0, size=(count, len(basis)))
    return exp_span_dense(coef, basis, radius)


def sl2_triple(n: int) -> np.ndarray:
    """diag(1, -1, 0, ...), E_01 and E_10 in gl(n): a span with form
    t_0^2 + t_1 t_2 whose element E_01 has square zero."""
    B = np.zeros((3, n, n))
    B[0, 0, 0], B[0, 1, 1], B[1, 0, 1], B[2, 1, 0] = 1.0, -1.0, 1.0, 1.0
    return B


def span_form_exact(basis):
    """matrixgrp.span_form over Fractions, for any rational basis (k, n, n):
    c(B) = <B^3, B>/<B, B> polarised into Q, and Y^3 = (t^T Q t) Y checked
    on the coefficient of each monomial t_i t_j t_k, a sum over the distinct
    orderings of (i, j, k).  Returns Q as rows of Fractions; raises NotCubic
    when the span has no form."""
    B = [mat(b) for b in basis]

    def add_rows(x, y):
        return tuple(add(rx, ry) for rx, ry in zip(x, y))

    def cube_factor(b):
        norm = sum(dot(r, r) for r in b)
        cube = mat_mul(b, mat_mul(b, b))
        return sum(map(dot, cube, b)) / norm if norm else Fraction(0)

    c = [cube_factor(b) for b in B]
    Q = [[c[i] if i == j else (cube_factor(add_rows(B[i], B[j])) - c[i] - c[j]) / 2
          for j in range(len(B))] for i in range(len(B))]
    for triple in itertools.combinations_with_replacement(range(len(B)), 3):
        total = tuple(zeros(len(row)) for row in B[0])
        for a, b, d in set(itertools.permutations(triple)):
            total = add_rows(total, mat_sub(
                mat_mul(B[a], mat_mul(B[b], B[d])),
                tuple(scale(Q[a][b], row) for row in B[d])))
        if any(not is_zero(row) for row in total):
            raise NotCubic("span does not satisfy Y^3 = c Y with c quadratic")
    return Q


# --- Fraction algebra: the oracles of exactlin's integer rows ------------------

def vec(xs) -> tuple:
    """xs as a tuple of Fractions: an exactlin.Exact vector by its values,
    a sequence of rationals (Fraction(float) is exact) entry by entry."""
    if isinstance(xs, ex.Exact):
        return tuple(Fraction(n, xs.den) for n in xs.num)
    return tuple(x if type(x) is Fraction else Fraction(x) for x in xs)


def mat(rows) -> tuple:
    """rows as a tuple of Fraction rows; an exactlin.Exact matrix by its
    values."""
    if isinstance(rows, ex.Exact):
        return tuple(vec(ex.Exact(row, rows.den)) for row in rows.num)
    return tuple(vec(r) for r in rows)


def zeros(n: int) -> tuple:
    return (Fraction(0),) * n


def identity(n: int) -> tuple:
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def add(x, y) -> tuple:
    return tuple(a + b for a, b in zip(vec(x), vec(y), strict=True))


def sub(x, y) -> tuple:
    return tuple(a - b for a, b in zip(vec(x), vec(y), strict=True))


def scale(c, x) -> tuple:
    c = Fraction(c)
    return tuple(c * a for a in vec(x))


def neg(x) -> tuple:
    return tuple(-a for a in vec(x))


def is_zero(x) -> bool:
    return all(a == 0 for a in vec(x))


def dot(x, y) -> Fraction:
    """sum_k x_k y_k in Fractions; ValueError when the lengths differ."""
    return sum((a * b for a, b in zip(vec(x), vec(y), strict=True)), Fraction(0))


def combination(coeffs, vecs, n: int) -> tuple:
    """sum_k coeffs[k] vecs[k] in Q^n; ValueError when the lengths differ."""
    out = zeros(n)
    for c, v in zip(coeffs, vecs, strict=True):
        out = add(out, scale(c, v))
    return out


def mat_vec(m, x) -> tuple:
    return tuple(dot(row, x) for row in mat(m))


def transpose(m) -> tuple:
    return tuple(zip(*mat(m)))


def mat_mul(a, b) -> tuple:
    bt = transpose(b)
    return tuple(tuple(dot(ra, cb) for cb in bt) for ra in mat(a))


def mat_sub(a, b) -> tuple:
    return tuple(sub(ra, rb) for ra, rb in zip(mat(a), mat(b), strict=True))


def unit_lead(x) -> tuple:
    """x divided by the absolute value of its first nonzero entry."""
    x = vec(x)
    lead = abs(next(a for a in x if a != 0))
    return tuple(a / lead for a in x)


def hrep_pairs(rows) -> list:
    """Rows (a, r) of an H-representation, a.x >= r, as pairs of Fractions."""
    return [(row[:-1], row[-1]) for row in map(vec, rows)]


def exact_vec(v) -> ex.Exact:
    """v as an exact vector, each entry not a Fraction read from its str:
    a float by its shortest repr, a string as written."""
    if isinstance(v, ex.Exact):
        return v
    return ex.exact(Fraction(str(x)) if not isinstance(x, Fraction) else x for x in v)


def _pivot(T, r: int, c: int) -> None:
    """One Gauss-Jordan step in Fractions: scale row r to T[r][c] = 1 and
    clear column c from every other row."""
    inv = Fraction(1) / T[r][c]
    T[r] = [x * inv for x in T[r]]
    for i in range(len(T)):
        if i != r and T[i][c] != 0:
            f = T[i][c]
            T[i] = [x - f * y for x, y in zip(T[i], T[r])]


def rref_fraction(m):
    """Gauss-Jordan elimination in Fractions: (rows, pivot columns)."""
    rows = [list(vec(r)) for r in m]
    if not rows:
        return [], []
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        _pivot(rows, r, c)
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [tuple(row) for row in rows[:r]], pivots


def nullspace_fraction(m):
    """Basis of {x : m x = 0} in Fractions, 1 at its free column."""
    if not m:
        return []
    ncols = len(m[0])
    rows, pivots = rref_fraction(m)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for r, p in zip(rows, pivots):
            x[p] = -r[f]
        basis.append(tuple(x))
    return basis


def mat_inv_fraction(m):
    m = mat(m)
    n = len(m)
    rows, pivots = rref_fraction([list(r) + [Fraction(int(i == j)) for j in range(n)]
                                  for i, r in enumerate(m)])
    if pivots[:n] != list(range(n)):
        raise ValueError("singular matrix")
    return tuple(tuple(row[n:]) for row in rows)


# --- the two-phase simplex in Fractions: the LP oracle ----------------------

OPTIMAL, INFEASIBLE, UNBOUNDED = "optimal", "infeasible", "unbounded"


def _simplex_core(T: list[list], basis: list[int], ncols: int) -> str:
    # maximizes the objective stored in the last tableau row; Bland's rule
    while True:
        obj = T[-1]
        c = next((j for j in range(ncols) if obj[j] < 0), None)
        if c is None:
            return OPTIMAL
        best, r = None, None
        for i in range(len(T) - 1):
            if T[i][c] > 0:
                ratio = T[i][-1] / T[i][c]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[r]):
                    best, r = ratio, i
        if r is None:
            return UNBOUNDED
        _pivot(T, r, c)
        basis[r] = c


def lp_solve_fraction(A, b, c=None):
    """max c.x subject to A x = b, x >= 0, exactly, for the rows A (Exacts
    or rationals): the two-phase simplex with Bland's rule in Fractions.
    At c=None it is phase 1 alone, which exactlin.lp_solve runs on integer
    rows.

    Returns (status, x, value); x is an Exact and value a Fraction, both
    None when infeasible, and value is None when unbounded.  Pass c=None
    for pure feasibility.
    """
    A = [list(vec(row)) for row in A]
    b = list(vec(b))
    m, n = len(A), (len(A[0]) if A else (len(vec(c)) if c is not None else 0))
    for i in range(m):
        if b[i] < 0:
            A[i] = [-x for x in A[i]]
            b[i] = -b[i]
    # phase 1: maximize -sum(artificials); invariant: last row holds reduced
    # costs and, in its final entry, the current objective value
    T = [A[i] + [Fraction(int(j == i)) for j in range(m)] + [b[i]] for i in range(m)]
    obj = [0] * n + [1] * m + [0]
    for i in range(m):
        obj = [x - y for x, y in zip(obj, T[i])]
    T.append(obj)
    basis = [n + i for i in range(m)]
    _simplex_core(T, basis, n + m)
    if T[-1][-1] != 0:
        return INFEASIBLE, None, None
    # drive artificials out of the basis where possible, then drop them
    for i in range(m):
        if basis[i] >= n:
            cidx = next((j for j in range(n) if T[i][j] != 0), None)
            if cidx is not None:
                _pivot(T, i, cidx)
                basis[i] = cidx
    keep = [i for i in range(m) if basis[i] < n]
    T = [[T[i][j] for j in range(n)] + [T[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]
    status, value = OPTIMAL, 0
    if c is not None:
        # phase 2
        obj = [-x for x in vec(c)] + [0]
        for i, bi in enumerate(basis):
            if obj[bi] != 0:
                f = obj[bi]
                obj = [x - f * y for x, y in zip(obj, T[i])]
        T.append(obj)
        status = _simplex_core(T, basis, n)
        value = T[-1][-1] if status == OPTIMAL else None
    x = [0] * n
    for i, bi in enumerate(basis):
        x[bi] = T[i][-1]
    return status, ex.exact(x), value


def span_form_sym(basis):
    """matrixgrp.span_form as it was checked before the lattice: Q polarised
    from c(B) = <B^3, B>/<B, B> at each B_i + B_j, and Sym(B_i B_j B_k) =
    Sym(Q_ij B_k) tested on the 5-index int64 tensor of every ordered
    triple.  Returns Q in floats, as span_form does; raises as it does."""
    B = np.asarray(basis, dtype=float)
    Bi, k = B.astype(np.int64), len(B)
    if not np.array_equal(Bi, B):
        raise ValueError("span basis is not integer-valued")

    def c(b):               # c(b) when b^3 = c(b) b; c(2b) = 4 c(b)
        norm = int(np.sum(b * b))
        return Fraction(int(np.sum(b @ b @ b * b)), norm) if norm else Fraction(0)

    Q = np.array([[(c(bi + bj) - c(bi) - c(bj)) / 2 for bj in Bi] for bi in Bi],
                 dtype=object).reshape(k, k)
    d = math.lcm(*(q.denominator for q in Q.flat))
    dQ = (Q * d).astype(np.int64)
    resid = (d * np.einsum("aij,bjk,ckl->abcil", Bi, Bi, Bi)
             - np.einsum("ab,cil->abcil", dQ, Bi))
    if sum(resid.transpose(*p, 3, 4) for p in itertools.permutations(range(3))).any():
        raise NotCubic("span does not satisfy Y^3 = c Y with c quadratic")
    return dQ / d


def wedge_terms_loops(basis, J):
    """matrixgrp._wedge_terms with W = wedge^k Y built entry by entry, by
    loops over the k-subsets, and Q from span_form_sym."""
    B = np.asarray(basis, dtype=float).astype(np.int64)
    n = B.shape[-1]
    subsets = list(itertools.combinations(range(n), len(J)))
    at = {I: i for i, I in enumerate(subsets)}
    W = np.zeros((len(B), len(subsets), len(subsets)), np.int64)
    for col, I in enumerate(subsets):
        for pos, i in enumerate(I):
            for r in range(n):      # e_i -> B[:, r, i] e_r at pos
                if r == i or r not in I:
                    moved = I[:pos] + (r,) + I[pos + 1:]
                    sign = (-1) ** sum(x > y for x, y in
                                       itertools.combinations(moved, 2))
                    W[:, at[tuple(sorted(moved))], col] += sign * B[:, r, i]
    Q, lin = span_form_sym(W.astype(float)), W[:, :, at[J]]
    sq = np.einsum("aij,bj->abi", W, lin)
    pairs = [(a, b) for a in range(len(B)) for b in range(a, len(B))]

    def terms(coef):
        return tuple((c, x) for c, x in zip(coef, [(a,) for a in range(len(B))]
                                            + pairs) if c)
    entries = tuple((I, I == J, terms([int(x) for x in lin[:, i]] + [
        int(sq[a, b, i] + sq[b, a, i] if a < b else sq[a, a, i])
        for a, b in pairs])) for i, I in enumerate(subsets))
    return (terms([0] * len(B) + [Q[a, b] + Q[b, a] if a < b else Q[a, a]
                                  for a, b in pairs]),
            tuple(e for e in entries if e[1] or e[2]))


def project_polyhedron_nullspace(V, G):
    """polyhedra.project_polyhedron on Fraction rows: E and each candidate
    normal a nullspace by exact row reduction, a normal kept when the
    nullspace of E and d - 1 spans is one line, every sign test a dot of
    Fractions, and each row scaled by unit_lead."""
    def unit_row(a, r):
        key = unit_lead(a + (r,))
        return key[:-1], key[-1]
    V, G = [vec(v) for v in V], [vec(g) for g in G]
    n = len(V[0])
    zero = zeros(n)
    E = nullspace_fraction([sub(v, V[0]) for v in V] + list(G))
    rows = set()
    for e in E:
        r = dot(e, V[0])
        rows |= {unit_row(e, r), unit_row(neg(e), -r)}
    d = n - len(E)
    for vb in V if d else ():
        spans = [sub(v, vb) for v in V] + list(G)
        spans = [c for c in dict.fromkeys(spans) if not is_zero(c)]
        for S in itertools.combinations(spans, d - 1):
            normal = nullspace_fraction([zero, *E, *S])
            if len(normal) != 1:
                continue
            a, = normal
            r = dot(a, vb)
            s = [dot(a, v) - r for v in V] + [dot(a, g) for g in G]
            if min(s) >= 0:
                rows.add(unit_row(a, r))
            elif max(s) <= 0:
                rows.add(unit_row(neg(a), -r))
    return sorted(rows)
