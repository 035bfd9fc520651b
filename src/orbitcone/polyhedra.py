"""Exact polyhedral geometry for the orbit-polytope-plus-cone sets.

One type, ``Polyhedron``, holds conv(V) + cone(G) by its V-representation;
a cone is the polyhedron with the single vertex 0.  The H-representation
is derived once per object by exact Fourier-Motzkin elimination and
memoized, for the origin and zero generators too.  Redundant rows are removed
by incidence rank: a row stays when the vertices and generators it is tight
on span a facet, or when it is an implicit equality.  Membership is decided
on the H-representation, exactly or by Euclidean facet slacks; pointedness
by exact LP feasibility, the one LP left.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from . import exactlin as ex
from .exactlin import Mat, Vec
from .parabolic import PositiveSystem
from .rootsys import Root, SymmetricPairDatum, coroot

Ineq = tuple[Vec, Fraction]     # (a, r) meaning a.x >= r


# --- exact Fourier-Motzkin projection --------------------------------------

def _prune(rows):
    seen, out = set(), []
    for a, r in rows:
        if all(x == 0 for x in a):
            if r > 0:
                raise ValueError("projection produced an infeasible row")
            continue
        # a != 0, so the lead that scales the row comes from a
        key = ex.unit_lead(tuple(a) + (r,))
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


def _lift(V: Sequence[Vec], G: Sequence[Vec]):
    """(eqs, ineqs) of {(x, lambda, mu) : x = V^T lambda + G^T mu,
    sum lambda = 1, lambda, mu >= 0}, whose projection onto x is
    conv(V) + cone(G)."""
    n = len(V[0])
    cols = list(V) + list(G)
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


def _facets(rows, V: Sequence[Vec], G: Sequence[Vec]) -> list[Ineq]:
    """The rows, valid for P = conv(V) + cone(G), that an irredundant system
    keeps: every implicit equality (tight on all of V and G), and for each
    facet the last row inducing it.  A row a.x >= r is tight on the face
    conv(V_t) + cone(G_t), where V_t = {v : a.v = r} and G_t = {g : a.g = 0};
    the face is a facet when the rank of {v - v_0 : v in V_t} and G_t is
    one less than that of V and G.  With no tight vertex the row supports
    no face and is dropped.  Two rows of _eliminate never share a facet,
    as each is one combination of the lift's inequalities up to scale;
    others can only where P is not full-dimensional."""
    n = len(V[0])

    def dim(vs, gs):
        return len(ex.rref([ex.sub(v, vs[0]) for v in vs[1:]] + list(gs))[1])

    d = dim(V, G)
    equalities, facets = [], {}
    for a, r in rows:
        a = tuple(a[:n])
        tv = tuple(k for k, v in enumerate(V) if ex.dot(a, v) == r)
        tg = tuple(k for k, g in enumerate(G) if ex.dot(a, g) == 0)
        if len(tv) == len(V) and len(tg) == len(G):
            equalities.append((a, r))
        elif tv and dim([V[k] for k in tv], [G[k] for k in tg]) == d - 1:
            facets[tv, tg] = (a, r)
    return equalities + list(facets.values())


def project_polyhedron(V: Sequence[Vec], G: Sequence[Vec]) -> list[Ineq]:
    """Sorted H-representation of conv(V) + cone(G): its lift through
    _eliminate, pruned to the facets and implicit equalities by _facets."""
    rows = _eliminate(*_lift(V, G), len(V[0]))
    return sorted(_facets(rows, V, G))


# --- polyhedra -------------------------------------------------------------

@dataclass(frozen=True)
class Polyhedron:
    """conv(vertices) + cone(generators).

    The H-representation is derived once and memoized.  Float membership is
    judged by the slack: the signed Euclidean distance from a point to the
    facet hyperplanes, so a tolerance ``tol`` admits points at most ``tol``
    outside any facet hyperplane.
    """
    vertices: tuple[Vec, ...]
    generators: tuple[Vec, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "vertices",
                           tuple(sorted(ex.vec(v) for v in self.vertices)))
        object.__setattr__(self, "generators",
                           tuple(ex.vec(g) for g in self.generators))

    @property
    def ambient(self) -> int:
        return len(self.vertices[0])

    @cached_property
    def hrep(self) -> tuple[Ineq, ...]:
        return tuple(project_polyhedron(self.vertices, self.generators))

    @cached_property
    def _unit_facets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        A = np.array([[float(c) for c in a] for a, _ in self.hrep]
                     ).reshape(-1, self.ambient)
        b = np.array([float(r) for _, r in self.hrep])
        return A, b, np.linalg.norm(A, axis=1)

    def slack(self, x):
        """Min over facets a.x >= r of (a.x - r) / |a|: the distance to the
        nearest facet hyperplane inside, minus the largest distance outside
        one; batched over the leading axes of x, +inf with no facets.  The
        slacks are formed facet-major, one row per facet, so that the min
        runs along the points."""
        A, b, norm = self._unit_facets
        x = np.asarray(x, dtype=float)
        s = A @ x.reshape(-1, self.ambient).T
        s -= b[:, None]
        s /= norm[:, None]
        return s.min(axis=0, initial=np.inf).reshape(x.shape[:-1])[()]

    def contains_exact(self, x: Vec) -> bool:
        x = ex.vec(x)
        return all(ex.dot(a, x) >= r for a, r in self.hrep)


def cone(generators: Sequence[Vec], n: int) -> Polyhedron:
    """cone(generators) in Q^n: the polyhedron with the single vertex 0."""
    return Polyhedron((ex.zeros(n),), tuple(generators))


# --- cone predicates -------------------------------------------------------

def _free_lp(rows, n: int, c: Vec | None = None):
    """lp_solve of max c.x subject to a[:n].x >= r for (a, r) in rows, x
    free, in the standard form x = u - v, u, v >= 0, one surplus per row;
    x comes back as u - v.  c=None asks for feasibility only."""
    m = len(rows)
    A = tuple(tuple(a[:n]) + ex.neg(a[:n])
              + tuple(Fraction(-1) if t == k else Fraction(0) for t in range(m))
              for k, (a, _) in enumerate(rows))
    b = tuple(Fraction(r) for _, r in rows)
    if c is not None:
        c = tuple(c) + ex.neg(c) + ex.zeros(m)
    status, x, val = ex.lp_solve(A, b, c)
    return status, (None if x is None else ex.sub(x[:n], x[n:2 * n])), val


def pointedness_certificate(c: Polyhedron) -> Vec | None:
    """An exact functional xi with xi.g > 0 for every nonzero generator of
    the cone c, or None when c is not pointed: by Gordan's alternative, xi
    exists exactly when no nonzero nonnegative combination of generators
    is 0."""
    gens = [g for g in c.generators if not ex.is_zero(g)]
    n = c.ambient
    if not gens:
        return tuple([Fraction(0)] * n)
    # find xi with xi.g >= 1 for all g: feasibility with free xi
    st, xi, _ = _free_lp([(g, Fraction(1)) for g in gens], n)
    if st != ex.OPTIMAL:
        return None
    assert all(ex.dot(xi, g) > 0 for g in gens)
    return xi


# --- the cones of the theory ----------------------------------------------

def gamma_a(roots: Sequence[Root], gram: Mat) -> Polyhedron:
    """Cone generated by the coroots H_alpha over the given roots."""
    gens = [coroot(a, gram) for a in sorted(set(map(ex.vec, roots)))]
    return cone(gens, len(gram))


def gamma_aq(roots: Sequence[Root], datum: SymmetricPairDatum) -> Polyhedron:
    """pr_q of gamma_a: generators pr_q(H_alpha)."""
    gens = [datum.pr_q(coroot(a, datum.gram))
            for a in sorted(set(map(ex.vec, roots)))]
    return cone(gens, len(datum.gram))


def gamma_cone(P: PositiveSystem) -> Polyhedron:
    """Generators pr_q(H_alpha) over Sigma(P)_-."""
    return gamma_aq(sorted(P.classification.minus_part), P.datum)


def omega(w_orbit, gamma: Polyhedron) -> Polyhedron:
    """conv(w_orbit) + gamma, for the orbit as points, such as
    rootsys.weyl_orbit gives."""
    return Polyhedron(tuple(set(map(ex.vec, w_orbit))), gamma.generators)


def gk_cone(P: PositiveSystem, Q: PositiveSystem) -> Polyhedron:
    """Gamma_a over Sigma(P) intersect Sigma(Q-bar): unprojected coroots.
    Pairs with the same support share one object, and so one H-rep."""
    return _gk_cone(frozenset(P.positive & Q.negative), P.datum.gram)


@lru_cache(maxsize=None)
def _gk_cone(support: frozenset, gram: Mat) -> Polyhedron:
    return gamma_a(support, gram)
