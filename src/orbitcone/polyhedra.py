"""Exact polyhedral geometry for the orbit-polytope-plus-cone sets.

One type, ``Polyhedron``, holds conv(V) + cone(G) by its V-representation;
a cone is the polyhedron with the single vertex 0.  The H-representation
is enumerated once per object straight from V and G, and memoized: the
implicit equalities of the set's affine hull, and one row per facet, whose
normal lies in the hull's direction space.  Each row is found from a
vertex and the vertices and generators it is tight on, as an integer
cross product, so every kept row is a facet and no filter runs
afterwards.  A row is one exactlin.Exact (a, r) for a.x >= r, scaled so
that the lead of a is +-1.  Membership is decided on the
H-representation, exactly or by Euclidean facet slacks; pointedness by
exact LP feasibility, the one LP left.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from . import exactlin as ex
from .exactlin import Exact
from .parabolic import PositiveSystem
from .rootsys import Root, SymmetricPairDatum, coroot


# --- facets by enumeration ---------------------------------------------------

def _det(m: list[list[int]]) -> int:
    """Determinant of a small integer matrix by Laplace expansion down to
    2 x 2; 1 for no rows."""
    if len(m) < 3:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0] if m[1:] else m[0][0] if m else 1
    return sum((-1) ** j * x * _det([r[:j] + r[j + 1:] for r in m[1:]])
               for j, x in enumerate(m[0]) if x)


def project_polyhedron(V: Sequence[Exact], G: Sequence[Exact]) -> list[Exact]:
    """Sorted H-representation of P = conv(V) + cone(G), each row (a, r)
    scaled so that the lead of a is +-1.  The implicit equalities are e.x =
    e.v_0, each as two rows, for e in a basis E of the vectors orthogonal to
    every v - v_0 and every g; P spans d = n - |E| dimensions.  A facet is
    a valid row a.x >= a.v_b at a vertex v_b that is tight on d - 1
    independent vectors S among the v - v_b and g: a is the cross product
    (signed minors) of the n - 1 rows E and S, 0 when they are dependent,
    so it lies in the direction space of P's affine hull.  Every such row is
    a facet and every facet has one (Ziegler, Lectures on Polytopes, 2.1).
    V is over one denominator and every other row primitive."""
    n = len(V[0].num)
    Vi, den = ex.common(V)
    Gi = [ex.primitive(g.num) for g in G]
    # v_0 - v_0 keeps the rows nonempty for a lone point (E is every e_i)
    E = ex.nullspace(list(dict.fromkeys(
        [tuple(x - y for x, y in zip(v, Vi[0])) for v in Vi] + Gi)))
    rows = {}       # primitive normal a: a.v over den, v a vertex on its plane
    for e in E:
        rows[e], rows[tuple(-x for x in e)] = (r := ex.int_dot(e, Vi[0])), -r
    for vb in Vi if n > len(E) else ():     # a point has no facets
        # one row per direction: parallel rows leave no normal
        spans = [c for c in dict.fromkeys([ex.primitive(
            [x - y for x, y in zip(v, vb)]) for v in Vi] + Gi) if any(c)]
        for S in itertools.combinations(spans, n - len(E) - 1):
            a = [_det([[int(i == j) for i in range(n)], *E, *S]) for j in range(n)]
            s = [ex.int_dot(a, c) for c in spans]
            if any(a) and (min(s) >= 0 or max(s) <= 0):
                a = ex.primitive([x if min(s) >= 0 else -x for x in a])
                rows[a] = ex.int_dot(a, vb)
    # a.x >= r / den is (den a, r) over the absolute value of its lead, the
    # lead of a != 0
    return sorted(Exact(row, abs(next(filter(None, row)))) for row in (
        tuple(den * x for x in a) + (r,) for a, r in rows.items()))


# --- polyhedra -------------------------------------------------------------

@dataclass(frozen=True)
class Polyhedron:
    """conv(vertices) + cone(generators).

    The H-representation is derived once and memoized.  Float membership is
    judged by the slack: the signed Euclidean distance from a point to the
    facet hyperplanes, so a tolerance ``tol`` admits points at most ``tol``
    outside any facet hyperplane.  A facet hyperplane is taken within the
    set's affine hull, so inside the hull the slack is the distance there;
    a point off the hull is judged by the implicit-equality rows as well.
    At least one vertex is required; a cone has the vertex 0.
    """
    vertices: tuple[Exact, ...]
    generators: tuple[Exact, ...] = ()

    def __post_init__(self):
        vertices = tuple(sorted(map(ex.exact, self.vertices)))
        if not vertices:
            raise ValueError("a polyhedron needs at least one vertex")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "generators",
                           tuple(map(ex.exact, self.generators)))

    @property
    def ambient(self) -> int:
        return len(self.vertices[0].num)

    @cached_property
    def hrep(self) -> tuple[Exact, ...]:
        return tuple(project_polyhedron(self.vertices, self.generators))

    @cached_property
    def _unit_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        rows = np.array([ex.floats(row) for row in self.hrep]).reshape(
            -1, self.ambient + 1)
        A, b = rows[:, :-1], rows[:, -1]
        return A, b, np.linalg.norm(A, axis=1)

    def slack(self, x):
        """Min over facets a.x >= r of (a.x - r) / |a|: the distance to the
        nearest facet hyperplane inside, minus the largest distance outside
        one; batched over the leading axes of x, +inf with no facets.  The
        slacks are formed facet-major, one row per facet, so that the min
        runs along the points."""
        A, b, norm = self._unit_rows
        x = np.asarray(x, dtype=float)
        s = A @ x.reshape(-1, self.ambient).T
        s -= b[:, None]
        s /= norm[:, None]
        return s.min(axis=0, initial=np.inf).reshape(x.shape[:-1])[()]

    def contains_exact(self, x) -> bool:
        x = ex.exact(x)
        return all(ex.int_dot(row.num, x.num) >= row.num[-1] * x.den
                   for row in self.hrep)


def cone(generators: Sequence[Exact], n: int) -> Polyhedron:
    """cone(generators) in Q^n: the polyhedron with the single vertex 0."""
    return Polyhedron((ex.zeros(n),), tuple(generators))


# --- cone predicates -------------------------------------------------------

def pointedness_certificate(c: Polyhedron) -> Exact | None:
    """An exact functional xi with xi.g > 0 for every nonzero generator of
    the cone c, or None when c is not pointed: by Gordan's alternative, xi
    exists exactly when no nonzero nonnegative combination of generators
    is 0.  Raises RuntimeError when the LP's xi fails that test."""
    gens = [g for g in c.generators if any(g.num)]
    n = c.ambient
    if not gens:
        return ex.zeros(n)
    # find xi with xi.g >= 1 for all g: feasibility of g.u - g.v - s_g = 1
    # for xi = u - v, with u, v and one surplus s_g per generator >= 0
    m = len(gens)
    x = ex.lp_solve([Exact(g.num + tuple(-a for a in g.num) + tuple(
        -g.den * (t == k) for t in range(m)), g.den) for k, g in enumerate(gens)],
        Exact((1,) * m))
    if x is None:
        return None
    xi = Exact(tuple(u - v for u, v in zip(x.num[:n], x.num[n:2 * n])), x.den)
    if not all(ex.int_dot(xi.num, g.num) > 0 for g in gens):
        raise RuntimeError("the LP's functional is not positive on every "
                           "generator")
    return xi


# --- the cones of the theory ----------------------------------------------

def gamma_a(roots: Sequence[Root], gram: Exact) -> Polyhedron:
    """Cone generated by the coroots H_alpha over the given roots."""
    gens = [coroot(a, gram) for a in sorted(set(map(ex.exact, roots)))]
    return cone(gens, len(gram.num))


def gamma_aq(roots: Sequence[Root], datum: SymmetricPairDatum) -> Polyhedron:
    """pr_q of gamma_a: generators pr_q(H_alpha)."""
    gens = [datum.pr_q(coroot(a, datum.gram))
            for a in sorted(set(map(ex.exact, roots)))]
    return cone(gens, len(datum.gram.num))


def gamma_cone(P: PositiveSystem) -> Polyhedron:
    """Generators pr_q(H_alpha) over Sigma(P)_-."""
    return gamma_aq(sorted(P.classification.minus_part), P.datum)


def omega(w_orbit, gamma: Polyhedron) -> Polyhedron:
    """conv(w_orbit) + gamma, for the orbit as points, such as
    rootsys.weyl_orbit gives."""
    return Polyhedron(tuple(set(w_orbit)), gamma.generators)


def gk_cone(P: PositiveSystem, Q: PositiveSystem) -> Polyhedron:
    """Gamma_a over Sigma(P) intersect Sigma(Q-bar): unprojected coroots.
    Pairs with the same support share one object, and so one H-rep."""
    return _gk_cone(frozenset(P.positive & Q.negative), P.datum.gram)


@lru_cache(maxsize=None)
def _gk_cone(support: frozenset, gram: Exact) -> Polyhedron:
    return gamma_a(support, gram)
