"""Positive systems and their sigma-classification.

A positive system stands for the minimal parabolic containing A whose
nilpotent radical carries exactly those roots; the chamber vector is an exact
positivity certificate.  Includes the reflection walk that moves any positive
system to an h-extreme one.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from . import exactlin as ex
from .exactlin import Exact
from .rootsys import (Mult, Root, SymmetricPairDatum, covector_action,
                      indivisible, reflection_matrix)


class NoSimpleRootFound(RuntimeError):
    """The extremize walk found no admissible simple root; bad input datum."""


@dataclass(frozen=True)
class SigmaClassification:
    sigma_part: frozenset[Root]        # Sigma(P, sigma)
    sigmatheta_part: frozenset[Root]   # Sigma(P, sigma*theta)
    plus_part: frozenset[Root]         # Sigma(P)_+
    minus_part: frozenset[Root]        # Sigma(P)_-


@dataclass(frozen=True)
class OrbitClass:
    """A class of Sigma(P) under the four-group generated by sigma and -1,
    with the root data that decide its case in the Hessian signature."""
    root: Root                 # least root of the class
    in_sigma_part: bool        # root in Sigma(P, sigma)
    in_aq_star: bool
    mult: Mult                 # (dim, m+, m-); m+, m- are None unless
                               # sigma theta fixes root


@dataclass(frozen=True, eq=False)
class PositiveSystem:
    """A positive system is its positive roots: two are equal when their
    data and positive roots are, and the hash is that of the frozenset,
    which keeps it.  The chamber vector only certifies the set."""
    datum: SymmetricPairDatum
    positive: frozenset[Root]
    chamber_vector: Exact

    def __eq__(self, other):
        return self is other or (isinstance(other, PositiveSystem)
                                 and self.positive == other.positive
                                 and self.datum == other.datum)

    def __hash__(self):
        return hash(self.positive)

    def __post_init__(self):
        for alpha in self.positive:
            if ex.int_dot(alpha.num, self.chamber_vector.num) <= 0:
                raise ValueError(f"chamber vector not positive on {alpha}")
        if len(self.positive) * 2 != len(self.datum.roots):
            raise ValueError("positive set is not half the roots")
        for alpha in self.positive:
            if ex.neg(alpha) in self.positive:
                raise ValueError("positive set contains an opposite pair")

    @cached_property
    def negative(self) -> frozenset[Root]:
        """-Sigma(P), computed once."""
        return frozenset(ex.neg(a) for a in self.positive)

    @cached_property
    def classification(self) -> SigmaClassification:
        """sigma_classification(self), computed once."""
        return sigma_classification(self)

    @cached_property
    def orbit_classes(self) -> tuple[OrbitClass, ...]:
        """The classes of Sigma(P) under sigma and -1, computed once."""
        d = self.datum
        sigma_part = self.classification.sigma_part
        seen = set()
        out = []
        for alpha in sorted(self.positive):
            if alpha in seen:
                continue
            orbit = {alpha, d.sigma_root(alpha), ex.neg(alpha),
                     ex.neg(d.sigma_root(alpha))}
            cls = orbit & self.positive
            seen |= cls
            root = min(cls)
            mult = d.mult(root) if d.is_sigmatheta_fixed(root) \
                else (d.mult(root)[0], None, None)
            out.append(OrbitClass(root=root, in_sigma_part=root in sigma_part,
                                  in_aq_star=d.in_aq_star(root), mult=mult))
        return tuple(out)

    @cached_property
    def perm(self) -> tuple[int, ...]:
        """The first permutation p, in itertools.permutations order, that
        moves each base root e_i - e_j to the root e_p[i] - e_p[j] of P, and
        so keeps the root set: w with w[p[c], c] = 1 maps Sigma(base) onto
        Sigma(P).  The identity on the base system."""
        n = len(self.datum.gram.num)
        # a -> (a[p[0]], ..., a[p[n-1]]) takes e_p[i] - e_p[j] to e_i - e_j;
        # p moves the base system onto P when it takes P to roots that are
        # positive on the base chamber (n, ..., 1): that is half the roots
        for p in itertools.permutations(range(n)):
            back = (_permuted(a, p) for a in self.positive)
            if all(b in self.datum.roots and ex.int_dot(b.num, range(n, 0, -1)) > 0
                   for b in back):
                return p
        raise ValueError("positive system is not a permutation of the base")

    def simple_roots(self) -> frozenset[Root]:
        indiv = indivisible(self.positive)
        sums = {ex.add(a, b) for a in self.positive for b in self.positive}
        return frozenset(a for a in indiv if a not in sums)

    def key(self) -> tuple:
        return tuple(sorted(self.positive))


def _permuted(x: Exact, p) -> Exact:
    """(x[p[0]], ..., x[p[n-1]])."""
    return Exact(tuple(x.num[i] for i in p), x.den)


def from_chamber(datum: SymmetricPairDatum, chamber) -> PositiveSystem:
    chamber = ex.exact(chamber)
    pos = frozenset(a for a in datum.roots if ex.int_dot(a.num, chamber.num) > 0)
    if any(ex.int_dot(a.num, chamber.num) == 0 for a in datum.roots):
        raise ValueError("chamber vector is on a wall")
    return PositiveSystem(datum, pos, chamber)


def sigma_classification(P: PositiveSystem) -> SigmaClassification:
    """Sigma(P, tau) = {alpha in Sigma(P) : tau.alpha in Sigma(P)} for tau
    = sigma and sigma*theta, read from the datum's table of sigma on roots."""
    d = P.datum
    sigma_part = frozenset(a for a in P.positive if d.sigma_root(a) in P.positive)
    sigmatheta_part = frozenset(a for a in P.positive
                                if d.sigmatheta_root(a) in P.positive)
    plus, minus = _plus_minus(P, sigmatheta_part)
    return SigmaClassification(sigma_part=sigma_part,
                               sigmatheta_part=sigmatheta_part,
                               plus_part=plus, minus_part=minus)


def _plus_minus(P: PositiveSystem, sigmatheta_part: frozenset[Root]):
    d = P.datum
    plus, minus = set(), set()
    for alpha in P.positive:
        if d.in_aq_star(alpha):
            if d.mult(alpha)[1] > 0:
                plus.add(alpha)
        else:
            plus.add(alpha)
    for alpha in sigmatheta_part:
        if d.in_aq_star(alpha):
            if d.mult(alpha)[2] > 0:
                minus.add(alpha)
        else:
            minus.add(alpha)
    return frozenset(plus), frozenset(minus)


def is_h_extreme(P: PositiveSystem) -> bool:
    target = frozenset(a for a in P.positive if not P.datum.in_aq_star(a))
    return P.classification.sigma_part == target


def is_q_extreme(P: PositiveSystem) -> bool:
    target = frozenset(a for a in P.positive if not P.datum.in_ah_star(a))
    return P.classification.sigmatheta_part == target


def reflect_system(P: PositiveSystem, alpha: Root) -> PositiveSystem:
    """s_alpha(P); alpha must be simple in P."""
    s = reflection_matrix(alpha, P.datum.gram)
    new_pos = frozenset(covector_action(s, b) for b in P.positive)
    return PositiveSystem(P.datum, new_pos, ex.mat_vec(s, P.chamber_vector))


def h_extremize(P: PositiveSystem) -> tuple[PositiveSystem, tuple[Root, ...]]:
    """Walk to an h-extreme system by reflections in P-simple roots of
    Sigma(P, sigma*theta) not vanishing on a_h; the sigma-part strictly grows
    each step, so at most |Sigma(P)| steps happen."""
    trace: list[Root] = []
    current = P
    limit = len(P.positive)
    prev_sigma = current.classification.sigma_part
    while not is_h_extreme(current):
        if len(trace) >= limit:
            raise NoSimpleRootFound("walk exceeded the step bound")
        cands = [a for a in current.simple_roots()
                 if a in current.classification.sigmatheta_part
                 and not current.datum.in_aq_star(a)]
        if not cands:
            raise NoSimpleRootFound("no admissible simple root")
        alpha = min(cands)
        current = reflect_system(current, alpha)
        trace.append(alpha)
        new_sigma = current.classification.sigma_part
        if not prev_sigma < new_sigma:
            raise NoSimpleRootFound("sigma part failed to grow strictly")
        prev_sigma = new_sigma
    return current, tuple(trace)


def base_system(datum: SymmetricPairDatum) -> PositiveSystem:
    """The upper-triangular system, of the chamber vector (n, ..., 1)."""
    return from_chamber(datum, range(len(datum.gram.num), 0, -1))


def all_positive_systems(datum: SymmetricPairDatum) -> list[PositiveSystem]:
    """Every positive system, its chamber vector the image of the base one
    (n, ..., 1) under a permutation that keeps the root set; these include
    the Weyl group, as every root is e_i - e_j."""
    base = base_system(datum).chamber_vector
    # dict.fromkeys keeps the first system of each set of positive roots
    systems = dict.fromkeys(
        from_chamber(datum, _permuted(base, p))
        for p in itertools.permutations(range(len(base.num)))
        if frozenset(_permuted(a, p) for a in datum.roots) == datum.roots)
    return sorted(systems, key=PositiveSystem.key)
