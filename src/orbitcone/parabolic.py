"""Positive systems and their sigma-classification.

A positive system stands for the minimal parabolic containing A whose
nilpotent radical carries exactly those roots; the chamber vector is an exact
positivity certificate.  Includes the reflection walk that moves any positive
system to an h-extreme one.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import exactlin as ex
from .exactlin import Vec
from .rootsys import (Mult, Root, SymmetricPairDatum, covector_action,
                      indivisible, reflection_matrix, weyl_group)


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
    chamber_vector: Vec

    def __eq__(self, other):
        return self is other or (isinstance(other, PositiveSystem)
                                 and self.positive == other.positive
                                 and self.datum == other.datum)

    def __hash__(self):
        return hash(self.positive)

    def __post_init__(self):
        for alpha in self.positive:
            if ex.dot(alpha, self.chamber_vector) <= 0:
                raise ValueError(f"chamber vector not positive on {alpha}")
        if len(self.positive) * 2 != len(self.datum.roots):
            raise ValueError("positive set is not half the roots")
        for alpha in self.positive:
            if ex.neg(alpha) in self.positive:
                raise ValueError("positive set contains an opposite pair")

    @property
    def negative(self) -> frozenset[Root]:
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

    def simple_roots(self) -> frozenset[Root]:
        indiv = indivisible(self.positive)
        sums = {ex.add(a, b) for a in self.positive for b in self.positive}
        return frozenset(a for a in indiv if a not in sums)

    def key(self) -> tuple:
        return tuple(sorted(self.positive))


def from_chamber(datum: SymmetricPairDatum, chamber: Vec) -> PositiveSystem:
    chamber = ex.vec(chamber)
    pos = frozenset(a for a in datum.roots if ex.dot(a, chamber) > 0)
    if any(ex.dot(a, chamber) == 0 for a in datum.roots):
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


def all_positive_systems(datum: SymmetricPairDatum) -> list[PositiveSystem]:
    """Every positive system, enumerated via the Weyl action on a base one."""
    base = _default_base(datum)
    W = weyl_group(datum.roots, datum.gram)
    # dict.fromkeys keeps the first system of each set of positive roots
    systems = dict.fromkeys(from_chamber(datum, ex.mat_vec(w, base.chamber_vector))
                            for w in W.elements)
    return sorted(systems, key=PositiveSystem.key)


def _default_base(datum: SymmetricPairDatum) -> PositiveSystem:
    # deterministic regular vector: separate roots by a generic combination
    for trial in _generic_vectors(datum):
        if all(ex.dot(a, trial) != 0 for a in datum.roots):
            return from_chamber(datum, trial)
    raise ValueError("no regular vector found")


def _generic_vectors(datum: SymmetricPairDatum):
    basis = datum.a_basis
    n, dim = len(basis), len(basis[0])
    yield ex.combination([Fraction(1, 97 ** i) for i in range(n)], basis, dim)
    for k in range(2, 50):
        yield ex.combination([Fraction(1, k ** i + i) for i in range(n)], basis, dim)
