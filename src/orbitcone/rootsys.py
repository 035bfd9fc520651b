"""Restricted root systems with two commuting involutions.

Roots and vectors live in a shared ambient rational coordinate frame; the
bilinear form on a is given by an exact Gram matrix.  theta is always -id on
a, so sigma together with the per-root eigenspace dimensions carries all the
involution data.  Everything here is exact and immutable.  No group is
closed or held here: ``matrixgrp.Realization.weyl_reps`` closes the Weyl
group from its exact generators, and a group is a tuple of its matrices.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Mapping

from . import exactlin as ex
from .exactlin import Mat, Vec


class NotAnInvolution(ValueError):
    pass


class RootSetNotSigmaStable(ValueError):
    pass


class BadMultiplicity(ValueError):
    pass


class MissingMultiplicity(KeyError):
    """A sigma-theta-fixed root was used without its +/- dimensions."""


class ZeroRoot(ValueError):
    pass


Root = Vec
# (dim g_alpha, dim g_{alpha,+}, dim g_{alpha,-}); the last two are None
# exactly when sigma*theta does not fix alpha
Mult = tuple[int, int | None, int | None]


def covector_action(m: Mat, alpha: Root) -> Root:
    """The covector H -> alpha(m H); for an involution m this is m.alpha."""
    return ex.mat_vec(ex.transpose(m), alpha)


@dataclass(frozen=True)
class SymmetricPairDatum:
    roots: frozenset[Root]
    gram: Mat
    sigma_on_a: Mat
    mult_table: Mapping[Root, Mult]
    q_projector: Mat = field(init=False)
    a_basis: tuple[Vec, ...] = field(init=False)
    ah_basis: tuple[Vec, ...] = field(init=False)
    aq_basis: tuple[Vec, ...] = field(init=False)

    def __post_init__(self):
        n = len(self.gram)
        ident = ex.identity(n)
        prq = tuple(tuple((i - s) / 2 for i, s in zip(ri, rs))
                    for ri, rs in zip(ident, self.sigma_on_a))
        object.__setattr__(self, "q_projector", prq)
        a_rows, _ = ex.rref(sorted(self.roots))
        object.__setattr__(self, "a_basis", tuple(a_rows))
        sig = self.sigma_on_a
        minus = ex.mat_sub(sig, ident)
        plus = tuple(ex.add(r, i) for r, i in zip(sig, ident))
        # a_h = fix(sigma|_a), a_q = fix(-sigma|_a), intersected with a
        ah = [v for v in _subspace_kernel(minus, self.a_basis)]
        aq = [v for v in _subspace_kernel(plus, self.a_basis)]
        object.__setattr__(self, "ah_basis", tuple(ah))
        object.__setattr__(self, "aq_basis", tuple(aq))

    @cached_property
    def _sigma_table(self) -> dict[Root, Root]:
        return {alpha: covector_action(self.sigma_on_a, alpha)
                for alpha in self.roots}

    # involution actions on covectors
    def sigma_root(self, alpha: Root) -> Root:
        """sigma.alpha; alpha must be a root, since sigma is tabulated on the
        root set.  The other involution predicates below go through it."""
        return self._sigma_table[alpha]

    def sigmatheta_root(self, alpha: Root) -> Root:
        return ex.neg(self.sigma_root(alpha))

    def is_sigmatheta_fixed(self, alpha: Root) -> bool:
        return self.sigmatheta_root(alpha) == alpha

    def in_aq_star(self, alpha: Root) -> bool:
        """alpha vanishes on a_h, i.e. sigma.alpha = -alpha."""
        return self.sigma_root(alpha) == ex.neg(alpha)

    def in_ah_star(self, alpha: Root) -> bool:
        """alpha vanishes on a_q, i.e. sigma.alpha = alpha."""
        return self.sigma_root(alpha) == alpha

    def mult(self, alpha: Root) -> Mult:
        m = self.mult_table[alpha]
        if self.is_sigmatheta_fixed(alpha) and (m[1] is None or m[2] is None):
            raise MissingMultiplicity(alpha)
        return m

    def restrict(self, alpha: Root) -> Root:
        """alpha|_{a_q} as a covector (composition with pr_q)."""
        return covector_action(self.q_projector, alpha)

    def pr_q(self, v: Vec) -> Vec:
        return ex.mat_vec(self.q_projector, v)


def _subspace_kernel(m: Mat, basis: Iterable[Vec]) -> list[Vec]:
    """Basis of {v in span(basis) : m v = 0}."""
    basis = list(basis)
    if not basis:
        return []
    cols = ex.transpose(tuple(basis))          # coords -> ambient
    comp = ex.mat_mul(m, cols)                  # m restricted to the span
    return [ex.mat_vec(ex.transpose(tuple(basis)), c) for c in ex.nullspace(comp)]


def build_pair_datum(roots: Iterable[Root], gram: Mat, sigma_on_a: Mat,
                     mult_table: Mapping[Root, Mult]) -> SymmetricPairDatum:
    roots = frozenset(ex.vec(r) for r in roots)
    gram = ex.mat(gram)
    sigma_on_a = ex.mat(sigma_on_a)
    n = len(gram)
    if ex.mat_mul(sigma_on_a, sigma_on_a) != ex.identity(n):
        raise NotAnInvolution("sigma_on_a squared is not the identity")
    # sigma must preserve B (it is the differential of an isometry)
    gs = ex.mat_mul(ex.transpose(sigma_on_a), ex.mat_mul(gram, sigma_on_a))
    if gs != gram:
        raise NotAnInvolution("sigma_on_a does not preserve the Gram matrix")
    for alpha in roots:
        if ex.is_zero(alpha):
            raise RootSetNotSigmaStable("zero root")
        if ex.neg(alpha) not in roots:
            raise RootSetNotSigmaStable(f"negative of {alpha} missing")
        if covector_action(sigma_on_a, alpha) not in roots:
            raise RootSetNotSigmaStable(f"sigma does not preserve {alpha}")
    table: dict[Root, Mult] = {}
    for alpha in roots:
        if alpha not in mult_table:
            raise BadMultiplicity(f"no multiplicity for {alpha}")
        d, p, m = mult_table[alpha]
        if d <= 0:
            raise BadMultiplicity(f"dim g_alpha must be positive at {alpha}")
        if (p is None) != (m is None):
            raise BadMultiplicity(f"half-specified +/- dims at {alpha}")
        if p is not None:
            if p < 0 or m < 0 or p + m != d:
                raise BadMultiplicity(f"+/- dims inconsistent at {alpha}")
        table[ex.vec(alpha)] = (d, p, m)
    datum = SymmetricPairDatum(roots=roots, gram=gram, sigma_on_a=sigma_on_a,
                               mult_table=table)
    for alpha in roots:
        fixed = datum.is_sigmatheta_fixed(alpha)
        if not fixed and table[alpha][1] is not None:
            raise BadMultiplicity(f"+/- dims given for non-fixed root {alpha}")
    return datum


@dataclass(frozen=True)
class RestrictedRootDatum:
    roots_q: Mapping[Root, tuple[int, int, int]]   # restriction -> (m, m+, m-)
    plus_set: frozenset[Root]
    minus_set: frozenset[Root]


def restricted_roots(datum: SymmetricPairDatum) -> RestrictedRootDatum:
    acc: dict[Root, list[int]] = {}
    for alpha in datum.roots:
        lam = datum.restrict(alpha)
        if ex.is_zero(lam):
            continue
        d, p, m = datum.mult_table[alpha]
        if datum.is_sigmatheta_fixed(alpha):
            if p is None:
                raise MissingMultiplicity(alpha)
        else:
            # g_alpha + sigmatheta(g_alpha) is direct and swapped, so the
            # +/- eigenspaces of the pair have equal dimension d; count the
            # pair once, from its lexicographically smaller member
            other = datum.sigmatheta_root(alpha)
            if datum.restrict(other) != lam:
                raise RootSetNotSigmaStable(
                    f"sigmatheta moves {alpha} across restrictions")
            if other < alpha:
                continue
            p = m = d
            d = 2 * d
        tot = acc.setdefault(lam, [0, 0, 0])
        tot[0] += d
        tot[1] += p
        tot[2] += m
    table = {lam: tuple(v) for lam, v in acc.items()}
    plus = frozenset(lam for lam, v in table.items() if v[1] > 0)
    minus = frozenset(lam for lam, v in table.items() if v[2] > 0)
    return RestrictedRootDatum(roots_q=table, plus_set=plus, minus_set=minus)


def coroot(alpha: Root, gram: Mat) -> Vec:
    """H_alpha: alpha(H_alpha) = 2, and H_alpha is B-orthogonal to ker alpha."""
    alpha = ex.vec(alpha)
    if ex.is_zero(alpha):
        raise ZeroRoot("coroot of the zero functional")
    dual = ex.mat_vec(_gram_inverse(ex.mat(gram)), alpha)  # B(dual, .) = alpha
    return ex.scale(Fraction(2) / ex.dot(alpha, dual), dual)


@lru_cache(maxsize=None)
def _gram_inverse(gram: Mat) -> Mat:
    """The inverse of a Gram matrix, once per matrix."""
    return ex.mat_inv(gram)


def reflection_matrix(alpha: Root, gram: Mat) -> Mat:
    """s_alpha on a: H -> H - alpha(H) H_alpha."""
    h_alpha = coroot(alpha, gram)
    n = len(gram)
    return tuple(tuple((Fraction(1) if i == j else Fraction(0)) - h_alpha[i] * alpha[j]
                       for j in range(n)) for i in range(n))


def weyl_orbit(ws: Iterable[Mat], point: Vec) -> frozenset[Vec]:
    point = ex.vec(point)
    return frozenset(ex.mat_vec(w, point) for w in ws)


def indivisible(root_set: Iterable[Root]) -> frozenset[Root]:
    """Roots alpha with alpha/2 not in the set."""
    rs = frozenset(root_set)
    return frozenset(a for a in rs if ex.scale(Fraction(1, 2), a) not in rs)
