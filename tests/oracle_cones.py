"""Brute-force rational cone oracle used by several test files.

The solution cone {nu >= 0 : M nu = 0} is pointed, hence generated by its
extreme rays, and every extreme ray is the unique signable dependency of a
support-minimal column subset.  Enumerating all column subsets is an
exhaustive ray enumeration in exact arithmetic, written from scratch here.
"""
import itertools
import random
from fractions import Fraction

import reference as fx
from orbitcone.polyhedra import cone


def _null_basis(rows, ncols):
    # Gaussian elimination over Fraction, fresh implementation for the oracle
    M = [list(r) for r in rows]
    piv_cols = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(M)) if M[i][c] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = Fraction(1) / M[r][c]
        M[r] = [x * inv for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        piv_cols.append(c)
        r += 1
    free = [c for c in range(ncols) if c not in piv_cols]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(piv_cols):
            v[pc] = -M[i][fc]
        basis.append(v)
    return basis


def _extreme_rays(cols):
    """Extreme rays of {nu >= 0 : sum nu_j cols[j] = 0}, by support subsets."""
    m = len(cols)
    rays = []
    for size in range(1, m + 1):
        for T in itertools.combinations(range(m), size):
            rows_t = [[cols[j][i] for j in T] for i in range(len(cols[0]))]
            null = _null_basis(rows_t, size)
            if len(null) != 1:
                continue
            d = null[0]
            if any(x == 0 for x in d):
                continue        # support not minimal: smaller subset covers it
            if all(x > 0 for x in d):
                pass
            elif all(x < 0 for x in d):
                d = [-x for x in d]
            else:
                continue
            nu = [Fraction(0)] * m
            for j, x in zip(T, d):
                nu[j] = x
            rays.append(nu)
    return rays


def oracle_pointed(gens):
    gens = [fx.vec(g) for g in gens if not fx.is_zero(g)]
    if not gens:
        return True
    return not _extreme_rays([list(g) for g in gens])


def oracle_proper(p, gens):
    gens = [fx.vec(g) for g in gens if not fx.is_zero(g)]
    if not gens:
        return True
    pg = [list(fx.mat_vec(p, g)) for g in gens]
    for nu in _extreme_rays(pg):
        x = [sum(nu[j] * gens[j][i] for j in range(len(gens)))
             for i in range(len(gens[0]))]
        if any(v != 0 for v in x):
            return False
    return True


def random_cones(count, seed=0):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.choice((2, 3, 4))
        m = rng.randint(1, n + 2)
        gens = []
        for _ in range(m):
            g = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
            gens.append(g)
        if all(fx.is_zero(g) for g in gens):
            gens[0] = tuple([Fraction(1)] + [Fraction(0)] * (n - 1))
        out.append(cone(gens, n))
    return out
