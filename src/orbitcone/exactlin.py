"""Exact rational linear algebra on integer rows.  Internal support module.

An exact vector or matrix is an ``Exact``: a tuple of Python ints (a
vector) or of int tuples (a matrix) over one positive denominator, in
lowest terms, so that equal values are equal objects with equal hashes.
Exacts order by value, entry by entry, and a float of one is n / d of ints,
correctly rounded.  A direction (a basis vector of a subspace, a facet
normal) is a primitive integer row.  ``rref`` and ``nullspace`` reduce
integer rows fraction-free, by Bareiss elimination (Math. Comp. 22, 1968),
and return primitive integer rows.  A small Bland-rule simplex decides
{Ax = b, x >= 0}; its tableau holds rationals of the fractions module,
made from the Exact rows on entry and read back on exit."""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np


def _scaled(num: tuple, k: int, g: int = 1) -> tuple:
    """num times k over g, entry by entry; g divides every k num[i]."""
    return tuple(_scaled(x, k, g) if type(x) is tuple else x * k // g for x in num)


@dataclass(init=False, eq=False)
class Exact:
    """num / den: num a tuple of ints, or of int tuples for a matrix, den > 0
    and gcd(den, every entry) = 1."""
    __slots__ = ("num", "den")
    num: tuple
    den: int

    def __init__(self, num: tuple, den: int = 1):
        entries = (num if not num or type(num[0]) is not tuple
                   else [x for row in num for x in row])
        g = math.gcd(den, *entries)
        if den < 0:
            g = -g
        self.num, self.den = (num, den) if g == 1 else (_scaled(num, 1, g), den // g)

    def __eq__(self, other):
        return (isinstance(other, Exact) and self.den == other.den
                and self.num == other.num)

    def __hash__(self):
        return hash((self.num, self.den))

    def __lt__(self, other: Exact) -> bool:
        if self.den == other.den:       # no products: the rows compare as they are
            return self.num < other.num
        return _scaled(self.num, other.den) < _scaled(other.num, self.den)


def exact(xs) -> Exact:
    """xs as an Exact: an Exact as it is, else a vector of rationals (ints,
    fractions or floats, each read exactly) or a matrix of rows of them."""
    if isinstance(xs, Exact):
        return xs
    xs = list(xs)
    if xs and not hasattr(xs[0], "as_integer_ratio"):
        rows, den = common([exact(r) for r in xs])
        return Exact(tuple(map(tuple, rows)), den)
    ratios = [x.as_integer_ratio() for x in xs]
    den = math.lcm(*(q for _, q in ratios))
    return Exact(tuple(p * (den // q) for p, q in ratios), den)


def common(xs: Sequence[Exact]) -> tuple[list[tuple[int, ...]], int]:
    """(N, d) with x_i = N[i] / d: the vectors xs as integer rows over their
    least common denominator d."""
    d = math.lcm(*(x.den for x in xs))
    return [_scaled(x.num, d // x.den) for x in xs], d


def floats(x: Exact) -> np.ndarray:
    # the true division of Python ints rounds correctly
    return (np.array(x.num, dtype=object) / x.den).astype(float)


def strs(x: Exact) -> list:
    """The entries of an exact vector, or the rows of a matrix, as strings of
    rationals in lowest terms: 'n', or 'n/d' with d > 1."""
    if x.num and type(x.num[0]) is tuple:
        return [strs(Exact(row, x.den)) for row in x.num]
    gs = [math.gcd(n, x.den) for n in x.num]
    return [str(n // g) if g == x.den else f"{n // g}/{x.den // g}"
            for n, g in zip(x.num, gs)]


def zeros(n: int) -> Exact:
    return Exact((0,) * n)


def identity(n: int) -> Exact:
    return Exact(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def add(x: Exact, y: Exact) -> Exact:
    return Exact(tuple(a * y.den + b * x.den
                       for a, b in zip(x.num, y.num, strict=True)), x.den * y.den)


def neg(x: Exact) -> Exact:
    return Exact(tuple(-a for a in x.num), x.den)


def int_dot(x: Sequence[int], y: Sequence[int]) -> int:
    return sum(map(operator.mul, x, y))


def transpose(m: Exact) -> Exact:
    return Exact(tuple(zip(*m.num)), m.den)


def mat_vec(m: Exact, x: Exact) -> Exact:
    return Exact(tuple(int_dot(row, x.num) for row in m.num), m.den * x.den)


def mat_mul(a: Exact, b: Exact) -> Exact:
    cols = tuple(zip(*b.num))
    return Exact(tuple(tuple(int_dot(row, col) for col in cols) for row in a.num),
                 a.den * b.den)


def limit_denominator(x, max_den: int) -> tuple[int, int]:
    """(p, q) of Fraction(x).limit_denominator(max_den), x a float or a
    rational: CPython's continued-fraction steps and tie rule on ints."""
    n, d = x.as_integer_ratio()
    den, (p0, q0, p1, q1) = d, (0, 1, 1, 0)
    # with den <= max_den the expansion ends, at d = 0, on p1 / q1 = x
    while d and q0 + (a := n // d) * q1 <= max_den:
        p0, q0, p1, q1, n, d = p1, q1, p0 + a * p1, q0 + a * q1, d, n - a * d
    k = (max_den - q0) // q1
    # the bounds are 1 / (q1 (q0 + k q1)) apart, p1 / q1 is d / (q1 den) from
    # x: it wins unless the other bound is strictly nearer
    if 2 * d * (q0 + k * q1) <= den:
        return p1, q1
    return p0 + k * p1, q0 + k * q1


def primitive(row: Sequence[int]) -> tuple[int, ...]:
    """row divided by the gcd of its entries (unchanged when all are 0)."""
    g = math.gcd(*row)
    return tuple(row) if g <= 1 else tuple(x // g for x in row)


def rref(m: Sequence[Sequence[int]]) -> tuple[list[tuple[int, ...]], list[int]]:
    """Reduced row echelon form of integer rows: (its nonzero rows, each a
    primitive integer row with a positive pivot, pivot columns).  Gauss-Jordan
    elimination, fraction-free: after each step every pivot is the same D,
    and each entry a minor of m, so every division by the previous pivot is
    exact."""
    rows = [list(r) for r in m]
    pivots, prev = [], 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow, p = rows[r], rows[r][c]
        for i, row in enumerate(rows):
            if i != r:
                f = row[c]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, prow)]
        pivots.append(c)
        prev = p
    return [primitive([x if prev > 0 else -x for x in row])
            for row in rows[:len(pivots)]], pivots


def nullspace(m: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Basis of {x : m x = 0} for integer rows m, one primitive integer row
    per free column f, positive at f and 0 at every other free column."""
    rows, pivots = rref(m)
    d, n = math.lcm(*(row[p] for row, p in zip(rows, pivots))), len(m[0]) if m else 0
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        x = [0] * n
        x[f] = d
        for row, p in zip(rows, pivots):
            x[p] = -row[f] * (d // row[p])
        basis.append(primitive(x))
    return basis


def mat_inv(m: Exact) -> Exact:
    """The inverse of a square matrix; ValueError when it is singular."""
    n = len(m.num)
    rows, pivots = rref([row + tuple(m.den * int(i == j) for j in range(n))
                         for i, row in enumerate(m.num)])
    if pivots[:n] != list(range(n)):
        raise ValueError("singular matrix")
    # row i of the inverse is rows[i][n:] / rows[i][i]
    d = math.lcm(*(row[i] for i, row in enumerate(rows)))
    return Exact(tuple(tuple(x * (d // row[i]) for x in row[n:])
                       for i, row in enumerate(rows)), d)


# --- simplex ---------------------------------------------------------------

OPTIMAL, INFEASIBLE, UNBOUNDED = "optimal", "infeasible", "unbounded"


def _pivot(T: list[list], r: int, c: int) -> None:
    """One Gauss-Jordan step: scale row r to T[r][c] = 1 and clear column c
    from every other row."""
    inv = 1 / T[r][c]
    T[r] = [x * inv for x in T[r]]
    for i in range(len(T)):
        if i != r and T[i][c] != 0:
            f = T[i][c]
            T[i] = [x - f * y for x, y in zip(T[i], T[r])]


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


def _rationals(x: Exact) -> list:
    return [Fraction(n, x.den) for n in x.num]


def lp_solve(A: Iterable[Exact], b: Exact, c: Exact | None = None):
    """max c.x subject to A x = b, x >= 0, exactly, for the rows A.

    Returns (status, x, value); x is an Exact and value a rational of the
    fractions module, both None when infeasible, and value is None when
    unbounded.  Pass c=None for pure feasibility.
    """
    A = [_rationals(row) for row in A]
    b = _rationals(b)
    m, n = len(A), (len(A[0]) if A else (len(c.num) if c else 0))
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
        obj = [-x for x in _rationals(c)] + [0]
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
    return status, exact(x), value
