"""Exact rational linear algebra on integer rows.  Internal support module.

An exact vector or matrix is an ``Exact``: a tuple of Python ints (a
vector) or of int tuples (a matrix) over one positive denominator, in
lowest terms, so that equal values are equal objects with equal hashes.
Exacts order by value, entry by entry, and a float of one is n / d of ints,
correctly rounded.  A direction (a basis vector of a subspace, a facet
normal) is a primitive integer row.  ``rref`` and ``nullspace`` reduce
integer rows fraction-free, by Bareiss elimination (Math. Comp. 22, 1968),
and return primitive integer rows.  ``lp_solve`` decides {Ax = b, x >= 0}
by phase 1 of the simplex method on integer rows, updated fraction-free
the same way."""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

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
    """(p, q) that the fractions module's limit_denominator(max_den) gives
    for x, a float or a rational: CPython's continued-fraction steps and
    tie rule on ints."""
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

def lp_solve(A: Sequence[Exact], b: Exact) -> Exact | None:
    """A point x >= 0 with A x = b for the rows A, or None when there is
    none: phase 1 of the simplex method with Bland's rule (Math. Oper. Res.
    2, 1977), on integer rows.

    Row i is scaled by s_i = A_i.den b.den, and negated where b_i < 0, and
    its artificial variable has the column e_i; the objective weighs that
    artificial by L / s_i, L = lcm of the s_i, so that it is L times the sum
    of the unscaled artificials.  Pivots update the tableau as rref does,
    so every entry is D times its rational value, D > 0 the determinant of
    the basis, and ratios compare by cross-multiplication."""
    if not A:
        return Exact(())
    m, n = len(A), len(A[0].num)
    T = []
    for i, (row, b_i) in enumerate(zip(A, b.num)):
        sign = -1 if b_i < 0 else 1
        T.append([sign * b.den * a for a in row.num]
                 + [int(j == i) for j in range(m)] + [sign * row.den * b_i])
    L = math.lcm(*(r.den * b.den for r in A))
    w = [L // (r.den * b.den) for r in A]
    # reduced costs of the artificials' basis, its objective value last
    obj = [-int_dot(w, col) for col in zip(*T)]
    obj[n:n + m] = [0] * m
    T.append(obj)
    basis, D = list(range(n, n + m)), 1
    while (c := next((j for j in range(n + m) if T[-1][j] < 0),
                     None)) is not None:
        # the sum of the artificials is bounded below, so some row leaves
        r = None
        for i in range(m):
            if T[i][c] > 0 and (r is None or (
                    k := T[i][-1] * T[r][c] - T[r][-1] * T[i][c]) < 0
                    or k == 0 and basis[i] < basis[r]):
                r = i
        prow, p = T[r], T[r][c]
        T = [row if i == r else [(p * x - row[c] * y) // D
                                 for x, y in zip(row, prow)]
             for i, row in enumerate(T)]
        basis[r], D = c, p
    if T[-1][-1]:
        return None
    x = [0] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = T[i][-1]
    return Exact(tuple(x), D)
