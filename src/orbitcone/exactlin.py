"""Exact rational linear algebra: vectors and matrices as tuples of Fractions,
Gauss-Jordan kernels and inverses, and a small Bland-rule simplex for
feasibility/optimization of {Ax = b, x >= 0}.  Internal support module.

The kernels ``dot``, ``combination`` and ``rref`` compute on Python
integers inside and build one normalised Fraction per entry they return,
so they reduce by a gcd once per result, not after every product and
partial sum.  The values are those of Fraction arithmetic."""
from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def vec(xs: Iterable) -> Vec:        # keeps an entry that is a Fraction
    return tuple(x if type(x) is Fraction else Fraction(x) for x in xs)


def mat(rows: Iterable[Iterable]) -> Mat:
    return tuple(vec(r) for r in rows)


def zeros(n: int) -> Vec:
    return (Fraction(0),) * n


def identity(n: int) -> Mat:
    return tuple(tuple(Fraction(1) if i == j else Fraction(0) for j in range(n))
                 for i in range(n))


def add(x: Vec, y: Vec) -> Vec:
    return tuple(a + b for a, b in zip(x, y, strict=True))


def sub(x: Vec, y: Vec) -> Vec:
    return tuple(a - b for a, b in zip(x, y, strict=True))


def scale(c, x: Vec) -> Vec:
    c = Fraction(c)
    return tuple(c * a for a in x)


def neg(x: Vec) -> Vec:
    return tuple(-a for a in x)


def combination(coeffs: Sequence, vecs: Sequence[Vec], n: int) -> Vec:
    """sum_k coeffs[k] * vecs[k] in Q^n, exactly, as one dot of the
    coefficients with each column; zeros(n) over no vectors.
    Raises ValueError when the lengths do not match."""
    cols = tuple(zip(*vecs, strict=True)) if vecs else ((),) * n
    if len(cols) != n:
        raise ValueError(f"vectors of length {len(cols)}, expected {n}")
    return tuple(dot(coeffs, col) for col in cols)


def dot(x: Sequence, y: Sequence) -> Fraction:
    """sum_k x_k y_k of rationals (Fractions or ints), exactly.  Raises
    ValueError when the lengths do not match."""
    n, d = 0, 1                     # the partial sum is n / d, unreduced
    for a, b in zip(x, y, strict=True):
        an, ad = a.as_integer_ratio()
        bn, bd = b.as_integer_ratio()
        e = ad * bd
        n = n * e + an * bn * d
        d *= e
    return Fraction(n, d)


def int_dot(x: Sequence[int], y: Sequence[int]) -> int:
    return sum(map(operator.mul, x, y))


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


def mat_vec(m: Mat, x: Vec) -> Vec:
    return tuple(dot(row, x) for row in m)


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(tuple(dot(ra, cb) for cb in bt) for ra in a)


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


def mat_sub(a: Mat, b: Mat) -> Mat:
    return tuple(sub(ra, rb) for ra, rb in zip(a, b, strict=True))


def is_zero(x: Vec) -> bool:
    return all(a == 0 for a in x)


def unit_lead(x: Sequence) -> Vec:
    """x divided by the absolute value of its first nonzero entry: equal for
    x and every positive multiple of it.  x must be nonzero."""
    lead = abs(next(a for a in x if a != 0))
    return tuple(Fraction(a, lead) for a in x)


def _pivot(T: list[list[Fraction]], r: int, c: int) -> None:
    """One Gauss-Jordan step: scale row r to T[r][c] = 1 and clear column c
    from every other row."""
    inv = Fraction(1) / T[r][c]
    T[r] = [x * inv for x in T[r]]
    for i in range(len(T)):
        if i != r and T[i][c] != 0:
            f = T[i][c]
            T[i] = [x - f * y for x, y in zip(T[i], T[r])]


def primitive(row: list[int]) -> list[int]:
    """row divided by the gcd of its entries (unchanged when all are 0)."""
    g = math.gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def integer_rows(rows: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """(N, d) with rows = N / d: integer rows over the least common
    denominator d > 0 of all their entries."""
    ratios = [[x.as_integer_ratio() for x in row] for row in rows]
    d = math.lcm(*(q for row in ratios for _, q in row))
    return [[p * (d // q) for p, q in row] for row in ratios], d


def integer_row(row: Sequence) -> list[int]:
    """The primitive integer row on the ray of a rational row."""
    return primitive(integer_rows([row])[0][0])


def rref(m: Sequence[Vec]) -> tuple[list[Vec], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices).

    Gauss-Jordan elimination on integer rows, each a nonzero multiple of
    the row Fraction elimination would hold: the same pivots, and (the
    form being unique) the same rows once divided by their pivots."""
    rows = [integer_row(r) for r in m]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow, p = rows[r], rows[r][c]
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and f != 0:
                rows[i] = primitive([p * x - f * y for x, y in zip(row, prow)])
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [tuple(Fraction(x, row[c]) for x in row)
            for row, c in zip(rows, pivots)], pivots


def nullspace(m: Sequence[Vec]) -> list[Vec]:
    """Basis of {x : m x = 0}."""
    if not m:
        return []
    ncols = len(m[0])
    rows, pivots = rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for r, p in zip(rows, pivots):
            x[p] = -r[f]
        basis.append(tuple(x))
    return basis


def mat_inv(m: Mat) -> Mat:
    n = len(m)
    aug = [list(m[i]) + list(identity(n)[i]) for i in range(n)]
    rows, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("singular matrix")
    return tuple(tuple(row[n:]) for row in rows)


# --- simplex ---------------------------------------------------------------

OPTIMAL, INFEASIBLE, UNBOUNDED = "optimal", "infeasible", "unbounded"


def _simplex_core(T: list[list[Fraction]], basis: list[int], ncols: int) -> str:
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


def lp_solve(A: Sequence[Vec], b: Vec, c: Vec | None = None):
    """max c.x subject to A x = b, x >= 0, exactly.

    Returns (status, x, value); x and value are None when infeasible, and
    value is None when unbounded.  Pass c=None for pure feasibility.
    """
    m, n = len(A), (len(A[0]) if A else (len(c) if c else 0))
    A = [list(r) for r in A]
    b = list(b)
    for i in range(m):
        if b[i] < 0:
            A[i] = [-x for x in A[i]]
            b[i] = -b[i]
    # phase 1: maximize -sum(artificials); invariant: last row holds reduced
    # costs and, in its final entry, the current objective value
    T = [A[i] + [Fraction(1) if j == i else Fraction(0) for j in range(m)] + [b[i]]
         for i in range(m)]
    obj = [Fraction(0)] * n + [Fraction(1)] * m + [Fraction(0)]
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
    status, value = OPTIMAL, Fraction(0)
    if c is not None:
        # phase 2
        obj = [-Fraction(ci) for ci in c] + [Fraction(0)]
        for i, bi in enumerate(basis):
            if obj[bi] != 0:
                f = obj[bi]
                obj = [x - f * y for x, y in zip(obj, T[i])]
        T.append(obj)
        status = _simplex_core(T, basis, n)
        value = T[-1][-1] if status == OPTIMAL else None
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        x[bi] = T[i][-1]
    return status, tuple(x), value

