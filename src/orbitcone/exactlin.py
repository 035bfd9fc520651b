"""Exact rational linear algebra: vectors and matrices as tuples of Fractions,
Gauss-Jordan kernels and inverses, and a small Bland-rule simplex for
feasibility/optimization of {Ax = b, x >= 0}.  Internal support module."""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def vec(xs: Iterable) -> Vec:
    return tuple(Fraction(x) for x in xs)


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
    """sum_k coeffs[k] * vecs[k] in Q^n, exactly; zeros(n) over no vectors.
    Raises ValueError when the lengths do not match."""
    out = zeros(n)
    for c, v in zip(coeffs, vecs, strict=True):
        out = add(out, scale(c, v))
    return out


def dot(x: Vec, y: Vec) -> Fraction:
    return sum((a * b for a, b in zip(x, y, strict=True)), Fraction(0))


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


def unit_lead(x: Sequence[Fraction]) -> Vec:
    """x divided by the absolute value of its first nonzero entry: equal for
    x and every positive multiple of it.  x must be nonzero."""
    s = Fraction(1) / abs(next(a for a in x if a != 0))
    return tuple(s * a for a in x)


def _pivot(T: list[list[Fraction]], r: int, c: int) -> None:
    """One Gauss-Jordan step: scale row r to T[r][c] = 1 and clear column c
    from every other row."""
    inv = Fraction(1) / T[r][c]
    T[r] = [x * inv for x in T[r]]
    for i in range(len(T)):
        if i != r and T[i][c] != 0:
            f = T[i][c]
            T[i] = [x - f * y for x, y in zip(T[i], T[r])]


def rref(m: Sequence[Vec]) -> tuple[list[Vec], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in m]
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
        _pivot(rows, r, c)
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [tuple(row) for row in rows[:r]], pivots


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

