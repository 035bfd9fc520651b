"""Matrix models of the symmetric pairs and their Iwasawa machinery.

Four presets are shipped: a compact-subgroup case inside SL(2,R), the split
pairs (SL(2,R), SO(1,1)) and (SL(3,R), SO(2,1)), and the doubled group case
realized block-diagonally in SL(4,R).  The Cartan involution is always
Y -> -Y^T; the second involution is either Y -> -J Y^T J for a signature
matrix J or conjugation by the block swap.

Every positive system P is named explicitly and conjugated into the
upper-triangular base system by its index permutation P.perm, the identity
on the base system.  The samplers return a ``Draw``, the coefficients of
its elements exp(Y) n.  The elements a z exp(Y) n of the theorem also
carry a center component z of H; on every preset z is a diagonal sign
matrix in K that commutes with a, so H(a z exp(Y) n) = H(a exp(Y) n), and
no draw holds z.  ``iwasawa`` takes the Iwasawa log of a draw from its
factors, and builds no element.  Its one kernel is a sum of positive
Cauchy-Binet terms e^(2 a_I) m_I^2 per prefix of H: the minors m_I of a
draw are entries of one column of exp of wedge^k Y, those of a stack of
well-conditioned matrices come by Laplace expansion.  That column is
e_J + f1 W e_J + f2 W^2 e_J for W = wedge^k Y, with f1 and f2 of c in
W^3 = c W (``_column_coefficients``) and c from the quadratic form that
``span_form`` checks once per span.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache, reduce

import numpy as np

from . import exactlin as ex
from .exactlin import Mat, Vec
from .parabolic import PositiveSystem, base_system
from .rootsys import (SymmetricPairDatum, build_pair_datum, reflection_matrix,
                      restricted_roots)

class SingularInput(ValueError):
    pass


class NotCubic(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Realization:
    name: str
    dim: int
    kappa: int                       # B(Y,Z) = kappa * tr(YZ)
    datum: SymmetricPairDatum
    kind: str                        # "J": sigma(Y) = -J Y^T J; "S": sigma(Y) = S Y S
    inv_np: np.ndarray
    h_basis: tuple[np.ndarray, ...]
    z_reps: tuple[np.ndarray, ...]
    weyl_gens: tuple[Mat, ...]       # generators of the small Weyl group

    def sigma_alg(self, Y: np.ndarray) -> np.ndarray:
        if self.kind == "J":
            return -self.inv_np @ np.swapaxes(Y, -1, -2) @ self.inv_np
        return self.inv_np @ Y @ self.inv_np

    def pi_h(self, Y: np.ndarray) -> np.ndarray:
        return 0.5 * (Y + self.sigma_alg(Y))

    @cached_property
    def base_parabolic(self) -> PositiveSystem:
        return base_system(self.datum)

    @cached_property
    def restricted(self):
        return restricted_roots(self.datum)

    @cached_property
    def small_weyl(self) -> tuple[Mat, ...]:
        """The reflection group of the restricted roots carrying a plus
        space: weyl_reps, which closes it, sorted."""
        return tuple(sorted(self.weyl_reps))

    @cached_property
    def weyl_reps(self) -> tuple[Mat, ...]:
        """The one closure of the small Weyl group: every product w of the
        generators, breadth first from the identity with the generators in
        order.  The probes follow this order."""
        reps = [ex.identity(self.dim)]
        for w in reps:          # a queue: the list grows as it is read
            for gen in self.weyl_gens:
                if (prod := ex.mat_mul(gen, w)) not in reps:
                    reps.append(prod)
        return tuple(reps)

    @cached_property
    def q_proj_np(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.datum.q_projector])


def a_matrix(v) -> np.ndarray:
    """Diagonal matrix of an ambient coordinate vector; batched over v."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape + (v.shape[-1],))
    idx = np.arange(v.shape[-1])
    out[..., idx, idx] = v
    return out


def root_entry(alpha: Vec) -> tuple[int, int]:
    """Matrix position (i, j) of the root space for alpha = e_i - e_j."""
    i = j = None
    for k, c in enumerate(alpha):
        if c == 1:
            i = k
        elif c == -1:
            j = k
        elif c != 0:
            raise ValueError("root is not of the form e_i - e_j")
    if i is None or j is None:
        raise ValueError("root is not of the form e_i - e_j")
    return i, j


def root_matrix(n: int, alpha: Vec) -> np.ndarray:
    """Unit matrix spanning the root space of alpha = e_i - e_j."""
    E = np.zeros((n, n))
    E[root_entry(alpha)] = 1.0
    return E


# --- preset registry -------------------------------------------------------

def _diag_frac(vals) -> Mat:
    n = len(vals)
    return tuple(tuple(Fraction(vals[i]) if i == j else Fraction(0)
                       for j in range(n)) for i in range(n))


def _gl_roots(n, pairs=None):
    out = []
    rng = pairs if pairs is not None else [(i, j) for i in range(n) for j in range(n) if i != j]
    for i, j in rng:
        v = [Fraction(0)] * n
        v[i], v[j] = Fraction(1), Fraction(-1)
        out.append(tuple(v))
    return out


def _pair_datum(roots, kappa: int, sigma_on_a: Mat, mult) -> SymmetricPairDatum:
    """The datum with Gram matrix kappa * I: B(Y, Z) = kappa tr(YZ) on the
    diagonal matrices."""
    return build_pair_datum(roots, _diag_frac([kappa] * len(roots[0])),
                            sigma_on_a, mult)


def _build_kostant_sl2() -> Realization:
    roots = _gl_roots(2)
    sig = _diag_frac([-1, -1])
    mult = {r: (1, 1, 0) for r in roots}
    datum = _pair_datum(roots, 4, sig, mult)
    lam = roots[0]
    gen = reflection_matrix(lam, datum.gram)
    return Realization(
        name="kostant_sl2", dim=2, kappa=4, datum=datum,
        kind="J", inv_np=np.eye(2),
        h_basis=(np.array([[0.0, -1.0], [1.0, 0.0]]),),
        z_reps=(np.eye(2), -np.eye(2)),
        weyl_gens=(gen,))


def _build_sl2_so11() -> Realization:
    roots = _gl_roots(2)
    sig = _diag_frac([-1, -1])
    mult = {r: (1, 0, 1) for r in roots}
    datum = _pair_datum(roots, 4, sig, mult)
    return Realization(
        name="sl2_so11", dim=2, kappa=4, datum=datum,
        kind="J", inv_np=np.diag([1.0, -1.0]),
        h_basis=(np.array([[0.0, 1.0], [1.0, 0.0]]),),
        z_reps=(np.eye(2), -np.eye(2)),
        weyl_gens=())


def _build_sl3_so21() -> Realization:
    roots = _gl_roots(3)
    sig = _diag_frac([-1, -1, -1])
    mult = {}
    for r in roots:
        fixed_pair = r[2] == 0           # +-(e1 - e2) stays inside so(2) x so(1)
        mult[r] = (1, 1, 0) if fixed_pair else (1, 0, 1)
    datum = _pair_datum(roots, 6, sig, mult)
    lam = next(r for r in roots if r[0] == 1 and r[1] == -1)
    gen = reflection_matrix(lam, datum.gram)
    zs = (np.diag([1.0, 1.0, 1.0]), np.diag([-1.0, -1.0, 1.0]),
          np.diag([-1.0, 1.0, -1.0]), np.diag([1.0, -1.0, -1.0]))
    return Realization(
        name="sl3_so21", dim=3, kappa=6, datum=datum,
        kind="J", inv_np=np.diag([1.0, 1.0, -1.0]),
        h_basis=(np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
                 np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
                 np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])),
        z_reps=zs,
        weyl_gens=(gen,))


def _build_group_sl2() -> Realization:
    roots = _gl_roots(4, pairs=[(0, 1), (1, 0), (2, 3), (3, 2)])
    swap = tuple(tuple(Fraction(1) if (i + 2) % 4 == j else Fraction(0)
                       for j in range(4)) for i in range(4))
    mult = {r: (1, None, None) for r in roots}
    datum = _pair_datum(roots, 4, swap, mult)
    rest = restricted_roots(datum)
    lam = max(rest.plus_set)
    gen = reflection_matrix(lam, datum.gram)
    S = np.zeros((4, 4))
    S[:2, 2:] = np.eye(2)
    S[2:, :2] = np.eye(2)
    e = np.zeros((4, 4))
    e[0, 1] = e[2, 3] = 1.0
    f = e.T.copy()
    return Realization(
        name="group_sl2", dim=4, kappa=4, datum=datum,
        kind="S", inv_np=S,
        h_basis=(np.diag([1.0, -1.0, 1.0, -1.0]), e, f),
        z_reps=(np.eye(4), -np.eye(4)),
        weyl_gens=(gen,))


PRESETS = {
    "kostant_sl2": _build_kostant_sl2,
    "sl2_so11": _build_sl2_so11,
    "sl3_so21": _build_sl3_so21,
    "group_sl2": _build_group_sl2,
}


@lru_cache(maxsize=None)
def realization(name: str) -> Realization:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return PRESETS[name]()


# --- Iwasawa decomposition -------------------------------------------------

def _conjugate(x: np.ndarray, p) -> np.ndarray:
    """w^T x w for the permutation matrix w with w[p[c], c] = 1; batched."""
    return x[..., p, :][..., :, p]


# iwasawa works through its input this many matrices at a time, so that its
# temporaries stay a few blocks in size whatever the batch
BLOCK = 4096
# iwasawa divides a stack's matrix by its largest entry where that leaves
# the n-th root of this range, so that no n x n minor underflows or
# overflows
_UNSCALED = (1e-60, 1e60)


def _scales(peak: np.ndarray, bounds: tuple) -> np.ndarray:
    """Per-matrix divisor: the largest entry |peak| where it is nonzero and
    leaves bounds, 1 elsewhere."""
    return np.where((peak < bounds[0]) & (peak > 0) | (peak > bounds[1]),
                    peak, 1.0)


def iwasawa(rz: Realization, g, P: PositiveSystem, a_log=None) -> np.ndarray:
    """Iwasawa log H of exp(a_log) g = k exp(H) n with n in N_P, in ambient
    diagonal coordinates, for a stack g (..., n, n) or a Draw; a_log is a
    float vector, 0 when None.  With p = P.perm and J = p[:k],
    S_k = H_p[0] + ... + H_p[k-1] is 1/2 log det (x^T x)_JJ, x = exp(a_log)
    g: by Cauchy-Binet, of the sum over k-subsets I of e^(2 a_I) m_I^2, m_I
    the minor of g on rows I and columns J (_prefix_logs).  The minors of a
    Draw come from its factors, those of a stack by Laplace expansion, which
    loses digits where they cancel: a stack is for well-conditioned g, and
    sampled elements come as Draws.  Raises SingularInput when some sum
    leaves double range: 'exponential overflows double precision' above,
    'matrix is numerically singular' below, 'input matrix has non-finite
    entries' on such a stack, 'exponent overflows double precision' when a
    Draw's clip norm does; ValueError when a Draw's right factor is not in
    N_P."""
    p = P.perm
    a = np.zeros(len(p)) if a_log is None else np.asarray(a_log, dtype=float)
    if isinstance(g, Draw):
        return _prefix_logs(len(g), p, a, *_draw_minors(g, p))
    g = np.asarray(g, dtype=float)
    flat = g.reshape(-1, len(p), len(p))
    # H(g) = H(g / s) + log s
    peak = np.abs(flat).max(axis=(1, 2))
    if not np.all(np.isfinite(peak)):
        raise SingularInput("input matrix has non-finite entries")
    s = _scales(peak, tuple(b ** (1.0 / len(p)) for b in _UNSCALED))
    H = _prefix_logs(len(flat), p, a, *_stack_minors(flat / s[:, None, None],
                                                     p))
    return (H + np.log(s)[:, None]).reshape(g.shape[:-1])


def _prefix_logs(count: int, p: tuple, a: np.ndarray, subsets,
                 squares) -> np.ndarray:
    """H of count rows from S_k = top + 1/2 log of the sum over I in
    subsets[k-1] of e^(2 (a_I - top)) m_I^2, top the largest a_I; squares(
    rows, live) yields per k the m_I^2 of BLOCK rows, in order, for the I
    whose weight live[k-1] keeps.  Every operation runs along the rows, so
    a row gets the same bits in any chunk."""
    a_I = [a[np.array(subs)].sum(axis=1) for subs in subsets]
    tops = [x.max() for x in a_I]
    weights = [np.exp(2.0 * (x - top)) for x, top in zip(a_I, tops)]
    live = [w > 0.0 for w in weights]
    kept = [w[on].tolist() for w, on in zip(weights, live)]
    S = np.zeros((len(p) + 1, count))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(0, count, BLOCK):
            rows = slice(start, start + BLOCK)
            for k, sqs in enumerate(squares(rows, live), 1):
                D = None
                for w, sq in zip(kept[k - 1], sqs):
                    if w != 1.0:
                        sq *= w
                    D = sq if D is None else np.add(D, sq, out=D)
                S[k, rows] = 0.5 * np.log(D) + tops[k - 1]
    if not np.isfinite(S).all():
        raise SingularInput("exponential overflows double precision"
                            if np.isnan(S).any() or (S == np.inf).any()
                            else "matrix is numerically singular")
    H = np.empty((count, len(p)))
    H[:, p] = (S[1:] - S[:-1]).T
    return H


def _stack_minors(flat: np.ndarray, p: tuple):
    """(subsets, squares) for _prefix_logs of a stack flat (m, n, n): per
    k-subset I of rows, the minor on columns p[:k], up to the sign, by
    Laplace expansion along column p[k-1] = G[k-1] of a block, G[c, i] the
    entries (i, p[c]) of its matrices."""
    subsets = [list(itertools.combinations(range(len(p)), k))
               for k in range(1, len(p) + 1)]

    def squares(rows, live):
        G = np.ascontiguousarray(flat[rows][..., p].transpose(2, 1, 0))
        minors = {(): 1.0}
        for col, subs, keep in zip(G, subsets, live):
            minors = {I: sum((-1) ** r * col[i] * minors[I[:r] + I[r + 1:]]
                             for r, i in enumerate(I)) for I in subs}
            yield (minors[I] * minors[I] for I, on in zip(subs, keep) if on)
    return subsets, squares


def h_pq(rz: Realization, g, P: PositiveSystem, a_log=None) -> np.ndarray:
    """iwasawa(rz, g, P, a_log) projected onto a_q, ambient coordinates."""
    return iwasawa(rz, g, P, a_log) @ rz.q_proj_np.T


# --- the class of a span --------------------------------------------------

def span_form(basis) -> np.ndarray:
    """The quadratic form Q, read-only, with Y^3 = (t^T Q t) Y for every
    Y = sum_k t_k basis[k] of the span of an integer-valued basis (k, n, n):
    Q is polarised from c(Y) = <Y^3, Y>/<Y, Y> at each B_a + B_b, and the
    cubic d Y^3 = (t^T dQ t) Y, d the lcm of Q's denominators, is checked
    in int64 at the t in N^k with sum 3, which determine a cubic (Chung and
    Yao, SIAM J. Numer. Anal. 14, 1977); exact while 81 d n^2 M^3 and
    16 n^4 M^4 stay below 2^63, M the largest |entry|.  Kept per basis.
    Raises NotCubic when there is no such Q, ValueError when the basis is
    not integers."""
    B = np.asarray(basis, dtype=float)
    return _span_form(B.shape, B.tobytes())


@lru_cache(maxsize=None)
def _span_form(shape: tuple, data: bytes) -> np.ndarray:
    B = np.frombuffer(data).reshape(shape)
    Bi, k = B.astype(np.int64), len(B)
    if not (Bi == B).all():
        raise ValueError("span basis is not integer-valued")
    i, j, t = _span_tables(k)
    Y = Bi[i] + Bi[j]               # c(2 B_a) = 4 c(B_a)
    num = np.einsum("mij,mij->m", Y @ Y @ Y, Y).tolist()
    norm = np.einsum("mij,mij->m", Y, Y) * np.where(i == j, 4, 1)
    # Q_aa = c_aa, Q_ab = (c_ab - c_aa - c_bb) / 2, all over 2 N
    N = math.lcm(*(x for x in norm.tolist() if x))
    c = {ab: x * (N // y) if y else 0
         for ab, x, y in zip(zip(i.tolist(), j.tolist()), num, norm.tolist())}
    QN = [[2 * c[a, a] if a == b else c[min(a, b), max(a, b)] - c[a, a]
           - c[b, b] for b in range(k)] for a in range(k)]
    d = math.lcm(*(2 * N // math.gcd(q, 2 * N) for row in QN for q in row))
    dQ = np.array(QN, dtype=np.int64).reshape(k, k) * d // (2 * N)
    Yt = np.einsum("la,aij->lij", t, Bi)
    if (d * (Yt @ Yt @ Yt) != np.einsum("la,ab,lb->l", t, dQ, t)[:, None, None]
            * Yt).any():
        raise NotCubic("span does not satisfy Y^3 = c Y with c quadratic")
    out = dQ / d
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _span_tables(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs a <= b of range(k) as the arrays of the a and of the b,
    and the t in N^k with sum 3 as rows."""
    pairs, points = (list(itertools.combinations_with_replacement(range(k), m))
                     for m in (2, 3))
    return *np.array(pairs, np.intp).reshape(-1, 2).T, np.array(
        [[c.count(a) for a in range(k)] for c in points], np.int64
    ).reshape(len(points), k)


# --- the factored Iwasawa kernel --------------------------------------------

@lru_cache(maxsize=None)
def _wedge_terms(shape: tuple, data: bytes, J: tuple) -> tuple:
    """Column e_J of exp(W), W = wedge^k Y for k = len(J), for every Y =
    sum_a t_a basis[a] of an integer span, as fixed integer combinations of
    the monomials (a,) for t_a and (a, b), a <= b, for t_a t_b: the terms
    (coef, monomial) of c = t^T Q t, where W^3 = c W, and per k-subset I
    whose entry is not 0 for every t, (I, I == J, the terms of (W e_J)_I
    and of (W^2 e_J)_I).  W is the derivation that Y induces on wedge^k, in
    the basis of sorted k-subsets, one product with _wedge_table; Q is
    span_form of its basis, which checks the cubic in integers."""
    B = np.frombuffer(data).reshape(shape).astype(np.int64)
    subsets, table = _wedge_table(shape[-1], len(J))
    S = len(subsets)
    W = (B.reshape(len(B), shape[-1] ** 2) @ table).reshape(len(B), S, S)
    Q, lin = span_form(W.astype(float)), W[:, :, subsets.index(J)]  # (a, I)
    sq = np.einsum("aij,bj->abi", W, lin)                   # W_a W_b e_J
    a, b, _ = _span_tables(len(B))
    monomials = [(x,) for x in range(len(B))] + list(zip(a.tolist(), b.tolist()))
    coef = np.concatenate([lin, np.where((a < b)[:, None], sq[a, b] + sq[b, a],
                                         sq[a, b])])        # (monomial, I)

    def terms(coefs):
        return tuple((c, x) for c, x in zip(coefs, monomials) if c)
    return (terms([0] * len(B) + list(np.where(a < b, Q[a, b] + Q[b, a], Q[a, b]))),
            tuple((I, I == J, lin_sq) for I, lin_sq in zip(
                subsets, map(terms, coef.T.tolist())) if I == J or lin_sq))


@lru_cache(maxsize=None)
def _wedge_table(n: int, k: int) -> tuple[list, np.ndarray]:
    """The sorted k-subsets I of range(n), and the integer table (n^2, S^2)
    of Y's derivation on wedge^k: e_I -> sum of Y[r, i] e_(I, i -> r) over
    i in I and r = i or r not in I, signed by the sort of (I, i -> r)."""
    subsets = list(itertools.combinations(range(n), k))
    table = np.zeros((n, n, len(subsets), len(subsets)), np.int64)
    for (col, I), pos, r in itertools.product(enumerate(subsets), range(k), range(n)):
        if r == I[pos] or r not in I:
            moved = I[:pos] + (r,) + I[pos + 1:]
            table[r, I[pos], subsets.index(tuple(sorted(moved))), col] = (-1) ** sum(
                x > y for x, y in itertools.combinations(moved, 2))
    return subsets, table.reshape(n * n, -1)


def _combination(terms, rows):
    """sum of coef * rows[x] over terms (coef, x), added in order, or None."""
    acc = None
    for coef, x in terms:
        if acc is None:
            acc = rows[x] * coef
        elif coef == 1:
            acc += rows[x]
        elif coef == -1:
            acc -= rows[x]
        else:
            acc += coef * rows[x]
    return acc


def _draw_minors(draw: Draw, p: tuple):
    """(subsets, squares) for _prefix_logs of g = exp(Y) n, the rows of
    draw: m_I is entry I of exp(W) e_J = e_J + f1 W e_J + f2 W^2 e_J for
    W = wedge^k Y, from _wedge_terms and _column_coefficients, with t
    clipped to norm radius by _clip_factors.  n leaves H alone, and must be
    a draw on a span that _in_np accepts, with no n of its own."""
    right = draw.right
    if right is not None and not (right.right is None and _in_np(
            right.basis.shape, right.basis.tobytes(), p)):
        raise ValueError("right factor of a draw is not in N_P")
    plan = [_wedge_terms(draw.basis.shape, draw.basis.tobytes(),
                         tuple(sorted(p[:k])))
            for k in range(1, len(p))]     # per k < n: Q terms, entries
    reads = {}      # per Q terms: the monomials that f1 and f2 of its c scale
    for qterms, entries in plan:
        reads.setdefault(qterms, set()).update(
            x for _, _, terms in entries for _, x in terms)
    monomials = sorted(set().union(*reads.values(),
                                   *({x for _, x in q} for q in reads)))

    def squares(rows, live):
        t = draw.t[rows]
        T = [t[:, x] for x in range(len(draw.basis))]
        if draw.radius is not None:
            scale = _clip_factors(t, draw.basis, draw.radius)
            T = [x * scale for x in T]
        mono = {x: T[x[0]] if len(x) == 1 else T[x[0]] * T[x[1]]
                for x in monomials}
        scaled = {}     # per Q terms: f1 t_a and f2 t_a t_b
        for qterms, xs in reads.items():
            c = _combination(qterms, mono)
            f = (1.0, 0.5) if c is None else _column_coefficients(c)
            scaled[qterms] = {x: f[len(x) - 1] * mono[x] for x in sorted(xs)}

        def square(terms, values, on_J):
            v = _combination(terms, values)
            v = np.zeros(len(t)) if v is None else v
            if on_J:
                v += 1.0
            return np.multiply(v, v, out=v)
        for (qterms, entries), keep in zip(plan, live):
            yield (square(terms, scaled[qterms], on_J)
                   for (_, on_J, terms), on in zip(entries, keep) if on)
        yield [np.ones(len(t))]     # det exp Y = 1: the spans lie in sl(n)
    return ([[I for I, *_ in entries] for _, entries in plan]
            + [[tuple(range(len(p)))]]), squares


@lru_cache(maxsize=None)
def _in_np(shape: tuple, data: bytes, p: tuple) -> bool:
    """Whether exp of the span of a basis (k, n, n) lies in N_P: the basis is
    strictly upper triangular after conjugation by p, compared exactly."""
    B, n = _conjugate(np.frombuffer(data).reshape(shape), p), shape[-1]
    return not B[:, np.arange(n)[:, None] >= np.arange(n)].any()


# --- the column coefficients -----------------------------------------------

# below this |c|, f1 and f2 are their Taylor series to c^2 (error < c^3/5040)
_SERIES_C = 1e-6


def _column_coefficients(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f1, f2) of exp W = I + f1 W + f2 W^2 where W^3 = c W: sinh(s)/s and
    2 sinh(s/2)^2/c for s = sqrt(c), sin for sinh where c < 0, the Taylor
    series where |c| < _SERIES_C (the hyperbolic Rodrigues formula); from
    sinh and cosh of s/2, and from sin and cos on the rows where c < 0
    alone: numpy takes about ten times as long for them."""
    s2 = np.abs(c)
    h = 0.5 * np.sqrt(s2)
    sh, ch = np.sinh(h), np.cosh(h)
    compact = np.flatnonzero(c < 0.0)
    if len(compact):
        sh[compact], ch[compact] = np.sin(h[compact]), np.cos(h[compact])
    f1 = sh * ch
    f1 /= h
    f2 = sh * sh
    f2 /= s2
    f2 += f2
    small = np.flatnonzero(s2 < _SERIES_C)
    if len(small):
        cs = c[small]
        f1[small] = 1.0 + cs / 6.0 + cs * cs / 120.0
        f2[small] = 0.5 + cs / 24.0 + cs * cs / 720.0
    return f1, f2


# --- sampling --------------------------------------------------------------

def _clip_factors(t: np.ndarray, basis: np.ndarray, radius: float) -> np.ndarray:
    """radius / norm for each Y = sum_k t_k basis[k] of the rows of t whose
    Frobenius norm exceeds radius, else 1: the columns of t squared once,
    added column by column along _entry_columns' program, the order in
    which np.sum adds the entries of Y.  A span with no nonzero entry has
    norm 0.  Raises SingularInput when a norm is not finite."""
    program = _entry_columns(basis.shape, basis.tobytes())
    stack = []      # per partial sum: its column, and if this call made it
    with np.errstate(over="ignore"):
        squares = [np.square(column) for column in t.T]
        for k in program:
            if k is not None:
                stack.append((squares[k], False))
                continue
            (b, made_b), (a, made_a) = stack.pop(), stack.pop()
            stack.append((np.add(a, b, out=a if made_a else
                                 b if made_b else None), True))
        del squares
        norms = np.sqrt(stack.pop()[0] if stack else np.zeros(len(t)))
    if not np.all(np.isfinite(norms)):
        raise SingularInput("exponent overflows double precision")
    return np.where(norms > radius, radius / np.maximum(norms, 1e-300), 1.0)


@lru_cache(maxsize=None)
def _entry_columns(shape: tuple, data: bytes) -> tuple:
    """How np.sum adds the squared entries of Y = sum_k t_k basis[k], each
    one +-t_k or 0 on the whole span, as _pairwise_program over t's columns.
    Raises ValueError when some entry is not of that form: every span drawn
    with a radius has that form."""
    B = np.abs(np.frombuffer(data).reshape(shape[0], shape[1] * shape[2]))
    if not (((B == 0.0) | (B == 1.0)).all() and (B.sum(axis=0) <= 1).all()):
        raise ValueError("a span entry is not a single +-t_k")
    return tuple(_pairwise_program([np.flatnonzero(e).tolist() for e in B.T]))


def _pairwise_program(leaves: list) -> list:
    """numpy's pairwise sum of leaves (Higham 2002, sec. 4.2) as a postfix
    program, a leaf [k] pushing t_k^2 and None adding the top two; a leaf []
    is an entry 0 and drops out, since x + 0 = x for a square x."""
    if len(leaves) > 128:     # halves whose first has a multiple of 8
        half = len(leaves) // 16 * 8
        return _join(_pairwise_program(leaves[:half]),
                     _pairwise_program(leaves[half:]))
    if len(leaves) < 8:
        return reduce(_join, leaves, [])
    body = len(leaves) // 8 * 8
    r = [reduce(_join, leaves[j:body:8]) for j in range(8)]
    while len(r) > 1:       # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        r = [_join(a, b) for a, b in zip(r[::2], r[1::2])]
    return reduce(_join, leaves[body:], r[0])


def _join(a: list, b: list) -> list:
    """The program of a + b, or of the one of them that is not empty."""
    return a + b + [None] if a and b else a or b


@dataclass(frozen=True, eq=False)
class Draw:
    """Sampled elements exp(Y) n as drawn, kept as their factors: row i has
    Y = sum_k t[i, k] basis[k], clipped to norm radius unless that is None,
    and n the element of row i of the Draw right, or n = 1 when that is
    None.  iwasawa reads a draw from these factors alone.  A draw of h
    stands for a z exp(Y) n for every center component z of H as well:
    each z is a diagonal sign matrix, so H(a z exp(Y) n) = H(a exp(Y) n)."""
    t: np.ndarray
    basis: np.ndarray
    radius: float | None = None
    right: Draw | None = None

    def __len__(self) -> int:
        return len(self.t)

    @property
    def shape(self) -> tuple:       # of the stack of matrices it stands for
        return (len(self.t),) + self.basis.shape[1:]

    def rows(self, rows) -> Draw:
        """The draw of rows alone, a slice or an index array."""
        return Draw(self.t[rows], self.basis, self.radius,
                    None if self.right is None else self.right.rows(rows))


def sample_span(basis: np.ndarray, radius: float, count: int, seeds) -> Draw:
    """Draw count elements exp(Y) per seed, in seed order: Y Gaussian in the
    span of basis (k, n, n), each coefficient with deviation radius / 2, and
    clipped to |Y| <= radius; span_form checks the span before any draw,
    and no Gaussian is drawn when the span is zero.  A seed is anything
    np.random.default_rng takes; an int gives the stream of PCG64(seed).
    Raises NotCubic when the span has no form."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    span_form(basis)
    parts = [np.random.default_rng(seed).normal(
        0.0, radius / 2.0, size=(count, len(basis))) for seed in seeds]
    # one stream's array is kept uncopied
    return Draw(parts[0] if len(parts) == 1 else np.concatenate(parts), basis,
                radius)


def sample_H(rz: Realization, radius: float, count: int, seed) -> Draw:
    """Draw count elements exp(Y), Y Gaussian in h clipped to |Y| <= radius."""
    return sample_span(np.stack(rz.h_basis), radius, count, [seed])


def sample_unipotent(basis: np.ndarray, radius: float, count: int, seeds
                     ) -> Draw:
    """sample_span's draw of a nilpotent span without its clip: the
    coefficients with deviation radius / 2, and Y unbounded."""
    return replace(sample_span(basis, radius, count, seeds), radius=None)


# --- Lie-algebra projections used by the Hessian layer ---------------------

def ek_projection(V, P: PositiveSystem) -> np.ndarray:
    """Component in k of the decomposition g = k + a + n_P; batched."""
    perm = P.perm
    low = np.tril(_conjugate(np.asarray(V, dtype=float), perm), -1)
    return _conjugate(low - np.swapaxes(low, -1, -2), np.argsort(perm))
