"""Matrix models of the symmetric pairs and their Iwasawa machinery.

Four presets are shipped: a compact-subgroup case inside SL(2,R), the split
pairs (SL(2,R), SO(1,1)) and (SL(3,R), SO(2,1)), and the doubled group case
realized block-diagonally in SL(4,R).  The Cartan involution is always
Y -> -Y^T; the second involution is either Y -> -J Y^T J for a signature
matrix J or conjugation by the block swap.

The Iwasawa log is log|R_kk| of g = QR for the upper-triangular base
system, from one vectorised Gram-Schmidt kernel that forms no Q and no
off-diagonal R; every positive system is named explicitly and conjugated
into the base system by an index permutation, the identity for the base
system itself, applied in the kernel's one layout copy.
Every sampled span is exponentiated by one closed form, ``exp_span``, with c
in Y^3 = c Y from the span's form, which ``span_form`` checks once per span,
and I + Y where ``span_class`` finds Y^2 = 0.  The samplers return a
``Draw``, which builds the elements of any rows with the bits of the whole
stack; ``iwasawa`` builds a draw on a Y^2 = 0 span in its kernel's layout.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import exactlin as ex
from .exactlin import Mat, Vec
from .parabolic import PositiveSystem, from_chamber
from .rootsys import (SymmetricPairDatum, build_pair_datum, reflection_matrix,
                      restricted_roots, weyl_group)

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
    weyl_gen_reps: tuple[tuple[Mat, np.ndarray], ...]

    def sigma_alg(self, Y: np.ndarray) -> np.ndarray:
        if self.kind == "J":
            return -self.inv_np @ np.swapaxes(Y, -1, -2) @ self.inv_np
        return self.inv_np @ Y @ self.inv_np

    def pi_h(self, Y: np.ndarray) -> np.ndarray:
        return 0.5 * (Y + self.sigma_alg(Y))

    @cached_property
    def base_parabolic(self) -> PositiveSystem:
        cham = tuple(Fraction(self.dim - i) for i in range(self.dim))
        return from_chamber(self.datum, cham)

    @cached_property
    def restricted(self):
        return restricted_roots(self.datum)

    @cached_property
    def small_weyl(self):
        """Reflection group of the restricted roots carrying a plus space."""
        gens = frozenset(self.restricted.plus_set)
        return weyl_group(gens if gens else frozenset(), self.datum.gram)

    @cached_property
    def weyl_reps(self) -> dict[Mat, np.ndarray]:
        n = self.dim
        ident = ex.identity(n)
        reps = {ident: np.eye(n)}
        frontier = [ident]
        while frontier:
            nxt = []
            for w in frontier:
                for gen, gen_rep in self.weyl_gen_reps:
                    prod = ex.mat_mul(gen, w)
                    if prod not in reps:
                        reps[prod] = gen_rep @ reps[w]
                        nxt.append(prod)
            frontier = nxt
        missing = [w for w in self.small_weyl.elements if w not in reps]
        if missing:
            raise RuntimeError("Weyl representatives do not cover the reflection group")
        return reps

    @cached_property
    def z_signs(self) -> np.ndarray:
        """The diagonals of the center components, one row each: z Y scales
        row i of Y by z_ii.  Raises ValueError when some z is not a
        diagonal sign matrix, as that product would then be wrong."""
        zs = np.stack(self.z_reps)
        signs = np.diagonal(zs, axis1=-2, axis2=-1).copy()
        if not (np.array_equal(zs, a_matrix(signs))
                and np.all(np.abs(signs) == 1.0)):
            raise ValueError(f"{self.name}: a center component is not a "
                             "diagonal sign matrix")
        return signs

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


def _rot90():
    return np.array([[0.0, -1.0], [1.0, 0.0]])


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
        weyl_gen_reps=((gen, _rot90()),))


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
        weyl_gen_reps=())


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
    s12 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    zs = (np.diag([1.0, 1.0, 1.0]), np.diag([-1.0, -1.0, 1.0]),
          np.diag([-1.0, 1.0, -1.0]), np.diag([1.0, -1.0, -1.0]))
    return Realization(
        name="sl3_so21", dim=3, kappa=6, datum=datum,
        kind="J", inv_np=np.diag([1.0, 1.0, -1.0]),
        h_basis=(np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
                 np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
                 np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])),
        z_reps=zs,
        weyl_gen_reps=((gen, s12),))


def _build_group_sl2() -> Realization:
    roots = _gl_roots(4, pairs=[(0, 1), (1, 0), (2, 3), (3, 2)])
    swap = tuple(tuple(Fraction(1) if (i + 2) % 4 == j else Fraction(0)
                       for j in range(4)) for i in range(4))
    mult = {r: (1, None, None) for r in roots}
    datum = _pair_datum(roots, 4, swap, mult)
    rest = restricted_roots(datum)
    lam = max(rest.plus_set)
    gen = reflection_matrix(lam, datum.gram)
    rot2 = np.zeros((4, 4))
    rot2[:2, :2] = _rot90()
    rot2[2:, 2:] = _rot90()
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
        weyl_gen_reps=((gen, rot2),))


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


# --- permutation bookkeeping -----------------------------------------------

@lru_cache(maxsize=None)
def chamber_perm(rz: Realization, P: PositiveSystem) -> np.ndarray:
    """Index permutation p such that the permutation matrix w with
    w[p[c], c] = 1 maps Sigma(base) onto Sigma(P); the identity when P is
    the base system, under which every conjugation is an exact copy."""
    base_pos = rz.base_parabolic.positive
    for perm in itertools.permutations(range(rz.dim)):
        moved = frozenset(tuple(a[perm.index(r)] for r in range(rz.dim))
                          for a in base_pos)
        if moved == P.positive:
            return np.array(perm)
    raise ValueError("positive system is not a coordinate permutation of "
                     "the base")


def _conjugate(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """w^T x w for the permutation matrix w with w[p[c], c] = 1; batched."""
    return x[..., p, :][..., :, p]


# --- Iwasawa decomposition -------------------------------------------------

# iwasawa and exp_span work through their input this many matrices at a
# time, so that their temporaries stay a few blocks in size whatever the batch
BLOCK = 4096
# a matrix whose largest entry lies outside this range is divided by it, so
# that nothing underflows or overflows: by exp_span, which forms c from t
# divided by it too, and by iwasawa in a block where some R_kk leaves it
_UNSCALED = (1e-60, 1e60)
# an R_kk below 1e-250 makes the input numerically singular
_LOG_TINY = math.log(1e-250)


def _scales(peak: np.ndarray) -> np.ndarray:
    """Per-matrix divisor: the largest entry |peak| where it is nonzero and
    leaves _UNSCALED, 1 elsewhere."""
    return np.where((peak < _UNSCALED[0]) & (peak > 0) | (peak > _UNSCALED[1]),
                    peak, 1.0)


def iwasawa(rz: Realization, g, P: PositiveSystem) -> np.ndarray:
    """Iwasawa log H of g = k exp(H) n with n in N_P, in ambient diagonal
    coordinates; accepts stacked input (..., n, n) or a Draw (the bits of its
    elements).  P is required: g is conjugated into the base system by
    chamber_perm(rz, P), the identity for rz.base_parabolic, and H is
    log|diag R| of its QR, from the Gram-Schmidt kernel _log_r_block.  An
    unclipped Draw of finite t and no centers on a span with Y^2 = 0 goes a
    block at a time into the kernel's layout as I + Y, one GEMM with the
    basis permuted to P; other Draws are built by elements().  Raises
    SingularInput when g has non-finite entries or is numerically singular:
    some |R_kk| < 1e-250, or |R_kk|^2 underflows to 0 in the kernel."""
    direct = (isinstance(g, Draw) and g.radius is None and g.centers is None
              and span_class(g.basis)[1] and np.isfinite(g.t).all())
    if not direct:
        g = g.elements() if isinstance(g, Draw) else np.asarray(g, dtype=float)
    n, p = g.shape[-1], chamber_perm(rz, P)
    flat = g if direct else g.reshape(-1, n, n)
    stack = g.elements if direct else flat.__getitem__
    H = np.empty((len(flat), n))
    if direct:      # M[j * n + i, d] = basis[d, p[i], p[j]]
        M = g.basis.transpose(2, 1, 0)[p[:, None], p].reshape(n * n, len(g.basis))
    # the plain pass may overflow or divide 0 by 0; _log_r_block redoes or
    # rejects the blocks where it did
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for start in range(0, len(flat), BLOCK):
            rows = slice(start, start + BLOCK)
            if direct:
                C = M @ g.t[rows].T
                C[::n + 1] += 1.0           # the rows j * n + j: I
            else:
                C = flat[rows].transpose(2, 1, 0)[p[:, None], p]
            _log_r_block(C.reshape(n, n, -1), p, H[rows], stack, rows)
    return H.reshape(g.shape[:-1])


def _log_r_block(C: np.ndarray, p: np.ndarray, out: np.ndarray, stack, rows) -> None:
    """log|R_kk| of the QR of each x = g[:, p][:, :, p] of a block g =
    stack(rows) (m, n, n), from its layout C[j, i] = x[:, i, j], written into
    out[:, p[k]], which maps it back to ambient coordinates.  The arithmetic
    is the plain one while every R_kk lies in _UNSCALED.  Otherwise the block
    is done again with each matrix of g whose largest entry leaves _UNSCALED
    divided by that entry, as in exp_span."""
    _gram_schmidt(C, p, out)
    if _UNSCALED[0] ** 2 <= out.min() and out.max() <= _UNSCALED[1] ** 2:
        np.log(out, out=out)
        out *= 0.5
        return
    C = stack(rows).transpose(2, 1, 0)[p[:, None], p]
    peak = np.abs(C).max(axis=(0, 1))
    if not np.all(np.isfinite(peak)):
        raise SingularInput("input matrix has non-finite entries")
    m = _scales(peak)
    C /= m
    _gram_schmidt(C, p, out)
    np.log(out, out=out)
    out *= 0.5
    out += np.log(m)[:, None]
    if not out.min() >= _LOG_TINY:
        raise SingularInput("matrix is numerically singular")


def _gram_schmidt(C: np.ndarray, p: np.ndarray, out: np.ndarray) -> None:
    """Modified Gram-Schmidt on the columns C[j] (rows i, matrices last) of
    a stack (n, n, m), in place; writes |R_kk|^2 into out[:, p[k]].  Each
    step is one array operation over the whole stack.  Each column is
    projected off the later ones twice: one pass leaves rounding of order
    eps |x| along it, which swamps R_kk on row-graded input such as a h with
    a = exp(-25, 25).  The sums are ufunc reductions, which add in the same
    order at every stack size (einsum does not on one matrix), so a matrix
    gets the same bits alone and in a batch."""
    for k in range(len(C)):
        q = C[k]
        ss = np.add.reduce(q * q, axis=0, out=out[:, p[k]])
        if k + 1 < len(C):
            rest, t = C[k + 1:], q / ss
            for _ in range(2):
                rest -= np.add.reduce(rest * q, axis=1, keepdims=True) * t


def h_pq(rz: Realization, g, P: PositiveSystem) -> np.ndarray:
    """Projection of the Iwasawa log onto a_q, ambient coordinates."""
    return iwasawa(rz, g, P) @ rz.q_proj_np.T


# --- the class of a span --------------------------------------------------

def span_form(basis) -> np.ndarray:
    """The quadratic form Q, read-only, with Y^3 = (t^T Q t) Y for every
    Y = sum_k t_k basis[k] of the span of an integer-valued basis (k, n, n):
    Q is polarised from c(B) = <B^3, B>/<B, B>, and Sym(B_i B_j B_k) =
    Sym(Q_ij B_k) is checked in integers.  Kept per basis.  Raises NotCubic
    when there is no such Q, ValueError when the basis is not integers."""
    return span_class(basis)[0]


def span_class(basis) -> tuple[np.ndarray, bool]:
    """(span_form(basis), whether Y^2 = 0 on the span: B_i B_j + B_j B_i = 0
    for all i, j, checked in integers and kept beside the form)."""
    B = np.asarray(basis, dtype=float)
    return _span_class(B.shape, B.tobytes())


@lru_cache(maxsize=None)
def _span_class(shape: tuple, data: bytes) -> tuple[np.ndarray, bool]:
    B = np.frombuffer(data).reshape(shape)
    Bi, k = B.astype(np.int64), len(B)
    if not np.array_equal(Bi, B):
        raise ValueError("span basis is not integer-valued")

    def c(b):               # c(b) when b^3 = c(b) b; c(2b) = 4 c(b)
        norm = int(np.sum(b * b))
        return Fraction(int(np.sum(b @ b @ b * b)), norm) if norm else Fraction(0)

    Q = np.array([[(c(bi + bj) - c(bi) - c(bj)) / 2 for bj in Bi] for bi in Bi],
                 dtype=object).reshape(k, k)
    d = math.lcm(*(q.denominator for q in Q.flat))
    dQ = (Q * d).astype(np.int64)
    resid = (d * np.einsum("aij,bjk,ckl->abcil", Bi, Bi, Bi)
             - np.einsum("ab,cil->abcil", dQ, Bi))
    if sum(resid.transpose(*p, 3, 4) for p in itertools.permutations(range(3))).any():
        raise NotCubic("span does not satisfy Y^3 = c Y with c quadratic")
    out = dQ / d
    out.flags.writeable = False
    BB = np.einsum("aij,bjk->abik", Bi, Bi)
    return out, not (BB + BB.transpose(1, 0, 2, 3)).any()


# --- the exponential of a span ---------------------------------------------

# below this |c|, f1 and f2 are their Taylor series to c^2 (error < c^3/5040)
_SERIES_C = 1e-6


def exp_span(t, basis: np.ndarray, radius: float | None = None) -> np.ndarray:
    """exp Y for Y = sum_k t[:, k] basis[k], one per row of t (count, k), on
    a span with Y^3 = c Y for c = t^T Q t, Q = span_form(basis):
    I + f1(c) Y + f2(c) Y^2 with f1 = sinh(s)/s and f2 = 2 sinh(s/2)^2/c for
    s = sqrt(c), sin for sinh when c < 0 (the hyperbolic Rodrigues formula).
    On a span with Y^3 = 0, Q is 0, and exp Y is exactly I + Y + Y^2/2, or
    I + Y where Y^2 = 0 (span_class).  Y is one GEMM; on the program's spans
    each entry is one exact product t_k (+-1), so einsum's bits.  With
    radius, _clip first scales each Y down to norm radius, and its row of t
    with it.  Zero gives exactly I.  Y is formed in the output, and
    overwritten BLOCK rows at a time.  Raises NotCubic as span_form does,
    SingularInput when a clip norm or exp Y is not finite in double
    precision."""
    t = np.asarray(t, dtype=float)
    form = None if span_class(basis)[1] else span_form(basis)
    n = basis.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        out = (t @ basis.reshape(len(basis), n * n)).reshape(len(t), n, n)
        if radius is not None:
            t = t * _clip(out, radius)[:, None]
        for i in range(0, len(t), BLOCK):
            _exp_block(out[i:i + BLOCK], t[i:i + BLOCK], form)
    return out


def _exp_block(Y: np.ndarray, t: np.ndarray, Q: np.ndarray | None) -> None:
    """exp Y of a stack Y (k, n, n) with coefficients t (k, d), written over
    Y; it is I + Y when Q is None, on a span with Y^2 = 0.  Where the largest
    entry m of Y (from _entry_max) leaves _UNSCALED, U = Y / m and c comes
    from t / m, as exp Y = I + (m f1) U + (m^2 f2) U^2."""
    if Q is None:
        Y += np.eye(Y.shape[-1])
    elif not Q.any():
        # Y^3 = 0: the series stops, and needs no rescale
        Y2 = Y @ Y
        Y += np.eye(Y.shape[-1])
        Y += 0.5 * Y2
    else:
        m = _scales(_entry_max(Y))
        U, tu = (Y, t) if np.all(m == 1.0) else (Y / m[:, None, None],
                                                   t / m[:, None])
        # t^T Q t, in the same order for a row in any stack
        cu = sum(Q[i, j] * tu[:, i] * tu[:, j] for i, j in zip(*np.nonzero(Q)))
        U2 = U @ U
        c = cu * m * m
        small = np.abs(c) < _SERIES_C
        su2 = np.where(small, 1.0, np.abs(cu))      # s^2 / m^2; 1 where unused
        su = np.sqrt(su2)
        s = su * m
        hyper = c > 0
        half = np.where(hyper, np.sinh(s / 2), np.sin(s / 2))
        g1 = np.where(small, (1.0 + c / 6.0 + c * c / 120.0) * m,
                      np.where(hyper, np.sinh(s), np.sin(s)) / su)
        g2 = np.where(small, (0.5 + c / 24.0 + c * c / 720.0) * (m * m),
                      2.0 * half * half / su2)
        if not np.all(np.isfinite(g2)):
            # m^2 f2 overflows for huge N with N^2 = 0, and inf * 0 is nan
            g2 = np.where(_entry_max(U2) > 0, g2, 0.0)
        np.multiply(g1[:, None, None], U, out=Y)
        Y += np.eye(Y.shape[-1])
        U2 *= g2[:, None, None]
        Y += U2
    if not np.all(np.isfinite(Y)):
        raise SingularInput("exponential overflows double precision")


def _entry_max(A: np.ndarray) -> np.ndarray:
    """max |A[k, i, j]| over (i, j) of a stack (k, n, n), from one copy of
    |A| with the n^2 entries as rows, so that the max runs along the stack:
    over the two short axes, np.max pays per matrix.  NaN propagates."""
    return np.abs(A.reshape(len(A), -1).T, order="C").max(axis=0)


def _sum_squares(A: np.ndarray) -> np.ndarray:
    """sum of A[k, i, j]^2 over (i, j) of a stack (k, n, n), bit for bit
    np.sum(A * A, axis=(-2, -1)), from one copy of the squares with the n^2
    entries as rows.  The rows are added as numpy's pairwise sum adds up
    to 128 entries (n <= 11; every preset has n <= 4): in turn below eight,
    else into eight running sums that are added as a tree before the rest
    follows in turn."""
    S = np.square(A.reshape(len(A), -1).T, order="C")
    if len(S) < 8:
        total, rest = S[0], S[1:]
    else:
        top = len(S) - len(S) % 8
        r = S[:8]
        for j in range(8, top, 8):
            r = r + S[j:j + 8]
        r = r[0::2] + r[1::2]           # r0 + r1, r2 + r3, r4 + r5, r6 + r7
        r = r[0::2] + r[1::2]
        total, rest = r[0] + r[1], S[top:]
    for x in rest:
        total += x
    return total


# --- sampling --------------------------------------------------------------

def _clip(Y: np.ndarray, radius: float) -> np.ndarray:
    """Scale each matrix of the stack Y (k, n, n) down to Frobenius norm
    radius when it is longer, in place, and return the factors.  The norms
    are summed by _sum_squares a block at a time.  Raises SingularInput
    when a norm overflows double precision."""
    norms = np.empty(len(Y))
    with np.errstate(over="ignore"):
        for start in range(0, len(Y), BLOCK):
            norms[start:start + BLOCK] = _sum_squares(Y[start:start + BLOCK])
    np.sqrt(norms, out=norms)
    if not np.all(np.isfinite(norms)):
        raise SingularInput("exponent overflows double precision")
    scale = np.where(norms > radius, radius / np.maximum(norms, 1e-300), 1.0)
    Y *= scale[:, None, None]
    return scale


@dataclass(frozen=True, eq=False)
class Draw:
    """Sampled elements z exp(Y) as drawn: row i has Y = sum_k t[i, k]
    basis[k], clipped to norm radius unless that is None, and z with the
    row signs signs[centers[i]], or z = 1 when centers is None."""
    t: np.ndarray
    basis: np.ndarray
    radius: float | None = None
    centers: np.ndarray | None = None
    signs: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.t)

    @property
    def shape(self) -> tuple:       # of elements(), as iwasawa reads it
        return (len(self.t),) + self.basis.shape[1:]

    def elements(self, rows: slice = slice(None)) -> np.ndarray:
        """The elements of rows, bit for bit those rows of the whole stack;
        raises SingularInput as exp_span does."""
        E = exp_span(self.t[rows], self.basis, self.radius)
        if self.centers is not None:
            E *= self.signs[self.centers[rows]][:, :, None]
        return E


def sample_span(rz: Realization, basis: np.ndarray, radius: float, count: int,
                seeds) -> Draw:
    """Draw count elements z * exp(Y) per seed, in seed order: Y Gaussian in
    the span of basis (k, n, n) clipped to |Y| <= radius, z a uniform center
    component, applied as the row signs rz.z_signs; each stream draws Y,
    then z, after span_form checks the span.  No Gaussian is drawn when the
    span is zero.  A seed is anything np.random.default_rng takes; an int
    gives the stream of PCG64(seed).  Raises NotCubic when the span has no
    form, ValueError when a center component is not a diagonal sign matrix."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    span_form(basis)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    t = _joined([rng.normal(0.0, radius / 2.0, size=(count, len(basis)))
                 for rng in rngs])
    centers = _joined([rng.integers(0, len(rz.z_reps), size=count)
                       for rng in rngs])
    return Draw(t, basis, radius, centers, rz.z_signs)


def _joined(parts: list) -> np.ndarray:
    """The per-stream arrays in turn; one stream's own array, uncopied."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def sample_H(rz: Realization, radius: float, count: int, seed) -> Draw:
    """Draw count elements z * exp(Y), Y Gaussian in h clipped to |Y| <= radius."""
    return sample_span(rz, np.stack(rz.h_basis), radius, count, [seed])


def sample_unipotent(basis: np.ndarray, radius: float, count: int, seeds
                     ) -> Draw:
    """Draw count elements exp(Y) per seed, Y = sum_k c_k basis[k] over a
    nilpotent span (k, n, n), the c_k Gaussian with deviation radius / 2;
    seeds as in sample_span, the span checked before any draw."""
    span_form(basis)
    return Draw(_joined([np.random.default_rng(seed).normal(
        0.0, radius / 2.0, size=(count, len(basis))) for seed in seeds]), basis)


# --- Lie-algebra projections used by the Hessian layer ---------------------

def ek_projection(rz: Realization, V, P: PositiveSystem) -> np.ndarray:
    """Component in k of the decomposition g = k + a + n_P; batched."""
    perm = chamber_perm(rz, P)
    low = np.tril(_conjugate(np.asarray(V, dtype=float), perm), -1)
    return _conjugate(low - np.swapaxes(low, -1, -2), np.argsort(perm))
