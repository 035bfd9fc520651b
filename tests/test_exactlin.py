from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitcone import critical, harness, matrixgrp, polyhedra, rootsys
from orbitcone import exactlin as ex
from orbitcone.parabolic import all_positive_systems

import reference
import reference as fx
from oracle_cones import random_cones
from paper_claims import feasible

fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def vec_strat(n):
    return st.tuples(*([fracs] * n))


def mat_strat(rows, cols):
    return st.lists(vec_strat(cols), min_size=rows, max_size=rows).map(tuple)


def test_basic_ops():
    x = ex.exact([1, 2, 3])
    y = ex.exact([Fraction(1, 2), 0, -1])
    assert fx.vec(ex.add(x, y)) == (Fraction(3, 2), Fraction(2), Fraction(2))
    assert ex.add(x, ex.neg(x)) == ex.zeros(3)
    assert fx.vec(ex.neg(y)) == (Fraction(-1, 2), 0, 1)
    assert ex.Exact((2, 4), 6) == ex.Exact((1, 2), 3) == ex.Exact((-1, -2), -3)
    assert hash(ex.Exact((2, 4), 6)) == hash(ex.Exact((1, 2), 3))
    assert ex.strs(y) == ["1/2", "0", "-1"]
    assert not any(ex.zeros(4).num) and any(x.num)


def test_combination():
    # integer rows over the least common denominator, and the order by value
    x = ex.exact([1, 2, 3])
    y = ex.exact([Fraction(1, 2), 0, Fraction(-1, 3)])
    assert ex.common([x, y]) == ([(6, 12, 18), (3, 0, -2)], 6)
    assert ex.common([]) == ([], 1)
    assert sorted([x, y]) == [y, x] and y < x and x > y
    assert ex.exact([Fraction(1, 3), 5]) < ex.exact([Fraction(1, 2), -9])
    with pytest.raises(ValueError):
        ex.add(x, ex.exact([1, 2]))


small = st.sampled_from([Fraction(k, d) for k in (-2, -1, 0, 1, 2) for d in (1, 2, 3)])


@given(st.one_of(st.lists(st.tuples(small, small)), st.lists(vec_strat(3)),
                 st.lists(mat_strat(2, 2))))
def test_sorted_exacts_follow_the_fraction_order(xs):
    # Exact.__lt__, on equal and on unequal denominators, orders by value
    # entry by entry; sorted is stable, so equal values keep their places
    exacts = [ex.exact(x) for x in xs]
    assert (sorted(range(len(xs)), key=exacts.__getitem__)
            == sorted(range(len(xs)), key=xs.__getitem__))


def test_identity_and_mat_ops():
    i3 = ex.identity(3)
    m = ex.exact([[1, 2, 0], [0, 1, 0], [0, 0, 1]])
    assert ex.mat_mul(m, i3) == m
    assert ex.mat_vec(m, ex.exact((1, 1, 1))) == ex.exact((3, 1, 1))
    assert ex.transpose(ex.transpose(m)) == m
    assert fx.mat(ex.transpose(m)) == fx.transpose(m)
    assert ex.strs(ex.exact([[Fraction(1, 2), 1], [0, -2]])) == [["1/2", "1"], ["0", "-2"]]


def _integer_rows(m):
    """Each row of a rational matrix scaled to integers."""
    return [ex.exact(row).num for row in m]


@settings(max_examples=60, deadline=None)
@given(mat_strat(3, 4))
def test_nullspace_annihilates(m):
    for v in ex.nullspace(_integer_rows(m)):
        assert fx.mat_vec(m, v) == fx.zeros(3)
        assert any(v)


@settings(max_examples=60, deadline=None)
@given(mat_strat(3, 4))
def test_rank_nullity(m):
    rows = _integer_rows(m)
    assert len(ex.rref(rows)[0]) + len(ex.nullspace(rows)) == 4


@settings(max_examples=40, deadline=None)
@given(vec_strat(3), st.fractions(min_value=1, max_value=3, max_denominator=2))
def test_mat_inv(shear, d):
    m = ex.exact([[d, shear[0], shear[1]], [0, 1, shear[2]], [0, 0, 1]])
    inv = ex.mat_inv(m)
    assert ex.mat_mul(m, inv) == ex.identity(3)
    assert ex.mat_mul(inv, m) == ex.identity(3)


def test_mat_inv_singular():
    with pytest.raises(ValueError):
        ex.mat_inv(ex.exact([[1, 1], [1, 1]]))


def test_rref_pivots():
    rows, piv = ex.rref([(0, 2, 4), (1, 1, 1), (1, 3, 5)])
    assert len(rows) == len(piv) == 2
    assert rows == [(1, 0, -1), (0, 1, 2)]
    for r, p in zip(rows, piv):
        assert r[p] > 0 and ex.primitive(r) == r


@settings(max_examples=60, deadline=None)
@given(mat_strat(3, 5),
       st.tuples(*([st.fractions(min_value=0, max_value=3, max_denominator=4)] * 5)))
def test_feasible_on_constructed_solutions(a, x0):
    # b = A x0 with x0 >= 0 is feasible by construction
    b = fx.mat_vec(a, x0)
    assert feasible(a, b)


def test_feasible_negative():
    # x >= 0 with x = -1 impossible
    assert not feasible(((Fraction(1),),), (Fraction(-1),))
    assert feasible(((Fraction(1),),), (Fraction(2),))


@settings(max_examples=40, deadline=None)
@given(mat_strat(2, 4), st.tuples(*([fracs] * 4)))
def test_lp_solve_optimal_is_feasible(a, c):
    x0 = (Fraction(1), Fraction(2), Fraction(0), Fraction(1))
    b = fx.mat_vec(a, x0)
    status, x, val = reference.lp_solve_fraction(a, b, c)
    assert status in (reference.OPTIMAL, reference.UNBOUNDED)
    if status == reference.OPTIMAL:
        assert fx.mat_vec(a, x) == b
        assert all(t >= 0 for t in fx.vec(x))
        assert fx.dot(c, x) == val
        # x0 is feasible, so the maximum dominates it
        assert val >= fx.dot(c, x0)


def test_lp_solve_orientation():
    # maximize x subject to x <= 3 (x + s = 3)
    a = ((Fraction(1), Fraction(1)),)
    b = (Fraction(3),)
    status, x, val = reference.lp_solve_fraction(a, b, (Fraction(1), Fraction(0)))
    assert status == reference.OPTIMAL
    assert val == 3 and fx.vec(x)[0] == 3


# --- the fraction-free kernels against their Fraction oracles ----------------

# ints, ints past 2^64, and Fractions with denominators up to 10^6, of
# either sign
entries = st.one_of(st.just(0), st.integers(-9, 9),
                    st.integers(2 ** 64, 2 ** 70).map(lambda k: k * (-1) ** k),
                    st.fractions(min_value=-1000, max_value=1000,
                                 max_denominator=10 ** 6))


@st.composite
def rational_matrices(draw, max_rows=5, max_cols=6, square=False, empty=False):
    """Matrices with some rows zeroed, some rows repeated (as they are, as
    multiples and as sums of two rows), some columns zeroed, now and then
    every row zeroed, and, with empty, now and then no rows at all."""
    nrows = draw(st.integers(0 if empty else 1, max_rows))
    if nrows == 0:
        return ()
    ncols = nrows if square else draw(st.integers(1, max_cols))
    rows = [draw(st.lists(entries, min_size=ncols, max_size=ncols))
            for _ in range(nrows)]
    for i in draw(st.lists(st.integers(0, nrows - 1), max_size=2)):
        rows[i] = [0] * ncols
    for i, j, c in draw(st.lists(st.tuples(st.integers(0, nrows - 1),
                                           st.integers(0, nrows - 1), entries),
                                 max_size=2)):
        # a row of the others' span: a multiple, or the sum of two rows
        row = [c * x for x in rows[i]] if c != 0 else [
            x + y for x, y in zip(rows[i], rows[j])]
        if square:
            rows[(i + 1) % nrows] = row
        else:
            rows.append(row)
    for j in draw(st.lists(st.integers(0, ncols - 1), max_size=2)):
        for row in rows:
            row[j] = 0
    if draw(st.integers(0, 9)) == 0:
        rows = [[0] * ncols for _ in rows]
    return tuple(tuple(row) for row in rows)


def _same(got, want):
    # repr tells a Fraction from an int and a tuple from a list
    assert repr(got) == repr(want)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6).flatmap(
    lambda n: st.tuples(*[st.lists(entries, min_size=n, max_size=n)] * 2)))
def test_dot_equals_the_fraction_oracle(xy):
    # a dot of exact vectors is the int_dot of their integer rows over the
    # product of their denominators
    x, y = map(ex.exact, xy)
    assert Fraction(ex.int_dot(x.num, y.num), x.den * y.den) == reference.dot(*xy)


@settings(max_examples=60, deadline=None)
@given(rational_matrices(), st.lists(entries, min_size=7, max_size=7))
def test_combination_equals_the_fraction_oracle(m, coeffs):
    # sum_k c_k m_k is M^T c
    cs = coeffs[:len(m)]
    got = ex.mat_vec(ex.transpose(ex.exact(m)), ex.exact(cs))
    assert fx.vec(got) == reference.combination(cs, m, len(m[0]))


def _lp_is_the_oracle(A, b):
    """lp_solve returns the point of the two-phase Fraction simplex at
    c=None, and None exactly when that reports infeasible."""
    A, b = [ex.exact(row) for row in A], ex.exact(b)
    status, want, _ = reference.lp_solve_fraction(A, b)
    got = ex.lp_solve(A, b)
    assert (got is None) == (status == reference.INFEASIBLE)
    assert got == want


@st.composite
def lp_systems(draw):
    """(A, b) with large or small entries of either sign: b drawn, mostly
    infeasible, or b = A x0 for an x0 >= 0.  Small entries give degenerate
    systems, where Bland's ties and the objective's weights pick the point."""
    A = draw(st.one_of(rational_matrices(max_rows=4), st.tuples(
        st.integers(1, 5), st.integers(1, 7)).flatmap(lambda mn: st.lists(
            st.lists(small, min_size=mn[1], max_size=mn[1]),
            min_size=mn[0], max_size=mn[0]))))
    pool = st.one_of(small, entries)
    if draw(st.booleans()):
        return A, draw(st.lists(pool, min_size=len(A), max_size=len(A)))
    return A, fx.mat_vec(A, draw(st.lists(pool.map(abs), min_size=len(A[0]),
                                          max_size=len(A[0]))))


@settings(max_examples=200, deadline=None)
@given(lp_systems())
# a tie that Bland's rule breaks by the smaller basic index, and a system
# whose point moves if the objective weighs the scaled artificials alike
@example(([fx.vec((2, 0, -1, 0, "1/2")), fx.vec((-1, -1, "-1/3", -1, 0)),
           fx.vec((1, -1, 2, "2/3", 1))], fx.vec((1, "-1/2", "7/3"))))
@example(([fx.vec((1, 2, 0)), fx.vec(("-2/3", "-2/3", 1))],
          fx.vec(("2/3", "5/9"))))
def test_lp_solve_is_the_fraction_simplex(system):
    _lp_is_the_oracle(*system)


def test_lp_solve_is_the_fraction_simplex_on_every_pointedness_system(monkeypatch):
    # the LP of pointedness_certificate on every Gamma(P) and gk cone of
    # the presets and on the random cones of the cone oracle
    systems = []
    real = ex.lp_solve
    monkeypatch.setattr(ex, "lp_solve",
                        lambda A, b: systems.append((A, b)) or real(A, b))
    cones = set(random_cones(200, seed=3))
    for preset in matrixgrp.PRESETS:
        Ps = all_positive_systems(matrixgrp.realization(preset).datum)
        cones.update(map(polyhedra.gamma_cone, Ps))
        cones.update(polyhedra.gk_cone(P, Q) for P in Ps for Q in Ps)
    for c in cones:
        polyhedra.pointedness_certificate(c)
    monkeypatch.undo()
    assert len(systems) == 230
    for A, b in systems:
        _lp_is_the_oracle(A, b)


def _rref_rationals(rows, pivots):
    """Each row of a fraction-free reduced form over its pivot."""
    return [tuple(Fraction(x, row[p]) for x in row) for row, p in zip(rows, pivots)]


def _check_rref(m, got):
    rows, pivots = got
    want_rows, want_pivots = reference.rref_fraction(m)
    assert pivots == want_pivots
    assert _rref_rationals(rows, pivots) == want_rows
    assert all(type(row) is tuple and ex.primitive(row) == row and row[p] > 0
               for row, p in zip(rows, pivots))


def _check_nullspace(m, got):
    free = [c for c in range(len(m[0]) if m else 0)
            if c not in reference.rref_fraction(m)[1]]
    assert len(got) == len(free)
    assert [tuple(Fraction(x, v[f]) for x in v) for v, f in zip(got, free)] \
        == reference.nullspace_fraction(m)
    assert all(type(v) is tuple and ex.primitive(v) == v and v[f] > 0
               for v, f in zip(got, free))


def _check_mat_inv(m, got):
    assert fx.mat(got) == reference.mat_inv_fraction(m)


@settings(max_examples=100, deadline=None)
@given(rational_matrices(empty=True))
def test_rref_and_nullspace_equal_the_fraction_oracles(m):
    _check_rref(m, ex.rref(_integer_rows(m)))
    _check_nullspace(m, ex.nullspace(_integer_rows(m)))


@settings(max_examples=60, deadline=None)
@given(rational_matrices(max_rows=4, square=True, empty=True))
def test_mat_inv_equals_the_fraction_oracle(m):
    try:
        reference.mat_inv_fraction(m)
    except ValueError:
        with pytest.raises(ValueError, match="singular"):
            ex.mat_inv(ex.exact(m))
    else:
        _check_mat_inv(m, ex.mat_inv(ex.exact(m)))


def _limited(x, max_den=40):
    f = Fraction(x).limit_denominator(max_den)
    return f.numerator, f.denominator


# exact midpoints of neighbouring fractions with denominators up to 40: the
# ties of limit_denominator(40); no such midpoint is a float
_FAREY = sorted({Fraction(p, q) for q in range(1, 41)
                 for p in range(-2 * q, 2 * q + 1)})
_MIDPOINTS = [(a + b) / 2 for a, b in zip(_FAREY, _FAREY[1:])]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                 st.floats(-60, 60)))
@example(0.0).via("the sign of zero")
@example(-0.0).via("the sign of zero")
@example(5e-324).via("the least subnormal")
@example(-2.225073858507201e-308).via("the largest subnormal")
@example(1e15).via("an integer float")
@example(-1e15 - 0.5).via("a half-integer past 1e15")
@example(1.7976931348623157e308).via("the largest float")
def test_limit_denominator_equals_fractions(x):
    assert ex.limit_denominator(x, 40) == _limited(x)


def test_limit_denominator_on_ties_and_dyadics():
    # every midpoint, exact and rounded to a float; dyadic values with
    # denominators up to 32 are returned as they are; with max_den = 1 a
    # half-integer lies midway between two bounds of one denominator
    floats = [float(m) for m in _MIDPOINTS]
    dyadic = [k / 2 ** j for j in range(6) for k in range(-99, 100)]
    for x in _MIDPOINTS + floats + dyadic:
        assert ex.limit_denominator(x, 40) == _limited(x), x
    for x in dyadic:
        assert ex.limit_denominator(x, 40) == x.as_integer_ratio()
        assert ex.limit_denominator(x, 1) == _limited(x, 1), x


def test_the_kernels_reject_a_length_mismatch():
    x = ex.exact((Fraction(1, 2), 3))
    for y in ((1,), (1, 2, 3)):
        with pytest.raises(ValueError):
            ex.add(x, ex.exact(y))
    _same(ex.rref([]), ([], []))
    _same(ex.nullspace([]), [])


# --- the same values on every report path ------------------------------------

# each kernel's check of its result against the Fraction oracle, on the
# rationals its integer arguments stand for
KERNEL_ORACLES = {"rref": _check_rref, "nullspace": _check_nullspace,
                  "mat_inv": lambda m, got: _check_mat_inv(fx.mat(m), got)}


@pytest.fixture
def kernel_calls(monkeypatch):
    """Check every call of an integer kernel against its oracle on the same
    arguments, and count the calls.  Every module-level cache is replaced
    by an empty one, so that the report paths are computed anew."""
    calls = Counter()

    def checked(name, kernel, check):
        def call(m):
            got = kernel(m)
            check(m, got)
            calls[name] += 1
            return got
        return call

    for name, oracle in KERNEL_ORACLES.items():
        monkeypatch.setattr(ex, name, checked(name, getattr(ex, name), oracle))
    for module in (critical, harness, matrixgrp, polyhedra, rootsys):
        for name, f in list(vars(module).items()):
            if hasattr(f, "cache_clear"):
                monkeypatch.setattr(module, name,
                                    lru_cache(maxsize=None)(f.__wrapped__))
    monkeypatch.setattr(critical, "_KERNELS", {})
    return calls


@pytest.mark.parametrize("preset", sorted(matrixgrp.PRESETS))
def test_every_report_path_gets_the_oracle_values(preset, kernel_calls,
                                                  monkeypatch):
    # the realization (roots, Weyl groups, inverses), every check's
    # polyhedra and exact levels at seed 0, and each SampleStack the checks
    # build, the seed-0 hessian draw among them, with all its parts
    stacks = []
    init = critical.SampleStack.__init__
    monkeypatch.setattr(critical.SampleStack, "__init__",
                        lambda xs, *args: stacks.append(xs) or init(xs, *args))
    checks = [c for c in harness.CHECKS if c != "kostant" or preset == "kostant_sl2"]
    for check in checks:
        harness.run(harness.VerificationConfig(preset=preset,
                                               checks=frozenset({check})))
    # signs and gram build stacks of the roots and of G, which need no parts
    # of their own
    for xs in list(stacks):
        xs.gram, xs.signs, [xs.exact(i) for i in range(len(xs.den))]
    assert stacks and all(kernel_calls[k] for k in KERNEL_ORACLES), kernel_calls
