from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcone import critical, harness, matrixgrp, polyhedra, rootsys
from orbitcone import exactlin as ex

import reference
from paper_claims import feasible

fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def vec_strat(n):
    return st.tuples(*([fracs] * n))


def mat_strat(rows, cols):
    return st.lists(vec_strat(cols), min_size=rows, max_size=rows).map(tuple)


def test_basic_ops():
    x = ex.vec([1, 2, 3])
    y = ex.vec([Fraction(1, 2), 0, -1])
    assert ex.add(x, y) == (Fraction(3, 2), Fraction(2), Fraction(2))
    assert ex.sub(x, x) == ex.zeros(3)
    assert ex.scale(Fraction(2), y) == (Fraction(1), 0, -2)
    assert ex.dot(x, y) == Fraction(1, 2) - 3
    assert ex.neg(y) == (Fraction(-1, 2), 0, 1)
    assert ex.is_zero(ex.zeros(4))
    assert not ex.is_zero(x)


def test_combination():
    x = ex.vec([1, 2, 3])
    y = ex.vec([Fraction(1, 2), 0, -1])
    assert ex.combination((2, Fraction(-1, 3)), (x, y), 3) \
        == ex.add(ex.scale(2, x), ex.scale(Fraction(-1, 3), y))
    assert ex.combination((), (), 4) == ex.zeros(4)
    with pytest.raises(ValueError):
        ex.combination((1, 2), (x,), 3)
    with pytest.raises(ValueError):
        ex.combination((1,), (x,), 2)


def test_identity_and_mat_ops():
    i3 = ex.identity(3)
    m = ex.mat([[1, 2, 0], [0, 1, 0], [0, 0, 1]])
    assert ex.mat_mul(m, i3) == m
    assert ex.mat_vec(m, (1, 1, 1)) == (3, 1, 1)
    assert ex.transpose(ex.transpose(m)) == m
    assert ex.mat_sub(m, m) == ex.mat([[0] * 3] * 3)


@settings(max_examples=60, deadline=None)
@given(mat_strat(3, 4))
def test_nullspace_annihilates(m):
    for v in ex.nullspace(m):
        assert ex.mat_vec(m, v) == ex.zeros(3)
        assert not ex.is_zero(v)


@settings(max_examples=60, deadline=None)
@given(mat_strat(3, 4))
def test_rank_nullity(m):
    assert len(ex.rref(m)[0]) + len(ex.nullspace(m)) == 4


@settings(max_examples=40, deadline=None)
@given(vec_strat(3), st.fractions(min_value=1, max_value=3, max_denominator=2))
def test_mat_inv(shear, d):
    m = ex.mat([[d, shear[0], shear[1]], [0, 1, shear[2]], [0, 0, 1]])
    inv = ex.mat_inv(m)
    assert ex.mat_mul(m, inv) == ex.identity(3)
    assert ex.mat_mul(inv, m) == ex.identity(3)


def test_mat_inv_singular():
    with pytest.raises(ValueError):
        ex.mat_inv(ex.mat([[1, 1], [1, 1]]))


def test_rref_pivots():
    rows, piv = ex.rref([(0, 2, 4), (1, 1, 1), (1, 3, 5)])
    assert len(rows) == len(piv) == 2
    for r, p in zip(rows, piv):
        assert r[p] == 1


@settings(max_examples=60, deadline=None)
@given(mat_strat(3, 5),
       st.tuples(*([st.fractions(min_value=0, max_value=3, max_denominator=4)] * 5)))
def test_feasible_on_constructed_solutions(a, x0):
    # b = A x0 with x0 >= 0 is feasible by construction
    b = ex.mat_vec(a, x0)
    assert feasible(a, b)


def test_feasible_negative():
    # x >= 0 with x = -1 impossible
    assert not feasible(((Fraction(1),),), (Fraction(-1),))
    assert feasible(((Fraction(1),),), (Fraction(2),))


@settings(max_examples=40, deadline=None)
@given(mat_strat(2, 4), st.tuples(*([fracs] * 4)))
def test_lp_solve_optimal_is_feasible(a, c):
    x0 = (Fraction(1), Fraction(2), Fraction(0), Fraction(1))
    b = ex.mat_vec(a, x0)
    status, x, val = ex.lp_solve(a, b, c)
    assert status in (ex.OPTIMAL, ex.UNBOUNDED)
    if status == ex.OPTIMAL:
        assert ex.mat_vec(a, x) == b
        assert all(t >= 0 for t in x)
        assert ex.dot(c, x) == val
        # x0 is feasible, so the maximum dominates it
        assert val >= ex.dot(c, x0)


def test_lp_solve_orientation():
    # maximize x subject to x <= 3 (x + s = 3)
    a = ((Fraction(1), Fraction(1)),)
    b = (Fraction(3),)
    status, x, val = ex.lp_solve(a, b, (Fraction(1), Fraction(0)))
    assert status == ex.OPTIMAL
    assert val == 3 and x[0] == 3


# --- the integer kernels against their Fraction oracles ---------------------

# ints, and Fractions with denominators up to 10^6, of either sign
entries = st.one_of(st.just(0), st.integers(-9, 9),
                    st.fractions(min_value=-1000, max_value=1000,
                                 max_denominator=10 ** 6))


@st.composite
def rational_matrices(draw, max_rows=5, max_cols=6, square=False):
    """Matrices with some rows zeroed, some rows repeated (as they are and
    as multiples) and some columns zeroed."""
    nrows = draw(st.integers(1, max_rows))
    ncols = nrows if square else draw(st.integers(1, max_cols))
    rows = [draw(st.lists(entries, min_size=ncols, max_size=ncols))
            for _ in range(nrows)]
    for i in draw(st.lists(st.integers(0, nrows - 1), max_size=2)):
        rows[i] = [0] * ncols
    for i, c in draw(st.lists(st.tuples(st.integers(0, nrows - 1), entries),
                              max_size=0 if square else 2)):
        rows.append(list(rows[i]) if c == 0 else [c * x for x in rows[i]])
    for j in draw(st.lists(st.integers(0, ncols - 1), max_size=2)):
        for row in rows:
            row[j] = 0
    return tuple(tuple(row) for row in rows)


def _same(got, want):
    # repr tells a Fraction from an int and a tuple from a list
    assert repr(got) == repr(want)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6).flatmap(
    lambda n: st.tuples(*[st.lists(entries, min_size=n, max_size=n)] * 2)))
def test_dot_equals_the_fraction_oracle(xy):
    x, y = xy
    _same(ex.dot(x, y), reference.dot_fraction(x, y))


@settings(max_examples=60, deadline=None)
@given(rational_matrices(), st.lists(entries, min_size=7, max_size=7))
def test_combination_equals_the_fraction_oracle(m, coeffs):
    cs = coeffs[:len(m)]
    _same(ex.combination(cs, m, len(m[0])),
          reference.combination_fraction(cs, m, len(m[0])))


@settings(max_examples=100, deadline=None)
@given(rational_matrices())
def test_rref_and_nullspace_equal_the_fraction_oracles(m):
    _same(ex.rref(m), reference.rref_fraction(m))
    _same(ex.nullspace(m), reference.nullspace_fraction(m))


@settings(max_examples=60, deadline=None)
@given(rational_matrices(max_rows=4, square=True))
def test_mat_inv_equals_the_fraction_oracle(m):
    try:
        want = reference.mat_inv_fraction(m)
    except ValueError:
        with pytest.raises(ValueError, match="singular"):
            ex.mat_inv(m)
    else:
        _same(ex.mat_inv(m), want)


def test_the_kernels_reject_a_length_mismatch():
    x = (Fraction(1, 2), 3)
    for y in ((1,), (1, 2, 3)):
        with pytest.raises(ValueError):
            ex.dot(x, y)
    with pytest.raises(ValueError):
        ex.combination((1, 2), (x, (1,)), 2)
    _same(ex.rref([]), ([], []))
    _same(ex.nullspace([]), [])


# --- the same values on every report path ------------------------------------

KERNEL_ORACLES = {"dot": reference.dot_fraction,
                  "combination": reference.combination_fraction,
                  "rref": reference.rref_fraction}


@pytest.fixture
def kernel_calls(monkeypatch):
    """Check every call of an integer kernel against its oracle on the same
    arguments, and count the calls.  Every module-level cache is replaced
    by an empty one, so that the report paths are computed anew."""
    calls = Counter()

    def checked(name, kernel, oracle):
        def call(*args):
            got = kernel(*args)
            _same(got, oracle(*args))
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

    def stack(*args):
        stacks.append(critical.SampleStack(*args))
        return stacks[-1]

    monkeypatch.setattr(harness, "SampleStack", stack)
    checks = [c for c in harness.CHECKS if c != "kostant" or preset == "kostant_sl2"]
    for check in checks:
        harness.run(harness.VerificationConfig(preset=preset,
                                               checks=frozenset({check})))
    for xs in stacks:
        xs.X, xs.gram, xs.signs
    assert stacks and all(kernel_calls[k] for k in KERNEL_ORACLES), kernel_calls
