from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcone import exactlin as ex

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
    assert ex.feasible(a, b)


def test_feasible_negative():
    # x >= 0 with x = -1 impossible
    assert not ex.feasible(((Fraction(1),),), (Fraction(-1),))
    assert ex.feasible(((Fraction(1),),), (Fraction(2),))


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
