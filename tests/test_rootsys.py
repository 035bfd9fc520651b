from fractions import Fraction

import pytest

from orbitcone import exactlin as ex
from orbitcone.rootsys import (BadMultiplicity, NotAnInvolution,
                               build_pair_datum, covector_action, indivisible,
                               reflection_matrix, weyl_orbit)
import reference as fx
from reference import weyl_group

A_DIMS = {"kostant_sl2": 1, "sl2_so11": 1, "sl3_so21": 2, "group_sl2": 2}
AQ_DIMS = {"kostant_sl2": 1, "sl2_so11": 1, "sl3_so21": 2, "group_sl2": 1}
SMALL_ORDERS = {"kostant_sl2": 2, "sl2_so11": 1, "sl3_so21": 2, "group_sl2": 2}


def test_datum_shapes(rz):
    d = rz.datum
    assert len(d.a_basis) == A_DIMS[rz.name]
    assert len(d.aq_basis) == AQ_DIMS[rz.name]
    assert len(d.aq_basis) + len(d.ah_basis) == len(d.a_basis)
    for alpha in d.roots:
        assert ex.neg(alpha) in d.roots
        assert d.sigma_root(d.sigma_root(alpha)) == alpha


def test_sigma_is_involution(rz):
    d = rz.datum
    assert ex.mat_mul(d.sigma_on_a, d.sigma_on_a) == ex.identity(len(d.gram.num))
    # q_projector is the -1 eigenprojection
    pr = d.q_projector
    assert ex.mat_mul(pr, pr) == pr
    for v in d.aq_basis:
        assert d.pr_q(v) == v
    for v in d.ah_basis:
        assert fx.is_zero(d.pr_q(v))


def test_sigma_root_is_the_matrix_action(rz):
    d = rz.datum
    for alpha in d.roots:
        assert d.sigma_root(alpha) == covector_action(d.sigma_on_a, alpha)


def test_small_weyl_inverses(rz):
    ident = ex.identity(rz.dim)
    for g in rz.small_weyl:
        assert ex.mat_inv(g) in rz.small_weyl
        assert ex.mat_mul(g, ex.mat_inv(g)) == ident
        assert ex.mat_mul(ex.mat_inv(g), g) == ident


def test_roots_sigma_stable(rz):
    d = rz.datum
    for alpha in d.roots:
        assert d.sigma_root(alpha) in d.roots
        assert d.sigmatheta_root(alpha) in d.roots


def test_restricted_mult_split(rz):
    rr = rz.restricted
    assert rr.roots_q
    for lam, (dim, mp, mm) in rr.roots_q.items():
        assert not fx.is_zero(lam)
        assert dim == mp + mm
        assert dim > 0 and mp >= 0 and mm >= 0
        assert (lam in rr.plus_set) == (mp > 0)
        assert (lam in rr.minus_set) == (mm > 0)
        # restricted roots live on a_q
        assert ex.mat_vec(ex.transpose(rz.datum.q_projector), lam) == lam


def test_restricted_known_facts(rz):
    rr = rz.restricted
    if rz.name == "kostant_sl2":
        assert len(rr.roots_q) == 2 and not rr.minus_set
    if rz.name == "sl2_so11":
        assert len(rr.roots_q) == 2 and rr.minus_set == frozenset(rr.roots_q)
    if rz.name == "sl3_so21":
        assert len(rr.roots_q) == 6
    if rz.name == "group_sl2":
        assert len(rr.roots_q) == 2


def test_small_weyl_order(rz):
    assert len(rz.small_weyl) == SMALL_ORDERS[rz.name]


def test_small_weyl_is_the_closure_of_the_plus_roots(rz):
    # weyl_reps closes the group from the exact generators weyl_gens; the
    # reflections in the restricted roots with a plus space close the same
    oracle = weyl_group(rz.restricted.plus_set, rz.datum.gram)
    assert rz.small_weyl == oracle


def test_reflection_matrix_props(rz_sl3):
    d = rz_sl3.datum
    for alpha in sorted(d.roots)[:3]:
        s = reflection_matrix(alpha, d.gram)
        assert ex.mat_mul(s, s) == ex.identity(len(d.gram.num))
        # s fixes ker alpha pointwise
        for v in map(ex.exact, ex.nullspace([alpha.num])):
            assert ex.mat_vec(s, v) == v


def test_full_weyl_group_a2(rz_sl3):
    w = weyl_group(rz_sl3.datum.roots, rz_sl3.datum.gram)
    assert len(w) == 6
    for g in w:
        assert ex.mat_mul(g, ex.mat_inv(g)) == ex.identity(3)


def test_weyl_orbit_sizes(rz_sl3):
    w = weyl_group(rz_sl3.datum.roots, rz_sl3.datum.gram)
    assert len(weyl_orbit(w, (2, 1, -3))) == 6      # regular point
    assert len(weyl_orbit(w, (1, 1, -2))) == 3      # on one wall
    assert len(weyl_orbit(w, (0, 0, 0))) == 1


def test_indivisible():
    roots = frozenset(map(ex.exact, [(Fraction(1),), (Fraction(2),), (Fraction(-1),)]))
    assert indivisible(roots) == frozenset(map(ex.exact, [(1,), (-1,)]))


def test_build_pair_datum_rejects_non_involution():
    roots = {(Fraction(1), Fraction(-1)), (Fraction(-1), Fraction(1))}
    gram = ((Fraction(4), Fraction(0)), (Fraction(0), Fraction(4)))
    shear = ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1)))
    with pytest.raises(NotAnInvolution):
        build_pair_datum(roots, gram, shear,
                         {r: (1, None, None) for r in roots})


def test_build_pair_datum_rejects_bad_mult():
    roots = {(Fraction(1), Fraction(-1)), (Fraction(-1), Fraction(1))}
    gram = ((Fraction(4), Fraction(0)), (Fraction(0), Fraction(4)))
    minus = tuple(tuple(-Fraction(int(i == j)) for j in range(2)) for i in range(2))
    with pytest.raises(BadMultiplicity):
        build_pair_datum(roots, gram, minus,
                         {r: (2, 3, -1) for r in roots})
