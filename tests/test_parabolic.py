import itertools
from fractions import Fraction

import pytest

from orbitcone import critical
from orbitcone import exactlin as ex
from orbitcone.harness import VerificationConfig
from orbitcone.matrixgrp import realization
from orbitcone.parabolic import (PositiveSystem, all_positive_systems,
                                 base_system, from_chamber, h_extremize,
                                 is_h_extreme, is_q_extreme, reflect_system,
                                 sigma_classification)

import reference as fx
from reference import weyl_group

SYSTEM_COUNTS = {"kostant_sl2": 2, "sl2_so11": 2, "sl3_so21": 6, "group_sl2": 4}
# P.perm of each system of all_positive_systems, keyed by its chamber
# vector, a permutation of (n, ..., 1); another choice of permutation would
# move the low bits of every iwasawa on group_sl2
PERMS = {
    "kostant_sl2": {"12": (1, 0), "21": (0, 1)},
    "sl2_so11": {"12": (1, 0), "21": (0, 1)},
    "sl3_so21": {"123": (2, 1, 0), "132": (1, 2, 0), "213": (2, 0, 1),
                 "231": (1, 0, 2), "312": (0, 2, 1), "321": (0, 1, 2)},
    "group_sl2": {"3412": (1, 0, 3, 2), "3421": (1, 0, 2, 3),
                  "4312": (0, 1, 3, 2), "4321": (0, 1, 2, 3)},
}


def test_all_positive_systems_count(rz):
    systems = all_positive_systems(rz.datum)
    assert len(systems) == SYSTEM_COUNTS[rz.name]
    keys = {P.key() for P in systems}
    assert len(keys) == len(systems)


def test_all_positive_systems_match_the_weyl_closure(rz):
    # the images of the base chamber vector under the full Weyl group,
    # closed from its reflections, the first of each system kept: the same
    # systems, in the same order, with the same chamber vectors
    d = rz.datum
    base = base_system(d).chamber_vector
    closure = dict.fromkeys(from_chamber(d, ex.mat_vec(w, base))
                            for w in weyl_group(d.roots, d.gram))
    systems = all_positive_systems(d)
    want = sorted(closure, key=PositiveSystem.key)
    assert [P.positive for P in systems] == [P.positive for P in want]
    assert [P.chamber_vector for P in systems] == [
        P.chamber_vector for P in want]


def test_a_positive_system_is_its_positive_roots(rz_sl3):
    # another chamber vector of the base chamber, as --chamber gives it:
    # the base system, with its hash and its memo entries
    base = rz_sl3.base_parabolic
    P = VerificationConfig(preset="sl3_so21",
                           chamber=("5", "2", "1")).positive_system(rz_sl3)
    assert P is not base and P.chamber_vector != base.chamber_vector
    assert P == base and hash(P) == hash(base)
    assert P.perm == base.perm
    a_log = ex.exact((Fraction(2), Fraction(1), Fraction(-3)))
    for w in rz_sl3.small_weyl:
        a_w = critical.weyl_image(rz_sl3, a_log, w)
        assert critical._WeylPoint(rz_sl3, P, a_w) \
            is critical._WeylPoint(rz_sl3, base, a_w)
    others = [Q for Q in all_positive_systems(rz_sl3.datum)
              if Q.positive != base.positive]
    assert others and all(Q != base for Q in others)
    assert len(set(others)) == len(others)


def _moved(alpha, p):
    """The root e_p[i] - e_p[j] for alpha = e_i - e_j."""
    out = [0] * len(p)
    for i, c in enumerate(alpha.num):
        out[p[i]] = c
    return ex.Exact(tuple(out), alpha.den)


def test_the_permutation_of_each_positive_system_is_pinned(rz):
    d, n = rz.datum, rz.dim
    assert {"".join(str(c) for c in fx.vec(P.chamber_vector)): P.perm
            for P in all_positive_systems(d)} == PERMS[rz.name]
    assert rz.base_parabolic.perm == tuple(range(n))
    keeping = [p for p in itertools.permutations(range(n))
               if {_moved(a, p) for a in d.roots} == d.roots]
    # distinct entries, so off every wall e_i - e_j
    systems = [from_chamber(d, c)
               for c in itertools.permutations((7, 3, -2, -5)[:n])]
    for P in list(systems):
        for alpha in h_extremize(P)[1]:
            P = reflect_system(P, alpha)
            systems.append(P)
    base = rz.base_parabolic.positive
    for P in systems:
        assert {_moved(a, P.perm) for a in base} == P.positive
        assert all({_moved(a, p) for a in base} != P.positive
                   for p in keeping[:keeping.index(P.perm)])


def test_equal_positive_roots_of_two_data_are_two_systems():
    # kostant_sl2 and sl2_so11 share their root coordinates, not their data
    P, Q = (realization(name).base_parabolic
            for name in ("kostant_sl2", "sl2_so11"))
    assert P.positive == Q.positive and hash(P) == hash(Q)
    assert P != Q


def test_from_chamber_rejects_wall(rz_sl3):
    with pytest.raises(ValueError):
        from_chamber(rz_sl3.datum, (Fraction(1), Fraction(1), Fraction(-2)))


def test_opposite_and_simple_roots(rz_sl3):
    P = rz_sl3.base_parabolic
    Pb = from_chamber(rz_sl3.datum, ex.neg(P.chamber_vector))
    assert Pb.positive == P.negative
    assert Pb.negative == P.positive
    simples = P.simple_roots()
    assert simples == frozenset({ex.exact((1, -1, 0)), ex.exact((0, 1, -1))})


def test_classification_partition(rz):
    # every positive root is in exactly one of the sigma and sigma-theta parts
    for P in all_positive_systems(rz.datum):
        cls = sigma_classification(P)
        assert P.classification == cls
        assert P.classification is P.classification
        assert cls.sigma_part | cls.sigmatheta_part == P.positive
        assert not (cls.sigma_part & cls.sigmatheta_part)
        d = rz.datum
        for alpha in cls.sigma_part:
            assert d.sigma_root(alpha) in P.positive
        for alpha in cls.sigmatheta_part:
            assert d.sigmatheta_root(alpha) in P.positive


def test_plus_minus_membership_rules(rz):
    d = rz.datum
    for P in all_positive_systems(rz.datum):
        cls = sigma_classification(P)
        plus, minus = P.classification.plus_part, P.classification.minus_part
        assert plus <= P.positive and minus <= P.positive
        assert minus <= cls.sigmatheta_part
        for alpha in P.positive:
            if not d.in_aq_star(alpha):
                # roots not vanishing on a_h always qualify on the plus side
                assert alpha in plus
                assert (alpha in minus) == (alpha in cls.sigmatheta_part)
            else:
                dim, mp, mm = d.mult(alpha)
                assert (alpha in plus) == (mp > 0)
                assert (alpha in minus) == (alpha in cls.sigmatheta_part and mm > 0)


def test_known_sl3_sets(rz_sl3):
    P = rz_sl3.base_parabolic
    cls = sigma_classification(P)
    a12, a13, a23 = map(ex.exact, [(1, -1, 0), (1, 0, -1), (0, 1, -1)])
    assert cls.sigma_part == frozenset()
    assert cls.sigmatheta_part == frozenset({a12, a13, a23})
    plus, minus = cls.plus_part, cls.minus_part
    # so(2,1) multiplicities put a12 in the + space, the long pair in the -
    assert plus == frozenset({a12})
    assert minus == frozenset({a13, a23})


def test_known_group_sets(rz_group):
    # base chamber gives the same system in both factors: Gamma is trivial
    P = rz_group.base_parabolic
    cls = sigma_classification(P)
    assert cls.sigma_part == P.positive
    assert cls.sigmatheta_part == frozenset()
    assert cls.minus_part == frozenset()
    # opposite chambers in the two factors: q-extreme, Gamma is a ray
    Q = from_chamber(rz_group.datum, (4, 3, 1, 2))
    assert is_q_extreme(Q)
    minus_q = Q.classification.minus_part
    assert minus_q == sigma_classification(Q).sigmatheta_part != frozenset()


def test_reflect_system_flips_one_root(rz_sl3):
    P = rz_sl3.base_parabolic
    for alpha in P.simple_roots():
        Q = reflect_system(P, alpha)
        assert ex.neg(alpha) in Q.positive
        assert len(P.positive & Q.positive) == len(P.positive) - 1


def test_h_extremize_postconditions(rz):
    d = rz.datum
    for P in all_positive_systems(rz.datum):
        Q, trace = h_extremize(P)
        assert len(trace) <= len(P.positive)
        assert is_h_extreme(Q)
        # the a_q^*- and a_h^*-supported positive roots are untouched
        assert {a for a in P.positive if d.in_aq_star(a)} \
            == {a for a in Q.positive if d.in_aq_star(a)}
        assert {a for a in P.positive if d.in_ah_star(a)} \
            == {a for a in Q.positive if d.in_ah_star(a)}
        assert sigma_classification(P).sigma_part \
            <= sigma_classification(Q).sigma_part
        # replay the trace: each step strictly enlarges the sigma part
        cur = P
        for alpha in trace:
            nxt = reflect_system(cur, alpha)
            assert len(sigma_classification(nxt).sigma_part) \
                > len(sigma_classification(cur).sigma_part)
            cur = nxt
        assert cur.positive == Q.positive


def test_h_extremize_group_needs_one_step(rz_group):
    P = from_chamber(rz_group.datum, (4, 3, 1, 2))
    assert not is_h_extreme(P)
    Q, trace = h_extremize(P)
    assert len(trace) == 1
    assert is_h_extreme(Q)


def test_h_extremize_sl3_trivial(rz_sl3):
    for P in all_positive_systems(rz_sl3.datum):
        Q, trace = h_extremize(P)
        assert trace == ()
        assert Q.positive == P.positive


def test_extremity_flags(rz):
    for P in all_positive_systems(rz.datum):
        cls = sigma_classification(P)
        d = rz.datum
        not_in_aq = {a for a in P.positive if not d.in_aq_star(a)}
        not_in_ah = {a for a in P.positive if not d.in_ah_star(a)}
        assert is_h_extreme(P) == (cls.sigma_part == not_in_aq)
        assert is_q_extreme(P) == (cls.sigmatheta_part == not_in_ah)
