import random
from fractions import Fraction

import numpy as np
import pytest

from orbitcone import exactlin as ex
from orbitcone.parabolic import all_positive_systems, is_q_extreme
from orbitcone.polyhedra import (Cone, NotQExtreme, PolyhedralSet, gamma_a,
                                 gamma_aq, gamma_cone, gk_cone, omega,
                                 pointedness_certificate, project_polyhedron,
                                 proper_on_cone, upsilon_cone)
from orbitcone.rootsys import ZeroRoot, coroot, weyl_orbit

from oracle_cones import oracle_pointed, oracle_proper, random_cones
from reference import contains


# --- independent membership routes -----------------------------------------

def lp_member(vertices, generators, x) -> bool:
    """Exact LP route: x = V^T lambda + G^T mu, sum lambda = 1, lambda, mu >= 0."""
    cols = list(vertices) + [g for g in generators if not ex.is_zero(g)]
    A = [tuple(c[i] for c in cols) for i in range(len(x))]
    A.append(tuple([Fraction(1)] * len(vertices)
                   + [Fraction(0)] * (len(cols) - len(vertices))))
    return ex.feasible(tuple(A), tuple(ex.vec(x)) + (Fraction(1),))


def contains_lp_float(obj: PolyhedralSet, x, tol: float = 1e-7) -> bool:
    """Float route: LP feasibility of the V-representation with an
    infinity-norm residual budget, via scipy."""
    from scipy.optimize import linprog
    x = np.asarray(x, dtype=float)
    V = np.array([[float(c) for c in v] for v in obj.vertices])
    G = [g for g in obj.cone.generators if not ex.is_zero(g)]
    G = np.array([[float(c) for c in g] for g in G]) if G else np.zeros((0, len(x)))
    n = len(x)
    nv, ng = len(V), len(G)
    # min t  s.t.  |V^T l + G^T m - x|_inf <= t, sum l = 1, l,m >= 0
    nvar = nv + ng + 1
    A_ub, b_ub = [], []
    M = np.vstack([V, G]).T if ng else V.T
    for i in range(n):
        row = np.zeros(nvar)
        row[:nv + ng] = M[i]
        row[-1] = -1.0
        A_ub.append(row.copy())
        b_ub.append(x[i])
        row2 = -row
        row2[-1] = -1.0
        A_ub.append(row2)
        b_ub.append(-x[i])
    A_eq = np.zeros((1, nvar))
    A_eq[0, :nv] = 1.0
    res = linprog(np.eye(nvar)[-1], A_ub=np.array(A_ub), b_ub=np.array(b_ub),
                  A_eq=A_eq, b_eq=[1.0], bounds=[(0, None)] * (nvar - 1) + [(None, None)])
    if not res.success:
        return False
    return res.x[-1] <= tol


def cone_hrep_reference(cone: Cone) -> set:
    """H-rep rows of the cone projected from its own lift
    {(x, nu) : x = G^T nu, nu >= 0}, with no vertex variable."""
    gens = [g for g in cone.generators if not ex.is_zero(g)]
    n, m = cone.ambient, len(gens)
    eqs = [([Fraction(int(j == i)) for j in range(n)] + [-g[i] for g in gens],
            Fraction(0)) for i in range(n)]
    ineqs = [([Fraction(0)] * n + [Fraction(int(j == k)) for j in range(m)],
              Fraction(0)) for k in range(m)]
    return set(project_polyhedron(eqs, ineqs, n))


def test_oracle_sanity():
    # half-plane: e1, -e1, e2 is not pointed; e1, e2 is
    e1, e2 = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))
    ne1 = (Fraction(-1), Fraction(0))
    assert not oracle_pointed([e1, ne1, e2])
    assert oracle_pointed([e1, e2])
    # projection to the x-axis is proper on the quadrant, not on the half-plane
    px = ((Fraction(0), Fraction(1)),)
    assert oracle_proper(px, [e1, e2]) is False  # e1 in ker, nonzero
    py = ((Fraction(1), Fraction(1)),)
    assert oracle_proper(py, [e1, e2]) is True


def test_predicates_match_oracle():
    for cone in random_cones(25, seed=4):
        want = oracle_pointed(cone.generators)
        cert = pointedness_certificate(cone)
        if want:
            assert cert is not None
            for g in cone.generators:
                if not ex.is_zero(g):
                    assert ex.dot(cert, g) > 0
        else:
            assert cert is None


def test_proper_on_cone_matches_oracle():
    rng = random.Random(9)
    for cone in random_cones(15, seed=5):
        n = cone.ambient
        k = rng.randint(1, n)
        p = tuple(tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
                  for _ in range(k))
        assert proper_on_cone(p, cone) == oracle_proper(p, cone.generators)


# --- constructions ----------------------------------------------------------

def test_coroot_normalization():
    gram = tuple(tuple(Fraction(6 * int(i == j)) for j in range(3))
                 for i in range(3))
    alpha = (Fraction(1), Fraction(0), Fraction(-1))
    h_alpha = coroot(alpha, gram)
    assert ex.dot(alpha, h_alpha) == 2
    for v in ex.nullspace([alpha]):
        assert ex.dot(h_alpha, ex.mat_vec(gram, v)) == 0
    with pytest.raises(ZeroRoot):
        coroot(ex.zeros(3), gram)


def test_cone_membership_exact_vs_float():
    c = Cone(((Fraction(1), Fraction(0)), (Fraction(1), Fraction(1))))
    assert c.contains_exact((Fraction(2), Fraction(1)))
    assert not c.contains_exact((Fraction(-1), Fraction(0)))
    assert contains(c, (2.0, 1.0))
    assert not contains(c, (-1.0, 0.0))
    assert c.slack((1.0, 0.5)) > 0
    assert c.slack((-1.0, 0.0)) < 0


def test_empty_cone_is_origin():
    c = Cone((), ambient=3)
    assert c.contains_exact(ex.zeros(3))
    assert not c.contains_exact((Fraction(1), Fraction(0), Fraction(0)))
    assert pointedness_certificate(c) == ex.zeros(3)


def test_random_cone_hrep_agrees_with_lp():
    # the H-representation against the exact LP on the V-representation
    rng = random.Random(17)
    for cone in random_cones(12, seed=6):
        n = cone.ambient
        origin = (ex.zeros(n),)
        for _ in range(8):
            x = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                      for _ in range(n))
            assert cone.contains_exact(x) == lp_member(origin, cone.generators, x)
        combo = ex.zeros(n)
        for g in cone.generators:
            combo = ex.add(combo, ex.scale(Fraction(rng.randint(0, 3)), g))
        assert cone.contains_exact(combo)
        assert lp_member(origin, cone.generators, combo)


def test_cone_hrep_is_the_vertex_zero_hrep(rz):
    # every gamma, gk and empty cone of the preset: the cone's own lift, the
    # cone and the polyhedral set with the single vertex 0 give the same rows
    systems = all_positive_systems(rz.datum)
    cones = ([gamma_cone(P) for P in systems]
             + [gk_cone(P, Q) for P in systems for Q in systems]
             + [Cone((), ambient=rz.dim)])
    origin = (ex.zeros(rz.dim),)
    for cone in cones:
        want = cone_hrep_reference(cone)
        assert set(cone.hrep) == want
        assert set(PolyhedralSet(origin, cone).hrep) == want


def test_slack_is_euclidean_distance():
    # rows x >= 0 (norm 1) and x + y >= 1 (norm sqrt 2)
    c = Cone(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))))
    s = PolyhedralSet(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))), c)
    assert s.slack((0.5, 0.5)) == pytest.approx(0.0, abs=1e-15)
    assert s.slack((0.0, 0.0)) == pytest.approx(-1 / np.sqrt(2))
    assert s.slack((-2.0, 4.0)) == pytest.approx(-2.0)
    pts = np.array([[0.5, 0.5], [0.0, 0.0], [-2.0, 4.0], [3.0, 3.0]])
    assert np.allclose(s.slack(pts), [0.0, -1 / np.sqrt(2), -2.0, 3.0])
    assert contains(s, (0.0, 0.0), tol=0.71) and not contains(s, (0.0, 0.0), tol=0.7)


def test_polyhedral_set_membership(rz_sl3):
    a_log = (Fraction(2), Fraction(1), Fraction(-3))
    P = rz_sl3.base_parabolic
    orbit = weyl_orbit(rz_sl3.small_weyl, a_log)
    om = omega(a_log, orbit, gamma_cone(P))
    assert om.vertices == tuple(sorted(orbit))
    for v in om.vertices:
        assert contains(om, v, tol=0)
        for g in om.cone.generators:
            shifted = ex.add(v, ex.scale(Fraction(3), g))
            assert contains(om, shifted, tol=0)
            assert contains_lp_float(om, [float(x) for x in shifted])
    mid = ex.scale(Fraction(1, 2), ex.add(om.vertices[0], om.vertices[1]))
    assert contains(om, mid, tol=0)
    # moving against the cone direction exits the set
    up = ex.add(mid, (Fraction(0), Fraction(0), Fraction(10)))
    assert not contains(om, up, tol=0)
    assert not contains_lp_float(om, [float(x) for x in up])
    # the H-representation against the exact LP on the V-representation
    rng = random.Random(23)
    for _ in range(20):
        x = tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 2))
                  for _ in range(3))
        x = rz_sl3.datum.pr_q(x) if rng.random() < 0.5 else x
        assert om.contains_exact(x) == lp_member(om.vertices,
                                                 om.cone.generators, x)


def test_gamma_cones(rz):
    for P in all_positive_systems(rz.datum):
        gam = gamma_cone(P)
        assert gam.ambient == rz.dim
        assert pointedness_certificate(gam) is not None
        for g in gam.generators:
            assert rz.datum.pr_q(g) == g


def test_gamma_aq_projects(rz_group):
    P = rz_group.base_parabolic
    gam = gamma_aq(sorted(P.positive), rz_group.datum)
    for g in gam.generators:
        assert rz_group.datum.pr_q(g) == g


def test_upsilon_equals_gamma_on_q_extreme(rz):
    for P in all_positive_systems(rz.datum):
        if not is_q_extreme(P):
            with pytest.raises(NotQExtreme):
                upsilon_cone(P)
            continue
        ups = upsilon_cone(P)
        gam = gamma_cone(P)
        for g in ups.generators:
            assert gam.contains_exact(g)
        for g in gam.generators:
            assert ups.contains_exact(g)


def test_gk_cone_definition(rz_sl3):
    systems = all_positive_systems(rz_sl3.datum)
    P, Q = systems[0], systems[1]
    cone = gk_cone(P, Q)
    inter = P.positive & Q.negative
    want = gamma_a(sorted(inter), rz_sl3.datum.gram)
    assert set(cone.generators) == set(want.generators)
    assert gk_cone(P, P).generators == ()

