import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from orbitcone import exactlin as ex
from orbitcone import polyhedra, rootsys
from orbitcone.harness import Tally, VerificationConfig, run
from orbitcone.matrixgrp import realization
from orbitcone.parabolic import all_positive_systems, is_q_extreme
from orbitcone.polyhedra import (Polyhedron, cone, gamma_a, gamma_aq,
                                 gamma_cone, gk_cone, omega,
                                 pointedness_certificate, project_polyhedron)
from orbitcone.rootsys import ZeroRoot, coroot, weyl_orbit

from oracle_cones import oracle_pointed, oracle_proper, random_cones
from paper_claims import NotQExtreme, feasible, proper_on_cone, upsilon_cone
import reference as fx
from reference import _eliminate, _lift, contains, lp_project


# --- independent membership routes -----------------------------------------

def lp_member(vertices, generators, x) -> bool:
    """Exact LP route: x = V^T lambda + G^T mu, sum lambda = 1, lambda, mu >= 0."""
    x = fx.vec(x)
    cols = [fx.vec(c) for c in list(vertices)
            + [g for g in generators if not fx.is_zero(g)]]
    A = [tuple(c[i] for c in cols) for i in range(len(x))]
    A.append(tuple([Fraction(1)] * len(vertices)
                   + [Fraction(0)] * (len(cols) - len(vertices))))
    return feasible(tuple(A), x + (Fraction(1),))


def contains_lp_float(obj: Polyhedron, x, tol: float = 1e-7) -> bool:
    """Float route: LP feasibility of the V-representation with an
    infinity-norm residual budget, via scipy."""
    from scipy.optimize import linprog
    x = np.asarray(x, dtype=float)
    V = np.array([[float(c) for c in fx.vec(v)] for v in obj.vertices])
    G = [fx.vec(g) for g in obj.generators if not fx.is_zero(g)]
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


def cone_hrep_reference(c: Polyhedron) -> list:
    """LP-pass rows of the cone c projected from its own lift
    {(x, nu) : x = G^T nu, nu >= 0}, with no vertex variable."""
    gens = [fx.vec(g) for g in c.generators if not fx.is_zero(g)]
    n, m = c.ambient, len(gens)
    eqs = [([Fraction(int(j == i)) for j in range(n)] + [-g[i] for g in gens],
            Fraction(0)) for i in range(n)]
    ineqs = [([Fraction(0)] * n + [Fraction(int(j == k)) for j in range(m)],
              Fraction(0)) for k in range(m)]
    return lp_project(eqs, ineqs, n)


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


def test_a_certificate_that_fails_its_test_raises_under_python_O():
    # the check of the LP's functional is a raise, which python -O keeps:
    # an LP that returns xi = 0 for the cone of e1 and e2 must not pass
    code = ("import sys\n"
            "from orbitcone import exactlin as ex, polyhedra\n"
            "assert False  # stripped under -O\n"
            "ex.lp_solve = lambda A, b, c: (ex.OPTIMAL, ex.zeros(6), None)\n"
            "try:\n"
            "    polyhedra.pointedness_certificate(\n"
            "        polyhedra.cone([(1, 0), (0, 1)], 2))\n"
            "except RuntimeError as e:\n"
            "    print(sys.flags.optimize, e)\n")
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-O", "-c",
                          f"import sys; sys.path[:0] = {[str(src)]!r}\n"
                          + code], capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("1 the LP's functional is not positive")


def test_predicates_match_oracle():
    for c in random_cones(25, seed=4):
        want = oracle_pointed(c.generators)
        cert = pointedness_certificate(c)
        if want:
            assert cert is not None
            for g in c.generators:
                if not fx.is_zero(g):
                    assert fx.dot(cert, g) > 0
        else:
            assert cert is None


def test_proper_on_cone_matches_oracle():
    rng = random.Random(9)
    for c in random_cones(15, seed=5):
        n = c.ambient
        k = rng.randint(1, n)
        p = tuple(tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
                  for _ in range(k))
        assert proper_on_cone(p, c) == oracle_proper(p, c.generators)


# --- constructions ----------------------------------------------------------

def test_coroot_normalization():
    gram = tuple(tuple(Fraction(6 * int(i == j)) for j in range(3))
                 for i in range(3))
    alpha = (Fraction(1), Fraction(0), Fraction(-1))
    h_alpha = coroot(alpha, gram)
    assert fx.dot(alpha, h_alpha) == 2
    for v in ex.nullspace([ex.exact(alpha).num]):
        assert fx.dot(h_alpha, fx.mat_vec(gram, v)) == 0
    with pytest.raises(ZeroRoot):
        coroot(fx.zeros(3), gram)


def test_cone_membership_exact_vs_float():
    c = cone(((Fraction(1), Fraction(0)), (Fraction(1), Fraction(1))), 2)
    assert c.contains_exact((Fraction(2), Fraction(1)))
    assert not c.contains_exact((Fraction(-1), Fraction(0)))
    assert contains(c, (2.0, 1.0))
    assert not contains(c, (-1.0, 0.0))
    assert c.slack((1.0, 0.5)) > 0
    assert c.slack((-1.0, 0.0)) < 0


def test_empty_cone_is_origin():
    c = cone((), 3)
    assert c.contains_exact(fx.zeros(3))
    assert not c.contains_exact((Fraction(1), Fraction(0), Fraction(0)))
    assert pointedness_certificate(c) == ex.zeros(3)


def test_random_cone_hrep_agrees_with_lp():
    # the H-representation against the exact LP on the V-representation
    rng = random.Random(17)
    for c in random_cones(12, seed=6):
        n = c.ambient
        origin = (fx.zeros(n),)
        for _ in range(8):
            x = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                      for _ in range(n))
            assert c.contains_exact(x) == lp_member(origin, c.generators, x)
        combo = fx.zeros(n)
        for g in c.generators:
            combo = fx.add(combo, fx.scale(Fraction(rng.randint(0, 3)), g))
        assert c.contains_exact(combo)
        assert lp_member(origin, c.generators, combo)


def test_cone_hrep_is_the_vertex_zero_hrep(rz):
    # every gamma, gk and empty cone of the preset: the cone and the
    # polyhedron with the single vertex 0 give the same rows, and those of
    # the cone's own lift once taken within the cone's linear hull; the
    # empty cone is the origin, whose equalities span all of Q^n
    systems = all_positive_systems(rz.datum)
    cones = ([gamma_cone(P) for P in systems]
             + [gk_cone(P, Q) for P in systems for Q in systems]
             + [cone((), rz.dim)])
    origin = (fx.zeros(rz.dim),)
    for c in cones:
        assert Polyhedron(origin, c.generators).hrep == c.hrep
        assert _within_hull(fx.hrep_pairs(c.hrep), origin, c.generators) == _lp_pass_within_hull(
            cone_hrep_reference(c), origin, c.generators)


# --- enumerated facets against the LP pass ----------------------------------

def _is_equality(row, V, G) -> bool:
    a, r = row
    return (all(fx.dot(a, v) == r for v in V)
            and all(fx.dot(a, g) == 0 for g in G))


def _within_hull(rows, V, G):
    """(reduced row echelon basis of the implicit equalities of rows as
    vectors (a, r), the other rows in order): rows of conv(V) + cone(G)
    compared with their equalities up to span."""
    eqs = [tuple(a) + (r,) for a, r in rows if _is_equality((a, r), V, G)]
    return fx.rref_fraction(eqs)[0], [row for row in rows if not _is_equality(row, V, G)]


def _lp_pass_within_hull(rows, V, G):
    """_within_hull of the LP-pass rows with each facet row a.x >= r mapped
    to its in-hull normal: (a, r) less the combination of the equality rows
    that removes a's component along their normals, scaled by unit_lead and
    sorted.  A full-dimensional set keeps its rows as they are."""
    eqs, facets = _within_hull(rows, V, G)
    B = [e[:-1] for e in eqs]
    gram_inv = fx.mat_inv_fraction(tuple(tuple(fx.dot(b, c) for c in B) for b in B))
    mapped = set()
    for a, r in facets:
        coef = fx.mat_vec(gram_inv, tuple(fx.dot(b, a) for b in B))
        row = fx.unit_lead(fx.sub(tuple(a) + (r,),
                                  fx.combination(coef, eqs, len(a) + 1)))
        mapped.add((row[:-1], row[-1]))
    return eqs, sorted(mapped)


def _same_as_lp_pass(V, G):
    # zero generators reach the enumeration; the LP pass gets them filtered
    V, G = [fx.vec(v) for v in V], [fx.vec(g) for g in G]
    nonzero = [g for g in G if not fx.is_zero(g)]
    want = _lp_pass_within_hull(lp_project(*_lift(V, nonzero), len(V[0])), V, G)
    got = project_polyhedron(list(map(ex.exact, V)), list(map(ex.exact, G)))
    return _within_hull(fx.hrep_pairs(got), V, G) == want


def _hulls_plus_cones(count, seed):
    """Seeded (V, G) in dimension 2 and 3; every third pair lies in a random
    affine subspace of lower dimension, possibly a point."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.choice((2, 3))
        k = rng.randint(0, n - 1) if i % 3 == 0 else n
        basis = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)]
        shift = [rng.randint(-2, 2) for _ in range(n)]

        def image(u, offset):
            return tuple(o + sum(b * c for b, c in zip(row, u))
                         for row, o in zip(basis, offset))
        V = [image([rng.randint(-3, 3) for _ in range(k)], shift)
             for _ in range(rng.randint(1, 4))]
        G = [image([rng.randint(-3, 3) for _ in range(k)], [0] * n)
             for _ in range(rng.randint(0, 3))]
        out.append((V, G))
    return out


def test_facets_match_the_lp_pass_on_the_presets(rz, monkeypatch):
    # every Gamma, gk, Omega and Omega_X cone or set the preset builds: the
    # ones the checks project, and the gamma cone and Omega of every system
    sets = []
    real = polyhedra.project_polyhedron
    monkeypatch.setattr(polyhedra, "project_polyhedron",
                        lambda *a: sets.append(a) or real(*a))
    cfg = VerificationConfig(preset=rz.name, samples=20, seed=0,
                             checks=frozenset({"main", "gk", "critical_image"}))
    run(cfg)
    monkeypatch.undo()
    a = cfg.a_log_exact()
    origin = (fx.zeros(rz.dim),)
    for P in all_positive_systems(rz.datum):
        om = omega(weyl_orbit(rz.small_weyl, a), gamma_cone(P))
        sets += [(origin, om.generators), (om.vertices, om.generators)]
    assert len(sets) > 4
    for V, G in {(tuple(V), tuple(G)) for V, G in sets}:
        assert _same_as_lp_pass(V, G), (V, G)


def test_facets_match_the_lp_pass_on_random_sets():
    # random cones, and random hulls plus cones, a third of them lower-dimensional
    for c in random_cones(75, seed=11):
        assert _same_as_lp_pass((fx.zeros(c.ambient),), c.generators)
    for V, G in _hulls_plus_cones(150, seed=12):
        assert _same_as_lp_pass(V, G), (V, G)


def test_facets_match_the_lp_pass_on_edge_sets():
    # in Q^1 a facet leaves no difference vector and no equality to reduce
    # by, and a lone point has only implicit equalities, one per coordinate
    def q1(*xs):
        return [(x,) for x in xs]
    F = Fraction
    cases = [
        (q1(3), (), [((F(-1),), F(-3)), ((F(1),), F(3))]),
        (q1(0, 2), (), [((F(-1),), F(-2)), ((F(1),), F(0))]),
        (q1(0), q1(1), [((F(1),), F(0))]),
        (q1(0), q1(1, -1), []),
        ([(1, -2)], (), None),
        ([(0, 1, 2)], (), None),
    ]
    for V, G, rows in cases:
        V, G = [fx.vec(v) for v in V], [fx.vec(g) for g in G]
        got = fx.hrep_pairs(project_polyhedron(list(map(ex.exact, V)),
                                               list(map(ex.exact, G))))
        assert rows is None or got == rows, (V, G, got)
        assert _same_as_lp_pass(V, G), (V, G)
        if len(V) == 1 and not G:
            assert len(got) == 2 * len(V[0])


def test_a_polyhedron_needs_a_vertex():
    with pytest.raises(ValueError, match="vertex"):
        Polyhedron(())
    with pytest.raises(ValueError, match="vertex"):
        Polyhedron((), ((Fraction(1),),))


def test_facets_of_a_set_with_346_eliminated_rows():
    # 5 vertices and 3 rays in Q^3 leave 346 Fourier-Motzkin rows, too many
    # for the LP pass; 9 of them are facets
    V = [fx.vec(v) for v in ((-2, -2, 0), (1, 3, 0), (-3, -2, 3), (2, 2, -1),
                             (-2, 1, 2))]
    G = [fx.vec(g) for g in ((-2, 3, -3), (-3, -1, -1), (2, -3, -1))]
    assert len(_eliminate(*_lift(V, G), 3)) == 346
    hrep = project_polyhedron(list(map(ex.exact, V)), list(map(ex.exact, G)))
    assert len(hrep) == 9
    s = Polyhedron(V, G)
    assert s.hrep == tuple(hrep)
    rng = random.Random(29)
    for _ in range(60):
        x = tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 4))
                  for _ in range(3))
        assert s.contains_exact(x) == lp_member(V, G, x)
    for v in V:
        for g in G:
            assert s.contains_exact(fx.add(v, fx.scale(Fraction(1, 2), g)))


def test_slack_is_euclidean_distance():
    # rows x >= 0 (norm 1) and x + y >= 1 (norm sqrt 2)
    e = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    s = Polyhedron(e, e)
    assert s.slack((0.5, 0.5)) == pytest.approx(0.0, abs=1e-15)
    assert s.slack((0.0, 0.0)) == pytest.approx(-1 / np.sqrt(2))
    assert s.slack((-2.0, 4.0)) == pytest.approx(-2.0)
    pts = np.array([[0.5, 0.5], [0.0, 0.0], [-2.0, 4.0], [3.0, 3.0]])
    assert np.allclose(s.slack(pts), [0.0, -1 / np.sqrt(2), -2.0, 3.0])
    assert contains(s, (0.0, 0.0), tol=0.71) and not contains(s, (0.0, 0.0), tol=0.7)


@pytest.mark.parametrize("preset, a_log", [
    ("kostant_sl2", (1, -1)), ("group_sl2", (1, -1, -1, 1)),
    ("sl3_so21", (2, 1, -3))])
def test_slack_is_the_distance_within_the_affine_hull(preset, a_log):
    # Omega of these presets is not full-dimensional: a point delta outside
    # a facet along its normal in the hull reads slack -delta, and a tally
    # at tol 0.9 delta records it; the relative interior point is the mean
    # of the facet's vertices plus the sum of its generators
    rz = realization(preset)
    om = omega(weyl_orbit(rz.small_weyl, fx.vec(a_log)),
               gamma_cone(rz.base_parabolic))
    delta = 1e-7
    facets = [row for row in fx.hrep_pairs(om.hrep)
              if not _is_equality(row, om.vertices, om.generators)]
    assert len(om.hrep) > len(facets) > 0
    for a, r in facets:
        tight = [v for v in om.vertices if fx.dot(a, v) == r]
        inner = fx.scale(Fraction(1, len(tight)),
                         fx.combination([1] * len(tight), tight, rz.dim))
        for g in om.generators:
            if fx.dot(a, g) == 0:
                inner = fx.add(inner, g)
        unit = np.array([float(c) for c in a])
        unit /= np.linalg.norm(unit)
        x = np.array([float(c) for c in inner]) - delta * unit
        assert om.slack(x) == pytest.approx(-delta, rel=1e-6)
        tally = Tally(0.9 * delta)
        tally.feed(om, x[None])
        assert len(tally.witnesses) == 1


def test_polyhedral_set_membership(rz_sl3):
    a_log = (Fraction(2), Fraction(1), Fraction(-3))
    P = rz_sl3.base_parabolic
    orbit = weyl_orbit(rz_sl3.small_weyl, a_log)
    om = omega(orbit, gamma_cone(P))
    assert om.vertices == tuple(sorted(orbit))
    for v in om.vertices:
        assert contains(om, v, tol=0)
        for g in om.generators:
            shifted = fx.add(v, fx.scale(Fraction(3), g))
            assert contains(om, shifted, tol=0)
            assert contains_lp_float(om, [float(x) for x in shifted])
    mid = fx.scale(Fraction(1, 2), fx.add(om.vertices[0], om.vertices[1]))
    assert contains(om, mid, tol=0)
    # moving against the cone direction exits the set
    up = fx.add(mid, (Fraction(0), Fraction(0), Fraction(10)))
    assert not contains(om, up, tol=0)
    assert not contains_lp_float(om, [float(x) for x in up])
    # the H-representation against the exact LP on the V-representation
    rng = random.Random(23)
    for _ in range(20):
        x = tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 2))
                  for _ in range(3))
        x = rz_sl3.datum.pr_q(ex.exact(x)) if rng.random() < 0.5 else x
        assert om.contains_exact(x) == lp_member(om.vertices, om.generators, x)


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
    gk = gk_cone(P, Q)
    inter = P.positive & Q.negative
    want = gamma_a(sorted(inter), rz_sl3.datum.gram)
    assert set(gk.generators) == set(want.generators)
    assert gk_cone(P, P).generators == ()


def test_gk_cones_are_projected_once_per_support(monkeypatch):
    """On sl3_so21 the 36 pairs (P, Q) have 19 distinct supports P and Q-bar
    share, and pairs with one support share one cone and one H-rep."""
    systems = all_positive_systems(realization("sl3_so21").datum)
    polyhedra._gk_cone.cache_clear()
    calls = []
    project = polyhedra.project_polyhedron
    monkeypatch.setattr(polyhedra, "project_polyhedron",
                        lambda V, G: calls.append(G) or project(V, G))
    first = {}
    for P in systems:
        for Q in systems:
            gk = gk_cone(P, Q)
            assert gk.hrep == tuple(project(gk.vertices, gk.generators))
            assert first.setdefault(P.positive & Q.negative, gk) is gk
    assert len(first) == len(calls) == 19


def test_coroot_inverts_each_gram_matrix_once(monkeypatch):
    rootsys._gram_inverse.cache_clear()
    calls = []
    mat_inv = ex.mat_inv
    monkeypatch.setattr(ex, "mat_inv", lambda m: calls.append(m) or mat_inv(m))
    datum = realization("sl3_so21").datum
    as_lists = [list(row) for row in fx.mat(datum.gram)]
    for alpha in sorted(datum.roots):
        assert coroot(alpha, as_lists) == coroot(alpha, datum.gram)
    assert calls == [datum.gram]
