"""End-to-end checks of the package's central claims.

Each test covers one headline property, prints a single PASS/FAIL line with
its runtime, and pins the tolerances it was signed off with.
"""
import random
import time

import numpy as np
from scipy.linalg import expm

from orbitcone import exactlin as ex
from orbitcone.harness import VerificationConfig, run
from orbitcone.matrixgrp import iwasawa, realization, root_entry
from orbitcone.parabolic import (all_positive_systems, h_extremize,
                                 is_h_extreme, is_q_extreme, reflect_system,
                                 sigma_classification)
from orbitcone.polyhedra import gamma_cone, pointedness_certificate

from oracle_cones import oracle_pointed, oracle_proper, random_cones
from paper_claims import factor_nilpotent, proper_on_cone, upsilon_cone
from reference import sigma_grp

PRESETS = ("kostant_sl2", "sl2_so11", "sl3_so21", "group_sl2")


def _line(label: str, ok: bool, t0: float) -> float:
    dt = time.perf_counter() - t0
    print(f"{'PASS' if ok else 'FAIL'} {label} ({dt:.2f}s)")
    return dt


def test_01_rotation_orbit_fills_segment():
    t0 = time.perf_counter()
    rz = realization("kostant_sl2")
    a = np.diag([np.e, 1.0 / np.e])
    phi = np.linspace(0.0, np.pi / 2.0, 1000)
    ks = np.zeros((1000, 2, 2))
    ks[:, 0, 0] = ks[:, 1, 1] = np.cos(phi)
    ks[:, 0, 1], ks[:, 1, 0] = -np.sin(phi), np.sin(phi)
    H = iwasawa(rz, a @ ks, rz.base_parabolic)
    traceless = np.abs(H[:, 0] + H[:, 1]).max()
    coord = H[:, 0]
    closed = 0.5 * np.log(np.e**2 * np.cos(phi) ** 2
                          + np.e**-2 * np.sin(phi) ** 2)
    dev = np.abs(coord - closed).max()
    end_dev = max(abs(coord[0] - 1.0), abs(coord[-1] + 1.0))
    inside = max(coord.max() - 1.0, -1.0 - coord.min())
    gap = np.diff(np.sort(coord)).max()
    ok = (traceless <= 1e-12 and dev <= 1e-12 and end_dev <= 1e-12
          and inside <= 1e-12 and gap < 1e-2)
    dt = _line("rotation orbit fills the closed segment", ok, t0)
    assert ok, (traceless, dev, end_dev, inside, gap)
    assert dt < 1.0


def test_02_hyperbolic_orbit_lower_bound():
    t0 = time.perf_counter()
    rz = realization("sl2_so11")
    s = np.linspace(-5.0, 5.0, 401)
    hs = np.zeros((401, 2, 2))
    hs[:, 0, 0] = hs[:, 1, 1] = np.cosh(s)
    hs[:, 0, 1] = hs[:, 1, 0] = np.sinh(s)
    worst_dev = worst_bound = worst_min = 0.0
    for t in (-1.0, 0.0, 1.0):
        a = np.diag([np.exp(t), np.exp(-t)])
        coord = iwasawa(rz, a @ hs, rz.base_parabolic)[:, 0]
        closed = 0.5 * np.log(np.exp(2 * t)
                              + 2.0 * np.cosh(2 * t) * np.sinh(s) ** 2)
        worst_dev = max(worst_dev, np.abs(coord - closed).max())
        worst_bound = max(worst_bound, (t - coord).max())
        worst_min = max(worst_min, abs(coord[200] - t))
    ok = worst_dev <= 1e-12 and worst_bound <= 1e-12 and worst_min <= 1e-12
    dt = _line("hyperbolic orbit stays above its minimum", ok, t0)
    assert ok, (worst_dev, worst_bound, worst_min)
    assert dt < 1.0


def test_03_rank_two_hull_and_cone_coverage():
    t0 = time.perf_counter()
    cfg = VerificationConfig(preset="sl3_so21", samples=100000, radii=(4.0,),
                             tol=1e-7, seed=0)
    rep = run(cfg)
    r = rep.results[0]
    ok = (r.passed and r.count >= 100000 and r.worst_slack >= -1e-7
          and len(r.vertex_distances) == 2
          and max(r.vertex_distances) <= 1e-2
          and len(r.generator_gaps) == 2
          and max(r.generator_gaps) <= 0.05)
    dt = _line("rank-two orbit hull and cone coverage", ok, t0)
    assert ok, (r.count, r.worst_slack, r.vertex_distances, r.generator_gaps)
    assert dt < 60.0


def test_04_reflection_descent_reaches_extreme_system():
    t0 = time.perf_counter()
    ok = True
    for name in PRESETS:
        rz = realization(name)
        d = rz.datum
        for P in all_positive_systems(d):
            cls = sigma_classification(P)
            ok &= cls.sigma_part | cls.sigmatheta_part == P.positive
            ok &= not (cls.sigma_part & cls.sigmatheta_part)
            Q, trace = h_extremize(P)
            ok &= len(trace) <= len(P.positive)
            ok &= is_h_extreme(Q)
            ok &= {a for a in P.positive if d.in_aq_star(a)} \
                == {a for a in Q.positive if d.in_aq_star(a)}
            ok &= {a for a in P.positive if d.in_ah_star(a)} \
                == {a for a in Q.positive if d.in_ah_star(a)}
            cur = P
            for alpha in trace:
                nxt = reflect_system(cur, alpha)
                ok &= len(sigma_classification(nxt).sigma_part) \
                    > len(sigma_classification(cur).sigma_part)
                cur = nxt
            ok &= cur.positive == Q.positive
    dt = _line("reflection descent reaches an extreme system", bool(ok), t0)
    assert ok
    assert dt < 1.0


def test_05_second_order_forms_match_finite_differences():
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    orders = {"kostant_sl2": 2, "sl2_so11": 1, "sl3_so21": 2, "group_sl2": 2}
    for name in PRESETS:
        cfg = VerificationConfig(preset=name, samples=100, seed=0,
                                 checks=frozenset({"hessian"}))
        r = run(cfg).results[0]
        ok &= r.passed and r.count == 100 * orders[name]
        worst = max(worst, r.detail["worst_relative_error"])
    ok &= worst <= 1e-6
    dt = _line("second-order forms match finite differences", bool(ok), t0)
    assert ok, worst
    assert dt < 120.0


def test_06_nilpotent_projection_images():
    t0 = time.perf_counter()
    small = {}
    for name in ("kostant_sl2", "sl2_so11", "group_sl2"):
        cfg = VerificationConfig(preset=name, samples=2000, tol=1e-7, seed=0,
                                 checks=frozenset({"gk"}))
        small[name] = run(cfg).results[0]
    cfg = VerificationConfig(preset="sl3_so21", samples=360000, tol=1e-7,
                             seed=0, checks=frozenset({"gk"}))
    big = run(cfg).results[0]
    ok = all(r.passed for r in small.values()) and big.passed
    # one-parameter subgroups reproduce the known closed form exactly
    ok &= small["kostant_sl2"].detail["closed_form_deviation"] <= 1e-12
    ok &= big.detail["closed_form_deviation"] <= 1e-12
    ok &= big.detail["pairs"] == 36
    ok &= big.count >= 30 * 10000
    ok &= big.worst_slack >= -1e-7
    ok &= big.detail["generator_gap_failures"] == 0
    dt = _line("nilpotent-part projections land in the predicted cone",
               bool(ok), t0)
    assert ok, (small, big.detail, big.count, big.worst_slack)
    assert dt < 30.0


def test_07_unipotent_factorization_round_trips():
    t0 = time.perf_counter()
    ok = True
    for name in PRESETS:
        rz = realization(name)
        P = rz.base_parabolic
        rng = np.random.Generator(np.random.PCG64(17))
        Z = np.zeros((10000, rz.dim, rz.dim))
        for alpha in sorted(P.positive):
            i, j = root_entry(alpha)
            Z[:, i, j] = 0.8 * rng.normal(size=10000)
        m = expm(Z)
        nu, nh = factor_nilpotent(rz, m, P)
        eye = np.broadcast_to(np.eye(rz.dim), m.shape)
        ok &= float(np.abs(nu @ nh - m).max()) <= 1e-10
        ok &= float(np.abs(sigma_grp(rz, nh) - nh).max()) <= 1e-12
        # refactoring a pure factor returns it with an exact identity partner
        nu2, nh2 = factor_nilpotent(rz, nu, P)
        ok &= np.array_equal(nh2, eye)
        ok &= float(np.abs(nu2 - nu).max()) <= 1e-12
        nu3, nh3 = factor_nilpotent(rz, nh, P)
        ok &= np.array_equal(nu3, eye)
        ok &= float(np.abs(nh3 - nh).max()) <= 1e-12
    dt = _line("unipotent factorization round-trips", bool(ok), t0)
    assert ok
    assert dt < 60.0


def test_08_cone_constructions_agree_when_extreme():
    t0 = time.perf_counter()
    ok = True
    for name in PRESETS:
        rz = realization(name)
        checked = 0
        for P in all_positive_systems(rz.datum):
            if not is_q_extreme(P):
                continue
            checked += 1
            g, u = gamma_cone(P), upsilon_cone(P)
            ok &= all(u.contains_exact(v) for v in g.generators)
            ok &= all(g.contains_exact(v) for v in u.generators)
        ok &= checked >= 1
    dt = _line("both cone constructions agree on extreme systems", bool(ok), t0)
    assert ok


def test_09_critical_orbits_sit_on_level_sets():
    t0 = time.perf_counter()
    patterns = {"kostant_sl2": 2, "sl2_so11": 2, "sl3_so21": 5, "group_sl2": 2}
    ok = True
    for name in PRESETS:
        cfg = VerificationConfig(preset=name, samples=2000, tol=1e-7, seed=0,
                                 checks=frozenset({"critical_image"}))
        r = run(cfg).results[0]
        ok &= r.passed
        ok &= r.worst_slack >= -1e-7
        ok &= r.detail["exact_level_failures"] == 0
        ok &= r.detail["patterns"] == patterns[name]
    dt = _line("restricted critical orbits sit on their level sets",
               bool(ok), t0)
    assert ok
    assert dt < 60.0


def test_10_cone_predicates_match_exhaustive_enumeration():
    t0 = time.perf_counter()
    rng = random.Random(31)
    ok = True
    for cone in random_cones(50, seed=10):
        want = oracle_pointed(cone.generators)
        cert = pointedness_certificate(cone)
        if want:
            ok &= cert is not None
            ok &= all(ex.dot(cert, g) > 0 for g in cone.generators
                      if not ex.is_zero(g))
        else:
            ok &= cert is None
        n = cone.ambient
        from fractions import Fraction
        p = tuple(tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
                  for _ in range(rng.randint(1, n)))
        ok &= proper_on_cone(p, cone) == oracle_proper(p, cone.generators)
    dt = _line("cone predicates match exhaustive enumeration", bool(ok), t0)
    assert ok
