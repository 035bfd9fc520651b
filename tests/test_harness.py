import gc
import inspect
import json
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from orbitcone import exactlin, harness
from orbitcone.harness import (CHECK_NAMES, CHECKS, ConfigError, IoError,
                               Report, Tally, VerificationConfig,
                               config_from_mapping, emit_report, report_csv,
                               report_json, report_svg, run)
from orbitcone.matrixgrp import (BLOCK, Draw, iwasawa, realization,
                                 sample_H)
from orbitcone.polyhedra import cone, gamma_cone, omega
from orbitcone.rootsys import weyl_orbit

from reference import contains

PRESETS = ("kostant_sl2", "sl2_so11", "sl3_so21", "group_sl2")

# Whole reports (CheckResult.to_dict) of main, inclusion_cone, limits and gk
# on every preset at seeds 0 and 5, on sl3_so21 with chamber 3,2,1 and at
# tol 1e-18, where every check keeps witnesses, and of hessian on the four
# base systems, recorded from the checks' own runs before they shared one
# judging path; and the default report of every other check on every preset
# where it runs, at seeds 0 and 5; and the seed-0 reports of main, no_line,
# inclusion_cone, critical_image and limits at every non-base positive
# system of the four presets, named by its chamber.  gk's closed-form
# deviation is left out: it is bounded.
RECORDED_REPORTS = json.loads(
    (Path(__file__).parent / "recorded_reports.json").read_text())


def test_config_validation():
    ok = VerificationConfig(preset="sl3_so21")
    assert ok.samples == 2000 and ok.format == "json"
    with pytest.raises(ConfigError):
        VerificationConfig(preset="sl3_so21", samples=0)
    with pytest.raises(ConfigError):
        VerificationConfig(preset="sl3_so21", radii=(1.0, 1.0))
    with pytest.raises(ConfigError):
        VerificationConfig(preset="sl3_so21", radii=(-1.0, 2.0))
    with pytest.raises(ConfigError):
        VerificationConfig(preset="sl3_so21", tol=0.0)
    with pytest.raises(ConfigError):
        VerificationConfig(preset="sl3_so21", checks=frozenset({"nope"}))
    with pytest.raises(ConfigError):
        VerificationConfig(preset="sl3_so21", checks=frozenset())
    with pytest.raises(ConfigError):
        VerificationConfig(preset="sl3_so21", format="yaml")
    for bad in ({"samples": True}, {"samples": 1.5}, {"seed": -1},
                {"tol": float("nan")}, {"tol": float("inf")}, {"tol": True},
                {"radii": (1.0, float("nan"))}, {"a_log": ("1", "2")},
                {"chamber": ("3", "2", "1", "0")},
                {"preset": "nope"}):
        with pytest.raises(ConfigError):
            VerificationConfig(**{"preset": "sl3_so21", **bad})


def test_config_from_mapping():
    cfg = config_from_mapping({"preset": "sl2_so11", "samples": 50,
                               "checks": "main, no_line",
                               "a_log": [2, -2]})
    assert cfg.samples == 50
    assert cfg.checks == frozenset({"main", "no_line"})
    assert cfg.a_log == ("2", "-2")
    # overrides win over the mapping
    cfg2 = config_from_mapping({"preset": "sl2_so11", "samples": 50},
                               samples=75, checks=["main"])
    assert cfg2.samples == 75
    # a string vector is a comma separated list, as on the command line
    cfg3 = config_from_mapping({"preset": "sl3_so21", "a_log": "2,1,-3",
                                "chamber": "3, 2, 1"})
    assert cfg3.a_log == ("2", "1", "-3")
    assert cfg3.chamber == ("3", "2", "1")
    with pytest.raises(ConfigError):
        config_from_mapping({})
    with pytest.raises(ConfigError):
        config_from_mapping({"preset": "nope"})
    with pytest.raises(ConfigError):
        config_from_mapping({"preset": "sl2_so11", "bogus": 1})
    with pytest.raises(ConfigError):
        config_from_mapping({"preset": "sl2_so11", "samples": "many"})
    for bad in ({"tol": "abc"}, {"samples": 1.5}, {"samples": True},
                {"seed": 2.0}, {"radii": "1,2"}, {"radii": [1, None]},
                {"checks": 3}, {"preset": ["sl2_so11"]}, {"a_log": 5},
                {"a_log": "21"}, {"chamber": "32"}):
        with pytest.raises(ConfigError):
            config_from_mapping({"preset": "sl2_so11", **bad})


def test_library_vectors_report_as_their_strings():
    """chamber and a_log given as Fractions, ints or floats become the
    canonical strings of config_from_mapping and the CLI, so that the report
    has the same bytes; a vector that is not rational fails when the config
    is made."""
    base = {"preset": "sl3_so21", "samples": 10,
            "checks": frozenset({"main", "no_line"})}
    want = report_json(run(VerificationConfig(
        **base, chamber=("3", "2", "1"), a_log=("2", "1/2", "-5/2"))))
    for chamber, a_log in (((Fraction(3), Fraction(2), Fraction(1)),
                            (Fraction(2), Fraction(1, 2), Fraction(-5, 2))),
                           ((3, 2, 1), (2, Fraction(1, 2), -2.5))):
        cfg = VerificationConfig(**base, chamber=chamber, a_log=a_log)
        assert (cfg.chamber, cfg.a_log) == (("3", "2", "1"), ("2", "1/2", "-5/2"))
        assert report_json(run(cfg)) == want
    for a_log in ((Fraction(1), Fraction(-1)), (1, -1)):
        assert report_json(run(VerificationConfig(
            preset="sl2_so11", a_log=a_log, samples=10))) == report_json(
            run(VerificationConfig(preset="sl2_so11", a_log=("1", "-1"),
                                   samples=10)))
    with pytest.raises(ConfigError, match="not a rational vector"):
        VerificationConfig(preset="sl2_so11", a_log=("abc", "1"))


@pytest.mark.parametrize("preset", PRESETS)
def test_verify_main_all_presets(preset):
    cfg = VerificationConfig(preset=preset, samples=200, seed=1)
    rep = run(cfg)
    assert rep.passed
    r = rep.results[0]
    assert r.name == "main"
    assert r.worst_slack >= -cfg.tol
    assert rep.samples is not None and len(rep.samples) >= 200


def test_kostant_check_wrong_preset():
    cfg = VerificationConfig(preset="sl3_so21", samples=50,
                             checks=frozenset({"kostant"}))
    with pytest.raises(ConfigError):
        run(cfg)


def test_kostant_check():
    cfg = VerificationConfig(preset="kostant_sl2", samples=50,
                             checks=frozenset({"kostant"}))
    rep = run(cfg)
    assert rep.passed
    assert rep.results[0].detail["max_closed_form_deviation"] <= 1e-12
    assert rep.results[0].detail["endpoint_deviation"] <= 1e-12


def test_gk_and_limits():
    assert run(VerificationConfig(preset="sl3_so21", samples=300,
                                  checks=frozenset({"gk"}))).passed
    assert run(VerificationConfig(preset="sl3_so21", samples=100,
                                  checks=frozenset({"limits"}))).passed


def test_all_checks_run():
    cfg = VerificationConfig(preset="sl2_so11", samples=120, seed=2,
                             checks=CHECK_NAMES - {"kostant"})
    rep = run(cfg)
    assert rep.passed
    assert {r.name for r in rep.results} == CHECK_NAMES - {"kostant"}
    # results come in registry order
    assert [r.name for r in rep.results] == [n for n in CHECKS if n in cfg.checks]


def test_tally_and_contains_share_the_tolerance_unit():
    # 1.2e-7 outside the sqrt(3)-norm facet x1 + x2 + x3 >= 0 in raw units is
    # 6.9e-8 in Euclidean distance: inside at tol 1e-7 for both judges
    rz = realization("sl3_so21")
    a_log = tuple(Fraction(c) for c in (2, 1, -3))
    om = omega(weyl_orbit(rz.small_weyl, a_log), gamma_cone(rz.base_parabolic))
    assert exactlin.exact((1, 1, 1, 0)) in om.hrep
    x = np.array([2.5, 2.5, -5.0]) - 0.4e-7
    assert x.sum() == pytest.approx(-1.2e-7, rel=1e-6)
    assert om.slack(x) == pytest.approx(-1.2e-7 / np.sqrt(3), rel=1e-6)
    for tol, inside in ((1e-7, True), (5e-8, False)):
        tally = Tally(tol)
        tally.feed(om, x[None])
        assert contains(om, x, tol) is inside
        assert tally.result("main").passed is inside
        assert len(tally.witnesses) == (0 if inside else 1)


def test_a_non_finite_slack_is_a_witness():
    """Python's min(inf, nan) is inf, and nan < -tol is False: a NaN point
    once passed with worst_slack inf."""
    quadrant = cone([(1, 0), (0, 1)], 2)
    tally = Tally(1e-7)
    tally.feed(quadrant, np.array([[1.0, 1.0], [np.nan, 0.5]]))
    r = tally.result("main")
    assert not r.passed
    assert len(r.witnesses) == 1 and np.isnan(r.worst_slack)
    # an infinite point has an infinite slack on the half-plane x >= 0
    half = cone([(1, 0), (0, 1), (0, -1)], 2)
    assert len(half.hrep) == 1
    tally = Tally(1e-7)
    tally.feed(half, np.array([[2.0, 3.0], [np.inf, 0.0]]))
    r = tally.result("main")
    assert not r.passed and r.worst_slack == 2.0 and len(r.witnesses) == 1
    # on the whole plane, which has no facet, every slack is +inf
    plane = cone([(1, 0), (-1, 0), (0, 1), (0, -1)], 2)
    tally = Tally(1e-7)
    tally.feed(plane, np.array([[1.0, 2.0]]))
    r = tally.result("main")
    assert r.passed and r.worst_slack == np.inf


def test_singular_base_point():
    cfg = VerificationConfig(preset="sl3_so21", samples=50, a_log=("1", "1", "-2"))
    with pytest.raises(ConfigError):
        run(cfg)
    # the limit check is the supported path for singular base points
    assert run(replace(cfg, checks=frozenset({"limits"}))).passed


def test_forced_failure_collects_witnesses():
    # on sl3_so21 some projections round to just outside a facet; on
    # sl2_so11 the factored kernel leaves none outside
    cfg = VerificationConfig(preset="sl3_so21", samples=200, tol=1e-300, seed=0)
    rep = run(cfg)
    assert not rep.passed
    r = rep.results[0]
    assert not r.passed
    assert 0 < len(r.witnesses) <= 10
    assert r.worst_slack < 0


def _small_report(seed=3) -> Report:
    cfg = VerificationConfig(preset="sl3_so21", samples=150, seed=seed,
                             checks=frozenset({"main", "no_line"}))
    return run(cfg)


def test_byte_determinism():
    r1, r2 = _small_report(), _small_report()
    assert report_json(r1) == report_json(r2)
    assert report_csv(r1) == report_csv(r2)
    assert report_svg(r1) == report_svg(r2)
    r3 = _small_report(seed=4)
    assert report_json(r1) != report_json(r3)


def test_json_shape():
    rep = _small_report()
    data = json.loads(report_json(rep))
    assert set(data.keys()) == {"checks", "config", "passed", "sample_count"}
    assert "runtime" not in json.dumps(data)
    assert "out" not in data["config"]
    assert data["passed"] is True
    assert data["sample_count"] == len(rep.samples)


def test_csv_shape():
    rep = _small_report()
    lines = report_csv(rep).decode().strip().split("\n")
    assert lines[0] == "x0,x1,x2"
    assert len(lines) - 1 == len(rep.samples)
    row = np.array([float(v) for v in lines[1].split(",")])
    assert row.shape == (3,)


def test_svg_shape():
    body = report_svg(_small_report()).decode()
    assert body.startswith("<svg")
    assert "<path" in body and "<circle" in body
    assert body.rstrip().endswith("</svg>")


def test_emit_report(tmp_path):
    rep = _small_report()
    out = tmp_path / "r.json"
    path = emit_report(rep, out=out)
    assert path == out
    assert json.loads(out.read_bytes()) == json.loads(report_json(rep))
    # default filename keyed by format
    import os
    old = os.getcwd()
    os.chdir(tmp_path)
    try:
        p = emit_report(rep, fmt="csv")
        assert p.name == "orbitcone-report.csv"
        assert p.exists()
    finally:
        os.chdir(old)
    with pytest.raises(IoError):
        emit_report(rep, out=tmp_path / "missing" / "deep" / "r.json")


def test_no_line_solves_one_lp(monkeypatch):
    # the pointedness certificate is the verdict: one LP where gamma has
    # generators, none where it is the origin
    expected = {"kostant_sl2": 0, "sl2_so11": 1, "sl3_so21": 1, "group_sl2": 0}
    real = exactlin.lp_solve
    for preset, count in expected.items():
        calls = []
        monkeypatch.setattr(exactlin, "lp_solve",
                            lambda *a: calls.append(a) or real(*a))
        run(VerificationConfig(preset=preset, checks=frozenset({"no_line"})))
        assert len(calls) == count, preset


def test_hrep_builds_solve_no_lp(monkeypatch):
    # facets are kept by incidence rank, so main, gk and critical_image
    # solve no LP; beside them no_line solves its pointedness certificate's
    expected = {"kostant_sl2": 0, "sl2_so11": 1, "sl3_so21": 1, "group_sl2": 0}
    real = exactlin.lp_solve
    for preset, count in expected.items():
        calls = []
        monkeypatch.setattr(exactlin, "lp_solve",
                            lambda *a: calls.append(a) or real(*a))
        checks = frozenset({"main", "gk", "critical_image", "no_line"})
        rep = run(VerificationConfig(preset=preset, samples=50, checks=checks))
        assert len(rep.results) == 4
        assert len(calls) == count, preset


def _recorded_streams(monkeypatch, cfg):
    """Run cfg and return the seed of every draw: (sampler, seed) for the
    samplers the checks call, one per stream of a sampler that takes a
    sequence of seeds, and ("rng", seed) for a check's own generator."""
    seen = []
    for name in ("sample_H", "sample_H_X", "sample_NPH", "sample_unipotent",
                 "vanishing_patterns"):
        real = getattr(harness, name)

        def sampler(*args, _real=real, _name=name, **kwargs):
            bound = inspect.signature(_real).bind(*args, **kwargs).arguments
            seeds = bound["seeds"] if "seeds" in bound else [bound["seed"]]
            seen.extend((_name, seed) for seed in seeds)
            return _real(*args, **kwargs)
        monkeypatch.setattr(harness, name, sampler)
    real_rng = np.random.default_rng
    monkeypatch.setattr(harness.np.random, "default_rng",
                        lambda seed=None: seen.append(("rng", seed)) or real_rng(seed))
    run(cfg)
    monkeypatch.undo()
    # the samplers call default_rng on the seed they were given
    return [(name, s) for name, s in seen
            if name != "rng" or not any(s is t for n, t in seen if n != "rng")]


@pytest.mark.parametrize("preset", ["sl3_so21", "group_sl2"])
def test_every_draw_has_its_own_stream(monkeypatch, preset):
    cfg = VerificationConfig(preset=preset, samples=10, seed=3,
                             checks=CHECK_NAMES - {"kostant"})
    seen = _recorded_streams(monkeypatch, cfg)
    assert {name for name, _ in seen} >= {"sample_H", "sample_H_X", "sample_NPH",
                                          "sample_unipotent", "vanishing_patterns",
                                          "rng"}
    assert all(isinstance(s, np.random.SeedSequence) for _, s in seen)
    keys = [(s.entropy, s.spawn_key) for _, s in seen]
    assert len(set(keys)) == len(keys)
    # and the streams differ from the first draw on
    heads = {np.random.default_rng(s).standard_normal(4).tobytes() for _, s in seen}
    assert len(heads) == len(seen)


def test_the_former_stream_overlaps_are_gone(monkeypatch):
    # seed s + 7919 replayed radius #1 of seed s, the limits check's step 0
    # replayed main's radius #0, and in critical_image the N-cap-H draw for
    # w_i replayed the H_X draw for w_(i+1)
    def heads(seed, checks):
        cfg = VerificationConfig(preset="group_sl2", samples=10, seed=seed,
                                 checks=frozenset(checks))
        return [np.random.default_rng(s).standard_normal(4).tobytes()
                for _, s in _recorded_streams(monkeypatch, cfg)]
    main_0 = heads(0, {"main"})
    assert not set(heads(7919, {"main"})) & set(main_0)
    assert not set(heads(0, {"limits"})) & set(main_0)
    critical = heads(0, {"critical_image"})
    assert len(set(critical)) == len(critical)


@pytest.mark.parametrize("entry", RECORDED_REPORTS, ids=lambda e: "-".join(
    [e["check"]] + [f"{k}={','.join(v) if isinstance(v, list) else v}"
                    for k, v in sorted(e["case"].items())]))
def test_checks_keep_their_recorded_reports(entry):
    case = {k: tuple(v) if isinstance(v, list) else v
            for k, v in entry["case"].items()}
    got = run(VerificationConfig(checks=frozenset({entry["check"]}), **case)
              ).results[0].to_dict()
    if entry["check"] == "gk":
        assert got["detail"].pop("closed_form_deviation") <= 1e-12
    # dumped, a float is its repr: -0.0 and 0.0 differ
    assert json.dumps(got, sort_keys=True) \
        == json.dumps(entry["result"], sort_keys=True)


@pytest.mark.parametrize("check", CHECKS)
def test_every_check_has_its_default_reports_recorded(check):
    """A check's default report at seeds 0 and 5 is recorded on every preset
    where the check runs; where none is recorded, the check must refuse the
    preset."""
    recorded = {(e["case"]["preset"], e["case"]["seed"]) for e in RECORDED_REPORTS
                if e["check"] == check and set(e["case"]) == {"preset", "seed"}}
    for preset in PRESETS:
        for seed in (0, 5):
            if (preset, seed) not in recorded:
                with pytest.raises(ConfigError):
                    run(VerificationConfig(preset=preset, seed=seed,
                                           checks=frozenset({check})))


def test_main_judges_into_the_array_it_reports(monkeypatch):
    """_judge writes the probes and each radius' draw into one array that
    main allocates and reports, in that order, without a second copy."""
    judged = []
    judge = harness._judge
    monkeypatch.setattr(harness, "_judge",
                        lambda *a: judged.append(judge(*a)) or judged[-1])
    r = run(VerificationConfig(preset="sl3_so21", samples=300,
                               radii=(1.0, 4.0))).results[0]
    assert [len(v) for v in judged[1:]] == [300, 300]
    assert sum(map(len, judged)) == len(r.samples)
    assert all(np.shares_memory(v, r.samples) for v in judged)
    assert np.array_equal(np.concatenate(judged), r.samples)


@pytest.mark.parametrize("preset", PRESETS)
def test_the_sampling_checks_project_draws_alone(monkeypatch, preset):
    """main, inclusion_cone, limits, gk and critical_image hand iwasawa and
    h_pq a Draw on every call, probes included: no point of theirs goes
    through the dense path of a stack."""
    given = []
    for name in ("iwasawa", "h_pq"):
        monkeypatch.setattr(harness, name, lambda rz, g, *a, _real=getattr(
            harness, name): given.append(type(g)) or _real(rz, g, *a))
    assert run(VerificationConfig(preset=preset, samples=100, checks=frozenset(
        {"main", "inclusion_cone", "limits", "gk", "critical_image"}))).passed
    assert given and set(given) == {Draw}


@pytest.mark.parametrize("preset", PRESETS)
def test_gk_meets_its_closed_form_exactly(preset):
    # the probes exp(s E) = 1 + s E are rows of the pair's draw; their H
    # equals log(1 + s^2) / 2 H_{-alpha} to the last bit
    r = run(VerificationConfig(preset=preset, samples=300,
                               checks=frozenset({"gk"}))).results[0]
    assert r.passed and r.detail["closed_form_deviation"] == 0.0


# The benchmark's hessian_all fingerprints at seed 0: count and the repr of
# the worst relative error; a change to the rounding of the samples shows
HESSIAN_FINGERPRINTS = {
    "kostant_sl2": (200, "6.23817067379176e-08"),
    "sl2_so11": (100, "1.610264201270494e-10"),
    "sl3_so21": (200, "1.1309570464480115e-09"),
    "group_sl2": (200, "6.356499600412647e-08"),
}


@pytest.mark.parametrize("preset", PRESETS)
def test_hessian_keeps_its_seed_0_fingerprint(preset):
    r = run(VerificationConfig(preset=preset, checks=frozenset({"hessian"}),
                               samples=100, tol=1e-7, seed=0)).results[0]
    assert (r.count, r.passed, repr(r.detail["worst_relative_error"])) \
        == (HESSIAN_FINGERPRINTS[preset][0], True, HESSIAN_FINGERPRINTS[preset][1])


def test_main_keeps_at_most_52_bytes_per_sample():
    """main judges its draws from their factors a chunk at a time, and
    keeps per sample only the draw's coefficients and the projection: its
    peak grows by 48 bytes per sample on sl3_so21, where a center index per
    sample made it grow by 56, and a whole (count, n, n) stack of elements
    by 206."""
    run(VerificationConfig(preset="sl3_so21", samples=100, radii=(4.0,)))
    peaks = []
    for samples in (25_000, 100_000):
        tracemalloc.start()
        try:
            run(VerificationConfig(preset="sl3_so21", samples=samples,
                                   radii=(4.0,)))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / 75_000 <= 52, peaks


@pytest.mark.parametrize("preset", PRESETS)
def test_a_clip_leaves_no_cyclic_garbage(preset):
    """iwasawa of a draw clipped to a radius, over several blocks, and a
    main run leave no reference cycle for the collector: a clip whose sum
    was a recursive closure kept each block's squares alive until it ran."""
    rz = realization(preset)
    gc.collect()
    gc.disable()
    try:
        iwasawa(rz, sample_H(rz, 4.0, 3 * BLOCK + 1, seed=53),
                rz.base_parabolic)
        run(VerificationConfig(preset=preset, samples=20_000))
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage == 0
