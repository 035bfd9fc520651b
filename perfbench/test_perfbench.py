"""Tests of the benchmark itself.  Run with ``python -m pytest perfbench``.

They run every workload once traced and once untraced (about a minute),
so they sit beside the benchmark rather than in the tier-1 suite.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _child(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", workload,
         "--seed", "0", "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=ROOT, timeout=170)
    return json.loads(proc.stdout.splitlines()[-1])


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170)


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)
    assert {w["name"]: w["why"] for w in spec["workloads"]} \
        == {w.name: w.why for w in workloads.WORKLOADS.values()}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_pass_matches_untraced_and_calls_its_layers(name):
    wl = workloads.WORKLOADS[name]
    plain, traced = _child(name, 0), _child(name, 1)
    assert traced["fingerprints"] == plain["fingerprints"]
    for i, fp in enumerate(plain["fingerprints"]):
        assert workloads.problem(wl, i, fp) is None
    layers = traced["layers"]
    assert not [k for k, v in layers.items() if "absent" in v]
    for layer in wl.layers:
        assert layers[layer]["calls"] > 0, layer
    # self times partition the traced wall time
    total = sum(v["self_s"] for v in layers.values())
    assert total == pytest.approx(traced["wall_s"], rel=0.02)
    dominant = sum(layers[layer]["self_s"] for layer in wl.dominant)
    assert dominant > 0.5 * total, {k: v["self_s"] for k, v in layers.items()}


@pytest.mark.parametrize("trace,names", [(0, run.END_TO_END),
                                         (1, run.PER_LAYER)])
def test_output_carries_every_metric_with_its_unit(trace, names):
    proc = _bench("--workload", "critical_all", "--seed", "0",
                  "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 3
    assert {k: v["unit"] for k, v in out["metrics"].items()} == dict(names)
    for key, unit in names:
        assert isinstance(out["metrics"][key]["value"], (int, float)), key
        assert f"critical_all {key} " in proc.stdout
    assert "did not repeat" not in proc.stdout


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "main_sl3", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_layer_gone_from_the_program_is_absent_not_zero(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import orbitcone  # noqa: F401  (loads every orbitcone module)
    from scipy.linalg import expm
    mods = [m for k, m in sys.modules.items() if k.startswith("orbitcone")]
    for mod in mods:
        for attr, value in list(vars(mod).items()):
            if value is expm:
                monkeypatch.delattr(mod, attr)
    saved = {mod: dict(vars(mod)) for mod in mods}
    t = tracer.Tracer()
    t.install()
    summary = t.summary()
    for mod, names in saved.items():
        vars(mod).update(names)
    assert summary["expm"] == {"absent": True}
    assert summary["matrixgrp.iwasawa"]["calls"] == 0
    record = {"cpu_s": 1.0, "wall_s": 1.0, "probe_before_s": 0.1,
              "probe_after_s": 0.1, "layers": summary}
    values, _ = run.per_layer([record], [record])
    assert values["expm.self_s"] is None and values["expm.calls"] is None
    assert values["matrixgrp.iwasawa.calls"] == 0


def test_counts_that_do_not_repeat_are_flagged():
    def record(lp_calls):
        layers = {layer: {"self_s": 0.1, "calls": 1}
                  for layer, *_ in (*tracer.LAYERS, (tracer.ROOT,))}
        for layer, *_ in tracer.LAYERS:
            layers[layer].update(matrices=5, rows_out=2, lp_calls=2)
        layers["exactlin.lp_solve"]["calls"] = lp_calls
        return {"cpu_s": 1.0, "wall_s": 1.0, "probe_before_s": 0.1,
                "probe_after_s": 0.1, "layers": layers}
    _, unsteady = run.per_layer([record(2)], [record(2), record(2)])
    assert unsteady == []
    _, unsteady = run.per_layer([record(2)], [record(2), record(3)])
    assert unsteady == ["exactlin.lp_solve.calls: [2, 3]"]


def test_end_to_end_times_are_scaled_by_the_speed_probe():
    fps = [{"count": 100}]
    slow = {"wall_s": 2.0, "setup_s": 0.6, "peak_rss_mb": 50.0,
            "probe_before_s": 0.3, "probe_after_s": 0.1, "fingerprints": fps}
    values = run.end_to_end([slow])
    assert values["wall_s"] == pytest.approx(1.0)
    assert values["setup_s"] == pytest.approx(0.2)
    assert values["checked_per_s"] == pytest.approx(100.0)
    assert values["raw wall_s"] == 2.0
