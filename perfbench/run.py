"""orbitcone benchmark: end-to-end timings and an outside-in layer trace.

    python3 perfbench/run.py --workload main_sl3 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10
    python3 perfbench/run.py --describe

Each pass runs the workload in a fresh interpreter (``child.py``), one pass
at a time, for about ``--seconds`` seconds and at least a few passes.  Every
pass is checked against the workload's reference fingerprint.  A run prints
each metric as ``name value unit`` and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``, where attempted and failed
count check executions (failed: raised, returned FAIL or missed the
fingerprint).  With ``--trace 0`` the metrics are the end-to-end ones,
medians over the passes, with times in reference seconds (see PROBE_REF_S)
so that the host's swings in speed cancel.  With ``--trace 1`` untraced and traced passes
alternate and the metrics are the per-layer ones; ``trace.overhead_s`` is
the difference of their median wall times in reference seconds.  ``--workload all`` runs every
workload both ways.  Thread environment variables are passed on unchanged.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# A run stops starting passes once the next would end past --seconds, but
# takes at least this many (pairs of passes, when traced).
MIN_PASSES = {0: 3, 1: 2}
# The passes of one workload must end within this many seconds.
RUN_LIMIT_S = 170.0
# On a shared machine the speed of the whole host swings by up to 1.7x in
# regimes that last from seconds to minutes, longer than a run.  Each pass
# times a fixed probe (child.probe) in its own process before its set-up and
# after its run calls, so the probe sees the regime the pass saw.  End-to-end
# times are reported in reference seconds: raw time x PROBE_REF_S / probe
# time, where PROBE_REF_S is the probe's time on an idle 2-vCPU Xeon under
# Python 3.11.  Raw medians are printed beside them.
PROBE_REF_S = 0.1

END_TO_END = (
    ("wall_s", "s"),
    ("checked_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)
_LAYER_FIELDS = (
    ("expm", ("self_s", "calls", "matrices")),
    ("matrixgrp.iwasawa", ("self_s", "calls", "matrices")),
    ("matrixgrp.sample_H", ("self_s",)),
    ("critical.sample_H_X", ("self_s",)),
    ("critical.sample_NPH", ("self_s",)),
    ("critical.predicted_signature", ("self_s", "calls")),
    ("critical.h_x_coords", ("self_s", "calls")),
    ("critical.transversal_signature", ("self_s",)),
    ("critical.kernel_dim", ("self_s",)),
    ("critical.hessian", ("self_s",)),
    ("critical.omega_X", ("self_s",)),
    ("polyhedra.project_polyhedron", ("self_s", "calls", "rows_out")),
    ("exactlin.lp_solve", ("self_s", "calls")),
    ("exactlin.nullspace", ("self_s", "calls")),
    (tracer.ROOT, ("self_s",)),
)
PER_LAYER = tuple(
    (f"{layer}.{f}", "s" if f == "self_s" else "count")
    for layer, fields in _LAYER_FIELDS for f in fields) + (
    ("polyhedra.lp_per_kept_row", "ratio"),
    ("process.cpu_s", "s"),
    ("process.cpu_per_wall", "ratio"),
    ("trace.overhead_s", "s"),
)
# Counts that must repeat exactly between traced passes of one commit.
REPEATING = ("expm.matrices", "matrixgrp.iwasawa.matrices",
             "exactlin.lp_solve.calls", "polyhedra.project_polyhedron.calls",
             "polyhedra.project_polyhedron.rows_out",
             "critical.h_x_coords.calls")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not measure: no program, or a pass crashed."""


def run_pass(workload: str, seed: int, trace: int, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(timeout, 1.0), cwd=ROOT)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload} pass exceeded {timeout:.0f} s") from e
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int
            ) -> list[dict]:
    """Passes for about `seconds`; when traced, untraced and traced passes
    alternate so that both see the same machine conditions."""
    kinds = (0, 1) if trace else (0,)
    passes: list[dict] = []
    t0 = time.monotonic()
    rounds = 0
    while True:
        for kind in kinds:
            left = RUN_LIMIT_S - (time.monotonic() - t0)
            p = run_pass(workload, seed, kind, left)
            p["traced"] = kind
            passes.append(p)
        rounds += 1
        elapsed = time.monotonic() - t0
        if rounds >= MIN_PASSES[trace] and \
                elapsed * (rounds + 1) / rounds >= seconds:
            return passes


def judge(wl: workloads.Workload, passes: list[dict]) -> tuple[int, list]:
    """(attempted, failures) over every check execution of every pass.  All
    passes of one seed must agree exactly, traced or not."""
    attempted = 0
    failures = []
    first = passes[0]["fingerprints"]
    for p in passes:
        fps = p["fingerprints"]
        attempted += len(wl.presets)
        if len(fps) != len(wl.presets):
            failures += [f"{wl.name}: {len(fps)} results for "
                         f"{len(wl.presets)} presets"] * len(wl.presets)
            continue
        for i, fp in enumerate(fps):
            problem = workloads.problem(wl, i, fp)
            if problem is None and i < len(first) and fp != first[i]:
                problem = f"traced={p['traced']} pass differs from the first"
            if problem is not None:
                failures.append(f"{wl.name}/{wl.presets[i]}: {problem}")
    return attempted, failures


def ref(p: dict, key: str) -> float:
    """A pass's set-up or wall time in reference seconds."""
    probe_s = p["probe_before_s"] if key == "setup_s" else \
        (p["probe_before_s"] + p["probe_after_s"]) / 2
    return p[key] * PROBE_REF_S / probe_s


def end_to_end(passes: list[dict]) -> dict:
    """Medians over the passes, times in reference seconds."""
    def med(fn):
        return statistics.median(fn(p) for p in passes)
    return {
        "wall_s": med(lambda p: ref(p, "wall_s")),
        "checked_per_s": med(lambda p: sum(
            f.get("count", 0) for f in p["fingerprints"]) / ref(p, "wall_s")),
        "setup_s": med(lambda p: ref(p, "setup_s")),
        "peak_rss_mb": med(lambda p: p["peak_rss_mb"]),
        "raw wall_s": med(lambda p: p["wall_s"]),
        "raw setup_s": med(lambda p: p["setup_s"]),
        "probe_s": med(lambda p: p["probe_before_s"]),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, list]:
    """Median per-layer figures over the traced passes, process figures over
    the untraced ones, and the counts that failed to repeat."""
    layers = [p["layers"] for p in traced]
    values: dict = {}
    for layer, fields in _LAYER_FIELDS:
        recs = [ls[layer] for ls in layers]
        for field in fields:
            # counts stay whole: they repeat exactly between passes
            med = statistics.median if field == "self_s" \
                else statistics.median_low
            values[f"{layer}.{field}"] = None if "absent" in recs[0] else \
                med(r[field] for r in recs)
    recs = [ls[tracer.PROJECTION] for ls in layers]
    values["polyhedra.lp_per_kept_row"] = None if "absent" in recs[0] else \
        statistics.median(r["lp_calls"] / r["rows_out"] if r["rows_out"]
                          else 0.0 for r in recs)
    values["process.cpu_s"] = statistics.median(p["cpu_s"] for p in plain)
    values["process.cpu_per_wall"] = statistics.median(
        p["cpu_s"] / p["wall_s"] for p in plain)
    values["trace.overhead_s"] = (
        statistics.median(ref(p, "wall_s") for p in traced)
        - statistics.median(ref(p, "wall_s") for p in plain))
    unsteady = []
    for name in REPEATING:
        layer, field = name.rsplit(".", 1)
        seen = {ls[layer].get(field) for ls in layers}
        if len(seen) > 1:
            unsteady.append(f"{name}: {sorted(seen, key=str)}")
    return values, unsteady


def run_workload(name: str, seed: int, seconds: float, trace: int
                 ) -> tuple[int, int, dict]:
    wl = workloads.WORKLOADS[name]
    passes = measure(name, seed, seconds, trace)
    attempted, failures = judge(wl, passes)
    failed = len(failures)
    plain = [p for p in passes if not p["traced"]]
    print(f"{name}: {len(plain)} untraced and {len(passes) - len(plain)} "
          f"traced passes, seed {seed}")
    print(f"{name} fingerprint {json.dumps(passes[0]['fingerprints'])}")
    for line in failures:
        print(f"FAILED {line}")
    print(f"{name} fail_rate {failed / attempted:.6g} share")
    if trace:
        values, unsteady = per_layer(plain, [p for p in passes
                                             if p["traced"]])
        units = dict(PER_LAYER)
        for line in unsteady:
            print(f"{name} count did not repeat: {line}")
    else:
        values = end_to_end(passes)
        units = dict(END_TO_END)
        for key in ("raw wall_s", "raw setup_s", "probe_s"):
            print(f"{name} {key} {values[key]:.6g} s")
    metrics = {}
    for key, unit in units.items():
        v = values[key]
        metrics[key] = {"value": v, "unit": unit} if v is not None \
            else {"value": None, "unit": unit, "absent": True}
        print(f"{name} {key} {'absent' if v is None else f'{v:.6g}'} {unit}")
    return attempted, failed, metrics


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(f.read_text().splitlines())
                    for f in sorted(SRC.rglob("*.py")))
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "src_lines": src_lines,
        "note": "shared machine: other tenants' load is not controlled, so "
                "timings are noisy; compare medians over runs",
    }


def describe() -> dict:
    """The environment record, the workloads and the layer-to-metric map."""
    return {
        "environment": environment(),
        "workloads": {w.name: {"why": w.why, "layers": list(w.layers),
                               "dominant": list(w.dominant)}
                      for w in workloads.WORKLOADS.values()},
        "layers": {
            **{layer: moves for layer, *_, moves in tracer.LAYERS},
            tracer.ROOT: "run span minus its traced children: slack, "
                         "coverage and witness loops, and the Fraction "
                         "assembly in the hessian check",
            "process": "cpu_s and cpu_per_wall of untraced passes; idle "
                       "BLAS workers spin, so cpu_per_wall sits near 1.8-2.0 "
                       "on every workload",
            "trace": "overhead_s: traced minus untraced median wall_s, "
                     "in reference seconds",
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--describe", action="store_true",
                    help="print the environment and workload record and exit")
    args = ap.parse_args(argv)
    if not (SRC / "orbitcone" / "__init__.py").is_file():
        print(f"no orbitcone sources under {SRC}", file=sys.stderr)
        return 2
    if args.describe:
        print(json.dumps(describe(), indent=2))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    # Byte-compile once up front, as an install does, so that no pass pays
    # for it inside its set-up time.
    compileall.compile_dir(str(SRC), quiet=1)
    if args.workload == "all":
        todo = [(w, t) for w in workloads.WORKLOADS for t in (0, 1)]
    else:
        todo = [(args.workload, args.trace)]
    attempted = failed = 0
    metrics = {}
    try:
        for name, trace in todo:
            a, f, m = run_workload(name, args.seed, args.seconds, trace)
            attempted += a
            failed += f
            prefix = f"{name}." if len(todo) > 1 else ""
            metrics.update((prefix + k, v) for k, v in m.items())
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
