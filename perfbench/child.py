"""One measured pass over a workload, in the fresh interpreter that runs it.

Run by ``run.py``, never imported: every pass pays for the process-level
caches of orbitcone (the ``realization`` cache, the permutation cache and
the cached properties of each realization) as a command-line user does.
Prints one JSON object with the set-up time, the wall and CPU time of the
``orbitcone.run`` calls, the peak resident set, the machine-speed probe
before set-up and after the runs, one fingerprint per check execution and,
when traced, the per-layer record.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import workloads

SRC = Path(__file__).resolve().parent.parent / "src"
PROBE_LOOPS = 1_500_000


def probe() -> float:
    """Seconds this process takes for a fixed amount of interpreter work,
    independent of orbitcone: the speed of the machine right now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7
    return time.perf_counter() - t0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    wl = workloads.WORKLOADS[args.workload]

    sys.path.insert(0, str(SRC))
    probe_before_s = probe()
    t0 = time.perf_counter()
    import orbitcone
    for preset in wl.presets:
        orbitcone.realization(preset)
    setup_s = time.perf_counter() - t0
    if Path(orbitcone.__file__).resolve().parent != SRC / "orbitcone":
        print(f"orbitcone was imported from {orbitcone.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    run = orbitcone.run
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
        run = tracer.wrap(tracing.ROOT, run)

    fingerprints = []
    wall_s = cpu_s = 0.0
    for preset in wl.presets:
        cfg = orbitcone.VerificationConfig(
            preset=preset, seed=args.seed, checks=frozenset({wl.check}),
            **wl.options)
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            report = run(cfg)
        except Exception as e:  # a check that raises is a counted failure
            fingerprints.append({"preset": preset, "check": wl.check,
                                 "raised": repr(e)})
        else:
            fingerprints.extend(workloads.fingerprint(preset, r)
                                for r in report.results)
        wall_s += time.perf_counter() - t0
        cpu_s += time.process_time() - c0

    out = {"probe_before_s": probe_before_s, "probe_after_s": probe(),
           "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           / 1024.0,
           "fingerprints": fingerprints}
    if tracer is not None:
        out["layers"] = tracer.summary()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
