"""Command line front end.

Flags mirror the JSON config file keys; an explicit flag wins over the file.
Exit status: 0 all checks passed, 1 a check failed, 2 bad configuration.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import exactlin as ex
from .harness import (ConfigError, IoError, Report, config_from_mapping,
                      emit_report, run)
from .matrixgrp import realization
from .parabolic import h_extremize, is_h_extreme, is_q_extreme


def _split(s: str | None) -> tuple[str, ...] | None:
    """The comma separated items of a flag, None when it is not given: an
    empty value is an empty tuple, which validation rejects."""
    if s is None:
        return None
    return tuple(p.strip() for p in s.split(",") if p.strip())


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--preset", help="realization name")
    sp.add_argument("--config", help="JSON config file; flags override it")
    sp.add_argument("--chamber", help="comma separated chamber vector")
    sp.add_argument("--a-log", dest="a_log", help="comma separated base point")
    sp.add_argument("--samples", type=int)
    sp.add_argument("--radius", help="comma separated radius schedule")
    sp.add_argument("--tol", type=float)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out", help="report output path")
    sp.add_argument("--format", choices=("json", "csv", "svg"))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="orbitcone")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify", help="run the configured checks")
    _add_common(sp)
    sp.add_argument("--checks", help="comma separated check names")

    sp = sub.add_parser("gk", help="nilpotent-part projection images")
    _add_common(sp)

    sp = sub.add_parser("hessian", help="second order behavior at critical points")
    _add_common(sp)

    sp = sub.add_parser("extremize", help="reflect a positive system until h-extreme")
    sp.add_argument("--preset", required=True)
    sp.add_argument("--chamber", help="comma separated chamber vector")

    sp = sub.add_parser("report", help="run checks and write a report file")
    _add_common(sp)
    sp.add_argument("--checks", help="comma separated check names")
    return ap


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


def _build_config(ns: argparse.Namespace, forced_checks: str | None = None):
    return config_from_mapping(
        _load_config_file(ns.config),
        preset=ns.preset,
        chamber=_split(ns.chamber),
        a_log=_split(ns.a_log),
        samples=ns.samples,
        radii=_split(ns.radius),
        tol=ns.tol,
        seed=ns.seed,
        out=ns.out,
        format=ns.format,
        checks=forced_checks or getattr(ns, "checks", None),
    )


def _print_results(report: Report) -> None:
    for r in report.results:
        status = "PASS" if r.passed else "FAIL"
        extra = ""
        if r.worst_slack is not None:
            extra = f" worst_slack={r.worst_slack:.3e}"
        print(f"{status} {r.name} count={r.count}{extra}")
        for w in r.witnesses:
            print(f"  witness: {w}")


def _run_and_report(ns: argparse.Namespace, forced_checks: str | None = None,
                    always_emit: bool = False) -> int:
    cfg = _build_config(ns, forced_checks)
    report = run(cfg)
    _print_results(report)
    if cfg.out is not None or always_emit:
        path = emit_report(report, out=cfg.out)
        print(f"report written to {path}")
    return 0 if report.passed else 1


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        if ns.command == "extremize":
            return _cmd_extremize(ns)
        # gk and hessian are verify with their one check forced
        forced = ns.command if ns.command in ("gk", "hessian") else None
        return _run_and_report(ns, forced_checks=forced,
                               always_emit=ns.command == "report")
    except (ConfigError, IoError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def _fmt_root(alpha) -> str:
    return "(" + ",".join(ex.strs(alpha)) + ")"


def _cmd_extremize(ns: argparse.Namespace) -> int:
    cfg = config_from_mapping(
        {"preset": ns.preset},
        chamber=_split(ns.chamber))
    rz = realization(cfg.preset)
    P = cfg.positive_system(rz)
    Q, trace = h_extremize(P)
    print("start positive roots:", " ".join(_fmt_root(a) for a in sorted(P.positive)))
    print("final positive roots:", " ".join(_fmt_root(a) for a in sorted(Q.positive)))
    if trace:
        for i, alpha in enumerate(trace):
            print(f"step {i + 1}: reflect in {_fmt_root(alpha)}")
    else:
        print("already h-extreme, no reflections")
    print(f"h-extreme: {is_h_extreme(Q)}  q-extreme: {is_q_extreme(Q)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
