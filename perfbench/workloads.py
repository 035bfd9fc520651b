"""The benchmark's workloads and the fingerprints their results must match.

Each workload is one check run through the public entry point
``orbitcone.run`` on fixed presets and sizes.  Only the seed varies between
runs, and it reaches the program only as ``VerificationConfig.seed``.  The
counts below do not depend on the seed: they follow from the sizes alone.

This module imports nothing outside the standard library, so that the
set-up time a child process measures starts with ``import orbitcone``.
"""
from __future__ import annotations

from dataclasses import dataclass

PRESETS = ("kostant_sl2", "sl2_so11", "sl3_so21", "group_sl2")

# Acceptance bounds of the checks themselves; floats are judged by these,
# not by bit-equality, so that rewrites which move the last digits pass.
TOL = 1e-7
CLOSED_FORM_BOUND = 1e-12
RELATIVE_ERROR_BOUND = 1e-6

# Result fields copied into a fingerprint when a check reports them.
DETAIL_FIELDS = ("pairs", "generator_gap_failures", "closed_form_deviation",
                 "patterns", "exact_level_failures", "worst_relative_error")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    check: str
    presets: tuple[str, ...]
    options: dict                 # further VerificationConfig keywords
    expected: tuple[dict, ...]    # exact fields, one dict per preset
    layers: tuple[str, ...]       # traced layers this workload must call
    dominant: tuple[str, ...]     # layers that take most of its wall time


WORKLOADS = {w.name: w for w in (
    Workload(
        name="main_sl3",
        why="headline inclusion claim at acceptance size; expm in sample_H "
            "and the base-system iwasawa take almost all of the time",
        check="main", presets=("sl3_so21",),
        options={"samples": 100_000, "radii": (4.0,), "tol": TOL},
        expected=({"count": 100017},),
        layers=("expm", "matrixgrp.iwasawa", "matrixgrp.sample_H"),
        dominant=("expm",)),
    Workload(
        name="gk_sl3",
        why="same layers used differently: expm of nilpotents and iwasawa "
            "on the permuted path for 30 of 36 positive-system pairs",
        check="gk", presets=("sl3_so21",),
        options={"samples": 360_000, "tol": TOL},
        expected=({"count": 300114, "pairs": 36,
                   "generator_gap_failures": 0},),
        layers=("expm", "matrixgrp.iwasawa", "polyhedra.project_polyhedron",
                "exactlin.lp_solve"),
        dominant=("expm",)),
    Workload(
        name="hessian_all",
        why="exact Fraction work per sample in critical dominates; expm and "
            "iwasawa see many tiny batches, so per-call cost shows",
        check="hessian", presets=PRESETS,
        options={"samples": 100, "tol": TOL},
        expected=({"count": 200}, {"count": 100}, {"count": 200},
                  {"count": 200}),
        layers=("expm", "matrixgrp.iwasawa", "critical.predicted_signature",
                "critical.h_x_coords", "critical.transversal_signature",
                "critical.kernel_dim", "critical.hessian",
                "exactlin.nullspace"),
        dominant=("critical.predicted_signature", "critical.h_x_coords",
                  "critical.transversal_signature", "critical.kernel_dim",
                  "critical.hessian")),
    Workload(
        name="critical_all",
        why="the only workload dominated by exact polyhedra: Fourier-Motzkin "
            "H-rep builds and exact lp_solve calls",
        check="critical_image", presets=PRESETS,
        options={"samples": 2000, "tol": TOL},
        expected=({"count": 880, "patterns": 2, "exact_level_failures": 0},
                  {"count": 440, "patterns": 2, "exact_level_failures": 0},
                  {"count": 3280, "patterns": 5, "exact_level_failures": 0},
                  {"count": 880, "patterns": 2, "exact_level_failures": 0}),
        layers=("expm", "matrixgrp.iwasawa", "critical.sample_H_X",
                "critical.sample_NPH", "critical.omega_X",
                "polyhedra.project_polyhedron", "exactlin.lp_solve",
                "exactlin.nullspace"),
        dominant=("polyhedra.project_polyhedron", "exactlin.lp_solve")),
)}


def fingerprint(preset: str, result) -> dict:
    """The fields of one CheckResult that a correct run must reproduce."""
    fp = {"preset": preset, "check": result.name, "passed": result.passed,
          "count": result.count, "worst_slack": result.worst_slack}
    fp.update((k, result.detail[k]) for k in DETAIL_FIELDS
              if k in result.detail)
    return fp


def problem(workload: Workload, index: int, fp: dict) -> str | None:
    """How the fingerprint of the check on the index-th preset misses the
    workload's reference, or None when it matches."""
    if "raised" in fp:
        return f"raised {fp['raised']}"
    want = workload.expected[index]
    bad = [k for k, v in want.items() if fp.get(k) != v]
    if not fp["passed"]:
        bad.append("passed")
    if "worst_relative_error" in fp:
        if not fp["worst_relative_error"] <= RELATIVE_ERROR_BOUND:
            bad.append("worst_relative_error")
    elif not (fp["worst_slack"] is not None and fp["worst_slack"] >= -TOL):
        bad.append("worst_slack")
    if not fp.get("closed_form_deviation", 0.0) <= CLOSED_FORM_BOUND:
        bad.append("closed_form_deviation")
    return f"{', '.join(bad)} off in {fp}" if bad else None
