"""Property test of the command line, over fuzzed flags and JSON configs.

Whatever the input, ``cli.main`` returns 0, 1 or 2 and raises nothing; an
exit 2 prints ``error:``; a PASS of any check but ``no_line`` judged at
least one point and reports a finite worst slack; and a check that reads the
base point passes only when the base point lies in a_q = span(aq_basis).
"""
import contextlib
import io
import json
import math
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitcone.cli import main
from orbitcone.harness import CHECKS, _DEFAULT_A_LOG
from orbitcone.matrixgrp import realization

import reference as fx

RESULT = re.compile(r"(PASS|FAIL) (\w+) count=(\d+)(?: worst_slack=(\S+))?$")
# the checks that sample the orbit through the base point
BASE_POINT_CHECKS = {"main", "kostant", "hessian", "critical_image", "limits"}


def rarely(usual, unusual, odds=(4,)):
    """usual, but unusual when a draw from 0..9 falls in odds: once in ten
    by default.  The odds sit mid-range, since hypothesis favours the ends."""
    return st.integers(0, 9).flatmap(lambda i: unusual if i in odds else usual)


def sometimes(usual, unusual):
    """usual four times in five, unusual otherwise."""
    return rarely(usual, unusual, odds=(3, 6))


small = st.sampled_from([Fraction(k, d) for k in range(-4, 5) for d in (1, 2, 3)])
coordinate = sometimes(small.map(str),
                       st.sampled_from(["25", "-25", "1e400", "-1e400", "nan", "1/0"]))
radii = sometimes(st.lists(st.floats(0.05, 20.0), min_size=1, max_size=3)
                  .map(lambda rs: sorted(set(rs))),
                  st.lists(st.sampled_from([1e300, 0.0, -1.0, math.nan, 2.0]),
                           min_size=1, max_size=2))
tolerance = sometimes(st.floats(1e-10, 1e-3),
                      st.sampled_from([1e-300, 0.0, math.inf, math.nan]))


def vectors(preset: str):
    """Base points and chambers: mostly a combination of the a_q basis with
    small or, rarely, large coefficients; else any vector, of any length."""
    dim = len(_DEFAULT_A_LOG.get(preset, "xy"))
    if preset not in _DEFAULT_A_LOG:
        return st.lists(coordinate, min_size=dim, max_size=dim)
    aq = [fx.vec(b) for b in realization(preset).datum.aq_basis]
    scale = sometimes(st.just(1), st.sampled_from([25, 10 ** 400]))
    inside = st.tuples(st.lists(small, min_size=len(aq), max_size=len(aq)), scale).map(
        lambda cs: [str(cs[1] * sum(c * b[i] for c, b in zip(cs[0], aq)))
                    for i in range(dim)])
    return sometimes(inside, st.lists(coordinate, min_size=1, max_size=5))


@st.composite
def invocations(draw):
    """(argv, config file mapping or None) for one call of main."""
    command = draw(st.sampled_from(["verify", "gk", "hessian", "report",
                                    "extremize"]))
    preset = draw(rarely(st.sampled_from(sorted(_DEFAULT_A_LOG)), st.just("nope")))
    vector = vectors(preset)
    flags = {"preset": preset}
    if draw(rarely(st.just(False), st.just(True))):
        flags["chamber"] = ",".join(draw(vector))
    if command == "extremize":
        return [command] + [f"--{k}={v}" for k, v in flags.items()], None
    optional = {
        "a-log": vector.map(",".join),
        "radius": radii.map(lambda rs: ",".join(map(repr, rs))),
        "tol": tolerance.map(repr),
        "seed": rarely(st.integers(0, 2 ** 40), st.just(-1)).map(str),
        "format": st.sampled_from(["json", "csv", "svg"]),
    }
    if command in ("verify", "report"):
        optional["checks"] = st.lists(st.sampled_from(sorted(CHECKS)), min_size=1,
                                      max_size=3, unique=True).map(",".join)
    for key, values in optional.items():
        if draw(st.booleans()):
            flags[key] = draw(values)
    flags["samples"] = str(draw(rarely(st.integers(1, 20), st.integers(-1, 0))))
    config = None
    if draw(st.booleans()):
        config = draw(st.fixed_dictionaries({}, optional={
            "a_log": vector, "seed": st.integers(0, 50), "radii": radii,
            "tol": tolerance,
            "checks": rarely(st.sampled_from(["main", "no_line,limits", ["gk"]]),
                             st.just("bogus"))}))
    return [command] + [f"--{k}={v}" for k, v in flags.items()], config


def _base_point(flags: dict, config) -> list | None:
    """The base point a run uses, or None when it does not parse; a flag
    wins over the config file."""
    src = flags.get("a-log")
    if src is None and config is not None and "a_log" in config:
        src = ",".join(config["a_log"])
    if src is None:
        src = ",".join(_DEFAULT_A_LOG[flags["preset"]])
    try:
        return [Fraction(x) for x in src.split(",")]
    except (ValueError, ZeroDivisionError):
        return None


def _in_aq(preset: str, point: list) -> bool:
    aq = np.array([fx.vec(v) for v in realization(preset).datum.aq_basis], dtype=float)
    both = np.vstack([aq, [float(c) for c in point]])
    return np.linalg.matrix_rank(both) == np.linalg.matrix_rank(aq)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(invocations())
# a base point off a = span(roots), which pr_q fixes on these presets
@example((["verify", "--preset=sl3_so21", "--a-log=3,1,-3", "--samples=5"], None))
@example((["verify", "--preset=sl2_so11", "--a-log=2,1", "--samples=5"], None))
@example((["verify", "--preset=group_sl2", "--a-log=1,0,-1,0", "--samples=5"], None))
@example((["verify", "--preset=sl3_so21", "--a-log=3,1,-3", "--checks=limits",
           "--samples=5"], None))
# a base point or a radius past double range
@example((["verify", "--preset=sl2_so11", "--a-log=1e400,-1e400", "--samples=5"],
          None))
@example((["verify", "--preset=sl2_so11", "--a-log=-25,25", "--samples=5"], None))
@example((["verify", "--preset=sl2_so11", "--a-log=-600,600", "--samples=5"], None))
@example((["verify", "--preset=sl2_so11", "--radius=1e300", "--samples=5"], None))
@example((["verify", "--preset=kostant_sl2", "--radius=1e300", "--samples=5"], None))
@example((["verify", "--preset=sl3_so21", "--radius=1e300", "--samples=5"], None))
@example((["verify", "--preset=group_sl2", "--radius=1e300", "--samples=5"], None))
def test_cli_exits_0_1_or_2_and_passes_only_what_it_judged(invocation):
    argv, config = invocation
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = list(argv)
        if argv[0] != "extremize":
            argv.append(f"--out={Path(tmp) / 'report'}")
        if config is not None:
            (Path(tmp) / "config.json").write_text(json.dumps(config))
            argv.append(f"--config={Path(tmp) / 'config.json'}")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    assert rc in (0, 1, 2)
    if rc == 2:
        assert "error:" in err.getvalue()
    flags = dict(a[2:].split("=", 1) for a in argv[1:])
    for line in out.getvalue().splitlines():
        m = RESULT.match(line)
        if m is None or m[1] != "PASS":
            continue
        if m[2] != "no_line":
            assert int(m[3]) > 0, line
            assert m[4] is not None and math.isfinite(float(m[4])), line
        if m[2] in BASE_POINT_CHECKS:
            point = _base_point(flags, config)
            assert point is not None and _in_aq(flags["preset"], point), line
