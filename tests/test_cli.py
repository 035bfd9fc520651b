import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from orbitcone.cli import main
from orbitcone.harness import CHECK_NAMES


def test_verify_pass(capsys):
    rc = main(["verify", "--preset", "sl2_so11", "--samples", "100"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS main" in out
    assert "FAIL" not in out


def test_verify_fail(capsys):
    # on sl3_so21 some projections round to just outside a facet; on
    # sl2_so11 the factored kernel leaves none outside
    rc = main(["verify", "--preset", "sl3_so21", "--samples", "200",
               "--tol", "1e-300", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL main" in out
    assert "witness" in out


def test_verify_multiple_checks(capsys):
    rc = main(["verify", "--preset", "sl3_so21", "--samples", "150",
               "--checks", "main,no_line,inclusion_cone"])
    out = capsys.readouterr().out
    assert rc == 0
    for name in ("main", "no_line", "inclusion_cone"):
        assert f"PASS {name}" in out


def test_bad_preset(capsys):
    rc = main(["verify", "--preset", "nope"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_bad_samples(capsys):
    rc = main(["verify", "--preset", "sl2_so11", "--samples", "-3"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("check", ["main", "hessian"])
@pytest.mark.parametrize("samples", ["100000000000000", "100000000000000000000"],
                         ids=["1e14", "1e20"])
def test_an_oversized_sample_count_exits_2_naming_it(capsys, check, samples):
    # exit 1 is a verdict.  10^14 samples need more than a 47-bit address
    # space, so numpy's allocation fails at once, whatever the overcommit
    # setting; 10^20 rows are past what numpy indexes, and fail validation
    rc = main(["verify", "--preset", "sl2_so11", "--checks", check,
               "--samples", samples])
    captured = capsys.readouterr()
    assert rc == 2
    assert re.search(f"error: sample count {samples}(?![0-9])", captured.err)
    assert "Traceback" not in captured.err + captured.out
    assert "PASS" not in captured.out


@pytest.mark.parametrize("flags,config", [
    (["--tol", "nan", "--checks", "inclusion_cone"], None),
    (["--tol", "inf"], None),
    (["--radius", "1,nan"], None),
    (["--seed", "-1"], None),
    ([], {"tol": "abc"}),
    ([], {"samples": 1.5}),
    ([], {"samples": True}),
    ([], {"a_log": "213"}),
], ids=["tol-nan", "tol-inf", "radius-nan", "seed-negative", "tol-text",
        "samples-float", "samples-bool", "a_log-digits"])
def test_bad_input_exits_2(tmp_path, capsys, flags, config):
    argv = ["verify", "--preset", "sl3_so21", *flags]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert "error:" in captured.err
    assert "Traceback" not in captured.err + captured.out
    assert "PASS" not in captured.out


@pytest.mark.parametrize("flag,message", [
    ("--a-log=", "a_log needs 2 coordinates"),
    ("--chamber=", "chamber needs 2 coordinates"),
    ("--radius=", "radii must be finite and positive"),
], ids=["a_log", "chamber", "radius"])
def test_an_empty_flag_exits_2_with_its_message(capsys, flag, message):
    # an empty value once counted as a flag left out, and ran on the default
    rc = main(["verify", "--preset", "sl2_so11", "--samples", "20", flag])
    captured = capsys.readouterr()
    assert rc == 2
    assert f"error: {message}" in captured.err
    assert "PASS" not in captured.out


@pytest.mark.parametrize("argv", [
    ["--preset", "sl3_so21", "--a-log", "3,1,-3"],
    ["--preset", "sl2_so11", "--a-log", "2,1"],
    ["--preset", "group_sl2", "--a-log", "1,0,-1,0"],
    ["--preset", "sl3_so21", "--a-log", "3,1,-3", "--checks", "limits"],
], ids=["sl3_so21", "sl2_so11", "group_sl2", "sl3_so21-limits"])
def test_base_point_off_aq_exits_2(capsys, argv):
    # on each preset q_projector fixes the point, but it is off span(roots)
    rc = main(["verify", *argv, "--samples", "20"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error: base point must lie in a_q" in captured.err
    assert "PASS" not in captured.out


# a huge radius once overflowed the clip norm of sample_span, collapsed
# every draw to a center element and passed with worst_slack 0
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("preset,flag", [
    ("sl2_so11", "--a-log=1e400,-1e400"), ("sl2_so11", "--radius=1e300"), ("kostant_sl2", "--radius=1e300"),
    ("sl3_so21", "--radius=1e300"), ("group_sl2", "--radius=1e300"),
    ("kostant_sl2", "--radius=1e160"), ("kostant_sl2", "--radius=1e200"),
    ("group_sl2", "--radius=1e200"),
    # exp(a_log) overflows where a finite a_log reaches a check
    ("sl3_so21", "--a-log=1000,1,-1001"),
    ("sl3_so21", "--a-log=1000,1,-1001 --checks=critical_image"),
    ("sl3_so21", "--a-log=1000,1,-1001 --checks=hessian"),
    ("sl3_so21", "--a-log=1000,1,-1001 --checks=limits"),
    ("sl2_so11", "--a-log=709.7,-709.7 --checks=limits"),
    ("kostant_sl2", "--a-log=1000,-1000 --checks=kostant"),
    # exp(a_log) and h are finite, a h is not, and neither are the squares
    # of h's entries that main and limits take a h from
    ("sl2_so11", "--a-log=709,-709 --radius=400"),
    ("sl2_so11", "--a-log=709,-709 --radius=400 --checks=limits"),
], ids=["a_log-overflow", "radius-overflow",
        "radius-overflow-kostant_sl2", "radius-overflow-sl3_so21",
        "radius-overflow-group_sl2", "radius-1e160-kostant_sl2",
        "radius-1e200-kostant_sl2", "radius-1e200-group_sl2",
        "exp-a_log-overflow-main", "exp-a_log-overflow-critical_image",
        "exp-a_log-overflow-hessian", "exp-a_log-overflow-limits",
        "exp-a_log-overflow-limits-step", "exp-a_log-overflow-kostant",
        "a-h-overflow-main", "a-h-overflow-limits"])
def test_input_past_double_range_exits_2(capsys, preset, flag):
    rc = main(["verify", "--preset", preset, *flag.split(), "--samples", "20"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error: a_log or radii out of floating-point range" in captured.err
    assert "PASS" not in captured.out


# exp(a_log) is finite, and the elements a h are not, but main, limits and
# critical_image take a h from its factors: they give a verdict
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flag,check", [
    ("--a-log=709,-709", "main"), ("--a-log=709,-709", "limits"),
    ("--a-log=-600,600", "main"), ("--a-log=709,-709", "critical_image")],
    ids=["709-main", "709-limits", "600-main", "709-critical_image"])
def test_base_point_at_the_edge_of_double_range_gives_a_verdict(capsys, flag,
                                                                check):
    rc = main(["verify", "--preset", "sl2_so11", flag, "--checks", check,
               "--samples", "20"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert re.search(rf"^PASS {check} count=\d+ worst_slack=", captured.out, re.M)


# the last rotation was built from the float cos(pi/2) = 6.1e-17, which the
# weight e^(2 (t1 - t2)) lifted: at 20,-20 the endpoint was off by 2.67
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flag", ["--a-log=20,-20", "--a-log=100,-100"])
def test_kostant_passes_at_large_base_points(capsys, flag):
    rc = main(["verify", "--preset", "kostant_sl2", flag, "--checks",
               "kostant"])
    captured = capsys.readouterr()
    assert rc == 0, captured.out + captured.err
    assert re.search(r"^PASS kostant count=1000 ", captured.out, re.M)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("check,radius", [
    ("main", ["--radius=400"]), ("limits", ["--radius=400"]),
    ("critical_image", ["--radius=600"]), ("hessian", [])],
    ids=["main", "limits", "critical_image", "hessian"])
def test_a_range_error_names_the_base_point(capsys, check, radius):
    # exp(a_log) is finite and a h is not. main and limits take a h from
    # factors whose squares leave double range at their probes of radius
    # 400, critical_image at its draws of radius 600; hessian's transport
    # a_w U a_w^-1 overflows. The message once named only the matrix that
    # iwasawa rejected
    rc = main(["verify", "--preset", "sl2_so11", "--a-log=709,-709",
               *radius, "--checks", check, "--samples", "20"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "out of floating-point range at a_log=709,-709, radii=" in captured.err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("check", sorted(CHECK_NAMES))
def test_every_check_at_the_edge_of_double_range_ends_with_a_message(capsys,
                                                                    check):
    # a verdict, or exit 2 with a message, under warnings as errors: never
    # a traceback
    rc = main(["verify", "--preset", "sl2_so11", "--a-log=709,-709",
               "--checks", check, "--samples", "20"])
    captured = capsys.readouterr()
    if rc == 2:
        assert captured.err.startswith("error: ") and "PASS" not in captured.out
    else:
        assert rc in (0, 1)
        assert re.search(rf"^(PASS|FAIL) {check} count=\d+", captured.out, re.M)


@pytest.mark.parametrize("preset", ["sl2_so11", "sl3_so21", "group_sl2"])
def test_critical_image_passes_at_radius_20(capsys, preset):
    # the dense kernel on the built elements a x_w e^Y n lost their digits
    # and failed all three at radius 20; the factors of a_w e^Y keep them
    rc = main(["verify", "--preset", preset, "--checks", "critical_image",
               "--radius", "1,20"])
    captured = capsys.readouterr()
    assert rc == 0, captured.out + captured.err
    assert re.search(r"^PASS critical_image count=\d+ worst_slack=",
                     captured.out, re.M)


@pytest.mark.filterwarnings("error")
def test_row_graded_base_point_passes(capsys):
    # exp(-25, 25) h is regular; the Iwasawa QR once rounded its R_22 to 0
    rc = main(["verify", "--preset", "sl2_so11", "--a-log=-25,25", "--samples", "200"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert re.search(r"^PASS main count=\d+ worst_slack=", captured.out, re.M)


def test_gk_past_double_range_exits_2_under_warnings_as_errors():
    # the tail guard of the nilpotent series once leaked an overflow warning
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    out = subprocess.run(
        [sys.executable, "-W", "error", "-m", "orbitcone.cli", "verify",
         "--preset", "sl3_so21", "--checks", "gk", "--radius", "1e300",
         "--samples", "20"],
        capture_output=True, text=True, timeout=120, env=env)
    assert out.returncode == 2
    assert "Traceback" not in out.stderr and "Warning" not in out.stderr
    assert "error: a_log or radii out of floating-point range" in out.stderr


@pytest.mark.parametrize("radius", ["1e308"])
def test_gk_past_the_plain_range_exits_2_with_the_range_message(capsys, radius):
    # iwasawa takes gk's unipotent draws from their factors; the squares of
    # their coefficients leave double range
    rc = main(["verify", "--preset", "sl3_so21", "--checks", "gk",
               "--radius", radius])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.strip() == (
        "error: a_log or radii out of floating-point range at a_log=2,1,-3, "
        f"radii={float(radius):g}: exponential overflows double precision")


@pytest.mark.filterwarnings("error")
def test_gk_at_radius_1e70_gives_a_verdict(capsys):
    # the elements' entries reach 1e140, where the Gram-Schmidt kernel
    # called them numerically singular; their factors give H
    rc = main(["verify", "--preset", "sl3_so21", "--checks", "gk",
               "--radius", "1e70"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert re.search(r"^PASS gk count=\d+ worst_slack=", captured.out, re.M)


@pytest.mark.parametrize("preset", ["sl2_so11", "sl3_so21", "group_sl2"])
@pytest.mark.parametrize("radius", ["12", "20"])
def test_main_passes_at_large_radii(capsys, preset, radius):
    # the Gram-Schmidt kernel lost the rank-one probes' digits: sl3_so21 and
    # sl2_so11 failed at radius 12 and exited 2 at radius 20
    rc = main(["verify", "--preset", preset, "--samples", "2000",
               "--radius", radius])
    captured = capsys.readouterr()
    assert rc == 0, captured.out + captured.err
    assert re.search(r"^PASS main count=\d+ worst_slack=", captured.out, re.M)


# Y^3 and c of the per-draw exponential once underflowed at such a radius and
# raised NotCubic; iwasawa reads c of each wedge^k Y from the span's form
# and t, and forms no Y.
# The samples stay within 1e-80 of a center element, so they never reach
# the generators of Gamma(P) on sl2_so11 and sl3_so21: there main fails the
# coverage test with no witness, as it did with scipy's expm.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("preset,rc_expected", [
    ("kostant_sl2", 0), ("group_sl2", 0), ("sl2_so11", 1), ("sl3_so21", 1)])
def test_tiny_radius_runs_to_a_verdict(capsys, preset, rc_expected):
    rc = main(["verify", "--preset", preset, "--radius", "1e-80",
               "--samples", "20"])
    out = capsys.readouterr().out
    assert rc == rc_expected
    assert "main count=" in out and "worst_slack=0.000e+00" in out
    assert "witness" not in out


def test_gk_rejects_a_chamber(capsys):
    rc = main(["gk", "--preset", "sl3_so21", "--chamber", "1,3,2",
               "--samples", "300"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error:" in captured.err
    assert "every pair of positive systems" in captured.err
    assert "Traceback" not in captured.err + captured.out
    assert "PASS" not in captured.out


def test_kostant_rejects_a_chamber(capsys):
    # kostant projects onto the base system alone, so a chamber with only
    # chamberless checks is a configuration error, not a silent PASS
    rc = main(["verify", "--preset", "kostant_sl2", "--checks", "kostant",
               "--chamber", "1,2"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error:" in captured.err
    assert "base system" in captured.err
    assert "Traceback" not in captured.err + captured.out
    assert "PASS" not in captured.out


def test_kostant_rejects_a_chamber_next_to_a_check_that_reads_it(capsys):
    # main reads the chamber, but the kostant result would still be for
    # the base system, so the chamber is an error whenever kostant runs
    rc = main(["verify", "--preset", "kostant_sl2", "--checks", "kostant,main",
               "--chamber", "1,2", "--samples", "50"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "base system" in captured.err
    assert "Traceback" not in captured.err + captured.out
    assert "PASS kostant" not in captured.out
    rc = main(["verify", "--preset", "kostant_sl2", "--checks", "main",
               "--chamber", "1,2", "--samples", "50"])
    assert rc == 0
    assert "PASS main" in capsys.readouterr().out


def test_missing_config_file(capsys):
    rc = main(["verify", "--config", "/no/such/file.json"])
    assert rc == 2
    assert "config file" in capsys.readouterr().err


def test_invalid_config_file(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["verify", "--config", str(p)]) == 2
    p2 = tmp_path / "arr.json"
    p2.write_text("[1, 2]")
    assert main(["verify", "--config", str(p2)]) == 2
    capsys.readouterr()


def test_config_file_with_flag_override(tmp_path, capsys):
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps({"preset": "sl2_so11", "samples": 50, "seed": 9}))
    out = tmp_path / "rep.json"
    rc = main(["verify", "--config", str(cfgf), "--samples", "80",
               "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["config"]["samples"] == 80
    assert data["config"]["seed"] == 9
    assert "report written to" in capsys.readouterr().out


def test_gk_subcommand(capsys):
    rc = main(["gk", "--preset", "sl3_so21", "--samples", "300"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS gk" in out


def test_hessian_subcommand(capsys):
    rc = main(["hessian", "--preset", "sl2_so11", "--samples", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS hessian" in out


def test_extremize_subcommand(capsys):
    rc = main(["extremize", "--preset", "group_sl2", "--chamber", "4,3,1,2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "start positive roots:" in out
    assert "final positive roots:" in out
    assert "step 1: reflect in" in out
    assert "h-extreme: True" in out


def test_extremize_trivial(capsys):
    rc = main(["extremize", "--preset", "sl3_so21"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "already h-extreme" in out


def test_report_default_filename(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(["report", "--preset", "sl2_so11", "--samples", "100"])
    assert rc == 0
    assert (tmp_path / "orbitcone-report.json").exists()
    capsys.readouterr()


def test_report_svg_format(tmp_path, capsys):
    out = tmp_path / "rep.svg"
    rc = main(["report", "--preset", "sl3_so21", "--samples", "150",
               "--format", "svg", "--out", str(out)])
    assert rc == 0
    assert out.read_bytes().startswith(b"<svg")
    capsys.readouterr()


def test_unwritable_out(tmp_path, capsys):
    rc = main(["report", "--preset", "sl2_so11", "--samples", "100",
               "--out", str(tmp_path / "no" / "dir" / "r.json")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
