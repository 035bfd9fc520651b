"""Monte Carlo verification runs and report emission.

Each check draws seeded samples on a preset realization, tests the predicted
polyhedral geometry within a tolerance, and records coverage metrics plus the
first few failing witnesses.  The sampling checks main, inclusion_cone,
limits and critical_image judge their draws h at a base point a through one
function, ``_judge``: it passes a draw a chunk at a time with a to ``h_pq``,
which projects H(a h) onto a_q at the explicit positive system P from the
draw's factors, and feeds a ``Tally``.  critical_image judges the draws
e^Y n of each x_w, and F at x_w, at a_w, with n in N_P as the draw's right
factor.  gk projects each pair's probes and draw as one Draw onto a, where
its cones live; kostant passes a stack of rotations, with a_log beside
them.  ``run`` is the one entry point: it runs the configured checks of
the ``CHECKS`` registry in registry order.
The tolerance is a Euclidean distance: a projected point passes when it
lies at most ``tol`` outside every facet hyperplane of the predicted set.
Reports serialize deterministically: identical configuration gives
byte-identical JSON and CSV output, and no wall-clock time is recorded.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import Mapping

import numpy as np

from . import exactlin as ex
from .critical import (F, NotRegular, SampleStack, critical_value,
                       ensure_in_aq, ensure_regular, hessian, is_regular,
                       kernel_dim, omega_X, predicted_signature, sample_H_X,
                       sample_NPH, transversal_signature, vanishing_patterns,
                       weyl_image)
from .matrixgrp import (BLOCK, Draw, Realization, SingularInput,
                        h_pq, iwasawa, realization, root_matrix, sample_H,
                        sample_unipotent)
from .parabolic import PositiveSystem, all_positive_systems, from_chamber
from .polyhedra import (gamma_aq, gamma_cone, gk_cone, omega,
                        pointedness_certificate)
from .rootsys import coroot, weyl_orbit


class ConfigError(ValueError):
    pass


class IoError(OSError):
    pass


FORMATS = ("json", "csv", "svg")
# the start of the message of every input that leaves double range
RANGE_ERROR = "a_log or radii out of floating-point range"

_DEFAULT_A_LOG = {
    "kostant_sl2": ("1", "-1"),
    "sl2_so11": ("1", "-1"),
    "sl3_so21": ("2", "1", "-3"),
    "group_sl2": ("1", "-1", "-1", "1"),
}

# coverage thresholds on every preset: the largest distance from a vertex to
# its nearest sample, and the largest angle (rad) from a generator to the
# nearest displacement of a sample from its nearest vertex
VERTEX_TOL, GAP_TOL = 1e-2, 0.05

MAX_WITNESSES = 10
MIN_DISPLACEMENT = 0.5

# a Draw's rows per _judge chunk: an unsettled _Coverage.update costs per
# call and vertex; a settled one, as main's probes leave it, returns at once
CHUNK = 4 * BLOCK


def _rat_tuple(xs) -> tuple[str, ...]:
    """Exact rationals from a list, or from a comma separated string."""
    if isinstance(xs, str):
        xs = [x.strip() for x in xs.split(",") if x.strip()]
    try:
        return tuple(str(Fraction(str(x))) for x in xs)
    except (TypeError, ValueError, ZeroDivisionError) as e:
        raise ConfigError(f"not a rational vector: {xs!r}") from e


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_finite_positive(x) -> bool:
    return (isinstance(x, (int, float, np.integer, np.floating))
            and not isinstance(x, bool) and math.isfinite(x) and x > 0)


def _number(value, kind: type, what: str):
    """value converted by kind (int or float); bools, and floats where an
    integer is wanted, are rejected rather than truncated."""
    err = ConfigError(f"{what} must be {'an integer' if kind is int else 'a number'}")
    if isinstance(value, bool) or (kind is int and isinstance(value, float)):
        raise err
    try:
        return kind(value)
    except (TypeError, ValueError) as e:
        raise err from e


@dataclass(frozen=True)
class VerificationConfig:
    preset: str
    chamber: tuple[str, ...] | None = None
    a_log: tuple[str, ...] | None = None
    samples: int = 2000
    radii: tuple[float, ...] = (1.0, 2.0, 4.0)
    tol: float = 1e-7          # Euclidean distance outside a facet hyperplane
    seed: int = 0
    checks: frozenset[str] = frozenset({"main"})
    out: str | None = None
    format: str = "json"

    def __post_init__(self):
        if not isinstance(self.preset, str) or self.preset not in _DEFAULT_A_LOG:
            raise ConfigError(f"unknown preset {self.preset!r}; "
                              f"choices: {sorted(_DEFAULT_A_LOG)}")
        dim = len(_DEFAULT_A_LOG[self.preset])
        for key in ("chamber", "a_log"):
            # canonical strings, as config_from_mapping gives, for the report
            if (v := getattr(self, key)) is not None:
                object.__setattr__(self, key, v := _rat_tuple(v))
                if len(v) != dim:
                    raise ConfigError(f"{key} needs {dim} coordinates on {self.preset}")
        if not _is_int(self.samples) or self.samples <= 0:
            raise ConfigError("sample count must be a positive integer")
        if not _is_int(self.seed) or self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        if not self.radii or not all(_is_finite_positive(r) for r in self.radii):
            raise ConfigError("radii must be finite and positive")
        if any(b <= a for a, b in zip(self.radii, self.radii[1:])):
            raise ConfigError("radii must be strictly increasing")
        # a run draws a row per sample and radius: numpy sizes an array in
        # bytes by np.intp, and no array of a check holds 2^8 bytes a row
        if self.samples * len(self.radii) > np.iinfo(np.intp).max >> 8:
            raise ConfigError(f"sample count {self.samples} is past numpy's index range")
        if not _is_finite_positive(self.tol):
            raise ConfigError("tolerance must be finite and positive")
        bad = self.checks - CHECK_NAMES
        if bad:
            raise ConfigError(f"unknown checks: {sorted(bad)}")
        if not self.checks:
            raise ConfigError("empty check set")
        if self.format not in FORMATS:
            raise ConfigError(f"format must be one of {FORMATS}")

    def a_log_exact(self) -> ex.Exact:
        src = self.a_log if self.a_log is not None else _DEFAULT_A_LOG[self.preset]
        return ex.exact(Fraction(s) for s in src)

    def positive_system(self, rz: Realization) -> PositiveSystem:
        if self.chamber is None:
            return rz.base_parabolic
        try:
            return from_chamber(rz.datum, tuple(Fraction(s) for s in self.chamber))
        except ValueError as e:
            raise ConfigError(str(e)) from e

    def to_dict(self) -> dict:
        return {
            "preset": self.preset,
            "chamber": list(self.chamber) if self.chamber else None,
            "a_log": list(self.a_log) if self.a_log else list(_DEFAULT_A_LOG[self.preset]),
            "samples": self.samples,
            "radii": list(self.radii),
            "tol": self.tol,
            "seed": self.seed,
            "checks": sorted(self.checks),
            "format": self.format,
        }


def _radii(radii) -> tuple[float, ...]:
    if not isinstance(radii, (list, tuple)):
        raise ConfigError("radii must be a list of numbers")
    return tuple(_number(r, float, "radii") for r in radii)


def _checks(cs) -> frozenset[str]:
    """Check names from a list, or from a comma separated string."""
    if isinstance(cs, str):
        cs = [c.strip() for c in cs.split(",") if c.strip()]
    if not isinstance(cs, (list, tuple, set, frozenset)) \
            or not all(isinstance(c, str) for c in cs):
        raise ConfigError("checks must be a list of check names")
    return frozenset(cs)


# every config key, with the converter from its JSON value to the field;
# keys convert in this order, so the first bad one names the error
_CONFIG_KEYS = {
    "preset": lambda v: v,
    "chamber": _rat_tuple,
    "a_log": _rat_tuple,
    "samples": lambda v: _number(v, int, "samples"),
    "radii": _radii,
    "tol": lambda v: _number(v, float, "tol"),
    "seed": lambda v: _number(v, int, "seed"),
    "checks": _checks,
    "out": str,
    "format": str,
}


def config_from_mapping(data: Mapping, **overrides) -> VerificationConfig:
    """Build a config from a JSON-style mapping; keyword overrides win."""
    merged = dict(data)
    unknown = set(merged) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for k, v in overrides.items():
        if v is not None:
            merged[k] = v
    if "preset" not in merged:
        raise ConfigError("a preset name is required")
    # the preset goes through even when None, so that the config names it
    kw = {"preset": merged["preset"]}
    kw.update((k, convert(merged[k])) for k, convert in _CONFIG_KEYS.items()
              if merged.get(k) is not None)
    return VerificationConfig(**kw)


@dataclass
class CheckResult:
    name: str
    passed: bool
    count: int = 0
    worst_slack: float | None = None
    vertex_distances: tuple[float, ...] | None = None
    generator_gaps: tuple[float, ...] | None = None
    witnesses: tuple[tuple, ...] = ()
    detail: dict = field(default_factory=dict)
    # main check only, for csv/svg; not serialized
    samples: np.ndarray | None = field(default=None, repr=False, compare=False)
    geometry: dict | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "count": self.count,
            "worst_slack": self.worst_slack,
            "vertex_distances": list(self.vertex_distances)
            if self.vertex_distances is not None else None,
            "generator_gaps": list(self.generator_gaps)
            if self.generator_gaps is not None else None,
            "witnesses": [list(w) for w in self.witnesses],
            "detail": self.detail,
        }


@dataclass
class Report:
    config: dict
    results: tuple[CheckResult, ...]

    @property
    def samples(self) -> np.ndarray | None:
        """Main-check projections, for csv/svg."""
        return next((r.samples for r in self.results if r.samples is not None), None)

    @property
    def geometry(self) -> dict | None:
        """Main-check vertices and generators, for svg."""
        return next((r.geometry for r in self.results if r.geometry is not None), None)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "passed": self.passed,
            "sample_count": 0 if self.samples is None else int(len(self.samples)),
            "checks": [r.to_dict() for r in self.results],
        }


# --- shared numeric helpers -------------------------------------------------

def _float_rows(vs, n: int) -> np.ndarray:
    return np.array([ex.floats(v) for v in vs]).reshape(-1, n)


class _Coverage:
    """Cumulative vertex-distance and generator-angle tracking.  update
    forms one row of distances per vertex from coordinate rows of the
    points, so that every reduction runs along the points.  The nearest
    vertex is kept by a running strict <, so the first of equally near
    vertices wins, as in np.argmin.  Each generator takes one arccos, of its
    largest cosine: arccos decreases.  vdist and gaps are running minima of
    numbers >= 0, so once every entry reads 0 no row can move them, and
    update returns at once; NaN never reads 0."""

    def __init__(self, verts: np.ndarray, gens: np.ndarray):
        self.verts = verts
        self.gens = gens
        self.vdist = np.full(len(verts), np.inf)
        self.gaps = np.full(len(gens), np.inf)

    def update(self, vals: np.ndarray) -> None:
        if not (self.vdist.any() or self.gaps.any()):
            return
        rows = vals.T.copy()
        dist, tmp = np.empty(len(vals)), np.empty(len(vals))
        near = np.full(len(vals), np.inf)
        pick = np.zeros(len(vals), np.min_scalar_type(len(self.verts)))
        for j, v in enumerate(self.verts):
            np.subtract(rows[0], v[0], out=dist)
            dist *= dist
            for x, c in zip(rows[1:], v[1:]):
                np.subtract(x, c, out=tmp)
                tmp *= tmp
                dist += tmp
            np.sqrt(dist, out=dist)
            self.vdist[j] = np.minimum(self.vdist[j], dist.min())
            # j exceeds every earlier pick, so the running max takes j
            # exactly where this vertex is strictly nearer
            np.maximum(pick, (dist < near) * pick.dtype.type(j), out=pick)
            np.minimum(near, dist, out=near)
        if len(self.gens) == 0:
            return
        # the displacement from the nearest vertex has length near
        ok = near >= MIN_DISPLACEMENT
        if not ok.any():
            return
        disp = np.compress(ok, vals, axis=0)
        disp -= self.verts.take(pick[ok], axis=0)
        nd = near[ok]
        for i, g in enumerate(self.gens):
            gu = g / np.linalg.norm(g)
            cos = np.clip(((disp @ gu) / nd).max(), -1.0, 1.0)
            self.gaps[i] = min(self.gaps[i], float(np.arccos(cos)))


class Tally:
    """Projected points judged against predicted sets: the count, the worst
    slack, the first MAX_WITNESSES points more than tol outside, and the
    coverage when one is attached."""

    def __init__(self, tol: float, coverage: _Coverage | None = None):
        self.tol = tol
        self.coverage = coverage
        self.count = 0
        self.worst = np.inf
        self.witnesses: list[tuple] = []

    def feed(self, region, vals: np.ndarray) -> None:
        """Judge the points vals (m, n) against region, a Polyhedron."""
        sl = region.slack(vals)
        self.count += len(vals)
        self.worst = float(np.minimum(self.worst, sl.min()))
        # a non-finite slack fails: with a facet, a finite point has a
        # finite slack; with none, every slack is +inf and every point inside
        ok = sl >= -self.tol
        if region.hrep:
            ok &= np.isfinite(sl)
        room = MAX_WITNESSES - len(self.witnesses)
        for i in np.nonzero(~ok)[0][:room]:
            self.witnesses.append(tuple(round(float(x), 12) for x in vals[i]))
        if self.coverage is not None:
            self.coverage.update(vals)

    def result(self, name: str, passed: bool = True, **kw) -> CheckResult:
        """The check passes when it has no witness and passed holds."""
        return CheckResult(name=name, passed=passed and not self.witnesses,
                           count=self.count, worst_slack=float(self.worst),
                           witnesses=tuple(self.witnesses), **kw)


def _judge(rz: Realization, P: PositiveSystem, tally: Tally, region,
           parts, out: np.ndarray | None = None) -> np.ndarray:
    """Feed tally the points H(a h) of parts, pairs (a_log, Draw) of a base
    point a = exp(a_log) and the draw of the elements h taken at it, in
    turn, projected onto a_q at P and judged against region, and return
    them, in the leading rows of out if given.  A draw goes to h_pq CHUNK
    rows at a time, with its a_log; the kernel treats each row alone, so
    chunks change no bit."""
    count = sum(len(draw) for _, draw in parts)
    vals = np.empty((count, rz.dim)) if out is None else out[:count]
    done = 0
    for a_log, draw in parts:
        a = ex.floats(a_log)
        for i in range(0, len(draw), CHUNK):
            chunk = draw.rows(slice(i, i + CHUNK))
            judged, done = vals[done:done + len(chunk)], done + len(chunk)
            judged[:] = h_pq(rz, chunk, P, a)
            tally.feed(region, judged)
    return vals


def _h_probes(rz: Realization, P: PositiveSystem, radii, a_log: ex.Exact
              ) -> list[tuple[ex.Exact, Draw]]:
    """Deterministic probes, as _judge parts at the base point a_log: the
    identity, and per w of rz.weyl_reps, in its closure order, the center
    components z and the rank-one rays exp(+-r U) along every cone-generator
    root at x_w.  x_w is orthogonal and H is left-K-invariant, so H(a x_w
    exp(Y)) = H(a_w exp(Y)) with a_w = x_w^-1 a x_w, whose log is
    weyl_image, at which each ray is a one-generator draw.  Each z is a
    diagonal sign matrix, so H(a x_w z) = a_w: one row of _zero per z."""
    ts = np.array([[t] for r in radii for t in (r, -r)])
    rays = [Draw(ts, (E + rz.sigma_alg(E))[None]) for E in (
        root_matrix(rz.dim, alpha)
        for alpha in sorted(P.classification.minus_part))]
    parts = [(a_log, _zero(rz, 1))]
    for w in rz.weyl_reps:
        a_w = weyl_image(rz, a_log, w)
        parts += [(a_w, _zero(rz, len(rz.z_reps)))] + [(a_w, ray) for ray in rays]
    return parts


def _zero(rz: Realization, count: int) -> Draw:
    """count rows of the identity, as a draw on the span 0."""
    return Draw(np.zeros((count, 0)), np.zeros((0, rz.dim, rz.dim)))


def _stream(cfg: VerificationConfig, check: str, *draw: int) -> np.random.SeedSequence:
    """The seed of one draw of one check: cfg.seed with the spawn key (index
    of check in CHECKS, *draw).  Distinct (seed, key) pairs give independent
    streams; a spawn key, unlike longer entropy, is not zero-padded."""
    return np.random.SeedSequence(cfg.seed,
                                  spawn_key=(list(CHECKS).index(check), *draw))


# --- individual checks ------------------------------------------------------
#
# Every check has the signature fn(rz, P, cfg) -> CheckResult.

def _require_finite_exp(*points: ex.Exact) -> None:
    """OverflowError, which run reports with the base point, unless exp of
    every coordinate of every base point is a finite double: a larger one
    would reach the checks as inf, with a numpy warning."""
    for x in itertools.chain(*map(ex.floats, points)):
        math.exp(x)


def _require_regular(rz: Realization, cfg: VerificationConfig):
    try:
        a_exact = ensure_regular(rz, cfg.a_log_exact())
    except NotRegular as e:
        raise ConfigError(f"a_log is singular ({e}); use the limits check") from e
    except ValueError as e:
        raise ConfigError(str(e)) from e
    _require_finite_exp(a_exact)
    return a_exact


def _check_main(rz: Realization, P: PositiveSystem, cfg: VerificationConfig
                ) -> CheckResult:
    a_exact = _require_regular(rz, cfg)
    om = omega(weyl_orbit(rz.small_weyl, a_exact), gamma_cone(P))
    verts = _float_rows(om.vertices, rz.dim)
    gens = _float_rows(om.generators, rz.dim)
    cover = _Coverage(verts, gens)
    tally = Tally(cfg.tol, cover)
    history = []
    probes = _h_probes(rz, P, cfg.radii, a_exact)
    done = sum(len(draw) for _, draw in probes)
    # the probes, then each radius' draw: one array of projections
    vals = np.empty((done + len(cfg.radii) * cfg.samples, rz.dim))
    _judge(rz, P, tally, om, probes, vals)
    for k, r in enumerate(cfg.radii):
        _judge(rz, P, tally, om, [(a_exact, sample_H(rz, r, cfg.samples, _stream(
            cfg, "main", k)))], vals[done + k * cfg.samples:])
        history.append({"radius": r,
                        "max_vertex_distance": float(cover.vdist.max()),
                        "max_generator_gap":
                            float(cover.gaps.max()) if len(gens) else 0.0})

    covered = (bool(cover.vdist.max() <= VERTEX_TOL)
               and (len(gens) == 0 or bool(cover.gaps.max() <= GAP_TOL)))
    return tally.result(
        "main", covered,
        vertex_distances=tuple(float(x) for x in cover.vdist),
        generator_gaps=tuple(float(x) for x in cover.gaps),
        detail={"radius_history": history, "coverage_thresholds": [VERTEX_TOL, GAP_TOL]},
        samples=vals,
        geometry={"vertices": verts.tolist(), "generators": gens.tolist()})


def _check_kostant(rz: Realization, P: PositiveSystem, cfg: VerificationConfig
                   ) -> CheckResult:
    if rz.name != "kostant_sl2":
        raise ConfigError("the kostant check runs on the kostant_sl2 preset")
    if cfg.chamber is not None:
        raise ConfigError("kostant projects onto the base system; it takes "
                          "no chamber")
    a_exact = _require_regular(rz, cfg)
    t1, t2 = ex.floats(a_exact).tolist()
    phi = np.linspace(0.0, np.pi / 2, 1000)
    c, s = np.cos(phi), np.sin(phi)
    c[-1], s[-1] = 0.0, 1.0     # x_w: e^(2 (t1 - t2)) lifts cos(pi/2) = 6e-17
    ks = np.stack([c, -s, s, c], axis=-1).reshape(-1, 2, 2)   # rotations
    vals = h_pq(rz, ks, P, np.array([t1, t2]))[:, 0]
    closed = 0.5 * np.log(np.exp(2 * t1) * c ** 2 + np.exp(2 * t2) * s ** 2)
    dev = float(np.abs(vals - closed).max())
    end_dev = max(abs(float(vals[0]) - t1), abs(float(vals[-1]) - t2))
    lo, hi = min(t1, t2), max(t1, t2)
    inside = float(max(np.max(vals) - hi, lo - np.min(vals), 0.0))
    passed = dev <= 1e-12 and end_dev <= 1e-12 and inside <= 1e-12
    return CheckResult(name="kostant", passed=passed, count=len(phi),
                       worst_slack=-inside,
                       detail={"max_closed_form_deviation": dev,
                               "endpoint_deviation": end_dev})


def _check_no_line(rz: Realization, P: PositiveSystem, cfg: VerificationConfig
                   ) -> CheckResult:
    gamma = gamma_cone(P)
    # one LP: the certificate exists exactly when gamma is pointed, and a
    # cone contains a line exactly when it is not pointed
    cert = pointedness_certificate(gamma)
    pointed = cert is not None
    return CheckResult(
        name="no_line", passed=pointed,
        count=len(gamma.generators),
        detail={"pointed": pointed, "contains_line": not pointed,
                "certificate": ex.strs(cert) if cert is not None else None})


def _check_inclusion_cone(rz: Realization, P: PositiveSystem,
                          cfg: VerificationConfig) -> CheckResult:
    cone = gamma_aq(sorted(P.classification.sigmatheta_part), rz.datum)
    tally = Tally(cfg.tol)
    _judge(rz, P, tally, cone, [(ex.zeros(rz.dim), sample_H(
        rz, r, cfg.samples, _stream(cfg, "inclusion_cone", k)))
        for k, r in enumerate(cfg.radii)])
    return tally.result("inclusion_cone")


def _check_hessian(rz: Realization, P: PositiveSystem, cfg: VerificationConfig
                   ) -> CheckResult:
    a_exact = _require_regular(rz, cfg)
    rng = np.random.default_rng(_stream(cfg, "hessian"))
    aq = rz.datum.aq_basis
    xs = SampleStack.on_basis(rz, [
        [ex.limit_denominator(c, 40) for c in row]
        for row in rng.normal(size=(cfg.samples, len(aq))).tolist()], aq)
    kd = kernel_dim(rz, xs, P)
    ws = rz.small_weyl
    per_w = []
    for w in ws:
        rep = hessian(rz, a_exact, xs, w, P)
        scale = np.maximum(np.abs(rep.analytic_form).max(axis=(1, 2)), 1.0)
        rel = (np.abs(rep.numeric_form - rep.analytic_form).max(axis=(1, 2))
               / scale)
        posdef, certified = predicted_signature(rz, a_exact, xs, w, P)
        tsig = transversal_signature(rz, rep, xs, P)
        ok = ((rel <= 1e-6) & (rep.signature[:, 1] == kd) & (tsig[:, 1] == 0)
              & ((tsig[:, 2] == 0) == posdef) & (posdef == certified))
        per_w.append((ok, rel, rep.signature, posdef))
    # (sample, Weyl element) along the first two axes; the built-in max
    # skips a NaN, as the per-pair check did
    ok, rel, sig, posdef = (np.stack(a, axis=1) for a in zip(*per_w))
    worst_rel = max(0.0, *rel.ravel().tolist())
    witnesses = tuple(
        (ex.strs(xs.exact(i)), ex.strs(ws[k]),
         float(rel[i, k]), sig[i, k].tolist(), int(kd[i]), bool(posdef[i, k]))
        for i, k in np.argwhere(~ok)[:MAX_WITNESSES])
    return CheckResult(name="hessian", passed=bool(ok.all()), count=ok.size,
                       worst_slack=-worst_rel, witnesses=witnesses,
                       detail={"worst_relative_error": worst_rel})


def _check_critical_image(rz: Realization, P: PositiveSystem,
                          cfg: VerificationConfig) -> CheckResult:
    a_exact = _require_regular(rz, cfg)
    pats = vanishing_patterns(rz, per_pattern=10,
                              seed=_stream(cfg, "critical_image", 0))
    n_per = max(8, cfg.samples // 50)
    radius = cfg.radii[-1]
    tally = Tally(cfg.tol)
    exact_fail = 0
    # omega_X keys its images by the small Weyl group, in its order
    ws = rz.small_weyl
    a_ws = [weyl_image(rz, a_exact, w) for w in ws]
    # F at x_w is F at the identity with a_w beside it, and linear in X:
    # one call per w over all the witnesses, read in pattern order
    Xs = SampleStack.of(rz, [X for _, wits in pats for X in wits]).floats
    fvs = iter(np.concatenate([F(rz, a_w, Xs, _zero(rz, 1), P)
                               for a_w in a_ws], axis=1))
    for pi, (S, wits) in enumerate(pats):
        # omega_X reads X only through the roots vanishing on it; for X in
        # a_q, alpha(X) = (alpha|a_q)(X), so S fixes them: one Omega_X per S
        oms = list(omega_X(rz, a_exact, wits[0], P).values())
        xs = SampleStack.of(rz, wits)
        # sample_H_X reads X through [X, U]_ij = (X_i - X_j) U_ij; on every
        # preset U in h is 0 off the diagonal and the root positions, where
        # X_i - X_j = alpha(X), so S fixes it as it fixes Omega_X: one call.
        # Its rows run over (X, w, draw), and n in N_P is their right
        # factor: H(g n) = H(g), so every n is 1
        blocks = list(np.ndindex(len(wits), len(ws)))
        hxn = replace(sample_H_X(rz, wits[0], radius, n_per, [
            _stream(cfg, "critical_image", 1, pi, *d) for d in blocks]),
            right=sample_NPH(rz, P, n_per * len(blocks)))
        # H(a x_w e^Y n) = H(a_w e^Y): each w judges its rows at a_w
        rows = np.arange(len(hxn)).reshape(len(wits), len(ws), n_per)
        for wi, (a_w, om) in enumerate(zip(a_ws, oms)):
            _judge(rz, P, tally, om, [(a_w, hxn.rows(rows[:, wi].ravel()))])
        # combinatorial layer: the critical value is the exact level of
        # <X, .> on the predicted image, tested on integer rows
        levels = critical_value(rz, a_exact, xs, ws)
        exact = [(*ex.common(om.vertices), [g.num for g in om.generators])
                 for om in oms]
        for x, e, lvs, x_fvs in zip(*xs.gram, levels, fvs):
            for (V, d, G), lv, fv in zip(exact, lvs.num, x_fvs):
                low = min(ex.int_dot(x, u) for u in V)
                flv = lv / lvs.den
                exact_fail += sum((
                    low * lvs.den != lv * e * d,
                    any(ex.int_dot(x, g) < 0 for g in G),
                    abs(float(fv) - flv) > 1e-8 * max(1.0, abs(flv))))
    return tally.result("critical_image", exact_fail == 0,
                        detail={"patterns": len(pats),
                                "exact_level_failures": exact_fail})


def _check_gk(rz: Realization, _: PositiveSystem, cfg: VerificationConfig
              ) -> CheckResult:
    """Every pair (P, Q) of positive systems, whatever the configured one."""
    systems = all_positive_systems(rz.datum)
    tally = Tally(cfg.tol)
    origin = np.zeros((1, rz.dim))
    s = np.array([1.0, 3.0])            # the rank-one probes are exp(s E)
    closed_dev = 0.0
    gap_fail = 0
    # H(exp(s E_alpha)) = log(1 + s^2) / 2 H_{-alpha}, exact in the embedded A1
    want = {alpha: np.outer(0.5 * np.log(1 + s * s), ex.floats(
        coroot(ex.neg(alpha), rz.datum.gram))) for alpha in rz.datum.roots}
    for pi, P in enumerate(systems):
        for qi, Q in enumerate(systems):
            support = sorted(Q.positive & P.negative)
            cone = gk_cone(P, Q)
            if not support:
                tally.feed(cone, origin)        # H(1) = 0 exactly
                continue
            basis = np.stack([root_matrix(rz.dim, alpha) for alpha in support])
            n = max(1, cfg.samples // max(1, len(systems) ** 2))
            draw = sample_unipotent(basis, cfg.radii[-1], n,
                                    [_stream(cfg, "gk", pi, qi)])
            # rank-one probes first; they hit each generator direction exactly
            probes = np.kron(np.eye(len(basis)), s[:, None])
            vals = iwasawa(rz, replace(draw, t=np.vstack([probes, draw.t])), P)
            tally.feed(cone, vals)
            # gaps, from the cone's single vertex 0, only shrink: the draw is
            # read only for a gap that the probes leave above GAP_TOL
            cover = _Coverage(origin, _float_rows(cone.generators, rz.dim))
            cover.update(vals[:len(probes)])
            if cover.gaps.max() > GAP_TOL:
                cover.update(vals[len(probes):])
                gap_fail += bool(cover.gaps.max() > GAP_TOL)
            err = vals[:len(probes)] - np.vstack([want[a] for a in support])
            closed_dev = max(closed_dev, float(np.abs(err).max()))
    return tally.result("gk", gap_fail == 0 and closed_dev <= 1e-12,
                        detail={"closed_form_deviation": closed_dev,
                                "pairs": len(systems) ** 2,
                                "generator_gap_failures": gap_fail})


def _check_limits(rz: Realization, P: PositiveSystem, cfg: VerificationConfig
                  ) -> CheckResult:
    try:
        a_exact = ensure_in_aq(rz, cfg.a_log_exact())
    except ValueError as e:
        raise ConfigError(str(e)) from e
    # a regular rational direction in a_q: sum_k ((p + k + 1) / p) aq_k,
    # aq = A / f
    A, f = ex.common(rz.datum.aq_basis)
    dirs = (ex.Exact(tuple(ex.int_dot(range(p + 1, p + 1 + len(A)), col)
                           for col in zip(*A)), p * f) for p in (97, 991, 9973))
    dirv = next((d for d in dirs if is_regular(rz, d)), None)
    if dirv is None:
        raise ConfigError("no regular direction found")
    steps = [aj for aj in (ex.add(a_exact, ex.Exact(dirv.num, dirv.den * 4 ** j))
                           for j in range(1, 5)) if is_regular(rz, aj)]
    _require_finite_exp(a_exact, *steps)
    tally = Tally(cfg.tol)
    gamma = gamma_cone(P)
    n_bulk = max(16, cfg.samples // 4)
    for idx, point in enumerate(steps + [a_exact]):
        om = omega(weyl_orbit(rz.small_weyl, point), gamma)
        _judge(rz, P, tally, om, _h_probes(rz, P, cfg.radii[-1:], point) + [
            (point, sample_H(rz, cfg.radii[-1], n_bulk,
                             _stream(cfg, "limits", idx)))])
    return tally.result("limits", detail={"sequence_length": len(steps)})


# --- entry point ------------------------------------------------------------

# registry order is report order
CHECKS = {
    "main": _check_main,
    "kostant": _check_kostant,
    "no_line": _check_no_line,
    "inclusion_cone": _check_inclusion_cone,
    "gk": _check_gk,
    "hessian": _check_hessian,
    "critical_image": _check_critical_image,
    "limits": _check_limits,
}
CHECK_NAMES = frozenset(CHECKS)


def run(cfg: VerificationConfig) -> Report:
    """Run every configured check and merge the results into one report."""
    if cfg.chamber is not None and cfg.checks == {"gk"}:
        raise ConfigError("gk covers every pair of positive systems; it takes "
                          "no chamber")
    rz = realization(cfg.preset)
    P = cfg.positive_system(rz)
    try:
        results = tuple(check(rz, P, cfg) for name, check in CHECKS.items()
                        if name in cfg.checks)
    except (SingularInput, OverflowError) as e:
        # exp(a_log) or exp(radius * Y) left double range: bad input
        a_log = ",".join(cfg.a_log or _DEFAULT_A_LOG[cfg.preset])
        raise ConfigError(f"{RANGE_ERROR} at a_log={a_log}, radii="
                          f"{','.join(map(str, cfg.radii))}: {e}") from e
    except MemoryError as e:
        raise ConfigError(f"sample count {cfg.samples}: {e}") from e
    return Report(config=cfg.to_dict(), results=results)


# --- emission ---------------------------------------------------------------

def _finite(obj):
    if isinstance(obj, float):
        return obj if np.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


def report_json(report: Report) -> bytes:
    payload = _finite(report.to_dict())
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()


def report_csv(report: Report) -> bytes:
    lines = []
    if report.samples is not None and len(report.samples):
        n = report.samples.shape[1]
        lines.append(",".join(f"x{i}" for i in range(n)))
        for row in report.samples:
            lines.append(",".join(f"{v:.12g}" for v in row))
    else:
        lines.append("x0")
    return ("\n".join(lines) + "\n").encode()


def report_svg(report: Report) -> bytes:
    """2D section of the predicted set with a sample scatter."""
    # the main check gives vertices and samples together, or neither
    pts = report.samples if report.samples is not None else np.zeros((0, 2))
    amb = pts.shape[1]
    geom = report.geometry or {"vertices": [], "generators": []}
    verts = np.array(geom["vertices"], dtype=float).reshape(-1, amb)
    gens = np.array(geom["generators"], dtype=float).reshape(-1, amb)
    src = np.concatenate([verts, pts], axis=0)
    # orthonormal 2D frame spanning the data
    if len(src) > 1:
        centered = src - src.mean(axis=0)
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        frame = vt[:2]
        if frame.shape[0] < 2:
            frame = np.vstack([frame, np.zeros(amb)])
    else:
        frame = np.zeros((2, amb))
        frame[0, 0] = 1.0
        if amb > 1:
            frame[1, 1] = 1.0
    V2, P2, G2 = verts @ frame.T, pts @ frame.T, gens @ frame.T
    allp = np.concatenate([V2, P2], axis=0) if len(V2) or len(P2) else np.zeros((1, 2))
    lo = allp.min(axis=0) - 1.0
    hi = allp.max(axis=0) + 1.0
    span = np.maximum(hi - lo, 1e-6)
    W = 640.0
    Hh = 480.0
    sc = min((W - 40) / span[0], (Hh - 40) / span[1])

    def sx(p):
        return 20.0 + (p[0] - lo[0]) * sc

    def sy(p):
        return Hh - 20.0 - (p[1] - lo[1]) * sc

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{W:.0f}" '
             f'height="{Hh:.0f}" viewBox="0 0 {W:.0f} {Hh:.0f}">',
             f'<rect width="{W:.0f}" height="{Hh:.0f}" fill="#ffffff"/>']
    diag = float(np.hypot(W, Hh))
    # cone rays from each vertex
    for v in V2:
        for g in G2:
            ng = float(np.linalg.norm(g))
            if ng < 1e-12:
                continue
            end = v + g / ng * (diag / sc)
            parts.append(f'<line x1="{sx(v):.4f}" y1="{sy(v):.4f}" '
                         f'x2="{sx(end):.4f}" y2="{sy(end):.4f}" '
                         f'stroke="#9db8d9" stroke-width="1"/>')
    if len(V2) >= 2:
        order = np.argsort(np.arctan2(*(V2 - V2.mean(axis=0)).T[::-1]))
        path = " ".join(f"{'M' if i == 0 else 'L'} {sx(V2[j]):.4f} {sy(V2[j]):.4f}"
                        for i, j in enumerate(order))
        parts.append(f'<path d="{path} Z" fill="#dbe7f5" stroke="#4a6da7" '
                     f'stroke-width="1.5"/>')
    stride = max(1, len(P2) // 3000)
    for p in P2[::stride]:
        parts.append(f'<circle cx="{sx(p):.4f}" cy="{sy(p):.4f}" r="1.5" '
                     f'fill="#c0392b" fill-opacity="0.45"/>')
    for v in V2:
        parts.append(f'<circle cx="{sx(v):.4f}" cy="{sy(v):.4f}" r="4" '
                     f'fill="#1a3a6b"/>')
    label = ",".join(r.name for r in report.results) or "report"
    state = "pass" if report.passed else "FAIL"
    parts.append(f'<text x="20" y="{Hh - 4:.0f}" font-family="monospace" '
                 f'font-size="12" fill="#333333">{label}: {state}, '
                 f'{0 if report.samples is None else len(report.samples)} samples</text>')
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode()


def emit_report(report: Report, fmt: str | None = None,
                out: str | None = None) -> Path:
    fmt = fmt or report.config.get("format", "json")
    if fmt not in FORMATS:
        raise ConfigError(f"format must be one of {FORMATS}")
    if out is None:
        out = f"orbitcone-report.{fmt}"
    data = {"json": report_json, "csv": report_csv, "svg": report_svg}[fmt](report)
    path = Path(out)
    try:
        path.write_bytes(data)
    except OSError as e:
        raise IoError(f"cannot write report to {out}: {e}") from e
    return path
