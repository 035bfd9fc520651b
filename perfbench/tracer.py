"""Outside-in layer trace: wraps public functions of orbitcone from outside.

Each layer is a function that some orbitcone module calls by a name it
imported.  Installing the trace rebinds that function, in every orbitcone
module that holds it under any name, to a wrapper that records calls, self
time (span time minus the time of traced spans it caused) and work counts.
Nothing under ``src/`` changes, and an untraced pass never imports this file.

The Fraction-level primitives of ``exactlin`` (``dot``, ``add``, ``scale``,
``mat_vec``) are deliberately not layers: the hessian workload calls them
millions of times and a wrapper there would swamp what it measures.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
from collections import defaultdict
from time import perf_counter


def _batch(x) -> int:
    """Number of square matrices in a (..., n, n) array or a single matrix."""
    import numpy as np
    return math.prod(np.shape(x)[:-2])


# (layer, home module, attribute, extra counter, what it should move)
# The extra counter is (name, fn(bound arguments, result) -> int).
LAYERS = (
    ("expm", "scipy.linalg", "expm",
     ("matrices", lambda a, result: _batch(a["A"])),
     "wall_s on main_sl3 and gk_sl3 (about three quarters), peak_rss_mb on "
     "main_sl3; barely critical_all"),
    ("matrixgrp.iwasawa", "orbitcone.matrixgrp", "iwasawa",
     ("matrices", lambda a, result: _batch(a["g"])),
     "wall_s on main_sl3 and gk_sl3 (about a fifth)"),
    ("matrixgrp.sample_H", "orbitcone.matrixgrp", "sample_H", None,
     "sampler overhead around expm on main_sl3"),
    ("critical.sample_H_X", "orbitcone.critical", "sample_H_X", None,
     "sampler overhead around expm on critical_all"),
    ("critical.sample_NPH", "orbitcone.critical", "sample_NPH", None,
     "sampler overhead around expm on critical_all"),
    ("critical.predicted_signature", "orbitcone.critical",
     "predicted_signature", None, "wall_s on hessian_all"),
    ("critical.h_x_coords", "orbitcone.critical", "h_x_coords", None,
     "wall_s on hessian_all"),
    ("critical.transversal_signature", "orbitcone.critical",
     "transversal_signature", None, "wall_s on hessian_all"),
    ("critical.kernel_dim", "orbitcone.critical", "kernel_dim", None,
     "wall_s on hessian_all"),
    ("critical.hessian", "orbitcone.critical", "hessian", None,
     "wall_s on hessian_all"),
    ("critical.omega_X", "orbitcone.critical", "omega_X", None,
     "wall_s on critical_all"),
    ("polyhedra.project_polyhedron", "orbitcone.polyhedra",
     "project_polyhedron", ("rows_out", lambda a, result: len(result)),
     "wall_s on critical_all, a little on gk_sl3"),
    ("exactlin.lp_solve", "orbitcone.exactlin", "lp_solve", None,
     "wall_s on critical_all, a little on gk_sl3"),
    ("exactlin.nullspace", "orbitcone.exactlin", "nullspace", None,
     "wall_s on critical_all and hessian_all"),
)

# The root span around each orbitcone.run call; its self time is the
# harness's own loops (slack, coverage, witnesses, Fraction assembly).
ROOT = "harness"
# LP solves made inside a projection are its redundancy pruning; per H-rep
# row kept they give the waste ratio of that pruning.
PROJECTION, LP = "polyhedra.project_polyhedron", "exactlin.lp_solve"


class Tracer:
    def __init__(self):
        self.stack: list[list] = []          # open spans: [child span time]
        self.open = defaultdict(int)          # layer -> open span depth
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)        # layer -> its extra counter
        self.lp_in_projection = 0
        self.absent: list[str] = []

    def wrap(self, layer: str, fn, counter=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            self.stack.append(frame)
            self.open[layer] += 1
            self.calls[layer] += 1
            if layer == LP and self.open[PROJECTION]:
                self.lp_in_projection += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.stack.pop()
                self.open[layer] -= 1
                self.self_s[layer] += dt - frame[0]
                if self.stack:
                    self.stack[-1][0] += dt
            if counter is not None:
                bound = signature.bind(*args, **kwargs).arguments
                self.counts[layer] += counter[1](bound, result)
            return result
        return traced

    def install(self) -> None:
        """Rebind every layer function wherever orbitcone holds it.  A layer
        whose function no orbitcone module holds any more is absent."""
        modules = [m for name, m in list(sys.modules.items())
                   if (name == "orbitcone" or name.startswith("orbitcone."))
                   and m is not None]
        for layer, home, attr, counter, _ in LAYERS:
            try:
                fn = getattr(importlib.import_module(home), attr)
            except (ImportError, AttributeError):
                fn = None
            sites = [] if fn is None else [
                (m, k) for m in modules for k, v in vars(m).items() if v is fn]
            if not sites:
                self.absent.append(layer)
                continue
            traced = self.wrap(layer, fn, counter)
            for m, k in sites:
                setattr(m, k, traced)

    def summary(self) -> dict:
        out = {ROOT: {"self_s": self.self_s[ROOT], "calls": self.calls[ROOT]}}
        for layer, _, _, counter, _ in LAYERS:
            if layer in self.absent:
                out[layer] = {"absent": True}
                continue
            rec = out[layer] = {"self_s": self.self_s[layer],
                                "calls": self.calls[layer]}
            if counter is not None:
                rec[counter[0]] = self.counts[layer]
        if PROJECTION not in self.absent:
            out[PROJECTION]["lp_calls"] = self.lp_in_projection
        return out
