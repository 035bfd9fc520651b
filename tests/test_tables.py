"""The exact tables and H-representations a pass builds, against the forms
they replace in reference.py, and where and how often they are built.

``matrixgrp._span_form`` checks its cubic at a lattice of coefficient
vectors, ``_wedge_terms`` builds the wedge derivation from an index and
sign table, and ``polyhedra.project_polyhedron`` takes each facet normal
as an integer cross product.  On every input that the sampling checks
reach, and on Gamma(P) and Omega of every positive system, each must give
what ``span_form_sym``, ``wedge_terms_loops`` and
``project_polyhedron_nullspace`` give, with the same types.  ``NotCubic``
and ``ValueError`` must come exactly where the Sym-tensor check raises
them.  Setting up a realization builds no table, ``import orbitcone``
loads no module beyond numpy, scipy and the standard library, and one
seed-0 workload pass builds the pinned number of tables and H-reps.
"""
import json
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from orbitcone import critical, harness, matrixgrp, polyhedra, rootsys
from orbitcone import exactlin as ex
from orbitcone.harness import _DEFAULT_A_LOG, VerificationConfig, run
from orbitcone.matrixgrp import NotCubic, realization, root_matrix
from orbitcone.parabolic import all_positive_systems
from orbitcone.polyhedra import gamma_cone, omega
from orbitcone.rootsys import weyl_orbit

import reference
from reference import sl2_triple

ROOT = Path(__file__).resolve().parent.parent
# the uncached builds, whatever a test puts in the module's place
SPAN_FORM = matrixgrp._span_form.__wrapped__
WEDGE_TERMS = matrixgrp._wedge_terms.__wrapped__
PRESETS = sorted(_DEFAULT_A_LOG)
CHECKS = ("main", "gk", "critical_image", "limits", "inclusion_cone",
          "no_line")


@pytest.fixture
def built(monkeypatch):
    """The inputs of every _span_form, _wedge_terms and project_polyhedron
    call, with every module-level cache replaced by an empty one so that
    each table is built anew."""
    inputs = {"span": set(), "wedge": set(), "hrep": set()}
    for module in (critical, harness, matrixgrp, polyhedra, rootsys):
        for name, f in list(vars(module).items()):
            if hasattr(f, "cache_clear"):
                monkeypatch.setattr(module, name,
                                    lru_cache(maxsize=None)(f.__wrapped__))
    monkeypatch.setattr(critical, "_KERNELS", {})
    for key, module, name in (("span", matrixgrp, "_span_form"),
                              ("wedge", matrixgrp, "_wedge_terms")):
        def recorded(*args, _real=getattr(module, name).__wrapped__,
                     _key=key):
            inputs[_key].add(args)
            return _real(*args)
        monkeypatch.setattr(module, name, lru_cache(maxsize=None)(recorded))
    real = polyhedra.project_polyhedron
    monkeypatch.setattr(polyhedra, "project_polyhedron", lambda V, G: (
        inputs["hrep"].add((tuple(V), tuple(G))) or real(V, G)))
    return inputs


def test_every_table_and_hrep_equals_its_oracle(built):
    for preset in PRESETS:
        for seed in (0, 5):
            for check in CHECKS:
                run(VerificationConfig(preset=preset, seed=seed,
                                       checks=frozenset({check})))
        rz = realization(preset)
        a_log = tuple(Fraction(c) for c in _DEFAULT_A_LOG[preset])
        for P in all_positive_systems(rz.datum):
            gamma_cone(P).hrep
            omega(weyl_orbit(rz.small_weyl, a_log), gamma_cone(P)).hrep
    # every preset's spans, wedge^k of each, and H-reps in dimensions 2-4
    assert {shape[-1] for shape, _ in built["span"]} >= {2, 3, 4, 6}
    assert {len(J) for *_, J in built["wedge"]} == {1, 2, 3}
    assert {len(V[0].num) for V, _ in built["hrep"]} == {2, 3, 4}
    for shape, data in built["span"]:
        got = SPAN_FORM(shape, data)
        want = reference.span_form_sym(np.frombuffer(data).reshape(shape))
        assert got.dtype == want.dtype and np.array_equal(got, want), shape
    for shape, data, J in built["wedge"]:
        got = WEDGE_TERMS(shape, data, J)
        want = reference.wedge_terms_loops(
            np.frombuffer(data).reshape(shape), J)
        # repr tells np.float64 from float and int: the same terms, in the
        # same order, of the same types
        assert repr(got) == repr(want), (shape, J)
    for V, G in built["hrep"]:
        assert reference.hrep_pairs(polyhedra.project_polyhedron(V, G)) \
            == reference.project_polyhedron_nullspace(V, G), (V, G)


def _cubic_bases(rng):
    """Integer bases whose span has a form: the h of every preset, the
    nilpotent spans of root matrices, sl2 triples, each in a random
    unimodular change of basis and conjugated by a random permutation."""
    spans = [np.stack(realization(p).h_basis) for p in PRESETS]
    spans += [np.stack([root_matrix(3, ex.exact(a)) for a in ((1, -1, 0), (0, 1, -1))]),
              np.stack([root_matrix(4, ex.exact(a))
                        for a in ((1, 0, -1, 0), (0, 1, 0, -1))]),
              sl2_triple(2), sl2_triple(3)]
    for B in spans:
        k, n = len(B), B.shape[-1]
        U = np.triu(rng.integers(-2, 3, size=(k, k)), 1) + np.eye(k)
        p = rng.permutation(n)
        yield np.einsum("ab,bij->aij", U, B)[:, p][:, :, p]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_not_cubic_and_value_error_come_exactly_where_the_oracle_raises(
        seed):
    rng = np.random.default_rng(seed)
    bases = list(_cubic_bases(rng))
    for _ in range(100):
        k, n = rng.integers(1, 4), rng.integers(2, 5)
        B = rng.integers(-2, 3, size=(k, n, n)).astype(float)
        # sparse bases are cubic more often than dense ones
        bases.append(B * (rng.random(B.shape) < rng.choice([0.2, 0.5, 1.0])))
    bases += [0.5 * bases[0], bases[1] + 0.25]
    raised, cubic = set(), 0
    for B in bases:
        outcome = []
        for form in (lambda B: SPAN_FORM(B.shape, B.tobytes()),
                     reference.span_form_sym):
            try:
                outcome.append(form(B))
            except ValueError as e:
                outcome.append((type(e), str(e)))
        got, want = outcome
        if isinstance(want, tuple):
            assert got == want, B
            raised.add(want[0])
        else:
            assert np.array_equal(got, want), B
            cubic += 1
    assert raised == {NotCubic, ValueError}
    assert cubic > 20, cubic


def _fresh(code: str) -> str:
    """The last line that code prints in a fresh interpreter with src on
    its path."""
    out = subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path[:0] = {[str(ROOT / 'src')]!r}\n" + code],
        capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()[-1]


def test_setting_up_the_presets_builds_no_table():
    # the benchmark's set-up runs import orbitcone and realization(p);
    # every table is built on first use, inside a pass
    sizes = json.loads(_fresh(
        "import json, orbitcone\n"
        "from orbitcone import matrixgrp, polyhedra\n"
        f"for p in {PRESETS!r}:\n"
        "    orbitcone.realization(p)\n"
        "caches = [getattr(matrixgrp, n) for n in ('_span_form',\n"
        "          '_wedge_terms', '_entry_columns', '_in_np',\n"
        "          '_span_tables', '_wedge_table')] + [polyhedra._gk_cone]\n"
        "print(json.dumps([c.cache_info().currsize for c in caches]))\n"))
    assert sizes == [0] * 7


def test_import_loads_nothing_beyond_numpy_scipy_and_the_stdlib():
    extra = json.loads(_fresh(
        "import json, sys\n"
        "import numpy, scipy.linalg\n"
        "before = set(sys.modules)\n"
        "import orbitcone\n"
        "print(json.dumps(sorted(m for m in set(sys.modules) - before\n"
        "    if m.split('.')[0] not in {'orbitcone', *sys.stdlib_module_names})))\n"))
    assert extra == []


@pytest.mark.parametrize("check, presets, samples, counts", [
    ("critical_image", PRESETS, 2000, [18, 22, 20]),
    ("gk", ["sl3_so21"], 360_000, [30, 54, 19])])
def test_a_workload_pass_builds_each_table_once(check, presets, samples,
                                                counts):
    # the seed-0 passes of critical_all and gk_sl3: distinct span forms,
    # wedge tables and H-reps, each built once; critical_all's include the
    # span 0 of F's identity draws, and no form of sample_NPH's span, whose
    # rows are all n = 1
    built = json.loads(_fresh(
        "import json, orbitcone\n"
        "from orbitcone import matrixgrp, polyhedra\n"
        "hreps = []\n"
        "real = polyhedra.project_polyhedron\n"
        "polyhedra.project_polyhedron = lambda V, G: (hreps.append(V)\n"
        "                                             or real(V, G))\n"
        f"for p in {list(presets)!r}:\n"
        "    orbitcone.run(orbitcone.VerificationConfig(preset=p, seed=0,\n"
        f"        checks=frozenset({{{check!r}}}), samples={samples}))\n"
        "print(json.dumps([matrixgrp._span_form.cache_info().currsize,\n"
        "                  matrixgrp._wedge_terms.cache_info().currsize,\n"
        "                  len(hreps)]))\n"))
    assert built == counts
