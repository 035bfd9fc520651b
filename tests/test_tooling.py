"""Static checks over the package sources and the tests."""
import ast
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from orbitcone.matrixgrp import realization
from orbitcone.parabolic import all_positive_systems

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "orbitcone"
TESTS = ROOT / "tests"

# Definitions that nothing in the package reads, kept because the
# acceptance tests check them as claims of the paper.  Each is a method or
# field of a package type, so it stays with that type; the claims that
# need no state of the package live in tests/paper_claims.py.
# contains_exact is the exact membership of a Polyhedron, which test_08
# reads both ways between the upsilon and gamma cones, and which
# re-certifying a reported witness needs.  ah_basis is the a_h half of the
# split a = a_h + a_q of SymmetricPairDatum, which the tests read next to
# aq_basis.  minus_set holds the restricted roots with m_- > 0, over which
# the upsilon cone of tests/paper_claims.py is built.
PAPER_CLAIMS = ("contains_exact", "ah_basis", "minus_set")


def _all_names(tree: ast.Module) -> set[str]:
    """The names listed in a module's __all__."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            out |= {e.value for e in node.value.elts}
    return out


def _reads(node: ast.AST, member: bool = False) -> Counter:
    """Names loaded below node as attributes, and unless member also as
    plain names."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out[n.attr] += 1
        elif not member and isinstance(n, ast.Name) \
                and isinstance(n.ctx, ast.Load):
            out[n.id] += 1
    return out


def _definitions(tree: ast.Module):
    """(name, node, member) of the top-level functions and classes, and of
    the non-dunder methods and annotated fields of the top-level classes,
    for which member is True."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) \
                        and not item.name.startswith("__"):
                    yield item.name, item, True
                elif isinstance(item, ast.AnnAssign) \
                        and isinstance(item.target, ast.Name):
                    yield item.target.id, item, True


def _unread_definitions(trees: dict[str, ast.Module]) -> list[str]:
    """Definitions that no module reads outside their own body and no
    __all__ lists.  A method or field is read only as an attribute, so a
    local of the same name does not read it.  A keyword argument is not a
    read, so building an object does not count as reading its fields.
    Reads are matched by name alone, so a method counts as read wherever
    any attribute of its name is: SymmetricPairDatum.gram, read all over
    the package, would hide an unread SampleStack.gram.  test_every_function_runs
    catches such a method by what a run calls."""
    reads = {False: Counter(), True: Counter()}
    for tree in trees.values():
        for member, counter in reads.items():
            counter.update(_reads(tree, member))
        reads[False].update(_all_names(tree))
    return [f"{module}: {name}"
            for module, tree in sorted(trees.items())
            for name, node, member in _definitions(tree)
            if reads[member][name] == _reads(node, member)[name]]


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by imports that the module never reads; names listed in
    __all__ count as read."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    read |= _all_names(tree)
    return [f"line {line}: {name}" for name, line in sorted(bound.items())
            if name not in read]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_the_scan_finds_an_unused_import():
    tree = ast.parse("import os\nfrom a import b, c\n__all__ = ['c']\n")
    assert _unused_imports(tree) == ["line 2: b", "line 1: os"]


def _private_imports(tree: ast.Module) -> list[str]:
    """Names with a leading underscore that a module imports from a module
    of the package, relatively or as orbitcone.*."""
    return [f"line {node.lineno}: {a.name}" for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").startswith("orbitcone"))
            for a in node.names if a.name.startswith("_")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_private_name(path):
    # what one module of the package reads of another is public, as the
    # Weyl image that critical and harness share is
    assert _private_imports(ast.parse(path.read_text())) == []


def test_the_scan_finds_a_private_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "from numpy import _pytesttester\n"
                     "from . import _a, b\nfrom .c import d, _e\n"
                     "from orbitcone.f import _g\n")
    assert _private_imports(tree) == ["line 3: _a", "line 4: _e", "line 5: _g"]


def _defaulted_p(tree: ast.Module) -> list[str]:
    """Functions with a parameter named P that has a default."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            pos = a.posonlyargs + a.args
            defaulted = pos[len(pos) - len(a.defaults):] + [
                k for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            if any(arg.arg == "P" for arg in defaulted):
                out.append(f"line {node.lineno}: {getattr(node, 'name', 'lambda')}")
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_positive_system_is_explicit(path):
    # the theorem holds for every minimal parabolic; no layer picks one
    assert _defaulted_p(ast.parse(path.read_text())) == []


def test_the_scan_finds_a_defaulted_positive_system():
    tree = ast.parse("def f(rz, P=None):\n    pass\n\n\ndef g(rz, P, Q=1):\n"
                     "    pass\n\n\ndef h(*, P=2):\n    pass\n\n\n"
                     "k = lambda x, P=3: x\n")
    assert _defaulted_p(tree) == ["line 1: f", "line 9: h", "line 13: lambda"]


def test_every_definition_is_read():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    unread = {line.split(": ")[1] for line in _unread_definitions(trees)}
    assert unread == set(PAPER_CLAIMS), sorted(unread)


def test_the_scan_finds_an_unread_definition():
    tree = ast.parse("def f():\n    return f()\n\n\ndef g():\n    pass\n\n\n"
                     "class C:\n    pass\n\n\nx = g\n__all__ = ['C']\n")
    assert _unread_definitions({"m": tree}) == ["m: f"]


def test_the_scan_finds_an_unread_method():
    tree = ast.parse("class C:\n    def __init__(self):\n        pass\n\n"
                     "    def read(self):\n        return self.helper()\n\n"
                     "    def helper(self):\n        return 1\n\n"
                     "    def unread(self):\n        return self.unread()\n\n\n"
                     "C().read()\nunread = 1\nprint(unread)\n")
    assert _unread_definitions({"m": tree}) == ["m: unread"]


def test_the_scan_finds_an_unread_field():
    tree = ast.parse("class C:\n    read: int\n    built: int\n"
                     "    counter: int = 0\n\n\n"
                     "c = C(read=1, built=2)\nprint(c.read, C.counter)\n")
    assert _unread_definitions({"m": tree}) == ["m: built"]


# Functions that no run of the program calls, each with the reader that
# keeps it
UNCALLED = {
    "matrixgrp.Draw.shape": "the benchmark's tracer counts the matrices of "
                            "a Draw through it",
    "polyhedra.Polyhedron.contains_exact": "one of PAPER_CLAIMS",
}


def _functions(trees: dict[str, ast.Module]) -> dict[tuple[str, int], str]:
    """Every function and method, nested ones too, keyed by its file and
    the first line of its code object (its first decorator, if any), as
    module.qualified.name."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                out[path, first] = prefix + child.name
                walk(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)
    for module, tree in trees.items():
        walk(tree, str(SRC / f"{module}.py"), module + ".")
    return out


# reports of every check on every preset in every format, extremize from a
# chamber that walks, and verify from a chamber at a regular base point,
# with the (file, first line) of every package function that runs
_RUN_EVERYTHING = """
import contextlib, io, json, os, sys, tempfile
called = set()
def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(SRC):
        called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
sys.setprofile(profile)
from orbitcone.cli import main
from orbitcone.harness import CHECK_NAMES
from orbitcone.matrixgrp import PRESETS
codes = []
with tempfile.TemporaryDirectory() as out, \
        contextlib.redirect_stdout(io.StringIO()):
    for preset in PRESETS:
        checks = ",".join(sorted(c for c in CHECK_NAMES
                                 if c != "kostant" or preset == "kostant_sl2"))
        for fmt in ("json", "csv", "svg"):
            codes.append(main(["report", "--preset", preset, "--checks",
                               checks, "--samples", "20", "--format", fmt,
                               "--out", os.path.join(out, f"{preset}.{fmt}")]))
    chamber = "--chamber=-1,1,1/97,-1/97"
    codes.append(main(["extremize", "--preset", "group_sl2", chamber]))
    codes.append(main(["verify", "--preset", "group_sl2", chamber,
                       "--a-log=2,-2,-2,2", "--radius=1,4",
                       "--samples", "20"]))
sys.setprofile(None)
print(json.dumps([codes, sorted(called)]))
"""


def test_every_function_runs():
    code = (f"import sys; sys.path[:0] = {[str(ROOT / 'src')]!r}\n"
            f"SRC = {str(SRC)!r}\n" + _RUN_EVERYTHING)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    codes, called = json.loads(out.stdout.splitlines()[-1])
    assert 2 not in codes, out.stderr
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    called = {tuple(key) for key in called}
    uncalled = {name for key, name in _functions(trees).items()
                if key not in called}
    assert uncalled == set(UNCALLED), sorted(uncalled)


def test_every_traced_layer_is_present():
    # the benchmark's tracer rebinds each layer function where orbitcone
    # holds it; a layer whose function left the package reports as absent.
    # A separate interpreter keeps the rebinding out of this session.
    code = ("import json, orbitcone, tracer\n"
            "t = tracer.Tracer()\n"
            "t.install()\n"
            "print(json.dumps(t.absent))\n")
    path = [str(ROOT / "src"), str(ROOT / "perfbench")]
    out = subprocess.run([sys.executable, "-c",
                          f"import sys; sys.path[:0] = {path!r}\n" + code],
                         capture_output=True, text=True, timeout=120,
                         check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == []


def test_every_traced_layer_counts_on_every_workload():
    # the tracer's counters read arguments by name (iwasawa's g, expm's A)
    # and raise KeyError when one is renamed; every workload's check runs
    # traced on its presets at about 200 samples
    code = ("import json, orbitcone, tracer, workloads\n"
            "t = tracer.Tracer()\n"
            "t.install()\n"
            "for wl in workloads.WORKLOADS.values():\n"
            "    for preset in wl.presets:\n"
            "        orbitcone.run(orbitcone.VerificationConfig(\n"
            "            preset=preset, checks=frozenset({wl.check}),\n"
            "            **dict(wl.options, samples=200)))\n"
            "print(json.dumps([t.absent, t.summary()]))\n")
    path = [str(ROOT / "src"), str(ROOT / "perfbench")]
    out = subprocess.run([sys.executable, "-c",
                          f"import sys; sys.path[:0] = {path!r}\n" + code],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    absent, layers = json.loads(out.stdout.splitlines()[-1])
    assert absent == []
    counts = {(k, c): v[c] for k, v in layers.items()
              for c in set(v) - {"self_s", "calls", "lp_calls"}}
    assert counts and all(counts.values()), counts


def test_a_traced_gk_run_counts_every_projected_matrix():
    # gk hands iwasawa one Draw per pair with a support, its rank-one
    # probes as the leading rows, which the tracer counts through its
    # shape: matrices is every matrix projected (two probes per root of a
    # support, then the draw), not one per call
    code = ("import json, orbitcone, tracer\n"
            "t = tracer.Tracer()\n"
            "t.install()\n"
            "orbitcone.run(orbitcone.VerificationConfig(\n"
            "    preset='sl3_so21', checks=frozenset({'gk'}), samples=3600))\n"
            "print(json.dumps(t.summary()['matrixgrp.iwasawa']))\n")
    path = [str(ROOT / "src"), str(ROOT / "perfbench")]
    out = subprocess.run([sys.executable, "-c",
                          f"import sys; sys.path[:0] = {path!r}\n" + code],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    layer = json.loads(out.stdout.splitlines()[-1])
    rz = realization("sl3_so21")
    systems = all_positive_systems(rz.datum)
    supports = [len(Q.positive & P.negative) for P in systems for Q in systems]
    rows = 3600 // len(supports)
    assert layer["calls"] == sum(map(bool, supports))
    assert layer["matrices"] == sum(2 * k + rows for k in supports if k)
