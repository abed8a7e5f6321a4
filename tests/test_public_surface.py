"""Every name that a module's __all__ exports resolves, and has a caller
outside the tests."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qwig

MODULES = [
    "qwig",
    "qwig.exactq",
    "qwig.superweight",
    "qwig.branching",
    "qwig.invariants",
    "qwig.wigner",
    "qwig.oracle",
    "qwig.oracle.linalg",
    "qwig.oracle.modules",
    "qwig.oracle.loperators",
    "qwig.oracle.checks",
]

# where a caller of an exported name may live: the tests do not count
CALLERS = ("src", "perfbench", "demos", "tools")

# exported names that no caller reaches yet, each with the reason it stays
KEPT = {
    "gamma": "its alpha0_override goes when ROADMAP item 2 settles mu",
    "mu_oracle": "ROADMAP item 2 mends it and runs mu in verify",
    "__version__": "package metadata",
}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec("from %s import *" % name, namespace)
    assert set(exported) <= set(namespace)


def test_import_loads_no_unused_stdlib_modules():
    # each qwig command is a fresh process: dataclasses would bring inspect,
    # ast, dis and tokenize, and csv serves only --out x.csv
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "import qwig, qwig.cli, qwig.oracle\n"
              "print(' '.join(sorted(set(sys.modules) - before)))\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(qwig.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, check=True)
    loaded = set(done.stdout.split())
    assert {"qwig", "qwig.cli", "qwig.oracle"} <= loaded
    assert loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize", "csv"} == set()


def _references(tree):
    """The names that code refers to: loaded Names, attribute names and
    exact str constants (the CLI dispatches by getattr on a name), outside
    the __all__ assignments.  An import list holds aliases, not Names, so
    an import alone is no reference."""
    listed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            listed.update(map(id, ast.walk(node.value)))
    refs = set()
    for node in ast.walk(tree):
        if id(node) in listed:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.add(node.value)
    return refs


def test_every_exported_name_has_a_caller():
    # nothing ships that no caller needs: an exported name that only the
    # tests reach moves into them, unless KEPT says why it stays; a KEPT
    # name that gains a caller leaves KEPT
    root = Path(__file__).resolve().parents[1]
    refs = set()
    for top in CALLERS:
        for path in sorted((root / top).rglob("*.py")):
            refs |= _references(ast.parse(path.read_text(), str(path)))
    exported = set()
    for name in MODULES:
        exported.update(importlib.import_module(name).__all__)
    assert sorted(exported - refs) == sorted(KEPT)
