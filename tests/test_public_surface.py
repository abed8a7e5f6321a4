"""Every name that a module's __all__ exports resolves."""

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
