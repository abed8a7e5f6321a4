"""Every name that a module's __all__ exports resolves."""

import importlib

import pytest

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
