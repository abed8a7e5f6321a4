"""The names of qwig that the benchmark (perfbench/workloads.py) calls and
wraps still exist, and its tiny inputs run with no failed item, so that a
rename fails here rather than when the benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _NameTracer:
    """Stands in for the benchmark's tracer: records what it would wrap."""

    def __init__(self):
        self.wrapped = []

    def patch(self, owner, attr, *how):
        assert hasattr(owner, attr), "%s has no %s" % (owner.__name__, attr)
        self.wrapped.append(attr)

    def replace(self, owner, attr, *how):
        assert hasattr(owner, attr), "%r has no %s" % (owner, attr)
        self.wrapped.append(attr)


def test_traced_names_exist(workloads):
    tracer = _NameTracer()
    workloads.import_oracle(None)
    workloads.instrument(tracer, workloads.Hooks())
    assert {"omega", "omega_coupled", "mu", "sum_rule_residual",
            "linear_system_residuals", "omega_classical"} <= set(tracer.wrapped)


@pytest.mark.parametrize("workload", ["closed_forms", "oracle"])
def test_tiny_workloads_run_clean(workloads, workload):
    workloads.import_oracle(workload)
    items = workloads.materialize(
        workload, workloads.generate(workload, 1, 50, tiny=True))
    tally = workloads.Tally()
    _, attempted, failed = workloads.run_items(
        workload, items, workloads.Hooks(), workloads.Expected(), tally)
    assert attempted and not failed, tally.failures
    assert tally.checks
