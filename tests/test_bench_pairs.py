"""tools/bench_pairs.py on two synthetic checkouts' benchmark results."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

MACHINE = {"python": "3.11.2", "numpy": None, "nproc": 2, "cpu_model": "cpu"}


def _write(checkout, sha, workload, seed, p50, wall, failed=0, by_kind=None):
    out = checkout / ".bench_out"
    out.mkdir(parents=True, exist_ok=True)
    result = {
        "machine": dict(MACHINE, git_sha=sha, seed=seed),
        "metrics": {"latency_p50_ms": {"value": p50, "unit": "ms"},
                    "wall_s": {"value": wall, "unit": "s"}},
        "attempted": 100,
        "failed": failed,
    }
    if by_kind is not None:
        result["latency_by_kind_ms"] = by_kind
    (out / ("%s-seed%d-trace0.json" % (workload, seed))).write_text(json.dumps(result))


def test_pairs_summaries_and_record(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    parent, change = tmp_path / "parent", tmp_path / "change"
    p50 = {1: (1.0, 0.8), 2: (2.0, 1.9), 3: (3.0, 3.5), 4: (4.0, 3.0), 5: (5.0, 4.0)}
    for seed, (a, b) in p50.items():
        _write(parent, "aaa", "closed_forms", seed, a, 10.0)
        _write(change, "bbb", "closed_forms", seed, b, 10.0, failed=seed == 5)
    assert bench_pairs.main([
        "--parent", str(parent), "--change", str(change),
        "--run", "closed_forms:1-3,4,5", "--label", "t"]) == 0
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert record["label"] == "t"
    assert record["git_sha"] == {"parent": "aaa", "change": "bbb"}
    assert record["machine"] == MACHINE
    w = record["workloads"]["closed_forms"]
    assert w["seeds"] == [1, 2, 3, 4, 5]
    assert w["failed"] == {"parent": 0, "change": 1}
    assert w["attempted"] == {"parent": 500, "change": 500}
    m = w["metrics"]["latency_p50_ms"]
    assert m["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert m["change"] == {"median": 3.0, "q1": 1.9, "q3": 3.5}
    assert m["change_pct"] == 0.0
    assert (m["lower_in"], m["pairs"], m["unit"]) == (4, 5, "ms")
    # equal values are a tie, lower in no pair
    assert w["metrics"]["wall_s"]["lower_in"] == 0
    out = capsys.readouterr().out
    assert "latency_p50_ms" in out and "lower in 4/5" in out


def test_missing_result_and_bad_arguments(tmp_path):
    _write(tmp_path / "parent", "aaa", "oracle", 1, 1.0, 1.0)
    with pytest.raises(SystemExit, match="cannot read"):
        bench_pairs.main(["--parent", str(tmp_path / "parent"),
                          "--change", str(tmp_path / "change"),
                          "--run", "oracle:1", "--label", "t"])
    with pytest.raises(SystemExit):
        bench_pairs.main(["--parent", "p", "--change", "c", "--run", "oracle",
                          "--label", "t"])
    assert bench_pairs.parse_seeds("3,5-7") == [3, 5, 6, 7]
    # a reversed range would pair no seed, a repeated seed one pair twice
    for seeds in ("9-5", "1,1,2", "1-3,2"):
        with pytest.raises(SystemExit) as exc:
            bench_pairs.main(["--parent", "p", "--change", "c",
                              "--run", "oracle:" + seeds, "--label", "t"])
        assert exc.value.code == 2, seeds


def test_spread_wider_than_the_bound_is_unresolved(tmp_path, capsys, monkeypatch):
    # parent p50 spans 2.0 over a median of 3.0, beyond its bound of 0.2:
    # unresolved while some change run reads no better than every parent
    # run; wall_s spans as widely, but every change run reads lower
    monkeypatch.chdir(tmp_path)
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    (parent / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "latency_p50_ms", "better": "lower", "bound": 0.2},
        {"name": "wall_s", "better": "lower", "bound": 0.2}]}))
    for seed, (a, b) in {1: (1.0, 0.5), 2: (2.0, 1.0), 3: (3.0, 2.0),
                         4: (4.0, 2.5), 5: (5.0, 0.9)}.items():
        _write(parent, "aaa", "oracle", seed, a, a)
        _write(change, "bbb", "oracle", seed, b, b / 10)
    bench_pairs.main(["--parent", str(parent), "--change", str(change),
                      "--run", "oracle:1-5", "--label", "t"])
    m = json.loads((tmp_path / "BENCH_t.json").read_text())[
        "workloads"]["oracle"]["metrics"]
    assert m["latency_p50_ms"]["lower_in"] == 5
    assert m["latency_p50_ms"]["unresolved"] is True
    assert m["wall_s"]["unresolved"] is False
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out if line.endswith("unresolved")] == [
        "latency_p50_ms"]


def test_claim_and_regression_flags(tmp_path, capsys, monkeypatch):
    # parent p50 is 10..19: median 14.5, quartile spread 4.5.  The change
    # ties one pair and reads 6 lower in the rest, median 9.5: better in
    # 9/10 and by 5.0, so the claim is met.  Its wall_s median is 20% above
    # the parent's, beyond the 15% bound
    monkeypatch.chdir(tmp_path)
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    (parent / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "latency_p50_ms", "better": "lower", "bound": 0.2},
        {"name": "wall_s", "better": "lower", "bound": 0.15}]}))

    def run(ties, drop, wall):
        for seed in range(1, 11):
            a = 9.0 + seed
            _write(parent, "aaa", "oracle", seed, a, 1.0)
            _write(change, "bbb", "oracle", seed, a if seed <= ties else a - drop,
                   wall)
        bench_pairs.main(["--parent", str(parent), "--change", str(change),
                          "--run", "oracle:1-10", "--label", "t"])
        return json.loads((tmp_path / "BENCH_t.json").read_text())[
            "workloads"]["oracle"]["metrics"]

    m = run(1, 6, 1.2)
    p50, wall = m["latency_p50_ms"], m["wall_s"]
    assert (p50["lower_in"], p50["claim_met"], p50["regressed"]) == (9, True, False)
    assert (wall["claim_met"], wall["regressed"]) == (False, True)
    out = capsys.readouterr().out
    assert "lower in 9/10, claim met, unresolved" in out
    assert "lower in 0/10, regressed" in out
    # a second tie leaves 8 wins of 10 although the medians differ by 6.0;
    # a median 10% worse is within the bound
    m = run(2, 8, 1.1)
    assert (m["latency_p50_ms"]["lower_in"], m["latency_p50_ms"]["claim_met"]) == (
        8, False)
    assert m["wall_s"]["regressed"] is False
    # 9 wins by a median gap of 4.5, equal to the spread, is not more than it
    m = run(1, 5, 1.0)
    assert m["latency_p50_ms"]["claim_met"] is False
    assert not any(m["wall_s"][f] for f in bench_pairs.FLAGS)


def test_net_lines_of_python_files(tmp_path, capsys, monkeypatch):
    # a.py changes one line of three and b.py is new under src/; the one
    # test file goes; tools/ is new; the demo loses one line of two;
    # README.md and a.pyc do not count
    monkeypatch.chdir(tmp_path)
    parent, change = tmp_path / "parent", tmp_path / "change"
    files = {
        parent: {"src/pkg/a.py": "x = 1\ny = 2\nz = 3\n",
                 "tests/test_a.py": "def test():\n    pass\n",
                 "demos/d.py": "print(1)\nprint(2)\n",
                 "README.md": "one\n"},
        change: {"src/pkg/a.py": "x = 1\ny = 5\nz = 3\n",
                 "src/pkg/b.py": "w = 4\n" * 4,
                 "tools/t.py": "t = 0\n",
                 "demos/d.py": "print(1)\n",
                 "README.md": "one\ntwo\n"},
    }
    for root, tree in files.items():
        for name, text in tree.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(text)
        _write(root, root.name, "oracle", 1, 1.0, 1.0)
    (change / "src" / "pkg" / "a.pyc").write_bytes(b"\0\1")
    bench_pairs.main(["--parent", str(parent), "--change", str(change),
                      "--run", "oracle:1", "--label", "t"])
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert record["net_lines"] == {
        "src": {"added": 5, "removed": 1, "net": 4},
        "tests": {"added": 0, "removed": 2, "net": -2},
        "tools": {"added": 1, "removed": 0, "net": 1},
        "demos": {"added": 0, "removed": 1, "net": -1},
    }
    assert ("net lines: src +4 (+5/-1), tests -2 (+0/-2), tools +1 (+1/-0), "
            "demos -1 (+0/-1)") in capsys.readouterr().out


def test_latency_by_kind_medians(tmp_path, capsys, monkeypatch):
    # three runs a side; the table tail moves, the branching p50 does not.
    # Each side's number is the median over its runs of each kind's stat
    monkeypatch.chdir(tmp_path)
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (tail, p50) in {1: (3.9, 0.5), 2: (3.7, 0.4), 3: (3.8, 0.6)}.items():
        for root, sha, scale in ((parent, "aaa", 1.0), (change, "bbb", 0.5)):
            _write(root, sha, "closed_forms", seed, 1.0, 1.0, by_kind={
                "branching": {"samples": 800, "p50": p50, "p99": 2.0},
                "table": {"samples": 350, "p50": 1.0 * scale, "p95": tail * scale}})
    bench_pairs.main(["--parent", str(parent), "--change", str(change),
                      "--run", "closed_forms:1-3", "--label", "t"])
    kinds = json.loads((tmp_path / "BENCH_t.json").read_text())[
        "workloads"]["closed_forms"]["latency_by_kind_ms"]
    assert kinds == {
        "parent": {"branching": {"p50": 0.5, "p99": 2.0},
                   "table": {"p50": 1.0, "p95": 3.8}},
        "change": {"branching": {"p50": 0.5, "p99": 2.0},
                   "table": {"p50": 0.5, "p95": 1.9}},
    }
    out = capsys.readouterr().out
    assert "branching latency, median of runs: p50 0.5 -> 0.5 ms, p99 2 -> 2 ms" in out
    assert "table latency, median of runs: p50 1 -> 0.5 ms, p95 3.8 -> 1.9 ms" in out
    # results without per-kind latencies record none
    _write(parent, "aaa", "oracle", 1, 1.0, 1.0)
    _write(change, "bbb", "oracle", 1, 1.0, 1.0)
    bench_pairs.main(["--parent", str(parent), "--change", str(change),
                      "--run", "oracle:1", "--label", "t"])
    assert json.loads((tmp_path / "BENCH_t.json").read_text())["workloads"][
        "oracle"]["latency_by_kind_ms"] == {"parent": {}, "change": {}}


# a stand-in for perfbench/run.py: it logs its checkout and arguments, then
# writes the result file that run.py leaves, or fails on seed 13
STUB = """import json, sys
from pathlib import Path
root = Path(__file__).resolve().parent.parent
args = sys.argv[1:]
with open(%r, "a") as log:
    log.write(" ".join([root.name] + args) + "\\n")
opts = dict(zip(args[::2], args[1::2]))
if opts["--seed"] == "13":
    sys.exit("stub: no result for seed 13")
seed = int(opts["--seed"])
result = {"machine": dict(%r, git_sha=root.name, seed=seed),
          "metrics": {"wall_s": {"value": 2.0 if root.name == "parent" else 1.0,
                                 "unit": "s"}},
          "attempted": 10, "failed": 0}
out = root / ".bench_out"
out.mkdir(exist_ok=True)
(out / ("%%s-seed%%d-trace0.json" %% (opts["--workload"], seed))).write_text(
    json.dumps(result))
"""


def test_bench_runs_both_checkouts_alternately(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    log = tmp_path / "log"
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(STUB % (str(log), MACHINE))
    # the parent's run_seconds is passed to both sides
    (tmp_path / "parent" / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 7,
        "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.15}]}))
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 9}))
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--label", "t", "--bench"]
    assert bench_pairs.main(argv + ["--run", "oracle:1-2", "--run", "closed_forms:4"]) == 0
    args = "--seconds 7 --trace 0"
    assert log.read_text().splitlines() == [
        "change --workload oracle --seed 1 " + args,
        "parent --workload oracle --seed 1 " + args,
        "parent --workload oracle --seed 2 " + args,
        "change --workload oracle --seed 2 " + args,
        "parent --workload closed_forms --seed 4 " + args,
        "change --workload closed_forms --seed 4 " + args,
    ]
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    wall = record["workloads"]["oracle"]["metrics"]["wall_s"]
    assert (wall["lower_in"], wall["pairs"]) == (2, 2)
    assert record["git_sha"] == {"parent": "parent", "change": "change"}
    assert "ran oracle seed 1, change first" in capsys.readouterr().out
    # a failing run stops the tool with its standard error, before the
    # other side runs
    log.unlink()
    with pytest.raises(SystemExit, match="exited with 1:\\nstub: no result for seed 13"):
        bench_pairs.main(argv + ["--run", "oracle:13"])
    assert log.read_text().splitlines() == ["change --workload oracle --seed 13 " + args]
