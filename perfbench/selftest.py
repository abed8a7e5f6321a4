"""Self-test of the benchmark.  Run from the checkout root:

    python3 perfbench/selftest.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from refclock import RefClock  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = SPEC["run_seconds"]


def run_bench(*args, cwd=ROOT, bench=BENCH):
    cmd = [sys.executable, str(bench / "run.py"), "--seed", "3",
           "--seconds", str(SECONDS), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def inputs_in_subprocess(workload, seed):
    code = ("import json, sys; sys.path[:0] = [%r, %r]; import workloads; "
            "print(json.dumps(workloads.generate(%r, %d, %d)))"
            % (str(ROOT / "src"), str(BENCH), workload, seed, SECONDS))
    env = dict(os.environ, PYTHONHASHSEED="12345")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    return out.stdout.strip()


class TinyRuns(unittest.TestCase):
    def check_run(self, workload, trace, specs):
        done = run_bench("--workload", workload, "--trace", str(trace), "--tiny")
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {s["name"] for s in specs})
        for spec in specs:
            self.assertEqual(result["metrics"][spec["name"]]["unit"], spec["unit"])

    def test_every_metric_is_emitted(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 0, SPEC["end_to_end"])
                self.check_run(workload, 1, SPEC["per_layer"])

    def test_corrupted_expectation_fails_the_run(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                done = run_bench("--workload", workload, "--tiny", "--corrupt")
                self.assertNotEqual(done.returncode, 0)
                result = json.loads(done.stdout.strip().splitlines()[-1])
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_without_sources_it_fails_without_a_result(self):
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out) as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH, Path(bare) / BENCH.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = run_bench("--workload", "oracle", cwd=bare,
                             bench=Path(bare) / BENCH.name)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


class Inputs(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_other_inputs(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                first = json.dumps(workloads.generate(workload, 1, SECONDS))
                self.assertEqual(first, inputs_in_subprocess(workload, 1))
                self.assertNotEqual(first, json.dumps(workloads.generate(workload, 2, SECONDS)))


class Clock(unittest.TestCase):
    def test_reference_time_rises_and_skips_the_probes(self):
        clock = RefClock()
        clock.start()
        readings = [perf_counter()]
        while readings[-1] - readings[0] < 0.3:
            sum(range(1000))
            readings.append(perf_counter())
        clock.stop()
        self.assertGreater(len(clock.starts), 5)
        refs = [clock.ref(t) for t in readings]
        self.assertEqual(refs, sorted(refs))
        self.assertGreater(refs[-1], refs[0])
        self.assertEqual(clock.elapsed(clock.starts[2], clock.ends[2]), 0.0)


if __name__ == "__main__":
    unittest.main()
