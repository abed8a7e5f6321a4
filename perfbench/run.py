"""Benchmark of qwig: one workload, one seed, one result.

    python3 perfbench/run.py --workload closed_forms --seed 1 --seconds 50 --trace 0

Run from anywhere inside a checkout; qwig is imported from the checkout's
``src``.  With ``--trace 0`` it reports the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` the per-layer metrics.  Each
measurement runs in a fresh process (worker.py).  The full result, with
the machine and versions, goes to ``.bench_out/`` at the checkout root; the
last line of standard output is the summary JSON.  The exit code is 0 only
if every correctness gate held.
"""

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import monotonic

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("closed_forms", "oracle")
SETUP_PROBES = 4  # set-up only processes; the measuring process adds one more
DEADLINE_S = 170  # the whole command must end within 180 s
LATENCY_TAIL = 99  # needs 1,000 samples for 10 beyond it; closed_forms has 1,150


def read_git_sha():
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine(seed):
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": read_git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "seed": seed,
    }


class Worker:
    """Runs worker.py processes under one deadline for the whole command."""

    def __init__(self, args):
        self.args = args
        self.deadline = monotonic() + DEADLINE_S

    def __call__(self, phase, *extra):
        a = self.args
        cmd = [sys.executable, str(BENCH / "worker.py"), "--phase", phase,
               "--workload", a.workload, "--seed", str(a.seed),
               "--seconds", str(a.seconds), *extra]
        if a.tiny:
            cmd.append("--tiny")
        if a.corrupt:
            cmd.append("--corrupt")
        env = dict(os.environ, PYTHONHASHSEED="0")
        timeout = self.deadline - monotonic()
        if timeout <= 0:
            raise SystemExit("benchmark: out of time before the %s phase" % phase)
        try:
            # subprocess.run kills the child on timeout and waits for it
            done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise SystemExit("benchmark: %s phase timed out" % phase)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit("benchmark: %s phase exited with %d"
                             % (phase, done.returncode))
        return json.loads(done.stdout.strip().splitlines()[-1])


def metric_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def end_to_end(report, probes):
    latencies = report["latencies_s"]
    setups = [p["setup_s"] for p in probes] + [report["setup_s"]]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": report["wall_s"],
        "latency_p50_ms": 1e3 * percentile(latencies, 50),
        "latency_p99_ms": 1e3 * percentile(latencies, LATENCY_TAIL),
        "peak_rss_mb": report["peak_rss_mb"],
    }, {
        "raw_wall_s": report["raw_wall_s"],
        "raw_setup_samples_s": [p["raw_setup_s"] for p in probes] + [report["raw_setup_s"]],
        "probe_share": report["probe_share"],
        "setup_samples_s": setups,
        "latency_samples": len(latencies),
        "latencies_s": latencies,
        "samples_beyond_p99": len(latencies) - math.ceil(LATENCY_TAIL / 100 * len(latencies)),
        "latency_by_kind_ms": by_kind(report["kinds"], latencies),
    }


def by_kind(kinds, latencies):
    """Median and tail latency of each kind of item; the tail is the highest
    of p99, p95 and p90 that has at least ten samples beyond it."""
    groups = {}
    for kind, t in zip(kinds, latencies):
        groups.setdefault(kind, []).append(t)
    out = {}
    for kind, values in sorted(groups.items()):
        out[kind] = {"samples": len(values), "p50": 1e3 * percentile(values, 50)}
        for p in (99, 95, 90):
            if len(values) - math.ceil(p / 100 * len(values)) >= 10:
                out[kind]["p%d" % p] = 1e3 * percentile(values, p)
                break
    return out


def percentile(values, p):
    """Harrell-Davis estimate of the p-th percentile: the mean of the order
    statistics weighted by the Beta((n+1)q, (n+1)(1-q)) density, q = p/100,
    integrated over each order statistic's interval by a 16-point midpoint
    rule.  It is steadier than one order statistic where the tail is sparse."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * p / 100, (n + 1) * (1 - p / 100)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x):
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    steps = 16
    weights = [sum(density((i + (k + 0.5) / steps) / n) for k in range(steps))
               for i in range(n)]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True,
                   help="sets the input size; a run at the seed commit lasts about this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    p.add_argument("--corrupt", action="store_true",
                   help="break the expected values, for the self-test")
    args = p.parse_args()
    # a SIGTERM raises SystemExit, and subprocess.run then kills the
    # running worker and waits for it
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "qwig" / "__init__.py").is_file():
        sys.exit("benchmark: no qwig sources under %s" % (ROOT / "src"))
    e2e_specs, layer_specs = metric_specs()
    OUT.mkdir(exist_ok=True)
    work = Worker(args)
    extra = {}
    if args.trace == 0:
        probes = [work("setup") for _ in range(1 if args.tiny else SETUP_PROBES)]
        report = work("run")
        values, extra = end_to_end(report, probes)
        specs = e2e_specs
        checked = [report]
    else:
        # tracing overhead: the traced run's time for the first third of
        # the items over an untraced run of just those items
        spans = OUT / ("%s-seed%d-spans.jsonl.gz" % (args.workload, args.seed))
        reference = work("run", "--prefix")
        report = work("traced", "--spans", str(spans))
        values = dict(report["layers"],
                      trace_overhead=report["mark_s"] / reference["wall_s"])
        specs = layer_specs
        checked = [reference, report]
        extra = {"spans_file": str(spans.relative_to(ROOT)), "spans": report["spans"]}
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        sys.exit("benchmark: no value for %s" % ", ".join(missing))
    attempted = sum(r["attempted"] for r in checked)
    failed = sum(r["failed"] for r in checked)
    leaks = [w for r in checked for w in r["wrappers_left"]]
    correct = failed == 0 and not leaks
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
    result = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(args.seed),
        "metrics": metrics,
        "error_rate": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "failures": [f for r in checked for f in r["failures"]],
        "checks": sum(r["checks"] for r in checked),
        "degenerate_skips": report["degenerate"],
        "verify_pass": report["verify_pass"],
        "verify_skips": report["verify_skips"],
        "verify_by_signature": report["verify_by_signature"],
        "wrappers_left": leaks,
        **extra,
    }
    name = "%s-seed%d-trace%d%s.json" % (args.workload, args.seed, args.trace,
                                         "-tiny" if args.tiny else "")
    (OUT / name).write_text(json.dumps(result, indent=2) + "\n")
    print(" ".join("%s=%.6g%s" % (k, v["value"], v["unit"]) for k, v in metrics.items())
          + " error_rate=%g (%d/%d)" % (result["error_rate"], failed, attempted))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
