"""Compare two checkouts' benchmark results, seed by seed.

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --run closed_forms:301-310 --run oracle:311-318 --label mychange \
        [--bench]

With ``--bench`` it first runs ``perfbench/run.py --trace 0`` in both
checkouts for every seed of every ``--run``, for the ``run_seconds`` of the
parent's ``BENCHMARK.json``: the parent first on even seeds and the change
first on odd ones.  A run that exits non-zero stops it with that run's
standard error.  Then, as without it, for each ``--run WORKLOAD:SEEDS`` it
reads
``<checkout>/.bench_out/<workload>-seed<n>-trace0.json`` from both
checkouts, as ``perfbench/run.py --trace 0`` leaves them, and pairs the two
results of each seed.  It prints, per metric, each side's median and
quartiles, the change of the median in percent and the number of pairs in
which the change reads lower.  Against each metric's bound and better
direction in the parent's ``BENCHMARK.json`` it marks a metric
"claim met" when the change reads strictly better in at least 9/10 of
the pairs and its median beats the parent's by more than the parent's
quartile spread; "regressed" when the change's median is worse than the
parent's by more than the bound; and "unresolved" when the parent's
quartile spread, over the parent's median, exceeds the bound, unless every
change run reads better than every parent run: its spread is then too
wide to tell a move within the bound from noise.  For each kind of item
(table, branching, verify) it prints each side's median over the runs of
the kind's p50 and tail latency, from the results' ``latency_by_kind_ms``,
so that a move of a whole-run percentile shows which kind moved.  It also
prints the lines of ``*.py`` files added and removed under ``src/``,
``tests/``, ``tools/`` and ``demos/`` between the two checkouts, by
``git diff --no-index --numstat``.  It writes
``BENCH_<label>.json``, in the current directory, with the same numbers,
both git shas and the machine record.  Without ``--bench`` it runs no
benchmark: run it on both checkouts first, alternating which goes first.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

NET_DIRS = ("src", "tests", "tools", "demos")
FLAGS = ("claim_met", "regressed", "unresolved")


def parse_seeds(text):
    """The seeds of "1,3,5-8": single seeds and inclusive ranges, each seed
    once.  A reversed range, which would read as no seeds, and a repeated
    seed, which would count one pair twice, raise ArgumentTypeError."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        lo, hi = int(lo), int(hi or lo)
        if hi < lo:
            raise argparse.ArgumentTypeError("reversed seed range %r" % part)
        seeds += range(lo, hi + 1)
    if len(set(seeds)) != len(seeds):
        raise argparse.ArgumentTypeError("repeated seed in %r" % text)
    return seeds


def parse_run(text):
    workload, sep, seeds = text.partition(":")
    if not sep or not workload:
        raise argparse.ArgumentTypeError("expected WORKLOAD:SEEDS, got %r" % text)
    try:
        return workload, parse_seeds(seeds)
    except ValueError:
        raise argparse.ArgumentTypeError("bad seed list in %r" % text) from None


def load(checkout, workload, seed):
    path = Path(checkout) / ".bench_out" / ("%s-seed%d-trace0.json" % (workload, seed))
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        sys.exit("bench_pairs: cannot read %s: %s" % (path, exc.strerror))


def summary(values):
    """Median and inclusive quartiles of the values."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def one(results, key, what):
    """The single value of key over a side's results; exit if they differ."""
    values = {json.dumps(r["machine"][key], sort_keys=True) for r in results}
    if len(values) != 1:
        sys.exit("bench_pairs: the %s results differ in %s" % (what, key))
    return results[0]["machine"][key]


def bounds(checkout):
    """{metric: (bound, better)} of the end-to-end metrics that the
    checkout's BENCHMARK.json bounds; empty when it has no such file."""
    try:
        spec = json.loads((Path(checkout) / "BENCHMARK.json").read_text())
    except FileNotFoundError:
        return {}
    return {m["name"]: (m["bound"], m["better"])
            for m in spec.get("end_to_end", []) if "bound" in m}


def flags(p, c, ps, cs, bound, better):
    """The verdicts on one metric, from the parent's and the change's runs
    p and c (paired by seed), their summaries ps and cs, and the metric's
    bound and better direction in the parent's BENCHMARK.json:

    unresolved: the parent's quartile spread, over its median, exceeds the
        bound, and some change run reads no better than every parent run;
    claim_met: the change reads strictly better in at least 9/10 of the
        pairs, ties counting for neither, and its median is better than the
        parent's by more than the parent's quartile spread;
    regressed: the change's median is worse than the parent's by more than
        bound times the parent's median.
    """
    sign = 1 if better == "lower" else -1
    spread = ps["q3"] - ps["q1"]
    wins = sum(sign * b < sign * a for a, b in zip(p, c))
    return {
        "unresolved": max(sign * x for x in c) >= min(sign * x for x in p)
        and (not ps["median"] or spread / abs(ps["median"]) > bound),
        "claim_met": 10 * wins >= 9 * len(p)
        and sign * (ps["median"] - cs["median"]) > spread,
        "regressed": sign * (cs["median"] - ps["median"]) > bound * abs(ps["median"]),
    }


def compare(parent, change, limits):
    """Per metric: each side's summary, the change of the median in
    percent, the pairs in which the change reads lower, and the flags()
    under limits, the bounds() of the parent; a metric without a bound has
    every flag False."""
    out = {}
    for name, spec in parent[0]["metrics"].items():
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        ps, cs = summary(p), summary(c)
        out[name] = {
            "unit": spec["unit"],
            "parent": ps,
            "change": cs,
            "change_pct": 100 * (cs["median"] - ps["median"]) / ps["median"]
            if ps["median"] else None,
            "lower_in": sum(b < a for a, b in zip(p, c)),
            "pairs": len(p),
        }
        out[name].update(flags(p, c, ps, cs, *limits[name]) if name in limits
                         else dict.fromkeys(FLAGS, False))
    return out


def kind_latencies(results):
    """{kind: {stat: median}}: over the results, the median of each kind's
    latencies in their latency_by_kind_ms, its p50 and its tail (the p99,
    p95 or p90 that perfbench/run.py kept); empty when they record none."""
    values = {}
    for r in results:
        for kind, stats in r.get("latency_by_kind_ms", {}).items():
            for stat, v in stats.items():
                if stat != "samples":
                    values.setdefault(kind, {}).setdefault(stat, []).append(v)
    return {kind: {stat: statistics.median(v) for stat, v in sorted(stats.items())}
            for kind, stats in sorted(values.items())}


def run_benchmarks(parent, change, runs):
    """Run perfbench/run.py --trace 0 in the parent's and the change's
    checkouts for each seed of each (workload, seeds) of runs, with the
    parent's run_seconds; the parent goes first on even seeds.  Exit with
    the run's standard error if one exits non-zero."""
    seconds = json.loads((Path(parent) / "BENCHMARK.json").read_text())["run_seconds"]
    for workload, seeds in runs:
        for seed in seeds:
            order = (parent, change) if seed % 2 == 0 else (change, parent)
            for checkout in order:
                done = subprocess.run(
                    [sys.executable, str(Path(checkout) / "perfbench" / "run.py"),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"],
                    cwd=checkout, capture_output=True, text=True)
                if done.returncode:
                    sys.exit("bench_pairs: %s seed %d in %s exited with %d:\n%s"
                             % (workload, seed, checkout, done.returncode,
                                done.stderr))
            print("ran %s seed %d, %s first" % (
                workload, seed, "change" if seed % 2 else "parent"))


def net_lines(parent, change):
    """{dir: {"added", "removed", "net"}}: the lines of *.py files added
    and removed under each of NET_DIRS from the parent's checkout to the
    change's.  A directory missing from a checkout counts as empty."""
    out = {}
    with tempfile.TemporaryDirectory() as empty:
        for name in NET_DIRS:
            a, b = (Path(c) / name for c in (parent, change))
            done = subprocess.run(
                ["git", "diff", "--no-index", "--no-renames", "--numstat",
                 str(a if a.is_dir() else empty), str(b if b.is_dir() else empty)],
                capture_output=True, text=True)
            if done.returncode > 1:
                sys.exit("bench_pairs: git diff failed: %s" % done.stderr.strip())
            added = removed = 0
            for line in done.stdout.splitlines():
                # the path reads "{old => new}/x.py", "{dev/null => new/x.py}"
                # or "old/x.py => /dev/null"; binary files count "-"
                plus, minus, path = line.split("\t", 2)
                if plus != "-" and any(p.rstrip("}").endswith(".py")
                                       for p in path.split(" => ")):
                    added += int(plus)
                    removed += int(minus)
            out[name] = {"added": added, "removed": removed,
                         "net": added - removed}
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="the parent's checkout")
    p.add_argument("--change", required=True, help="the change's checkout")
    p.add_argument("--run", type=parse_run, action="append", required=True,
                   metavar="WORKLOAD:SEEDS")
    p.add_argument("--label", required=True, help="names BENCH_<label>.json")
    p.add_argument("--bench", action="store_true",
                   help="run the benchmark in both checkouts first")
    args = p.parse_args(argv)
    if args.bench:
        run_benchmarks(args.parent, args.change, args.run)
    record = {"label": args.label, "workloads": {}}
    sides = {"parent": [], "change": []}
    limits = bounds(args.parent)
    for workload, seeds in args.run:
        parent = [load(args.parent, workload, s) for s in seeds]
        change = [load(args.change, workload, s) for s in seeds]
        sides["parent"] += parent
        sides["change"] += change
        metrics = compare(parent, change, limits)
        kinds = {"parent": kind_latencies(parent), "change": kind_latencies(change)}
        record["workloads"][workload] = {
            "seeds": seeds,
            "failed": {"parent": sum(r["failed"] for r in parent),
                       "change": sum(r["failed"] for r in change)},
            "attempted": {"parent": sum(r["attempted"] for r in parent),
                          "change": sum(r["attempted"] for r in change)},
            "metrics": metrics,
            "latency_by_kind_ms": kinds,
        }
        print("%s, %d pairs, seeds %s" % (workload, len(seeds),
                                         ",".join(map(str, seeds))))
        for name, m in metrics.items():
            ps, cs = m["parent"], m["change"]
            pct = "n/a" if m["change_pct"] is None else "%+.1f%%" % m["change_pct"]
            print("  %-16s %.4g [%.4g, %.4g] -> %.4g [%.4g, %.4g] %s  %s, lower in %d/%d%s"
                  % (name, ps["median"], ps["q1"], ps["q3"], cs["median"],
                     cs["q1"], cs["q3"], m["unit"], pct, m["lower_in"], m["pairs"],
                     "".join(", " + f.replace("_", " ") for f in FLAGS if m[f])))
        for kind, stats in kinds["parent"].items():
            change_stats = kinds["change"].get(kind, {})
            print("  %s latency, median of runs: %s" % (kind, ", ".join(
                "%s %.4g -> %s ms" % (stat, v, "%.4g" % change_stats[stat]
                                     if stat in change_stats else "n/a")
                for stat, v in stats.items())))
    record["net_lines"] = net_lines(args.parent, args.change)
    print("net lines: " + ", ".join(
        "%s %+d (+%d/-%d)" % (name, n["net"], n["added"], n["removed"])
        for name, n in record["net_lines"].items()))
    record["git_sha"] = {side: one(results, "git_sha", side)
                         for side, results in sides.items()}
    record["machine"] = {key: one(sides["parent"] + sides["change"], key, "two sides'")
                         for key in sides["parent"][0]["machine"]
                         if key not in ("git_sha", "seed")}
    path = Path("BENCH_%s.json" % args.label)
    path.write_text(json.dumps(record, indent=2) + "\n")
    print("wrote %s" % path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
