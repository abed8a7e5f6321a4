"""One fresh benchmark process: set up a workload, optionally run it, and
print a JSON report as the last line of standard output.

run.py starts this script; it is not meant to be run by hand.  Set-up time
runs from before ``import qwig`` to the end of input generation, so it
covers the import, the inputs and what the program builds for them.  Every
time in the report is in reference seconds (refclock.py) unless its key
starts with ``raw_``.
"""

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

from refclock import RefClock


def main():
    start = perf_counter()
    clock = RefClock()
    clock.start()
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--phase", choices=("setup", "run", "traced"), required=True)
    p.add_argument("--prefix", action="store_true",
                   help="process only the first third of the items")
    p.add_argument("--spans", help="where a traced run writes its spans")
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--corrupt", action="store_true")
    args = p.parse_args()

    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import workloads as wl
    from spans import Tracer, find_wrappers

    if not Path(wl.qwig.__file__).resolve().is_relative_to(root / "src"):
        sys.exit("qwig was imported from %s, not from the checkout" % wl.qwig.__file__)

    traced = args.phase == "traced"
    wl.import_oracle(None if traced else args.workload)
    hooks = wl.Hooks()
    tracer = None
    if traced:
        tracer = Tracer()
        wl.instrument(tracer, hooks)
    inputs = wl.generate(args.workload, args.seed, args.seconds, args.tiny)
    items = wl.materialize(args.workload, inputs)
    third = -(-len(items) // 3)
    if args.prefix:
        items = items[:third]
    setup_end = perf_counter()
    if args.phase == "setup":
        clock.stop()
        print(json.dumps({"setup_s": clock.elapsed(start, setup_end),
                          "raw_setup_s": setup_end - start}))
        return

    expected = wl.Expected()
    if args.corrupt:
        expected.corrupt()
    tally = wl.Tally()
    times, attempted, failed = wl.run_items(args.workload, items, hooks, expected, tally)
    clock.stop()
    t0, t1 = times[0][0], times[-1][1]
    report = {
        "setup_s": clock.elapsed(start, setup_end),
        "wall_s": clock.elapsed(t0, t1),
        "latencies_s": [clock.elapsed(a, b) for a, b in times],
        "kinds": ["verify" if args.workload == "oracle" else item[0] for item in items],
        "mark_s": clock.elapsed(t0, times[min(third, len(times)) - 1][1]),
        "raw_setup_s": setup_end - start,
        "raw_wall_s": t1 - t0,
        "probe_share": clock.probe_time(t0, t1) / (t1 - t0),
        "attempted": attempted,
        "failed": failed,
        "checks": tally.checks,
        "failures": tally.failures,
        "degenerate": tally.degenerate,
        "verify_pass": tally.passes,
        "verify_skips": tally.skips,
        "verify_by_signature": tally.by_signature,
        "json_bytes": tally.json_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if traced:
        tracer.restore()
        report["layers"] = wl.layer_metrics(tracer, tally, clock.elapsed)
        report["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write_spans(args.spans)
    # the untraced path must not have touched a span
    report["wrappers_left"] = find_wrappers(hooks)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
