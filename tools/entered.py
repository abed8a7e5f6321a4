"""List the functions under src/qwig that no non-test caller enters.

    python3 tools/entered.py
    python3 tools/entered.py roots --weight '1,0|0'

With no arguments it runs, in this one process, the callers outside the
tests: ``qwig verify --suite all`` on the six signatures of rank 2 to 4
with m, n <= 3, the ``roots``, ``branch``, ``invariants`` and ``wigner``
commands (``--form both``, ``--coupled`` and a CSV table), the three demos,
and both benchmark workloads at seed 1, each as ``perfbench/run.py
--trace 1`` runs it: traced, which makes every call the timed run makes
and those of the hooks that read what the program returns.  With
arguments it runs just the one qwig command they give.  The qwig package
is imported from the checkout's ``src`` after the profiler is set
(``sys.setprofile``), so a function called only at import counts as
entered.  Every ``def`` of ``src/qwig`` that no call entered is printed,
one per line, as ``module.qualname lines``, and a total goes to stderr.
Output of the commands run is discarded.
"""

import contextlib
import io
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SIGNATURES = ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3))
COMMANDS = (
    ["roots", "--weight", "2,1|0"],
    ["roots", "--weight", "2,1|0", "--variant", "dual"],
    ["branch", "--weight", "2,1|1,0"],
    ["invariants", "--weight", "2,1|1,0"],
    ["wigner", "--weight", "2,1|1,0", "--lower", "1,1|1", "--kind", "lower",
     "--form", "both"],
    ["wigner", "--weight", "2,1|1,0", "--lower", "1,1|1", "--kind", "raise",
     "--coupled"],
)


def defined_functions():
    """{(file, first line, qualname): lines} of every def under src/qwig,
    from the code objects that compiling each file gives: comprehensions,
    lambdas and class bodies left out."""
    found = {}
    for path in sorted((SRC / "qwig").rglob("*.py")):
        text = path.read_text()
        todo = [compile(text, str(path), "exec")]
        while todo:
            code = todo.pop()
            todo += [c for c in code.co_consts if hasattr(c, "co_code")]
            if code.co_name.startswith("<") or not code.co_flags & 1:
                continue  # not a def: CO_OPTIMIZED marks function bodies
            lines = {line for _, _, line in code.co_lines() if line}
            found[str(path), code.co_firstlineno, code.co_qualname] = (
                max(lines) - code.co_firstlineno + 1)
    return found


def run_callers(argv):
    """Run the one qwig command argv, or the whole caller set when argv is
    empty, with stdout discarded."""
    from qwig import cli

    with contextlib.redirect_stdout(io.StringIO()):
        if argv:
            cli.main(argv)
            return
        for m, n in SIGNATURES:
            cli.main(["verify", "--m", str(m), "--n", str(n), "--suite", "all"])
        for command in COMMANDS:
            cli.main(command)
        with tempfile.TemporaryDirectory() as tmp:
            cli.main(list(COMMANDS[-2]) + ["--out", str(Path(tmp) / "t.csv")])
        for demo in sorted((ROOT / "demos").glob("*.py")):
            runpy.run_path(str(demo), run_name="__main__")
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads as wl
    from spans import Tracer

    wl.import_oracle(None)
    for workload in ("closed_forms", "oracle"):
        hooks, tracer = wl.Hooks(), Tracer()
        wl.instrument(tracer, hooks)
        items = wl.materialize(workload, wl.generate(workload, 1, 50))
        wl.run_items(workload, items, hooks, wl.Expected(), wl.Tally())
        tracer.restore()


def main(argv):
    entered = {}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered[id(code)] = code  # kept, so that no id is reused

    sys.path.insert(0, str(SRC))
    sys.setprofile(profile)
    try:
        run_callers(argv)
    finally:
        sys.setprofile(None)
    seen = {(c.co_filename, c.co_firstlineno, c.co_qualname)
            for c in entered.values()}
    never = {key: n for key, n in defined_functions().items() if key not in seen}
    for (path, _, qualname), n in sorted(never.items()):
        module = Path(path).relative_to(SRC).with_suffix("").as_posix()
        print("%s.%s %d" % (module.replace("/", ".").removesuffix(".__init__"),
                            qualname, n))
    print("%d functions, %d lines, never entered" % (
        len(never), sum(never.values())), file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
