"""Seeded inputs, timed work and correctness gates of the two workloads.

Importing this module imports qwig, so the caller must have put the
checkout's ``src`` directory on ``sys.path`` first.

- ``closed_forms``: one closed loop, one client, over two kinds of item in
  seeded order.  Sweep items are a stratified seeded sample of the Tier-1
  branching list (gl(m|n), m in 1..3, n in 1..2, components in [-2, 3]),
  each given the work of acceptance criteria 01, 03, 04 and 09: small
  polynomials.  Table items are ``qwig wigner`` calls for seeded gl(3|2)
  and gl(4|3) branchings with components in [-8, 8], single-shift tables
  with ``--form both`` and coupled tables: large polynomials.
- ``oracle``: ``qwig verify`` in process, every suite of ``--suite all``
  for gl(2|2), gl(3|1) and gl(1|3), one suite per call, in seeded order.
"""

import contextlib
import io
import itertools
import json
import operator
import random
from time import perf_counter

import qwig
from qwig import DegenerateRoots, NotABranching, QFraction, Signature, Weight
from qwig import branching, cli, exactq, wigner

WORKLOADS = ("closed_forms", "oracle")

# Items per second of --seconds, calibrated so that a closed_forms run at
# the seed commit lasts about --seconds of wall time on a 2-vCPU Intel Xeon
# VM, half of it on each kind.  The oracle set is fixed: the three
# signatures are the whole workload, 35 to 53 s at the seed commit.
BRANCHINGS_PER_SECOND = 16
TABLES_PER_TWO_SECONDS = 14

SWEEP_SIGS = [(m, n) for m in (1, 2, 3) for n in (1, 2)]
ORACLE_SIGS = ((2, 2), (3, 1), (1, 3))
TINY_ORACLE_SIGS = ((1, 1),)
VERIFY_SUITES = ("qybe", "coproduct", "charid", "projectors", "wigner",
                 "coupled", "invariants")
# (signature, coupled): equal shares of the request mix
TABLE_TYPES = (((3, 2), False), ((3, 2), True), ((4, 3), False), ((4, 3), True))
TABLE_RANGE = (-8, 8)
# candidates drawn per request: the candidates are sorted by polynomial size
# and each request is the middle one of its slice, so that every seed gets
# nearly the same spread of small and large tables
TABLE_POOL = 8
# largest table drawn, by _table_size.  The cost of tables of equal size
# differs threefold and grows as the size squared, so without a cap a few of
# the largest would set a seed's wall_s and latency_p99_ms; with it the tail
# is some twenty tables near the cap, and p99 falls among them.
TABLE_MAX_SIZE = 340
SKIP_REASONS = ("DegenerateRoots", "NotRealized", "message", "other")


# -- input generation --------------------------------------------------------


def dominant_weights(m, n, lo=-2, hi=3):
    """All dominant integral weights of gl(m|n) with components in [lo, hi],
    in the order the Tier-1 sweep builds them."""
    sig = Signature(m, n)

    def blocks(size):
        return [
            c
            for c in itertools.product(range(hi, lo - 1, -1), repeat=size)
            if all(a >= b for a, b in zip(c, c[1:]))
        ]

    return [Weight(sig, ev + od) for ev in blocks(m) for od in blocks(n)]


def sweep_inputs(seed, size):
    """One branching from each of `size` equal slices of the Tier-1 list."""
    every = [
        b
        for m, n in SWEEP_SIGS
        for w in dominant_weights(m, n)
        for b in branching.branch_candidates(w)
    ]
    rng = random.Random("sweep:%d" % seed)
    picks = []
    for i in range(size):
        lo = i * len(every) // size
        hi = (i + 1) * len(every) // size
        b = every[rng.randrange(lo, hi)]
        picks.append([b.sig.m, b.sig.n, list(b.lam.comps), list(b.lam0)])
    return picks


def oracle_inputs(seed, tiny):
    sigs = TINY_ORACLE_SIGS if tiny else ORACLE_SIGS
    units = [[m, n, suite] for m, n in sigs for suite in VERIFY_SUITES]
    random.Random("oracle:%d" % seed).shuffle(units)
    return units


def _table_degenerate(side, coupled):
    """Whether the closed forms raise DegenerateRoots on this side; such
    requests are not drawn, since every request must succeed."""
    roots = [side.alpha[k] for k in side.K]
    if len(set(roots)) != len(roots):
        return True
    return coupled and any(
        l != r and side.alpha0[r] == side.beta(l) for r in side.L for l in side.L
    )


def _table_size(side):
    """Sum of the q-number arguments in the table's factors: a predictor of
    the degree of its polynomials, hence of its cost."""
    total = 0
    for k in side.K:
        total += sum(abs(side.F_arg(side.alpha[k], l)) for l in side.L)
        total += sum(abs(side.alpha[k] - side.alpha[l]) for l in side.K if l != k)
    return total


def _draw_table(rng, m, n, coupled):
    lo, hi = TABLE_RANGE
    while True:
        ev = sorted((rng.randint(lo, hi) for _ in range(m)), reverse=True)
        od = sorted((rng.randint(lo, hi) for _ in range(n)), reverse=True)
        lam = Weight(Signature(m, n), tuple(ev + od))
        lam0 = [rng.choice((c - 1, c)) for c in ev]
        lam0 += [rng.randint(od[u + 1], od[u]) for u in range(n - 1)]
        try:
            b = branching.index_sets(lam, lam0)
        except NotABranching:
            continue
        kind = rng.choice(("lower", "raise"))
        side = wigner._Side(b, kind)
        size = _table_size(side)
        if size > TABLE_MAX_SIZE or _table_degenerate(side, coupled):
            continue
        argv = ["wigner", "--weight=%s" % lam,
                "--lower=%s" % ",".join(map(str, lam0)), "--kind", kind]
        argv += ["--coupled"] if coupled else ["--form", "both"]
        return size, argv


def tables_inputs(seed, size):
    rng = random.Random("tables:%d" % seed)
    requests = []
    for t, ((m, n), coupled) in enumerate(TABLE_TYPES):
        count = (size * (t + 1)) // len(TABLE_TYPES) - (size * t) // len(TABLE_TYPES)
        pool = sorted(_draw_table(rng, m, n, coupled) for _ in range(TABLE_POOL * count))
        requests += [pool[i * TABLE_POOL + TABLE_POOL // 2][1] for i in range(count)]
    rng.shuffle(requests)
    return requests


def generate(workload, seed, seconds, tiny=False):
    """The workload's inputs as plain JSON data; equal seeds give equal data."""
    if workload == "oracle":
        return oracle_inputs(seed, tiny)
    n_branchings = 4 if tiny else BRANCHINGS_PER_SECOND * seconds
    n_tables = 4 if tiny else TABLES_PER_TWO_SECONDS * seconds // 2
    items = [["branching"] + b for b in sweep_inputs(seed, n_branchings)]
    items += [["table", argv] for argv in tables_inputs(seed, n_tables)]
    random.Random("closed_forms:%d" % seed).shuffle(items)
    return items


def materialize(workload, inputs):
    if workload == "oracle":
        return inputs
    items = []
    for kind, *args in inputs:
        if kind == "branching":
            m, n, lam, lam0 = args
            args = [branching.index_sets(Weight(Signature(m, n), tuple(lam)), lam0)]
        items.append((kind, args[0]))
    return items


def import_oracle(workload):
    """Import the oracle (and numpy) as part of the set-up of the workloads
    that use it; a traced run (workload None) imports it to wrap it."""
    if workload != "closed_forms":
        import qwig.oracle  # noqa: F401


# -- the timed work ------------------------------------------------------------


class Hooks:
    """The benchmark's own calls into exactq and the CLI.  They are
    attributes so that a traced run can wrap them; an untraced run calls
    them as they are."""

    def __init__(self):
        self.str = str
        self.parse_qfraction = exactq.parse_qfraction
        self.add = operator.add
        self.limit_q1 = QFraction.limit_q1
        self.cli = cli.main


class Expected:
    """Expected values of the gates; corrupt() breaks them on purpose, to
    show that a wrong result fails the run."""

    def __init__(self):
        self.zero = exactq.ZERO
        self.one = exactq.ONE
        self.verify_exit = 0

    def corrupt(self):
        self.zero, self.one, self.verify_exit = exactq.ONE, exactq.ZERO, 1


class Tally:
    def __init__(self):
        self.checks = 0
        self.failures = []
        self.degenerate = 0
        self.passes = 0
        self.skips = dict.fromkeys(SKIP_REASONS, 0)
        self.by_signature = {}  # "gl(m|n)": {"PASS": count, "SKIP": {reason: count}}
        self.json_bytes = 0

    def check(self, ok, what):
        self.checks += 1
        if not ok and len(self.failures) < 5:
            self.failures.append(what)
        return ok


def sweep_item(b, hooks, expected, tally):
    """Criteria 01, 03, 04 and 09 of the Tier-1 suite on one branching.
    DegenerateRoots is a documented skip there and here."""
    W = wigner  # looked up per call, so that a traced run sees its wrappers
    ok = True
    for variant in ("lower", "raise"):
        try:
            residual = W.sum_rule_residual(b, variant)
        except DegenerateRoots:
            tally.degenerate += 1
        else:
            ok &= tally.check(residual == expected.zero, "sum rule %s %s" % (b, variant))
        try:
            residuals = W.linear_system_residuals(b, variant)
        except DegenerateRoots:
            pass
        else:
            for r, value in residuals.items():
                ok &= tally.check(value == expected.zero,
                                  "linear system %s %s r=%d" % (b, variant, r))
        side = W._Side(b, variant)
        for k in side.K:
            try:
                rp = W.omega(b, k, variant, "root_product")
            except DegenerateRoots:
                break
            ok &= tally.check(rp == W.omega(b, k, variant, "qnumber_phase"),
                              "omega forms %s %s k=%d" % (b, variant, k))
        for r in side.L:
            for convention in ("unshifted", "shifted"):
                try:
                    rp = W.mu(b, r, variant, "root_product", convention)
                except DegenerateRoots:
                    continue
                ok &= tally.check(
                    rp == W.mu(b, r, variant, "qnumber_phase", convention),
                    "mu forms %s %s r=%d %s" % (b, variant, r, convention))
        for k in side.K:
            for r in side.L:
                try:
                    rp = W.omega_coupled(b, k, r, variant, "root_product")
                except DegenerateRoots:
                    continue
                ok &= tally.check(
                    rp == W.omega_coupled(b, k, r, variant, "qnumber_phase"),
                    "coupled forms %s %s k=%d r=%d" % (b, variant, k, r))
    for k in W._Side(b, "raise").K:
        try:
            value = W.omega(b, k, "raise")
        except DegenerateRoots:
            break
        ok &= tally.check(
            hooks.limit_q1(value) == W.omega_classical(b, k, "raise"),
            "classical limit %s k=%d" % (b, k))
    return ok


def _call_cli(hooks, argv, tally):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = hooks.cli(argv)
    text = buf.getvalue()
    tally.json_bytes += len(text.encode())
    return code, text


def tables_item(argv, hooks, expected, tally):
    """One table request; the benchmark then parses every printed value
    back, checks that it prints and serialises as the CLI did, and sums
    single-shift tables, which must total one."""
    code, text = _call_cli(hooks, argv, tally)
    what = " ".join(argv)
    if not tally.check(code == 0, "exit %d: %s" % (code, what)):
        return False
    payload = json.loads(text)
    entries = payload["entries"]
    ok = True
    if "entries_qnumber_phase" in payload:
        ok &= tally.check(payload["forms_agree"] is True
                          and payload["entries_qnumber_phase"] == entries,
                          "forms differ: " + what)
    coupled = "--coupled" in argv
    total = exactq.ZERO
    for entry in entries.values():
        x = hooks.parse_qfraction(entry["str"])
        ok &= tally.check(hooks.str(x) == entry["str"] and x.to_json() == entry["value"],
                          "round trip %s: %s" % (entry["str"], what))
        if not coupled:
            total = hooks.add(total, x)
    if not coupled:
        ok &= tally.check(total == expected.one, "sum %s: %s" % (total, what))
    return ok


def skip_reason(detail):
    if detail in ("DegenerateRoots", "NotRealized"):
        return detail
    return "other" if detail.isidentifier() else "message"


def oracle_item(unit, hooks, expected, tally):
    """One verify suite on one signature; returns (cases, failed)."""
    m, n, suite = unit
    argv = ["verify", "--m", str(m), "--n", str(n), "--suite", suite, "--jobs", "1"]
    code, text = _call_cli(hooks, argv, tally)
    payload = json.loads(text)
    cases = payload.get("cases", [])
    failed = 0
    counts = tally.by_signature.setdefault(
        "gl(%d|%d)" % (m, n), {"PASS": 0, "SKIP": dict.fromkeys(SKIP_REASONS, 0)})
    for case in cases:
        if case["status"] == "PASS":
            tally.passes += 1
            counts["PASS"] += 1
        elif case["status"] == "SKIP":
            reason = skip_reason(case["detail"])
            tally.skips[reason] += 1
            counts["SKIP"][reason] += 1
        else:
            tally.check(False, "FAIL %s %s" % (case["case"], case["inputs"]))
            failed += 1
    if not tally.check(code == expected.verify_exit,
                       "verify exit %d: %s" % (code, " ".join(argv))):
        failed = max(failed, 1)
    return max(len(cases), 1), failed


def run_items(workload, items, hooks, expected, tally):
    """Process every item; returns each item's start and end readings of
    ``perf_counter``, and the items attempted and failed.  An item's time
    covers its program calls and the benchmark's checks."""
    times = []
    attempted = failed = 0
    for item in items:
        t = perf_counter()
        try:
            if workload == "oracle":
                n_items, n_failed = oracle_item(item, hooks, expected, tally)
            elif item[0] == "branching":
                n_items, n_failed = 1, int(not sweep_item(item[1], hooks, expected, tally))
            else:
                n_items, n_failed = 1, int(not tables_item(item[1], hooks, expected, tally))
        except Exception as exc:  # an unexpected exception fails the item
            tally.check(False, "%s on %r: %s" % (type(exc).__name__, item, exc))
            n_items, n_failed = 1, 1
        times.append((t, perf_counter()))
        attempted += n_items
        failed += n_failed
    return times, attempted, failed


# -- tracing -------------------------------------------------------------------


def _form_name(base, index, default):
    def name(args, kwargs):
        return "%s.%s" % (base, args[index] if len(args) > index
                          else kwargs.get("form", default))
    return name


def _cli_name(args, kwargs):
    argv = args[0]
    if argv[0] == "verify":
        return "cli.verify." + argv[argv.index("--suite") + 1]
    return "cli." + argv[0]


def _count_value(tracer, x):
    for poly in (x.num, x.den):
        exps = [k for k, _ in poly.items()]
        tracer.add("exactq.terms", len(exps))
        if exps:
            tracer.counts["exactq.max_span"] = max(
                tracer.counts.get("exactq.max_span", 0), max(exps) - min(exps))


def _count_matrix(prefix):
    def after(tracer, A):
        tracer.add(prefix + ".n", A.shape[0])
        tracer.add(prefix + ".nnz", sum(1 for x in A.flat if x))
    return after


def _count_module(tracer, result):
    module = result[0] if isinstance(result, tuple) else result
    tracer.add("oracle.modules.dim", module.dim)


def _count_branchings(tracer, result):
    tracer.add("branching.branchings", len(result))


def instrument(tracer, hooks):
    """Wrap every traced function; the names are the per-layer metric
    prefixes.  All qwig modules must be imported first."""
    import qwig.oracle.checks as checks
    import qwig.oracle.linalg as linalg
    import qwig.oracle.loperators as loperators
    import qwig.oracle.modules as modules
    from qwig import invariants

    value = _count_value
    tracer.patch(wigner, "omega", _form_name("wigner.omega", 3, "root_product"), value)
    tracer.patch(wigner, "omega_coupled",
                 _form_name("wigner.omega_coupled", 4, "qnumber_phase"), value)
    tracer.patch(wigner, "mu", "wigner.mu", value)
    for fn in ("sum_rule_residual", "linear_system_residuals", "omega_classical"):
        tracer.patch(wigner, fn, "wigner." + fn)
    tracer.patch(branching, "branch_candidates", "branching.branch_candidates",
                 _count_branchings)
    tracer.patch(invariants, "chi_C1", "invariants.chi_C1")
    tracer.patch(modules, "tensor_module", "oracle.modules.tensor_module", _count_module)
    tracer.patch(modules, "submodule", "oracle.modules.submodule", _count_module)
    tracer.patch(modules, "highest_weight_vectors",
                 "oracle.modules.highest_weight_vectors")
    tracer.patch(loperators, "char_matrix", "oracle.loperators.char_matrix",
                 _count_matrix("oracle.loperators.char_matrix"))
    tracer.patch(loperators, "projector", "oracle.loperators.projector",
                 _count_matrix("oracle.loperators.projector"))
    tracer.patch(linalg, "matmul", "oracle.linalg.matmul")
    for fn in ("qybe_check", "coproduct_check", "char_identity_check",
               "supertrace_invariant"):
        tracer.patch(checks, fn, "oracle.checks." + fn)
    for fn in ("wigner_oracle", "coupled_oracle"):
        tracer.patch(checks, fn, "oracle.checks." + fn, value)
    tracer.replace(hooks, "str", "exactq.str")
    tracer.replace(hooks, "parse_qfraction", "exactq.parse_qfraction")
    tracer.replace(hooks, "add", "exactq.add")
    tracer.replace(hooks, "limit_q1", "exactq.limit_q1")
    tracer.replace(hooks, "cli", _cli_name)


TIMED_SPANS = (
    ["exactq.%s" % f for f in ("str", "parse_qfraction", "add", "limit_q1")]
    + ["wigner.omega.root_product", "wigner.omega.qnumber_phase", "wigner.mu",
       "wigner.omega_coupled.root_product", "wigner.omega_coupled.qnumber_phase",
       "wigner.sum_rule_residual", "wigner.linear_system_residuals",
       "wigner.omega_classical", "branching.branch_candidates",
       "invariants.chi_C1", "oracle.modules.tensor_module",
       "oracle.modules.highest_weight_vectors", "oracle.modules.submodule",
       "oracle.loperators.char_matrix", "oracle.loperators.projector",
       "oracle.linalg.matmul"]
    + ["oracle.checks." + f for f in (
        "qybe_check", "coproduct_check", "char_identity_check",
        "wigner_oracle", "coupled_oracle", "supertrace_invariant")]
    + ["cli.verify." + s for s in VERIFY_SUITES] + ["cli.wigner"]
)
CALL_COUNTS = [s for s in TIMED_SPANS if s.startswith("wigner.")] + [
    "oracle.loperators.char_matrix", "oracle.linalg.matmul"]
COUNTERS = ("exactq.terms", "exactq.max_span", "branching.branchings",
            "oracle.modules.dim", "oracle.loperators.char_matrix.n",
            "oracle.loperators.char_matrix.nnz", "oracle.loperators.projector.nnz")


def layer_metrics(tracer, tally, elapsed):
    """Per-layer metrics: self seconds and calls per span, exact counts.
    elapsed(t0, t1) turns two span readings into seconds."""
    self_s = tracer.self_times(elapsed)
    out = {name + ".s": self_s.get(name, 0.0) for name in TIMED_SPANS}
    out.update({name + ".calls": tracer.calls.get(name, 0) for name in CALL_COUNTS})
    out.update({name: tracer.counts.get(name, 0) for name in COUNTERS})
    top = tracer.counts.get("wigner.top_calls", 0)
    out["wigner.degenerate_ratio"] = (
        tracer.counts.get("wigner.top_degenerate", 0) / top if top else 0.0)
    out["oracle.checks.pass"] = tally.passes
    out.update({"oracle.checks.skip." + r: c for r, c in tally.skips.items()})
    out["cli.json_bytes"] = tally.json_bytes
    return out

