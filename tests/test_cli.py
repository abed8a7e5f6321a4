"""Command-line interface: output shapes, determinism, exit codes."""

import errno
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwig import (
    NotScalar,
    Signature,
    Weight,
    index_sets,
    parse_qfraction,
    sum_rule_residual,
)
import qwig
from qwig.cli import (
    LABEL_MAX,
    MODULE_STORE_SIZE,
    VERIFY_D_MAX,
    _dump_json,
    _modules,
    build_parser,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_roots_example(capsys):
    code, obj = run_json(capsys, "roots", "--weight", "1,0|0",
                         "--variant", "adjoint")
    assert code == 0
    assert obj["classical"] == [1, -1, -2]
    assert obj["generic"] is True
    assert len(obj["deformed"]) == 3
    for item in obj["deformed"]:
        parse_qfraction(item["str"])


def test_branch_output(capsys):
    code, obj = run_json(capsys, "branch", "--weight", "1,0|0")
    assert code == 0
    lowers = [c["lower"] for c in obj["candidates"]]
    assert lowers == [[0, -1], [0, 0], [1, -1], [1, 0]]
    c = obj["candidates"][1]
    assert c["I0"] == [1] and c["I0bar"] == [2]
    assert c["e_last"] == 1
    assert c["lower_indices"] == [1, 3]


def test_wigner_example(capsys):
    code, obj = run_json(capsys, "wigner", "--weight", "1,0|0",
                         "--lower", "0,0", "--kind", "lower", "--form", "both")
    assert code == 0
    assert obj["entries"]["1"]["str"] == "-q^-2"
    assert obj["entries"]["2"]["str"] == "0"
    assert obj["entries"]["3"]["str"] == "q^-2 + 1"
    assert obj["sum"] == "1"
    assert obj["sum_rule_residual"] == "0"
    assert obj["forms_agree"] is True
    for item in obj["entries"].values():
        parse_qfraction(item["str"])


def test_wigner_both_forms_print_their_own_values(capsys, monkeypatch):
    # the first form's text stands for the second only when they agree: a
    # second form that differs in one entry prints that entry as its own
    real = qwig.cli.omega_table

    def differing(b, kind, form):
        table = real(b, kind, form)
        if form == "qnumber_phase":
            table.entries[3] = table.entries[3] + 1
        return table

    argv = ("wigner", "--weight", "1,0|0", "--lower", "0,0", "--kind", "lower",
            "--form", "both")
    _, agreeing = run_json(capsys, *argv)
    monkeypatch.setattr(qwig.cli, "omega_table", differing)
    code, obj = run_json(capsys, *argv)
    assert code == 0 and obj["forms_agree"] is False
    assert obj["entries"] == agreeing["entries"] == agreeing["entries_qnumber_phase"]
    second = obj["entries_qnumber_phase"]
    assert {k: second[k] for k in ("1", "2")} == {
        k: obj["entries"][k] for k in ("1", "2")}
    assert second["3"]["str"] == "q^-2 + 2"
    assert second["3"] == parse_qfraction("q^-2 + 2").json_entry()


def test_wigner_coupled(capsys):
    code, obj = run_json(capsys, "wigner", "--weight", "1,0|0",
                         "--lower", "1,0", "--kind", "raise", "--coupled")
    assert code == 0
    assert obj["entries"]["1,1"]["str"] == "1"


def test_invariants_output(capsys):
    code, obj = run_json(capsys, "invariants", "--weight", "1|0")
    assert code == 0
    assert obj["typical"] is True
    assert obj["v"]["str"] == "1"
    assert obj["v_tilde"]["str"] == "1"
    assert obj["C1"]["str"] == "1"
    assert "C1_tilde" not in obj


@pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1),
                                  (1, 3)])
def test_verify_invariants_has_no_skip(capsys, m, n):
    # C1 and C1_tilde both meet chi_C1 on every module, typical or not
    code, obj = run_json(capsys, "verify", "--m", str(m), "--n", str(n),
                         "--suite", "invariants")
    assert code == 0
    assert obj["counts"]["FAIL"] == obj["counts"]["SKIP"] == 0
    assert {c["case"] for c in obj["cases"]} == {
        "invariants/C1", "invariants/C1_tilde"}


def test_verify_qybe(capsys):
    code, obj = run_json(capsys, "verify", "--m", "1", "--n", "1",
                         "--suite", "qybe")
    assert code == 0
    assert obj["all_pass"] is True
    assert obj["counts"]["FAIL"] == 0
    assert obj["cases"][0]["status"] == "PASS"


def test_determinism(capsys):
    argvs = [
        ("roots", "--weight", "2,1|0", "--variant", "dual"),
        ("wigner", "--weight", "1,0|0", "--lower", "0,0",
         "--kind", "raise", "--form", "both"),
        ("invariants", "--weight", "1,0|0"),
        ("verify", "--m", "1", "--n", "1", "--suite", "coproduct"),
    ]
    for argv in argvs:
        _, first = run(capsys, *argv)
        _, second = run(capsys, *argv)
        assert first == second


def test_computation_error_object(capsys):
    code, obj = run_json(capsys, "wigner", "--weight", "1,0|0",
                         "--lower", "1,1", "--kind", "lower")
    assert code == 1
    assert obj["error"]["type"] == "NotABranching"
    assert obj["error"]["message"]


def test_weight_parse_errors(tmp_path, capsys):
    # every input error names its own type, none the base QwigError
    code, obj = run_json(capsys, "roots", "--weight", "1,0")
    assert code == 1 and obj["error"]["type"] == "InvalidArgument"
    code, obj = run_json(capsys, "roots", "--weight", "1,0|0", "--m", "3")
    assert code == 1 and "conflicts" in obj["error"]["message"]
    assert obj["error"]["type"] == "InvalidArgument"
    code, obj = run_json(capsys, "wigner", "--weight", "1,0|0",
                         "--lower", "0", "--kind", "lower")
    assert code == 1 and obj["error"]["type"] == "InvalidArgument"
    # a label is ASCII digits with an optional sign: int() alone would read
    # '1_0' as 10 and the Arabic-Indic digit one as 1
    for weight in ("1_0|0", "\u0661,0|0"):
        code, obj = run_json(capsys, "roots", "--weight", weight)
        assert code == 1 and obj["error"]["type"] == "NonIntegralWeight"
    # lower weights read their blocks as upper weights do: an empty item is
    # an error, and with a '|' each block holds its own number of labels
    for lower in ("0,x", "0,0.5", "1,,0", "1,0,", ",1,0", "1|0|", "0_0,0",
                  "\u0660,0"):
        code, obj = run_json(capsys, "wigner", "--weight", "1,0|0",
                             "--lower", lower, "--kind", "lower")
        assert code == 1 and obj["error"]["type"] == "NonIntegralWeight"
    for lower in ("1|0", "|1,0", "1,0|0"):
        code, obj = run_json(capsys, "wigner", "--weight", "1,0|0",
                             "--lower", lower, "--kind", "lower")
        assert code == 1 and obj["error"]["type"] == "InvalidArgument"
    for weight, plain, blocks in (("1,0|0", "1,0", "1,0|"),
                                  ("1,0|0,0", "1,0,0", "1,0|0")):
        outs = [run(capsys, "wigner", "--weight", weight, "--lower", lower,
                    "--kind", "lower") for lower in (plain, blocks)]
        assert outs[0] == outs[1] and outs[0][0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["roots", "--weight", "1,0|0", "--out",
              str(tmp_path / "roots.csv")])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ("verify", "--m", "0", "--n", "1"),
    ("roots", "--weight", "|1"),
    ("invariants", "--weight", "1,0|"),
])
def test_empty_signature_block_is_a_typed_error(capsys, argv):
    code, obj = run_json(capsys, *argv)
    assert code == 1 and obj["error"]["type"] == "InvalidArgument"


@pytest.mark.parametrize("argv", [
    ("invariants", "--weight", "%d|0" % (LABEL_MAX + 1)),
    ("roots", "--weight", "0,%d|0" % -(LABEL_MAX + 1)),
    ("branch", "--weight", "1|%d" % (LABEL_MAX + 1)),
    ("wigner", "--weight", "%d,0|0" % (LABEL_MAX + 1), "--lower", "0,0",
     "--kind", "lower"),
    ("verify", "--m", "%d" % (VERIFY_D_MAX - 1), "--n", "2"),
])
def test_inputs_past_the_cli_bounds_are_refused(capsys, monkeypatch, argv):
    # refused before any work: each command's first computation would
    # escape main with an error that is no QwigError
    def never(*args):
        raise AssertionError("work done past a bound")

    for name in ("RootSet", "branch_candidates", "BranchingData", "chi_v",
                 "chi_C1"):
        monkeypatch.setattr(qwig.cli, name, never)
    monkeypatch.setattr(qwig.cli, "_SUITE_FN",
                        dict.fromkeys(qwig.cli._SUITE_FN, never))
    code, obj = run_json(capsys, *argv)
    assert code == 1 and obj["error"]["type"] == "InvalidArgument"
    assert str(LABEL_MAX if argv[0] != "verify" else VERIFY_D_MAX) in (
        obj["error"]["message"])


@pytest.mark.parametrize("weight", ["0,1|0", "0|0,1"])
@pytest.mark.parametrize("argv", [
    ("roots",), ("invariants",), ("branch",),
    ("wigner", "--lower", "0,0", "--kind", "lower"),
])
def test_non_dominant_weight_is_rejected(capsys, argv, weight):
    code, obj = run_json(capsys, *argv, "--weight", weight)
    assert code == 1
    assert obj == {"error": {"type": "InvalidArgument",
                             "message": "weight %s is not dominant" % weight}}


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["wigner", "--weight", "1,0|0"])  # missing required flags
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["unknown-command"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_csv_output(tmp_path, capsys):
    path = tmp_path / "table.csv"
    code = main(["wigner", "--weight", "1,0|0", "--lower", "0,0",
                 "--kind", "lower", "--out", str(path)])
    capsys.readouterr()
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "k,r,value_string,value_json"
    assert lines[1].startswith("1,,-q^-2,")
    # the JSON cell holds the same exact value as the string cell
    import csv as _csv

    with open(path) as fh:
        rows = list(_csv.reader(fh))
    for row in rows[1:]:
        assert json.loads(row[3]) == parse_qfraction(row[2]).to_json()
    # CSV is only defined for tables
    code, obj = run_json(capsys, "roots", "--weight", "1|0")
    assert code == 0


def test_out_json_file(tmp_path, capsys):
    path = tmp_path / "roots.json"
    code = main(["roots", "--weight", "1,0|0", "--out", str(path)])
    capsys.readouterr()
    assert code == 0
    obj = json.loads(path.read_text())
    assert obj["classical"] == [1, -1, -2]


@pytest.mark.parametrize("argv", [
    ("roots", "--weight", "1,0|0"),
    ("wigner", "--weight", "1,0|0", "--lower", "0,0", "--kind", "lower"),
])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, argv):
    # a directory, and a path whose parent is missing: exit 2 with one
    # line on stderr and nothing on stdout, not a traceback
    for path, err in ((tmp_path, errno.EISDIR),
                      (tmp_path / "missing" / "x.json", errno.ENOENT)):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(path)])
        assert exc.value.code == 2
        assert capsys.readouterr() == ("", "qwig: error: cannot write %s: %s\n"
                                       % (path, os.strerror(err)))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ("roots", "--weight", "0,1|0"),
    ("branch", "--weight", "1,0|0"),
    ("invariants", "--weight", "1,0|0"),
    ("verify", "--m", "0", "--n", "1"),
])
def test_csv_out_without_a_table_is_a_usage_error(tmp_path, capsys, argv):
    # refused before any work: the roots weight is not dominant and the
    # verify signature is empty, errors that would otherwise come first
    path = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(path)])
    assert exc.value.code == 2
    assert capsys.readouterr() == (
        "", "qwig: error: CSV output is only available for tables\n")
    assert not path.exists()


def test_verify_jobs_flag(capsys):
    # --jobs is kept for compatibility: --jobs 1 is the default run
    sig = ("--m", "1", "--n", "1")
    code, obj = run_json(capsys, "verify", *sig, "--suite", "invariants",
                         "--jobs", "1")
    assert code == 0
    assert obj["counts"]["FAIL"] == 0
    assert run(capsys, "verify", *sig, "--jobs", "1") == run(capsys, "verify", *sig)


def test_verify_jobs_pool_is_bounded_by_suites(capsys, monkeypatch):
    # every suite runs in this process: no pool is built, and asking for
    # more than one job (or fewer) is a usage error
    sizes = []

    class Recorder:
        """Stands in for the process pool and records its size."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Recorder)
    sig = ("--m", "1", "--n", "1")
    code, obj = run_json(capsys, "verify", *sig, "--jobs", "1")
    assert code == 0 and obj["counts"]["FAIL"] == 0 and sizes == []
    for bad in ("100000", "2", "0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *sig, "--jobs", bad])
        assert exc.value.code == 2
        capsys.readouterr()
    assert sizes == []


def test_cli_import_leaves_process_pool_unloaded():
    # the oracle and concurrent.futures cost import time and RSS; the CLI
    # loads the oracle only when a verify suite runs, and never a pool
    env = dict(os.environ,
               PYTHONPATH=str(Path(qwig.__file__).resolve().parents[1]))
    script = "\n".join([
        "import sys, qwig.cli",
        "loaded = lambda: [m in sys.modules for m in "
        "('qwig.oracle', 'concurrent.futures')]",
        "before = loaded()",
        "code = qwig.cli.main(['verify', '--m', '1', '--n', '1'])",
        "print(before, code, loaded())",
    ])
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, check=True)
    assert done.stdout.splitlines()[-1] == "[False, False] 0 [True, False]"


@pytest.mark.parametrize("target, argv", [
    ("wigner_oracle", ("--m", "2", "--n", "1", "--suite", "wigner")),
    ("supertrace_invariant", ("--m", "1", "--n", "1", "--suite", "invariants")),
])
def test_oracle_error_outside_the_skip_reasons_is_a_fail(capsys, monkeypatch,
                                                         target, argv):
    # a typed error that no skip reason names is a FAIL that names it, not
    # a SKIP and not an aborted run
    def broken(*args):
        raise NotScalar("stand-in")

    monkeypatch.setattr("qwig.oracle.checks." + target, broken)
    code, obj = run_json(capsys, "verify", *argv)
    assert code == 1 and obj["all_pass"] is False
    fails = [c for c in obj["cases"] if c["status"] == "FAIL"]
    assert fails and obj["counts"]["FAIL"] == len(fails)
    assert {c["detail"] for c in fails} == {"NotScalar: stand-in"}
    assert not any("NotScalar" in c["detail"]
                   for c in obj["cases"] if c["status"] == "SKIP")


def _count_builds(monkeypatch):
    """The argument tuples of every realized_modules call from now on."""
    import qwig.oracle.modules as modules

    calls = []
    build = modules.realized_modules

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(modules, "realized_modules", counted)
    return calls


def test_verify_all_builds_modules_once(capsys, monkeypatch):
    # one build serves --suite all and every single-suite call after it
    from qwig.cli import SUITES

    _modules.cache_clear()
    calls = _count_builds(monkeypatch)
    sig = ("--m", "2", "--n", "1", "--jobs", "1")
    code, obj = run_json(capsys, "verify", "--suite", "all", *sig)
    assert code == 0
    cases = []
    for suite in SUITES:
        if suite != "all":
            cases.extend(run_json(capsys, "verify", "--suite", suite, *sig)[1]["cases"])
    assert len(calls) == 1
    assert obj["cases"] == cases


def test_verify_suite_output_is_the_same_from_a_warm_store(capsys):
    from qwig.cli import SUITES

    suites = [s for s in SUITES if s != "all"]
    sig = ("--m", "2", "--n", "1")
    for suite in suites:
        _modules.cache_clear()
        cold = run(capsys, "verify", *sig, "--suite", suite)
        _modules.cache_clear()
        for other in suites:
            if other != suite:
                run(capsys, "verify", *sig, "--suite", other)
        assert run(capsys, "verify", *sig, "--suite", suite) == cold, suite


def test_module_store_is_bounded(capsys, monkeypatch):
    sigs = [(m, d - m) for d in range(2, 6) for m in range(1, d)]
    sigs = sigs[:MODULE_STORE_SIZE + 1]
    assert len(sigs) == MODULE_STORE_SIZE + 1
    _modules.cache_clear()
    calls = _count_builds(monkeypatch)
    first = {}
    for m, n in sigs:
        first[m, n] = run(capsys, "verify", "--m", str(m), "--n", str(n),
                          "--suite", "charid")
    assert len(calls) == len(sigs)
    assert _modules.cache_info().currsize == MODULE_STORE_SIZE
    # the least recently used signature was evicted: it rebuilds, and
    # prints the same bytes
    m, n = sigs[0]
    again = run(capsys, "verify", "--m", str(m), "--n", str(n),
                "--suite", "charid")
    assert calls[-1][0] == Signature(m, n) and len(calls) == len(sigs) + 1
    assert again == first[m, n]
    assert _modules.cache_info().currsize == MODULE_STORE_SIZE


# the wigner and coupled PASSes of --suite all whose closed form is
# nonzero, per signature: a PASS on 0 = 0 decides less, so a change that
# turns nonzero agreements into zeros or SKIPs moves these
NONZERO_PASSES = {(2, 1): {"wigner": 17, "coupled": 8},
                  (1, 2): {"wigner": 16, "coupled": 12}}


@pytest.mark.parametrize("m, n, passes, skips", [
    (2, 1, 75, {"DegenerateRoots": 1, "DegenerateRoots (closed form)": 16,
                "DegenerateRoots (oracle)": 2, "NotRealized (oracle)": 48}),
    (1, 2, 79, {"DegenerateRoots": 2, "DegenerateRoots (closed form)": 24,
                "DegenerateRoots (oracle)": 9, "NotRealized (oracle)": 18}),
])
def test_verify_all_outcome_counts(capsys, m, n, passes, skips):
    # every case verify runs on the two rank-3 signatures, by outcome.  A
    # SKIP's detail is "<Class>: <message>", a wigner or coupled one
    # "<Class> (closed form|oracle): <message>", and "skips" counts them by
    # the part before ": ".  The unsided DegenerateRoots are the projectors
    # SKIPs: charid decides repeated roots.
    code, obj = run_json(capsys, "verify", "--m", str(m), "--n", str(n),
                         "--suite", "all")
    assert code == 0
    assert obj["counts"] == {"PASS": passes, "SKIP": sum(skips.values()),
                             "FAIL": 0}
    assert obj["skips"] == skips
    reasons = {}
    nonzero = {"wigner": 0, "coupled": 0}
    for case in obj["cases"]:
        if case["status"] == "SKIP":
            reason = case["detail"].partition(": ")[0]
            reasons[reason] = reasons.get(reason, 0) + 1
            sided = case["case"] in ("wigner", "coupled")
            assert reason.endswith(("(closed form)", "(oracle)")) == sided
        elif case["case"] in nonzero:
            closed = case["detail"].split()[0]
            assert closed.startswith("closed=")
            nonzero[case["case"]] += closed != "closed=0"
    assert reasons == skips
    assert nonzero == NONZERO_PASSES[m, n]


def test_skip_names_the_side_that_raised(capsys, monkeypatch):
    # the closed form is evaluated first: a case it refuses makes no
    # oracle call, and every other case makes one
    from qwig.oracle import checks

    calls = []
    for name in ("wigner_oracle", "coupled_oracle"):
        def counted(*args, fn=getattr(checks, name)):
            calls.append(args)
            return fn(*args)
        monkeypatch.setattr(checks, name, counted)
    cases = []
    for suite in ("wigner", "coupled"):
        cases += run_json(capsys, "verify", "--m", "2", "--n", "2",
                          "--suite", suite)[1]["cases"]
    closed = [c for c in cases if " (closed form): " in c["detail"]]
    oracle = [c for c in cases if " (oracle): " in c["detail"]]
    assert closed and oracle
    assert len(calls) == len(cases) - len(closed)


def test_verify_forms_no_projector_matrix(capsys, monkeypatch):
    # verify --suite all on gl(2|2): shifted_product runs once per module
    # and kind that charid decides, and projector_parts never runs, so no
    # N_r or subalgebra N0 is formed
    from qwig.oracle.linalg import shifted_product
    from qwig.oracle.loperators import projector_parts

    products = []

    def counted(A, values):
        products.append(id(A))
        return shifted_product(A, values)

    def forbidden(*args):
        raise AssertionError("projector_parts ran")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qwig":
            for key, value in list(vars(module).items()):
                if value is shifted_product:
                    monkeypatch.setattr(module, key, counted)
                elif value is projector_parts:
                    monkeypatch.setattr(module, key, forbidden)
    _modules.cache_clear()
    code, obj = run_json(capsys, "verify", "--m", "2", "--n", "2",
                         "--suite", "all")
    assert code == 0 and obj["counts"]["PASS"] == 61
    decided = [c for c in obj["cases"]
               if c["case"] == "charid" and c["status"] == "PASS"]
    assert len(products) == len(set(products)) == len(decided) == 6


@pytest.mark.parametrize("form", ["root_product", "qnumber_phase", "both"])
@pytest.mark.parametrize("sig, weight, lower, kind", [
    ((2, 1), "1,0|0", "0,0", "lower"),
    ((3, 2), "3,1,0|2,0", "2,1,-1,0", "raise"),
])
def test_wigner_reports_library_sum_rule(capsys, sig, weight, lower, kind, form):
    # the residual printed is that of the printed table, whose form is the
    # first of --form both
    code, obj = run_json(capsys, "wigner", "--weight", weight, "--lower", lower,
                         "--kind", kind, "--form", form)
    assert code == 0
    b = index_sets(Weight.parse(Signature(*sig), weight),
                   [int(x) for x in lower.split(",")])
    primary = "root_product" if form == "both" else form
    assert obj["sum_rule_residual"] == str(sum_rule_residual(b, kind, primary))


def test_parser_built_once_serves_each_call(capsys):
    # each call sees only its own options, whatever ran before it
    calls = [
        ("wigner", "--weight", "1,0|0", "--lower", "0,0", "--kind", "lower",
         "--form", "qnumber_phase"),
        ("wigner", "--weight", "1,0|0", "--lower", "1,0", "--kind", "raise",
         "--coupled"),
        ("roots", "--weight", "1,0|0", "--variant", "dual"),
        ("roots", "--weight", "1,0|0"),
    ]
    alone = {}
    for argv in calls:
        build_parser.cache_clear()
        alone[argv] = run(capsys, *argv)
    build_parser.cache_clear()
    for argv in calls + calls[::-1]:
        assert run(capsys, *argv) == alone[argv]
    assert build_parser.cache_info().misses == 1


# sha256 of `verify --suite all` stdout.  Every printed value, detail and
# count enters the digest, so a change meant to keep results identical
# must keep these; a change that alters the output updates them and says so.
VERIFY_ALL_SHA256 = {
    (1, 1): "9eed28431007f1d76ee82c66a69d2495ec4bc7a5b481d43f0882cbe16dedd7c0",
    (2, 1): "d213102d77bb8c88c05b84cadf1a01113ccaa46e494d5ec0fae7c838650e32e9",
    (1, 2): "17f77ca07b6f36f34e168dbf6fc7f6eec11833083f65fb189f1eb97ad14a5f5d",
    (2, 2): "abdaeab03342110f249171db5875220d02d187c2c0c9779bc4e9702359bc0da7",
    (3, 1): "697141753d8050f2fc8762bf3e2e69adff8d8d3f22a8d2ebfb517ac18f15722c",
    (1, 3): "f2855328c10b5e79f7e024fef393e39eb516e022ac770c3dfd8c58ae718ba159",
}


@pytest.mark.parametrize("m, n", sorted(VERIFY_ALL_SHA256))
def test_verify_all_output_is_pinned(capsys, m, n):
    code, out = run(capsys, "verify", "--m", str(m), "--n", str(n),
                    "--suite", "all")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SHA256[m, n]


# text covers non-ASCII and control characters; the trees hold only the
# types the commands print, and lists of [int, str] pairs, the coefficients
# of exact values
json_scalars = st.one_of(
    st.none(), st.booleans(), st.text(),
    st.integers(), st.integers(min_value=-10 ** 40, max_value=10 ** 40))
json_pairs = st.lists(st.tuples(st.integers(), st.text()).map(list),
                      min_size=1, max_size=3)
json_trees = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(), children, max_size=4),
        json_pairs),
    max_leaves=20)
# one dict object, the value of two keys of one dict, at two depths, and
# in other places where it is written again
SHARED = {"num": [[-3, "-1/2"], [0, "1"]], "den": [[0, "1"]], "str": "x"}


@settings(max_examples=300, deadline=None)
@given(json_trees)
@example({"b": [1, -2, 10 ** 30], "a": {"x": None, "y": True, "z": False}})
@example({"é☃\n\t\x00\x1f\"\\": "é☃\n\t\x00\x1f\"\\", "": [[], {}]})
@example([[[]], [{}], "\ud800"])
@example({"num": [[-3, "-1/2"], [0, "1"], [10 ** 30, "é\n"]], "den": [[0, "1"]]})
@example({"bool": [[True, "x"]], "ints": [[1, 2]], "three": [[1, "x", 3]],
          "mixed": [[1, "x"], [False, "y"]], "str_first": [["x", 1]]})
@example({"a": SHARED, "b": SHARED, "c": [SHARED, {"d": SHARED, "e": SHARED}]})
@example([SHARED, SHARED, [SHARED]])
def test_dump_json_matches_json_dumps(x):
    assert _dump_json(x) == json.dumps(x, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("x", [
    {"a": object()}, [1, {2, 3}], Fraction(1, 2), {(1, 2): 0}, {"a": {b"k": 1}},
])
def test_dump_json_rejects_what_json_rejects(x):
    with pytest.raises(TypeError):
        json.dumps(x, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        _dump_json(x)


@pytest.mark.parametrize("x", [
    1.5, {"a": [0.0]}, (1, 2), {"a": ()}, {3: "x"}, {True: "x"}, {None: "x"},
    {"a": {1: None}},
])
def test_dump_json_rejects_what_no_command_prints(x):
    # json.dumps writes these; no command prints a float, a tuple or a
    # key that is not a str, so the writer has no path for them
    json.dumps(x, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        _dump_json(x)


# sha256 of `qwig wigner` stdout for gl(3|2) and gl(4|3) tables, single
# shift in both forms and coupled, as printed by json.dumps
WIGNER_SHA256 = {
    ("--weight=4,4,-3|8,-7", "--lower=4,3,-4,-3", "--kind", "lower",
     "--form", "both"):
        "04762e151c9e85e3d1f73bfdc203e75ebc623845e377d7269bf3e8805ac66605",
    ("--weight=8,5,-7|4,2", "--lower=8,4,-7,2", "--kind", "lower",
     "--coupled"):
        "900c150e7e797a8d9abfa426c30d8e39972ce35760c27becbe6f6b731e336133",
    ("--weight=4,3,1,-4|5,5,-6", "--lower=3,2,1,-4,5,-4", "--kind", "lower",
     "--form", "both"):
        "e8633699ad7ed01494aa1d54f0f2c76b49437afba1060066c05026bd71df5600",
    ("--weight=4,-2,-3,-6|6,-5,-8", "--lower=3,-2,-3,-7,4,-8", "--kind",
     "raise", "--coupled"):
        "76e39faeedf494b672dfc59aa40277a5a856e6b87b3a5c84eb7da85122dbb0a8",
}


@pytest.mark.parametrize("argv", sorted(WIGNER_SHA256))
def test_wigner_output_is_pinned(capsys, argv):
    code, out = run(capsys, "wigner", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == WIGNER_SHA256[argv]


# exit code and sha256 of the stdout of the other subcommands, and of two
# error objects
OTHER_SHA256 = {
    ("roots", "--weight", "2,1|0", "--variant", "adjoint"): (0,
        "6763afd61b8851ee23e315f7dc14e7ab2bd20b0b63427c6ff6d5c11583271c56"),
    ("roots", "--weight", "2,1|0", "--variant", "dual"): (0,
        "93dbcfa9e88f2ea18ac324800618265ebb50d8d2f6b37c7db483ca9a05f05a0d"),
    ("branch", "--weight", "2,1|1,0"): (0,
        "5f9c6a7d114e6b07b0872295a1760ca8ecc40b286b7a44d0b62742c6d5464b92"),
    ("invariants", "--weight", "2,1|1,0"): (0,
        "5785f51d831c991824fbc9040029e4c9b94caea67f4a0ace36d39b1908eb73e5"),
    ("wigner", "--weight", "1,0|0", "--lower", "1,1", "--kind", "lower"): (1,
        "7b83437aaef9c04c3805a46c8ee0089f94aa5a3b0e8cfa3a6c955f1a200df6be"),
    ("verify", "--m", "0", "--n", "1"): (1,
        "9652115109e3fea36332719585845b5c5d8fa594c6d04a2a46d6aab1bc8b1e02"),
}


@pytest.mark.parametrize("argv", sorted(OTHER_SHA256))
def test_other_output_is_pinned(capsys, argv):
    code, out = run(capsys, *argv)
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest) == OTHER_SHA256[argv]
