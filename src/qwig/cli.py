"""Command-line front end: deterministic JSON/CSV output for the closed
forms and the verification suites.

Exit status: 0 on success (and all verify cases passing), 1 on a
computation error (a machine-readable error object is emitted), 2 on a
usage error.  Output is byte-identical across runs: keys are sorted and
QFraction strings are canonical.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys

from .branching import (BranchingData, _candidate_count, _even_block_dominant,
                        branch_candidates)
from .errors import (
    DegenerateRoots,
    InvalidArgument,
    MultiplicityAmbiguous,
    NonIntegralWeight,
    NotRealized,
    QwigError,
)
from .invariants import chi_C1, chi_v
from .superweight import (Signature, Weight, char_roots, deformed_root,
                          is_typical)
from .wigner import coupled_table, omega_table, sum_rule_residual
from .exactq import ONE

# verify covers the modules inside V^(x)k, k <= K_MAX, of dimension <= DIM_CAP
K_MAX, DIM_CAP = 2, 30
# the commands refuse, before any work, a weight label past LABEL_MAX in
# size and an m + n past D_MAX, and branch a weight with more than
# CANDIDATES_MAX branchings: qnum(x) holds |x| terms, roots prints
# (m + n)^2 coefficients, verify builds (m + n)^3 rows before its first
# check, and branch holds about 5 KB per candidate (60 MB at the bound)
LABEL_MAX, D_MAX, CANDIDATES_MAX = 1000, 10, 10000
# verify keeps the realised modules of this many signatures, about 1 MB each
MODULE_STORE_SIZE = 4


def _parse_blocks(text, what):
    """(even, odd, bar): the two blocks of text, split at its first '|'
    once, as tuples of ints, and the '|' or "" without one.  A block may be
    empty, an item may not: NonIntegralWeight, naming the text as what,
    unless each item, once stripped, is ASCII digits with an optional
    sign.  int() alone would also read '1_0' as 10 and non-ASCII digits as
    their values."""
    even_s, bar, odd_s = text.partition("|")
    blocks = []
    for block in (even_s, odd_s):
        labels = []
        for item in block.split(",") if block else ():
            item = item.strip()
            digits = item[1:] if item[:1] in ("+", "-") else item
            if not (digits.isascii() and digits.isdigit()):
                raise NonIntegralWeight("cannot parse %s %r" % (what, text))
            labels.append(int(item))
        blocks.append(tuple(labels))
    return blocks[0], blocks[1], bar


def _parse_weight(text):
    """The dominant Weight that text such as '1,0|0' names, both blocks
    nonincreasing (_parse_blocks); the blocks' sizes are m and n."""
    even, odd, bar = _parse_blocks(text, "weight")
    if not bar:
        raise InvalidArgument(
            "weight %r needs a '|' separating the blocks" % text)
    lam = Weight(Signature(len(even), len(odd)), even + odd)
    if lam.sig.d > D_MAX:
        raise InvalidArgument(
            "weight %r has m + n past %d" % (text, D_MAX))
    if any(abs(c) > LABEL_MAX for c in lam.comps):
        raise InvalidArgument(
            "weight %r has a label past %d in size" % (text, LABEL_MAX))
    if not (_even_block_dominant(even, lam.sig.m)
            and _even_block_dominant(odd, lam.sig.n)):
        raise InvalidArgument("weight %s is not dominant" % lam)
    return lam


def _parse_lower(text, sig):
    """A lower weight of gl(m|n-1), 'a,b,c' or 'a,b|c', as a tuple of
    m+n-1 ints, its blocks read as _parse_weight reads them
    (_parse_blocks).  With a '|' the blocks hold m and n-1 components."""
    even, odd, bar = _parse_blocks(text, "lower weight")
    if bar and (len(even), len(odd)) != (sig.m, sig.n - 1):
        raise InvalidArgument(
            "lower weight %r needs blocks of %d and %d components for %s"
            % (text, sig.m, sig.n - 1, sig))
    if len(even) + len(odd) != sig.d - 1:
        raise InvalidArgument(
            "lower weight needs %d components for %s" % (sig.d - 1, sig)
        )
    return even + odd


def _dump_json(obj):
    """json.dumps(obj, sort_keys=True, indent=2) + "\n", byte for byte, for
    the types the commands print: dicts with str keys, lists, str, int,
    bool and None.  Anything else raises TypeError.

    With an indent, json.dumps runs its generator-based pure-Python
    encoder; this writer appends the same pieces to one list instead.
    Circular references are not detected.
    """
    out = []
    _write_json(obj, out, "\n")
    out.append("\n")
    return "".join(out)


def _write_json(o, out, newline):
    """Append the JSON text of o to out; newline starts a line at o's
    indent.  A list item or dict value whose type is exactly str or int is
    written in the loop, with no call; bools and subclasses recurse.  A
    list of [int, str] pairs, an exact value's coefficients, is written in
    one join.  A dict object that is the value of two keys of one dict is
    written once and its pieces copied."""
    if isinstance(o, str):
        out.append(_json_str(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, list):
        if not o:
            out.append("[]")
            return
        inner = newline + "  "
        # the first item's type turns other lists away before the scan
        if type(o[0]) is list and all(
                type(v) is list and len(v) == 2 and type(v[0]) is int
                and type(v[1]) is str for v in o):
            deep = inner + "  "
            head, mid, tail = inner + "[" + deep, "," + deep, inner + "]"
            out.append("[" + ",".join([
                head + int.__repr__(k) + mid + _json_str(c) + tail
                for k, c in o]) + newline + "]")
            return
        out.append("[")
        for v in o:
            out.append(inner)
            t = type(v)
            if t is str:
                out.append(_json_str(v))
            elif t is int:
                out.append(int.__repr__(v))
            else:
                _write_json(v, out, inner)
            out.append(",")
        out[-1] = newline + "]"
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = newline + "  "
        out.append("{")
        written = {}  # id of each dict value written here: its slice of out
        # _json_str raises TypeError on a key that is not a str
        for k, v in sorted(o.items()):
            out.append(inner + _json_str(k) + ": ")
            t = type(v)
            if t is str:
                out.append(_json_str(v))
            elif t is int:
                out.append(int.__repr__(v))
            elif t is dict and id(v) in written:
                start, end = written[id(v)]
                out += out[start:end]
            else:
                start = len(out)
                _write_json(v, out, inner)
                if t is dict:
                    written[id(v)] = start, len(out)
            out.append(",")
        out[-1] = newline + "}"
    else:
        raise TypeError("Object of type %s is not JSON serializable"
                        % o.__class__.__name__)


_json_str = json.encoder.encode_basestring_ascii


def _emit(payload, out_path, csv_rows=None):
    """Write payload as JSON, or the rows that csv_rows() builds to a .csv
    out_path: only wigner has rows, and main refuses a .csv path for the
    other commands."""
    if out_path and out_path.endswith(".csv"):
        import csv  # here, not at the top: only --out x.csv needs it
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        for row in csv_rows():
            w.writerow(row)
        text = buf.getvalue()
    else:
        text = _dump_json(payload)
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            # a path that cannot be written is a usage error (exit 2)
            build_parser().exit(2, "qwig: error: cannot write %s: %s\n"
                                % (out_path, exc.strerror))
    else:
        sys.stdout.write(text)


# -- subcommands -------------------------------------------------------------


def _cmd_roots(args):
    lam = _parse_weight(args.weight)
    alphas = char_roots(lam, args.variant)
    payload = {
        "weight": str(lam),
        "signature": [lam.sig.m, lam.sig.n],
        "variant": args.variant,
        "classical": list(alphas),
        "deformed": [deformed_root(a).json_entry() for a in alphas],
        "generic": len(set(alphas)) == len(alphas),
    }
    _emit(payload, args.out)
    return 0


def _cmd_branch(args):
    lam = _parse_weight(args.weight)
    if _candidate_count(lam) > CANDIDATES_MAX:
        raise InvalidArgument("weight %s has more than %d branchings"
                              % (lam, CANDIDATES_MAX))
    out = [{"lower": list(b.lam0), "I0": list(b.I0), "I0bar": list(b.I0bar),
            "I1": list(b.I1), "I1tilde": list(b.I1t), "eta": b.eta,
            "e_last": b.e_last, "lower_indices": list(b.lower_indices()),
            "raise_indices": list(b.raise_indices())}
           for b in branch_candidates(lam)]
    payload = {"upper": str(lam), "signature": [lam.sig.m, lam.sig.n],
               "candidates": out}
    _emit(payload, args.out)
    return 0


def _entries_json(table):
    """The "entries" of a table's payload: each value's json_entry under
    its key as text, "k" or "k,r"."""
    return {",".join(map(str, key)) if type(key) is tuple else str(key):
            v.json_entry() for key, v in table.items()}


def _table_csv_rows(table, coupled):
    rows = [["k", "r", "value_string", "value_json"]]
    for key, v in sorted(table.items(), key=lambda kv: str(kv[0])):
        k, r = key if coupled else (key, "")
        entry = v.json_entry()
        rows.append([k, r, entry["str"],
                     json.dumps(entry["value"], sort_keys=True)])
    return rows


def _cmd_wigner(args):
    lam = _parse_weight(args.weight)
    lam0 = _parse_lower(args.lower, lam.sig)
    b = BranchingData(lam, lam0)
    build = coupled_table if args.coupled else omega_table
    forms = (
        ("root_product", "qnumber_phase")
        if args.form == "both"
        else (args.form,)
    )
    tables = {f: build(b, args.kind, f) for f in forms}
    primary = tables[forms[0]]
    payload = {
        "kind": ("coupled_%s" if args.coupled else "omega_%s") % args.kind,
        "upper": str(lam),
        "lower": list(b.lam0),
        "signature": [lam.sig.m, lam.sig.n],
        "form": args.form,
        "entries": _entries_json(primary),
    }
    if not args.coupled:
        residual = sum_rule_residual(b, args.kind, forms[0])
        payload["sum"] = str(residual + ONE)
        payload["sum_rule_residual"] = str(residual)
    if args.form == "both":
        # agreeing forms print the same text, so the first form's entries
        # are written for both, and the second form is never formatted
        second = tables[forms[1]]
        agree = primary == second
        payload["entries_qnumber_phase"] = (
            payload["entries"] if agree else _entries_json(second))
        payload["forms_agree"] = agree
    _emit(payload, args.out,
          functools.partial(_table_csv_rows, primary, args.coupled))
    return 0


def _cmd_invariants(args):
    lam = _parse_weight(args.weight)
    payload = {
        "weight": str(lam),
        "signature": [lam.sig.m, lam.sig.n],
        "typical": is_typical(lam),
        "v": chi_v(lam, "v").json_entry(),
        "v_tilde": chi_v(lam, "vtilde").json_entry(),
        "C1": chi_C1(lam).json_entry(),
    }
    _emit(payload, args.out)
    return 0


# -- verify suites -----------------------------------------------------------


@functools.lru_cache(maxsize=MODULE_STORE_SIZE)
def _modules(sig):
    """The realised modules of sig, kept whole for the process, so that
    each module's cached matrices serve every later verify call."""
    from .oracle.modules import realized_modules

    return tuple(realized_modules(sig, K_MAX, DIM_CAP))


def _outcome(name, inputs, check, skips=()):
    """The verify case of check(), which returns (ok, detail): PASS or FAIL
    by ok, and SKIP when ok is None.  A check that raises one of skips is a
    SKIP, and any other QwigError a FAIL, with "<Class>: <message>" as its
    detail."""
    try:
        ok, detail = check()
    except skips as exc:
        ok, detail = None, "%s: %s" % (_class_name(exc), exc)
    except QwigError as exc:
        ok, detail = False, "%s: %s" % (_class_name(exc), exc)
    return {
        "case": name,
        "inputs": inputs,
        "status": "SKIP" if ok is None else "PASS" if ok else "FAIL",
        "detail": detail,
    }


def _class_name(exc):
    return type(exc).__name__


def _on_signature(check, name, sig):
    """The one case of checks.<check>(sig).  Each suite looks its checks up
    on qwig.oracle.checks as it runs, so a wrapper put there sees them."""
    from .oracle import checks

    return [_outcome(name, {"m": sig.m, "n": sig.n},
                     lambda: (getattr(checks, check)(sig), ""))]


def _each_module_kind(check, detailed, name, sig):
    """checks.<check>(M, lam, kind) on each module and characteristic
    matrix kind: a detailed check returns (ok, detail), any other ok."""
    from .oracle import checks

    fn = getattr(checks, check)

    def case(M, lam, kind):
        out = fn(M, lam, kind)
        return out if detailed else (out, "")

    return [
        _outcome(name, {"weight": str(lam), "kind": kind},
                 functools.partial(case, M, lam, kind), DegenerateRoots)
        for lam, M in _modules(sig)
        for kind in ("atilde", "adual")
    ]


def _closed_vs_oracle(coupled, name, sig):
    """Each closed form against its oracle.  The closed form is evaluated
    first, so a case it refuses costs no oracle call; a SKIP's detail
    names the side that raised: "<Class> (closed form|oracle): <message>"."""
    from .oracle.checks import coupled_oracle, wigner_oracle
    from .wigner import _side, omega, omega_coupled

    skips = (DegenerateRoots, NotRealized, MultiplicityAmbiguous)

    def check(M, lam, b, k, r, kind):
        side = "closed form"
        try:
            if coupled:
                closed = omega_coupled(b, k, r, kind)
                side = "oracle"
                oracle = coupled_oracle(M, lam, b.lam0, k, r, kind)
            else:
                closed = omega(b, k, kind)
                side = "oracle"
                oracle = wigner_oracle(M, lam, b.lam0, k, kind)
        except skips as exc:
            return None, "%s (%s): %s" % (_class_name(exc), side, exc)
        return closed == oracle, "closed=%s oracle=%s" % (closed, oracle)

    out = []
    for lam, M in _modules(sig):
        for b in branch_candidates(lam):
            for kind in ("lower", "raise"):
                side = _side(b, kind)
                pairs = (
                    [(k, r) for k in side.K for r in side.L]
                    if coupled
                    else [(k, None) for k in range(1, sig.d + 1)]
                )
                for k, r in pairs:
                    inputs = {
                        "weight": str(lam),
                        "lower": list(b.lam0),
                        "kind": kind,
                        "k": k,
                    }
                    if r is not None:
                        inputs["r"] = r
                    out.append(_outcome(
                        name, inputs,
                        functools.partial(check, M, lam, b, k, r, kind)))
    return out


def _suite_invariants(name, sig):
    from .oracle.checks import supertrace_invariant

    def c1(M, lam, kind):
        return chi_C1(lam) == supertrace_invariant(M, kind), ""

    return [
        _outcome(name + "/" + case, {"weight": str(lam)},
                 functools.partial(c1, M, lam, kind))
        for lam, M in _modules(sig)
        for case, kind in (("C1", "adual"), ("C1_tilde", "atilde"))
    ]


# every suite verify runs, in the order --suite all runs them
_SUITE_FN = {
    "qybe": functools.partial(_on_signature, "qybe_check"),
    "coproduct": functools.partial(_on_signature, "coproduct_check"),
    "charid": functools.partial(_each_module_kind, "char_identity_check",
                                False),
    "projectors": functools.partial(_each_module_kind,
                                    "projector_algebra_check", True),
    "wigner": functools.partial(_closed_vs_oracle, False),
    "coupled": functools.partial(_closed_vs_oracle, True),
    "invariants": _suite_invariants,
}
SUITES = tuple(_SUITE_FN) + ("all",)


def _cmd_verify(args):
    """Every case of the chosen suites, run in order in this process: the
    module suites share the store's realised modules, built on first use.
    "skips" counts the SKIPs by reason, the part of a detail before ": "."""
    sig = Signature(args.m, args.n)
    if sig.d > D_MAX:
        raise InvalidArgument(
            "verify takes m + n <= %d, not %s" % (D_MAX, sig))
    suites = list(_SUITE_FN) if args.suite == "all" else [args.suite]
    cases = [c for s in suites for c in _SUITE_FN[s](s, sig)]
    counts = {k: sum(1 for c in cases if c["status"] == k)
              for k in ("PASS", "FAIL", "SKIP")}
    skips = {}
    for c in cases:
        if c["status"] == "SKIP":
            reason = c["detail"].partition(": ")[0]
            skips[reason] = skips.get(reason, 0) + 1
    _emit({"suite": args.suite, "signature": [args.m, args.n],
           "cases": cases, "counts": counts,
           "skips": dict(sorted(skips.items())),
           "all_pass": counts["FAIL"] == 0},
          args.out)
    return 0 if counts["FAIL"] == 0 else 1


# -- parser ------------------------------------------------------------------


# The parser is read-only once built, and building it costs far more than a
# parse, so every main() call of a process shares one.
@functools.lru_cache(maxsize=None)
def build_parser():
    p = argparse.ArgumentParser(
        prog="qwig",
        description="Exact U_q[gl(m|n)] invariants, reduced Wigner "
        "coefficients and verification suites.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--weight", required=True,
                        help="highest weight, e.g. '1,0|0'")
        sp.add_argument("--out", help="output path (.csv for tables)")

    sp = sub.add_parser("roots", help="characteristic roots of a weight")
    common(sp)
    sp.add_argument("--variant", choices=("adjoint", "dual"),
                    default="adjoint")
    sp.set_defaults(fn=_cmd_roots)

    sp = sub.add_parser("branch", help="branching candidates and index sets")
    common(sp)
    sp.set_defaults(fn=_cmd_branch)

    sp = sub.add_parser("wigner",
                        help="squared reduced Wigner coefficient tables")
    common(sp)
    sp.add_argument("--lower", required=True,
                    help="lower weight, e.g. '0,0' or '1,0|0'")
    sp.add_argument("--kind", choices=("lower", "raise"), required=True)
    sp.add_argument("--coupled", action="store_true",
                    help="coupled (k, r) table instead of the single-index one")
    sp.add_argument("--form",
                    choices=("root_product", "qnumber_phase", "both"),
                    default="root_product")
    sp.set_defaults(fn=_cmd_wigner)

    sp = sub.add_parser("invariants", help="central element eigenvalues")
    common(sp)
    sp.set_defaults(fn=_cmd_invariants)

    sp = sub.add_parser("verify", help="run oracle verification suites")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--suite", choices=SUITES, default="all")
    sp.add_argument("--jobs", type=int, choices=(1,), default=1,
                    help="kept for compatibility: suites run in this "
                    "process, so 1 is the only value")
    sp.add_argument("--out", help="output path")
    sp.set_defaults(fn=_cmd_verify)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command != "wigner" and (args.out or "").endswith(".csv"):
        # a usage error (exit 2), refused before any work is done
        parser.exit(2, "qwig: error: CSV output is only available for "
                    "tables\n")
    try:
        return args.fn(args)
    except QwigError as exc:
        sys.stdout.write(
            _dump_json(
                {"error": {"type": type(exc).__name__, "message": str(exc)}}
            )
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
