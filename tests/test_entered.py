"""tools/entered.py on one qwig command."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "entered.py"


def test_entered_lists_what_one_roots_call_leaves_out():
    done = subprocess.run(
        [sys.executable, str(TOOL), "roots", "--weight", "1,0|0"],
        capture_output=True, text=True, timeout=120, check=True)
    listed = {line.split()[0]: int(line.split()[1])
              for line in done.stdout.splitlines()}
    # the gcd fallback is never reached; the constructor runs at import
    assert "qwig.exactq._prs_gcd" in listed
    assert "qwig.exactq.QFraction.__init__" not in listed
    assert "qwig.cli._cmd_roots" not in listed
    assert "qwig.cli._cmd_wigner" in listed
    assert done.stderr == "%d functions, %d lines, never entered\n" % (
        len(listed), sum(listed.values()))
