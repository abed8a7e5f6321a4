"""The demos run and print what they printed when they were pinned."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# sha256 of each demo's stdout.  A change meant to keep results identical
# must keep these; a change that alters a demo's output updates them and
# says so.
DEMO_SHA256 = {
    "classical_limit.py":
        "75bf5bef49290e3c2b04d44f10022391939f378edc49020b22274858269313ed",
    "oracle_walkthrough.py":
        "1e2ed07c3741ee2014913f7dd9791ad34a2102782cfe21eefd8c2f65c69cc5c1",
    "wigner_tables.py":
        "bd13f27efc4e79f84cecc6cfb019288608362c0d7c4ede08ecdead12243b9bb1",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_SHA256))
def test_demo_output_is_pinned(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == DEMO_SHA256[name]
