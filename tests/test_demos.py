"""Each script in demos/ runs to completion and prints its key result."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# one line of each demo's output that only a correct run prints
KEY_LINES = {
    "01_polynomials_and_pfaffians.py": "Pf(P^T M P) = 2*x1^2 - x1*x2 + x2^2  (det P = 1)",
    "02_classify_an_algebra.py": "family verdict: kronecker",
    "03_reference_table.py": "11 of 12 families match the published table",
    "04_block_pencils_and_replay.py": "all routes agree",
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(KEY_LINES)


@pytest.mark.parametrize("name", sorted(KEY_LINES))
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert KEY_LINES[name] in proc.stdout.splitlines()
