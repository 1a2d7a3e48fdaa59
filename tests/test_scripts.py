"""The two scripts the README promises run to completion.

Each runs in a subprocess against the checkout's src/ (see conftest.py),
the way a reader would start it.  The worked examples print exact values,
so their whole output is compared with the files in tests/golden/.
"""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_script(name, *argv):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *argv],
        capture_output=True, text=True, timeout=300,
    )


def test_worked_examples_script():
    for argv, golden in (((), "worked_examples.txt"), (("--latex",), "worked_examples_latex.txt")):
        proc = run_script("worked_examples.py", *argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (GOLDEN / golden).read_text()


def test_certify_bivectors_script():
    proc = run_script("certify_bivectors.py", "--fuzz", "5")
    assert proc.returncode == 0, proc.stderr
    assert "q_x*b*b_x: not Poisson, witness class 4*q_x*b*b_x*b_xx" in proc.stdout.splitlines()
