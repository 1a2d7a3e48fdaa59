"""The two scripts the README promises run to completion.

Each runs in a subprocess against the checkout's src/ (see conftest.py),
the way a reader would start it.
"""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *argv):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *argv],
        capture_output=True, text=True, timeout=300,
    )


def test_worked_examples_script():
    proc = run_script("worked_examples.py")
    assert proc.returncode == 0, proc.stderr


def test_certify_bivectors_script():
    proc = run_script("certify_bivectors.py", "--fuzz", "5")
    assert proc.returncode == 0, proc.stderr
    assert "q_x*b*b_x: not Poisson, witness class 4*q_x*b*b_x*b_xx" in proc.stdout.splitlines()
