"""Argument validation of ``scripts/check_overhead.py``."""

import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(REPO, "scripts", "check_overhead.py")


@pytest.mark.parametrize("argv", [["--rounds", "0"], ["--retries", "-1"]])
def test_bad_count_is_a_usage_error(argv):
    proc = subprocess.run([sys.executable, SCRIPT, *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "usage:" in proc.stderr
    assert argv[0] in proc.stderr
    # rejected before the system is built or any leg is timed
    assert proc.stdout == ""
