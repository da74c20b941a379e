"""Argument validation and leg arithmetic of
``scripts/check_overhead.py``."""

import importlib.util
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


def test_added_cost_is_per_run_and_independent_of_the_reference_speed():
    spec = importlib.util.spec_from_file_location("check_overhead", SCRIPT)
    guard = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(guard)

    def leg(*ms):
        timing = guard.LegTiming()
        timing.times_ns = [int(value * 1e6) for value in ms]
        return timing

    # 4 runs per sample: a leg 2 ms slower per sample adds 0.5 ms a run,
    # whether the disabled sample takes 40 ms or 20 ms
    assert guard.added_cost_ms(leg(42, 43, 41), leg(40, 41, 39), 4) == 0.5
    assert guard.added_cost_ms(leg(22, 23, 21), leg(20, 21, 19), 4) == 0.5
    assert guard.paired_overhead(leg(22, 23, 21), leg(20, 21, 19)) \
        > guard.paired_overhead(leg(42, 43, 41), leg(40, 41, 39))
