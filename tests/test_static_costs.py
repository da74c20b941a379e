"""The static prices, pinned.

``tests/golden/static_costs.json`` holds what the cost model derives, with
no machine run:

* ``systems``: for SMD at the Table 3 reference (one 16-bit M/D TEP,
  unoptimized), SMD at the final architecture (``check_overhead.py``'s
  ``build_final_system``) and the elevator at the ``check`` workload's
  Improver result: the routine WCETs, the per-transition costs, the
  critical paths and the budgets a default ``MachineGuard`` derives when
  it is attached;
* ``ladder``: for the first 12 charts of fuzz campaign seed 1 (chart
  seeds 7919-7930), every rung of ``Improver(chart, source).rungs()``:
  routine WCETs and per-transition costs.

Two more records pin the same prices where a user sees them:

* ``tests/golden/faults_smd_seed2.json``: the output of ``repro faults
  examples/smd --seed 2 --runs-per-class 1 --json`` (every class runs
  under the guard's budgets);
* ``tests/golden/lint_budget.txt``: the output of ``repro lint`` on the
  budget fixture (PSC401 names the analyzed cost of a stub).

Regenerate (only when a change to the prices is intended)::

    PYTHONPATH=src python tests/test_static_costs.py
"""

import io
import json
import os
import pathlib

import pytest

from repro.cli import run as run_cli
from repro.fault import MachineGuard
from repro.flow import Improver, build_system
from repro.fuzz import generate_spec, render_chart, render_source
from repro.isa import MD16_TEP

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
GOLDEN = GOLDEN_DIR / "static_costs.json"
FAULTS_GOLDEN = GOLDEN_DIR / "faults_smd_seed2.json"
LINT_GOLDEN = GOLDEN_DIR / "lint_budget.txt"

#: campaign seed 1's first 12 charts (``seed * 7919 + index``)
CHART_SEEDS = tuple(range(7919, 7931))

FAULTS_ARGV = ["faults", "examples/smd", "--seed", "2",
               "--runs-per-class", "1", "--json"]
LINT_ARGV = ["lint", "tests/fixtures/lint/budget/chart.sc",
             "tests/fixtures/lint/budget/routines.c"]

SYSTEMS = ("smd-reference", "smd-final", "elevator-check")


def _keyed(mapping):
    return {str(key): value for key, value in mapping.items()}


def build(name):
    if name.startswith("smd"):
        from repro.workloads import (
            SMD_MUTUAL_EXCLUSIONS,
            SMD_ROUTINES,
            smd_chart,
        )
        if name == "smd-reference":
            return build_system(smd_chart(), SMD_ROUTINES, MD16_TEP)
        arch = MD16_TEP.with_(n_teps=2, microcode_optimized=True,
                              mutual_exclusions=SMD_MUTUAL_EXCLUSIONS)
        return build_system(smd_chart(), SMD_ROUTINES, arch, specialize=True)
    from repro.workloads.elevator import (
        ELEVATOR_MUTUAL_EXCLUSIONS,
        ELEVATOR_ROUTINES,
        elevator_chart,
    )
    return Improver(elevator_chart(), ELEVATOR_ROUTINES,
                    initial_arch=MD16_TEP,
                    mutual_exclusions=ELEVATOR_MUTUAL_EXCLUSIONS,
                    max_teps=3).run().final


def system_costs(name):
    system = build(name)
    guard = MachineGuard()
    system.make_machine().attach_guard(guard)
    return {"routine_wcets": dict(system.compiled.wcets()),
            "transition_costs": _keyed(system.transition_costs),
            "critical_paths": system.critical_paths(),
            "guard_budgets": _keyed(guard.budgets)}


def ladder_costs(seed):
    spec = generate_spec(seed)
    return [{"rung": rung.name,
             "routine_wcets": dict(rung.system.compiled.wcets()),
             "transition_costs": _keyed(rung.system.transition_costs)}
            for rung in Improver(render_chart(spec),
                                 render_source(spec)).rungs()]


def _in_root(argv):
    """Run the CLI from the repository root so paths print relative."""
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        out = io.StringIO()
        status = run_cli(argv, out=out)
    finally:
        os.chdir(cwd)
    return status, out.getvalue()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", SYSTEMS)
def test_system_costs_match_golden(golden, name):
    assert system_costs(name) == golden["systems"][name]


@pytest.mark.parametrize("seed", CHART_SEEDS)
def test_ladder_costs_match_golden(golden, seed):
    assert ladder_costs(seed) == golden["ladder"][str(seed)]


def test_fault_campaign_matches_golden():
    status, text = _in_root(FAULTS_ARGV)
    assert status == 0
    assert text == FAULTS_GOLDEN.read_text()


def test_budget_lint_matches_golden():
    status, text = _in_root(LINT_ARGV)
    assert status == 1
    assert text == LINT_GOLDEN.read_text()
    assert "analyzed cost 584 cycles" in text


def record():
    return {
        "systems": {name: system_costs(name) for name in SYSTEMS},
        "ladder": {str(seed): ladder_costs(seed) for seed in CHART_SEEDS},
    }


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    FAULTS_GOLDEN.write_text(_in_root(FAULTS_ARGV)[1])
    LINT_GOLDEN.write_text(_in_root(LINT_ARGV)[1])
    print(f"wrote {GOLDEN}, {FAULTS_GOLDEN} and {LINT_GOLDEN}")
