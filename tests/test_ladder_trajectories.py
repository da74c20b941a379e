"""The improvement ladder's trajectories, pinned.

``tests/golden/ladder_trajectories.json`` holds three records of the
section 4 ladder:

* ``ladder``: the never-stopping ladder the fuzz oracle walks for the first
  12 charts of campaign seed 1 (chart seeds 7919-7930): every rung's name,
  architecture and storage map;
* ``improver``: ``Improver.run()`` on SMD (the ablation benchmark's call),
  on the elevator (the ``check`` workload's call) and on the opt-in
  pipeline chart of ``test_pipelined_tep``, once at its own period (the
  baseline meets it) and once at a period that takes the ladder to the
  ``pipeline`` rung.  Each step records its rung, description,
  architecture, storage map, critical paths, violations and area;
* ``cli``: the exit code and output of ``repro examples/smd/chart.sc
  examples/smd/routines.c --improve``, as JSON without the wall times and
  as text with the wall-time column masked.

Everything is canonical JSON: sets sorted, ``StorageClass`` by name.

Regenerate (only when a change to the ladder is intended)::

    PYTHONPATH=src python tests/test_ladder_trajectories.py
"""

import dataclasses
import enum
import io
import json
import pathlib
import re

import pytest

from repro.cli import run as run_cli
from repro.flow import Improver
from repro.fuzz import OracleHarness, generate_spec
from repro.isa import MD16_TEP
from repro.statechart import ChartBuilder

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).parent / "golden" / "ladder_trajectories.json"

#: campaign seed 1's first 12 charts (``seed * 7919 + index``)
CHART_SEEDS = tuple(range(7919, 7931))

IMPROVE_ARGV = [str(ROOT / "examples" / "smd" / "chart.sc"),
                str(ROOT / "examples" / "smd" / "routines.c"), "--improve"]


def canonical(value):
    """*value* as plain JSON data: dataclasses as field dicts, enums by
    name, sets sorted by their JSON text."""
    if dataclasses.is_dataclass(value):
        return {f.name: canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, (set, frozenset)):
        return sorted((canonical(item) for item in value),
                      key=lambda item: json.dumps(item, sort_keys=True))
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in value.items()}
    return value


def ladder(seed):
    harness = OracleHarness(generate_spec(seed))
    return [{"rung": rung.name, "arch": canonical(rung.arch),
             "storage_map": canonical(rung.storage_map)}
            for rung in harness.rungs()]


def _pipeline_chart(period):
    b = ChartBuilder("pipe")
    b.event("E", period=period)
    with b.or_state("T", default="S"):
        b.basic("S").transition("S", label="E/Work()")
    source = "int:16 a;\nvoid Work() {\n" + "".join(
        f"  a = a + {n};\n" for n in range(1, 8)) + "}\n"
    return b.build(), source


def _improver(name):
    if name == "smd":
        from repro.workloads import (
            SMD_MUTUAL_EXCLUSIONS,
            SMD_ROUTINES,
            smd_chart,
        )
        return Improver(smd_chart(), SMD_ROUTINES,
                        mutual_exclusions=SMD_MUTUAL_EXCLUSIONS, max_teps=2)
    if name == "elevator":
        from repro.workloads.elevator import (
            ELEVATOR_MUTUAL_EXCLUSIONS,
            ELEVATOR_ROUTINES,
            elevator_chart,
        )
        return Improver(elevator_chart(), ELEVATOR_ROUTINES,
                        initial_arch=MD16_TEP,
                        mutual_exclusions=ELEVATOR_MUTUAL_EXCLUSIONS,
                        max_teps=3)
    chart, source = _pipeline_chart(220 if name == "pipeline" else 60)
    return Improver(chart, source, initial_arch=MD16_TEP,
                    allow_pipelining=True, max_teps=1)


IMPROVERS = ("smd", "elevator", "pipeline", "pipeline-tight")


def trajectory(name):
    return [{"rung": step.rung, "description": step.description,
             "arch": canonical(step.arch),
             "storage_map": canonical(step.storage_map),
             "critical_paths": canonical(step.critical_paths),
             "n_violations": step.n_violations,
             "area_clbs": step.area_clbs}
            for step in _improver(name).run().steps]


def _strip_wall_times(value):
    if isinstance(value, dict):
        return {key: _strip_wall_times(item) for key, item in value.items()
                if key not in ("wall_seconds", "total_wall_seconds")}
    if isinstance(value, list):
        return [_strip_wall_times(item) for item in value]
    return value


def _mask_wall_ms(text):
    """The text output with the profile table's last (Wall ms) column and
    the total rebuild time masked; every other byte kept."""
    lines = text.splitlines()
    start = lines.index("Improvement ladder profile")
    for i in range(start + 1, len(lines)):
        line = lines[i]
        if line.startswith("total rebuild time"):
            lines[i] = re.sub(r"time [0-9.]+ ms", "time # ms", line)
            break
        lines[i] = re.sub(r"[+|][^+|]*[+|]$", lambda m: m.group(0)[0] + "#",
                          line)
    return "\n".join(lines) + "\n"


def cli_outputs():
    json_out, text_out = io.StringIO(), io.StringIO()
    json_code = run_cli(IMPROVE_ARGV + ["--json"], out=json_out)
    text_code = run_cli(IMPROVE_ARGV, out=text_out)
    return {
        "json": {"exit": json_code,
                 "output": _strip_wall_times(json.loads(json_out.getvalue()))},
        "text": {"exit": text_code,
                 "output": _mask_wall_ms(text_out.getvalue())},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("seed", CHART_SEEDS)
def test_never_stopping_ladder_matches_golden(golden, seed):
    assert ladder(seed) == golden["ladder"][str(seed)]


@pytest.mark.parametrize("name", IMPROVERS)
def test_improver_trajectory_matches_golden(golden, name):
    assert trajectory(name) == golden["improver"][name]


def test_improve_cli_matches_golden(golden):
    assert cli_outputs() == golden["cli"]


def record():
    return {
        "ladder": {str(seed): ladder(seed) for seed in CHART_SEEDS},
        "improver": {name: trajectory(name) for name in IMPROVERS},
        "cli": cli_outputs(),
    }


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
