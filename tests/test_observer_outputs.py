"""Observer outputs, pinned.

The tracer, the flight recorder and the lineage tracker watch the machine
without changing it, and their outputs are what ``repro trace``,
``serve --trace/--forensics-dir/--lineage`` and ``check --witness-dir``
write.  ``tests/golden/observer_outputs.json`` holds the sha256 of each
output file below, byte for byte:

* ``trace_smd`` -- ``repro trace examples/smd``;
* ``tracer_elevator`` -- a :class:`~repro.obs.Tracer` on the two-TEP
  elevator for 2,000 cycles of its periodic stimulus plus one seeded
  driver event per cycle;
* ``serve_chaos`` -- ``repro serve examples/smd --chaos --items 120
  --seed 3 --trace --forensics-dir --json``: the merged trace, every
  forensics bundle and the report;
* ``check_forensics`` -- the forensics bundles ``repro check
  tests/fixtures/bmc/violating --witness-dir`` writes;
* ``serve_lineage`` -- the lineage DAG of ``repro serve --processes 2
  --chaos --kills 1 --items 80 --seed 7 --lineage``;
* ``lineage_smd`` -- a :class:`~repro.obs.LineageTracker`'s DAG over one
  move of the SMD closed loop;
* ``stats_smd`` -- ``repro stats examples/smd --json``: the closed loop's
  deadline, cycle and cache-traffic report.

Regenerate (only when a change to an observer's output is intended)::

    PYTHONPATH=src python tests/test_observer_outputs.py
"""

import hashlib
import io
import json
import pathlib
import random
import tempfile

import pytest

from repro.cli import run

ROOT = pathlib.Path(__file__).resolve().parents[1]
SMD_PROJECT = str(ROOT / "examples" / "smd")
VIOLATING = str(ROOT / "tests" / "fixtures" / "bmc" / "violating")
GOLDEN = pathlib.Path(__file__).parent / "golden" / "observer_outputs.json"


def _sha256(data):
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _digests(directory, pattern="*"):
    """``{file name: sha256}`` for the files under *directory*."""
    return {path.relative_to(directory).as_posix(): _sha256(path.read_bytes())
            for path in sorted(directory.rglob(pattern)) if path.is_file()}


def _cli(argv, expected_code=0):
    out = io.StringIO()
    code = run(argv, out=out)
    assert code == expected_code, (argv, code, out.getvalue())
    return out.getvalue()


def trace_smd(directory):
    _cli(["trace", SMD_PROJECT, "--out", str(directory / "trace.json")])
    return _digests(directory)


def tracer_elevator(directory):
    from repro.flow import build_system
    from repro.isa import MD16_TEP
    from repro.obs import Tracer, write_chrome_trace
    from repro.pscp.trace import DeadlineMonitor
    from repro.workloads.elevator import (ELEVATOR_MUTUAL_EXCLUSIONS,
                                          ELEVATOR_ROUTINES, elevator_chart)

    arch = MD16_TEP.with_(n_teps=2, microcode_optimized=True,
                          mutual_exclusions=ELEVATOR_MUTUAL_EXCLUSIONS)
    system = build_system(elevator_chart(), ELEVATOR_ROUTINES, arch,
                          specialize=True)
    machine = system.make_machine()
    tracer = Tracer()
    machine.attach(tracer)
    monitor = DeadlineMonitor(system.chart)
    constrained = sorted(monitor.periods)
    next_arrival = {event: 0 for event in constrained}
    driver = sorted(set(system.chart.events) - set(monitor.periods)
                    - {"POWER_ON"})
    rng = random.Random(1)
    machine.step({"POWER_ON"})
    for _ in range(1999):
        due = {rng.choice(driver)}
        for event in constrained:
            if next_arrival[event] <= machine.time:
                due.add(event)
                monitor.arrival(event, machine.time)
                next_arrival[event] = machine.time + monitor.periods[event]
        monitor.observe(machine.step(due))
    tracer.flush()
    write_chrome_trace(tracer, str(directory / "trace.json"))
    return _digests(directory)


def serve_chaos(directory):
    report = _cli(["serve", SMD_PROJECT, "--chaos", "--items", "120",
                   "--seed", "3", "--trace", str(directory / "trace.json"),
                   "--forensics-dir", str(directory / "forensics"),
                   "--json"])
    (directory / "report.json").write_text(report)
    return _digests(directory)


def check_forensics(directory):
    _cli(["check", VIOLATING, "--witness-dir", str(directory)],
         expected_code=1)
    return _digests(directory, "*.forensics.json")


def serve_lineage(directory):
    _cli(["serve", SMD_PROJECT, "--processes", "2", "--chaos", "--kills",
          "1", "--items", "80", "--seed", "7", "--lineage",
          str(directory / "lineage.json"), "--json"])
    return _digests(directory)


def lineage_smd(directory):
    from repro.flow import build_system
    from repro.isa import MD16_TEP
    from repro.obs import LineageTracker
    from repro.workloads import (SMD_MUTUAL_EXCLUSIONS, SMD_ROUTINES,
                                 MotorSpec, MoveCommand, SmdClosedLoop,
                                 smd_chart)

    arch = MD16_TEP.with_(n_teps=2, microcode_optimized=True,
                          mutual_exclusions=SMD_MUTUAL_EXCLUSIONS)
    system = build_system(smd_chart(), SMD_ROUTINES, arch, specialize=True)
    motors = {
        "X": MotorSpec("X", 50_000.0, 0.025e-3, 1.25, 2000.0),
        "Y": MotorSpec("Y", 50_000.0, 0.025e-3, 1.25, 2000.0),
        "Phi": MotorSpec("Phi", 9_000.0, 0.1, 900.0, 0.0),
    }
    loop = SmdClosedLoop(system, motor_specs=motors)
    lineage = LineageTracker()
    loop.machine.attach(lineage)
    loop.run([MoveCommand(60, 45, 8)], max_configuration_cycles=20000)
    return {"dag.json": _sha256(lineage.dag().dumps())}


def stats_smd(directory):
    return {"stats.json": _sha256(_cli(["stats", SMD_PROJECT, "--json"]))}


OUTPUTS = (trace_smd, tracer_elevator, serve_chaos, check_forensics,
           serve_lineage, lineage_smd, stats_smd)


@pytest.mark.parametrize("output", OUTPUTS, ids=lambda f: f.__name__)
def test_observer_output_matches_golden(output, tmp_path):
    golden = json.loads(GOLDEN.read_text())[output.__name__]
    assert output(tmp_path) == golden


if __name__ == "__main__":
    document = {}
    for output in OUTPUTS:
        with tempfile.TemporaryDirectory() as directory:
            document[output.__name__] = output(pathlib.Path(directory))
    GOLDEN.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
