"""The six benchmark workloads, driven only through the program's public API.

Each workload makes its inputs from the benchmark seed, then repeats one
*rep*: :meth:`Workload.setup` takes the system from source to ready-to-run
(timed as ``setup_s``) and :meth:`Workload.run` does the work (timed for
``ops_per_s``).  Every rep runs the same inputs, so every rep must produce
the same :class:`Outcome.digest` — the simulated results, never host
timings.

Reps are short (about 0.3–1 s on a 2-core x86 host) so that one run holds
many of them; README.md, "Steadiness", says why that matters on shared
hosts.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SMD_PROJECT = os.path.join(ROOT, "examples", "smd")


def canonical_sha256(document: Any) -> str:
    """SHA-256 of *document* as canonical (sorted, compact) JSON."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Outcome:
    """What one rep did, as the program reported it."""

    #: operations attempted (what ``attempted``/``failed`` count)
    ops: int
    #: operations the program itself reported as failed
    failed: int
    #: work units behind ``ops_per_s`` (cycles, items, states or charts)
    work: int
    #: simulated results; identical for identical inputs
    digest: Dict[str, Any]
    #: invariant violations (empty when the rep is correct)
    problems: List[str] = field(default_factory=list)


class Workload:
    """One seeded workload: ``setup()`` then ``run(ready)`` per rep."""

    name = ""
    #: what one ``ops_per_s`` work unit is
    work_unit = ""
    #: what one attempted operation is
    op_unit = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> Any:
        raise NotImplementedError

    def run(self, ready: Any) -> Outcome:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# machine workloads
# ---------------------------------------------------------------------------

def _fast_motors():
    """The fast-motor physics the SMD closed-loop runs elsewhere use:
    high step rates make every pulse deadline bite within a short run."""
    from repro.workloads.motors import MotorSpec

    return {
        "X": MotorSpec("X", 50_000.0, 0.025e-3, 1.25, 2000.0),
        "Y": MotorSpec("Y", 50_000.0, 0.025e-3, 1.25, 2000.0),
        "Phi": MotorSpec("Phi", 9_000.0, 0.1, 900.0, 0.0),
    }


def _deadline_digest(reports) -> Dict[str, List[Any]]:
    return {r.event: [r.arrivals, r.consumed, r.worst_latency, r.misses]
            for r in reports}


class Smd(Workload):
    """The paper's final architecture in its closed motor loop, for a fixed
    number of configuration cycles of seeded move commands.

    A fixed cycle count, not "until the moves finish", keeps the work and
    the machine's step history the same size for every seed: one move
    takes 9,800 to 16,000 cycles depending on its distances."""

    name = "smd"
    work_unit = "configuration cycle"
    op_unit = "move command started"
    CYCLES = 20_000
    #: more moves than CYCLES can finish
    COMMANDS = 4

    def __init__(self, seed: int) -> None:
        from repro.workloads import MoveCommand

        super().__init__(seed)
        rng = random.Random(seed)
        self.commands = [MoveCommand(rng.randrange(10, 80),
                                     rng.randrange(10, 80),
                                     rng.randrange(1, 12))
                         for _ in range(self.COMMANDS)]

    def setup(self):
        from repro.flow import build_system
        from repro.isa import MD16_TEP
        from repro.workloads import (SMD_MUTUAL_EXCLUSIONS, SMD_ROUTINES,
                                     SmdClosedLoop, smd_chart)

        arch = MD16_TEP.with_(n_teps=2, microcode_optimized=True,
                              mutual_exclusions=SMD_MUTUAL_EXCLUSIONS)
        system = build_system(smd_chart(), SMD_ROUTINES, arch,
                              specialize=True)
        return SmdClosedLoop(system, motor_specs=_fast_motors())

    def run(self, loop) -> Outcome:
        report = loop.run(self.commands,
                          max_configuration_cycles=self.CYCLES)
        started = min(report.commands_issued, report.commands_completed + 1)
        misses = sum(r.misses for r in report.deadline_reports)
        digest = {
            "total_cycles": report.total_cycles,
            "configuration_cycles": report.configuration_cycles,
            "instructions": loop.machine.executor.instructions_executed,
            "final_positions": dict(sorted(report.final_positions.items())),
            "commands_completed": report.commands_completed,
            "misses": misses,
            "deadlines": _deadline_digest(report.deadline_reports),
        }
        problems = []
        if report.configuration_cycles != self.CYCLES:
            problems.append(f"{report.configuration_cycles} of "
                            f"{self.CYCLES} cycles stepped")
        if report.commands_completed < 1:
            problems.append("no move completed")
        if misses:
            # the final architecture meets every pulse deadline
            problems.append(f"{misses} deadline miss(es)")
        return Outcome(ops=started, failed=0,
                       work=report.configuration_cycles, digest=digest,
                       problems=problems)


class Elevator(Workload):
    """The elevator chart under its periodic stimulus plus one seeded
    driver event per configuration cycle."""

    name = "elevator"
    work_unit = "configuration cycle"
    op_unit = "rep"
    CYCLES = 6000

    def setup(self):
        from repro.flow import build_system
        from repro.isa import MD16_TEP
        from repro.pscp.trace import DeadlineMonitor
        from repro.workloads.elevator import (ELEVATOR_MUTUAL_EXCLUSIONS,
                                              ELEVATOR_ROUTINES,
                                              elevator_chart)

        arch = MD16_TEP.with_(n_teps=2, microcode_optimized=True,
                              mutual_exclusions=ELEVATOR_MUTUAL_EXCLUSIONS)
        system = build_system(elevator_chart(), ELEVATOR_ROUTINES, arch,
                              specialize=True)
        return system, system.make_machine(), DeadlineMonitor(system.chart)

    def run(self, ready) -> Outcome:
        system, machine, monitor = ready
        constrained = sorted(monitor.periods)
        next_arrival = {event: 0 for event in constrained}
        driver = sorted(set(system.chart.events) - set(monitor.periods)
                        - {"POWER_ON"})
        rng = random.Random(self.seed)
        machine.step({"POWER_ON"})
        for _ in range(self.CYCLES - 1):
            due = {rng.choice(driver)}
            for event in constrained:
                if next_arrival[event] <= machine.time:
                    due.add(event)
                    monitor.arrival(event, machine.time)
                    next_arrival[event] = (machine.time
                                           + monitor.periods[event])
            monitor.observe(machine.step(due))
        reports = monitor.reports()
        digest = {
            "total_cycles": machine.time,
            "configuration_cycles": machine.cycle_count,
            "instructions": machine.executor.instructions_executed,
            "misses": sum(r.misses for r in reports),
            "deadlines": _deadline_digest(reports),
        }
        problems = []
        if machine.cycle_count != self.CYCLES:
            problems.append(f"{machine.cycle_count} of {self.CYCLES} "
                            f"cycles stepped")
        return Outcome(ops=1, failed=0, work=machine.cycle_count,
                       digest=digest, problems=problems)


# ---------------------------------------------------------------------------
# farm workloads: the `repro serve` command
# ---------------------------------------------------------------------------

class Farm(Workload):
    """``repro serve examples/smd --json``: the supervised in-process farm
    with guard, flight recorder and checkpoints, 4 arrivals per tick."""

    name = "farm"
    work_unit = "processed item"
    op_unit = "submitted item"
    ITEMS = 2000
    EXTRA_ARGS: tuple = ()

    def _serve(self, items: int) -> Dict[str, Any]:
        from repro.cli import run_serve

        out = io.StringIO()
        code = run_serve([SMD_PROJECT, "--items", str(items),
                          "--seed", str(self.seed), "--json",
                          *self.EXTRA_ARGS], out=out)
        document = json.loads(out.getvalue())
        document["exit_code"] = code
        return document

    def setup(self):
        # the same command on one item: parse, build, construct (and, for
        # the distributed farm, fork the workers and await ready)
        self._serve(1)

    def run(self, ready) -> Outcome:
        document = self._serve(self.ITEMS)
        farm = document["farm"]
        digest = {
            "exit_code": document["exit_code"],
            "submitted": farm["submitted"],
            "accepted": farm["accepted"],
            "processed": farm["processed"],
            "rejected": farm["rejected"],
            "shed": farm["shed"],
            "ticks": farm["ticks"],
            "conservation_violations": farm["conservation_violations"],
            "report_sha256": canonical_sha256(document),
        }
        problems = []
        if document["exit_code"] != 0 or farm["conservation_violations"]:
            problems.append(f"serve exited {document['exit_code']}: "
                            f"{farm['conservation_violations']}")
        return Outcome(ops=farm["submitted"],
                       failed=farm["submitted"] - farm["processed"],
                       work=farm["processed"], digest=digest,
                       problems=problems)


class FarmDistributed(Farm):
    """The same command sharded over exactly two forked worker processes
    (no standby, no chaos)."""

    name = "farm-distributed"
    EXTRA_ARGS = ("--processes", "2")


# ---------------------------------------------------------------------------
# analysis workloads: `repro check` and `repro fuzz`
# ---------------------------------------------------------------------------

class Check(Workload):
    """The bounded model checker on the elevator chart and its shipped
    properties, under the improvement ladder's final architecture.

    The input is fixed, so the seed is unused.  The elevator replaces the
    SMD chart here because one SMD check takes about 4 s — too few reps fit
    a run for a steady median."""

    name = "check"
    work_unit = "explored state"
    op_unit = "property"

    def setup(self):
        from repro.flow import Improver
        from repro.isa import MD16_TEP
        from repro.workloads.elevator import (ELEVATOR_MUTUAL_EXCLUSIONS,
                                              ELEVATOR_ROUTINES,
                                              elevator_chart)

        improved = Improver(elevator_chart(), ELEVATOR_ROUTINES,
                            initial_arch=MD16_TEP,
                            mutual_exclusions=ELEVATOR_MUTUAL_EXCLUSIONS,
                            max_teps=3).run()
        return elevator_chart(), improved.final

    def run(self, ready) -> Outcome:
        from repro.analysis import render_text
        from repro.analysis.bmc import check_system
        from repro.workloads.elevator import (ELEVATOR_PROPERTIES,
                                              ELEVATOR_ROUTINES)

        chart, system = ready
        result = check_system(chart, ELEVATOR_ROUTINES, system,
                              properties_text=ELEVATOR_PROPERTIES,
                              chart_path="elevator.sc", label="elevator")
        verdicts = [[v.prop.text, v.status] for v in result.verdicts]
        text = render_text(result.diagnostics, header="elevator.sc")
        digest = {
            "nodes": result.nodes,
            "complete": result.complete,
            "verdicts": verdicts,
            "diagnostics_sha256": hashlib.sha256(
                text.encode("utf-8")).hexdigest(),
        }
        unproved = [text for text, status in verdicts if status != "proved"]
        problems = [f"not proved: {text}" for text in unproved]
        return Outcome(ops=len(verdicts), failed=len(unproved),
                       work=result.nodes, digest=digest, problems=problems)


class Fuzz(Workload):
    """``repro fuzz --json`` over a fixed campaign, full ladder, 40 cycles
    per chart.

    The campaign seed is fixed at 1, so the benchmark seed is unused: one
    chart costs 0.03–0.37 s here, and over campaign seeds 1–10 a 16-chart
    campaign's cost spread 17 % (quartile distance over median) — wider
    than any useful regression bound."""

    name = "fuzz"
    work_unit = "chart"
    op_unit = "chart"
    CAMPAIGN_SEED = 1
    CHARTS = 6

    def setup(self):
        # source to ready-to-step for the campaign's first chart.  The
        # campaign has no public hook to hand a built chart to, so this is
        # a separate build that the timed campaign repeats, as the farms'
        # one-item serve is
        from repro.flow import build_system, select_initial_architecture
        from repro.fuzz import GeneratorConfig, generate_spec, render_chart, \
            render_source

        spec = generate_spec(self.CAMPAIGN_SEED * 7919, GeneratorConfig())
        chart, source = render_chart(spec), render_source(spec)
        build_system(chart, source,
                     select_initial_architecture(chart, source)).make_machine()

    def run(self, ready) -> Outcome:
        from repro.cli import run_fuzz

        out = io.StringIO()
        code = run_fuzz(["--seed", str(self.CAMPAIGN_SEED),
                         "--charts", str(self.CHARTS), "--json"], out=out)
        report = json.loads(out.getvalue())
        digest = {
            "exit_code": code,
            "counts": report["counts"],
            "report_sha256": canonical_sha256(report),
        }
        dirty = sum(count for status, count in report["counts"].items()
                    if status != "clean")
        problems = [f"campaign not clean: {report['counts']}"] if code else []
        return Outcome(ops=self.CHARTS, failed=dirty, work=self.CHARTS,
                       digest=digest, problems=problems)


WORKLOADS = {cls.name: cls for cls in
             (Smd, Elevator, Farm, FarmDistributed, Check, Fuzz)}
