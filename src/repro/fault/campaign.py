"""Seeded fault campaigns over the SMD closed loop.

A campaign answers the question the ROADMAP's "behaviour under faults"
north-star poses: for each fault class, how often does the detection
machinery catch the fault, how often does recovery complete the workload
anyway, and how often does the fault slip through?

The runner is deterministic end to end: per-run plans are drawn from
``random.Random(seed * 7919 + run_number)`` (integer seeding, stable across
processes), the fault horizon is the fault-free baseline's configuration
cycle count, and the report's :meth:`CampaignReport.to_json` is directly
comparable — the CI smoke job runs the same seed twice and asserts equality.

Vocabulary (per run):

* **injected** — faults from the plan that actually bit;
* **detected** — the class's expected detector fired (watchdog abort for
  stall/runaway, the exclusivity checker for CR state corruption and stuck
  SLA terms, failover accounting for a dead TEP);
* **recovered** — detected *and* the recovery completed (retry succeeded,
  safe state restored, survivors finished the work);
* **missed** — a detectable class bit but its detector stayed silent (e.g.
  a CR state flip that decodes to a *legal* configuration);
* **silent** — the class has no detector claiming it (data corruption such
  as RAM/cache/port faults degrades results rather than structure); these
  runs are reported by workload outcome only;
* **restored** — with ``restore_from_checkpoint=True``, an unrecoverable
  fault escalated out of the machine and the closed loop restarted it from
  its last checkpoint at least once (the fourth rung of the degradation
  ladder: detect, recover in-cycle, restore-from-checkpoint, crash).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.fault.guard import (
    ILLEGAL_CONFIGURATION,
    MachineGuard,
    TEP_FAILOVER,
    WATCHDOG_ABORT,
)
from repro.fault.injector import FaultInjector
from repro.fault.model import (
    ALL_FAULT_KINDS,
    DETECTABLE_KINDS,
    FAILOVER_KINDS,
    FaultPlan,
    FaultSurface,
    ILLEGAL_CONFIG_KINDS,
    WATCHDOG_KINDS,
)

#: the detector each detectable fault class is expected to trip
EXPECTED_DETECTOR: Dict[str, str] = {}
for _kind in WATCHDOG_KINDS:
    EXPECTED_DETECTOR[_kind] = WATCHDOG_ABORT
for _kind in ILLEGAL_CONFIG_KINDS:
    EXPECTED_DETECTOR[_kind] = ILLEGAL_CONFIGURATION
for _kind in FAILOVER_KINDS:
    EXPECTED_DETECTOR[_kind] = TEP_FAILOVER

DEFAULT_CLASSES: Tuple[str, ...] = ALL_FAULT_KINDS


class CampaignError(Exception):
    """The campaign cannot run: its fault-free baseline is broken."""


@dataclass
class RunResult:
    """One fault run of the closed loop."""

    fault_class: str
    run_number: int
    plan: List[str]
    injected: int
    detections: List[str]
    detected: bool
    recovered: bool
    missed: bool
    silent: bool
    crashed: bool
    completed_moves: bool
    truncated: bool
    deadline_misses: int
    restored: bool = False

    def to_json(self) -> Dict[str, object]:
        return {
            "class": self.fault_class,
            "run": self.run_number,
            "plan": self.plan,
            "injected": self.injected,
            "detections": self.detections,
            "detected": self.detected,
            "recovered": self.recovered,
            "missed": self.missed,
            "silent": self.silent,
            "crashed": self.crashed,
            "completed_moves": self.completed_moves,
            "truncated": self.truncated,
            "deadline_misses": self.deadline_misses,
            "restored": self.restored,
        }


@dataclass
class ClassStats:
    """Aggregate outcome of one fault class across its runs."""

    fault_class: str
    runs: int = 0
    injected: int = 0
    detected: int = 0
    recovered: int = 0
    missed: int = 0
    silent: int = 0
    crashed: int = 0
    completed_moves: int = 0
    deadline_misses: int = 0
    restored: int = 0

    def absorb(self, result: RunResult) -> None:
        self.runs += 1
        self.injected += result.injected
        self.detected += int(result.detected)
        self.recovered += int(result.recovered)
        self.missed += int(result.missed)
        self.silent += int(result.silent)
        self.crashed += int(result.crashed)
        self.completed_moves += int(result.completed_moves)
        self.deadline_misses += result.deadline_misses
        self.restored += int(result.restored)

    def to_json(self) -> Dict[str, object]:
        return {
            "class": self.fault_class,
            "runs": self.runs,
            "injected": self.injected,
            "detected": self.detected,
            "recovered": self.recovered,
            "missed": self.missed,
            "silent": self.silent,
            "crashed": self.crashed,
            "completed_moves": self.completed_moves,
            "deadline_misses": self.deadline_misses,
            "restored": self.restored,
        }


@dataclass
class CampaignReport:
    """The full campaign: baseline facts plus per-class breakdowns."""

    seed: int
    runs_per_class: int
    classes: Tuple[str, ...]
    baseline_cycles: int
    baseline_deadline_misses: int
    class_stats: List[ClassStats]
    runs: List[RunResult] = field(default_factory=list)

    def to_json(self) -> Dict[str, object]:
        """A deterministic, seed-comparable document (the CI smoke job
        asserts two same-seed campaigns serialize identically)."""
        return {
            "seed": self.seed,
            "runs_per_class": self.runs_per_class,
            "classes": list(self.classes),
            "baseline": {
                "configuration_cycles": self.baseline_cycles,
                "deadline_misses": self.baseline_deadline_misses,
            },
            "class_stats": [stats.to_json() for stats in self.class_stats],
            "runs": [result.to_json() for result in self.runs],
        }

    def render(self) -> str:
        from repro.flow import ascii_table

        rows = [
            (stats.fault_class, stats.runs, stats.injected, stats.detected,
             stats.recovered, stats.restored, stats.missed, stats.silent,
             f"{stats.completed_moves}/{stats.runs}", stats.deadline_misses)
            for stats in self.class_stats
        ]
        return ascii_table(
            ["Fault class", "Runs", "Injected", "Detected", "Recovered",
             "Restored", "Missed", "Silent", "Moves done", "DL misses"],
            rows,
            title=(f"Fault campaign: seed {self.seed}, "
                   f"{self.runs_per_class} run(s)/class, baseline "
                   f"{self.baseline_cycles} configuration cycles"))

    def publish(self, metrics) -> None:
        total = ClassStats("total")
        for stats in self.class_stats:
            for name in ("runs", "injected", "detected", "recovered",
                         "missed", "silent", "crashed", "completed_moves",
                         "deadline_misses", "restored"):
                setattr(total, name,
                        getattr(total, name) + getattr(stats, name))
        metrics.counter("campaign.runs", "fault runs executed").value = \
            total.runs
        metrics.counter("campaign.injected").value = total.injected
        metrics.counter("campaign.detected").value = total.detected
        metrics.counter("campaign.recovered").value = total.recovered
        metrics.counter("campaign.missed").value = total.missed
        metrics.counter("campaign.silent").value = total.silent
        metrics.counter("campaign.crashed").value = total.crashed
        metrics.counter("campaign.completed_moves").value = \
            total.completed_moves
        metrics.counter("campaign.deadline_misses").value = \
            total.deadline_misses
        metrics.counter("campaign.restored",
                        "runs restarted from a checkpoint").value = \
            total.restored


class FaultCampaign:
    """Runs the SMD closed loop under seeded per-class fault plans."""

    def __init__(
        self,
        system,
        seed: int = 1,
        runs_per_class: int = 3,
        classes: Sequence[str] = DEFAULT_CLASSES,
        commands=None,
        motor_specs=None,
        max_configuration_cycles: int = 20000,
        faults_per_run: int = 1,
        tracer=None,
        metrics=None,
        restore_from_checkpoint: bool = False,
        checkpoint_every: int = 50,
        max_restarts: int = 3,
    ) -> None:
        unknown = set(classes) - set(ALL_FAULT_KINDS)
        if unknown:
            raise ValueError(f"unknown fault classes {sorted(unknown)}")
        self.system = system
        self.seed = seed
        self.runs_per_class = runs_per_class
        self.classes = tuple(classes)
        self.commands = commands
        self.motor_specs = motor_specs
        self.max_configuration_cycles = max_configuration_cycles
        self.faults_per_run = faults_per_run
        self.tracer = tracer
        self.metrics = metrics
        #: escalate unrecoverable faults and restart the loop from its last
        #: checkpoint instead of counting the run as crashed
        self.restore_from_checkpoint = restore_from_checkpoint
        self.checkpoint_every = checkpoint_every
        self.max_restarts = max_restarts
        self.surface = FaultSurface.from_system(system)

    # -- pieces ------------------------------------------------------------
    def _default_commands(self):
        from repro.workloads import MoveCommand

        return [MoveCommand(60, 45, 8)]

    def _closed_loop(self, injector=None, guard=None, tracer=None):
        # by default the fast motor profile the trace/stats CLI uses, which
        # keeps a full 15-class campaign inside a CI smoke budget
        from repro.workloads import FAST_MOTORS, SmdClosedLoop

        specs = (self.motor_specs if self.motor_specs is not None
                 else FAST_MOTORS)
        return SmdClosedLoop(self.system, motor_specs=specs, tracer=tracer,
                             injector=injector, guard=guard)

    def _one_run(self, fault_class: str, run_number: int,
                 horizon: int) -> RunResult:
        from repro.pscp.machine import MachineError

        rng = random.Random(self.seed * 7919 + run_number)
        plan = FaultPlan.generate(rng, self.surface, [fault_class],
                                  n_faults=self.faults_per_run,
                                  horizon=horizon)
        injector = FaultInjector(plan)
        guard = MachineGuard(
            escalate_unrecoverable=self.restore_from_checkpoint)
        loop = self._closed_loop(injector=injector, guard=guard,
                                 tracer=self.tracer)
        commands = (self.commands if self.commands is not None
                    else self._default_commands())
        crashed = False
        report = None
        try:
            report = loop.run(commands,
                              max_configuration_cycles=
                              self.max_configuration_cycles,
                              restore_from_checkpoint=
                              self.restore_from_checkpoint,
                              checkpoint_every=self.checkpoint_every,
                              max_restarts=self.max_restarts)
        except MachineError:
            crashed = True

        expected = EXPECTED_DETECTOR.get(fault_class)
        detections = [d for d in guard.detections if d.kind == expected] \
            if expected is not None else []
        injected = len(injector.injected)
        detected = bool(detections)
        recovered = any(d.recovered for d in detections)
        missed = (fault_class in DETECTABLE_KINDS and injected > 0
                  and not detected)
        return RunResult(
            fault_class=fault_class,
            run_number=run_number,
            plan=plan.describe(),
            injected=injected,
            detections=[d.describe() for d in guard.detections],
            detected=detected,
            recovered=recovered,
            missed=missed,
            silent=fault_class not in DETECTABLE_KINDS,
            crashed=crashed,
            completed_moves=(report is not None
                             and report.all_moves_completed),
            truncated=report.truncated if report is not None else True,
            deadline_misses=(sum(d.misses for d in report.deadline_reports)
                             if report is not None else 0),
            restored=report is not None and report.restarts > 0,
        )

    # -- the campaign ------------------------------------------------------
    def run(self) -> CampaignReport:
        commands = (self.commands if self.commands is not None
                    else self._default_commands())
        baseline = self._closed_loop().run(
            commands, max_configuration_cycles=self.max_configuration_cycles)
        if not baseline.all_moves_completed:
            raise CampaignError(
                "the fault-free baseline did not complete its moves in "
                f"{self.max_configuration_cycles} configuration cycles")
        horizon = baseline.configuration_cycles
        baseline_misses = sum(d.misses for d in baseline.deadline_reports)

        class_stats: List[ClassStats] = []
        runs: List[RunResult] = []
        run_number = 0
        for fault_class in self.classes:
            stats = ClassStats(fault_class)
            for _ in range(self.runs_per_class):
                result = self._one_run(fault_class, run_number, horizon)
                stats.absorb(result)
                runs.append(result)
                run_number += 1
            class_stats.append(stats)

        report = CampaignReport(
            seed=self.seed,
            runs_per_class=self.runs_per_class,
            classes=self.classes,
            baseline_cycles=horizon,
            baseline_deadline_misses=baseline_misses,
            class_stats=class_stats,
            runs=runs,
        )
        if self.metrics is not None:
            report.publish(self.metrics)
        return report
