"""Detection and recovery: watchdog, exclusivity checker, retry, failover.

The dynamic counterpart of the static timing/verification work: a
:class:`MachineGuard` attached with
:meth:`~repro.pscp.machine.PscpMachine.attach_guard` arms three detectors
inside the machine's configuration cycle:

* **configuration-cycle watchdog** — every transition dispatch gets a cycle
  budget derived from its static ``stub_wcet`` bound (``margin *`` WCET
  ``+ slack``).  A routine exceeding it is aborted at the budget: its
  condition-cache copy-back is suppressed, its raised events dropped, and a
  bounded-retry policy re-posts the routine to the Transition Address Table
  after an exponential backoff;
* **exclusivity-set checker** — the Drusinsky encoding leaves unused code
  points in OR-selector fields, so many corrupted CR state parts decode to
  configurations that violate the chart's exclusivity sets (an active
  OR-state with no — or several — active children, an orphan state, an
  AND-state missing a region).  The checker validates the configuration
  after every state update and recovers to a designer-declared safe state;
* **TEP failover accounting** — when a TEP is marked failed mid-run
  (:meth:`PscpMachine.fail_tep`) the scheduler re-plans over the survivors;
  the guard records the failover and whether survivors remain.

Aborted routines keep whatever RAM writes they performed before the abort —
a real watchdog cannot undo memory either — so retried routines must
tolerate re-execution; the condition/event effects are transactional
(suppressed on abort) because they travel through the cache bridge.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.pscp.machine import MachineError

#: detection kinds
WATCHDOG_ABORT = "watchdog-abort"
ILLEGAL_CONFIGURATION = "illegal-configuration"
TEP_FAILOVER = "tep-failover"
RETRY_EXHAUSTED = "retry-exhausted"
ALL_TEPS_FAILED = "all-teps-failed"


class MachineEscalation(MachineError):
    """An unrecoverable fault, escalated for supervision.

    Raised out of :meth:`PscpMachine.step` when a guard constructed with
    ``escalate_unrecoverable=True`` exhausts its in-cycle recovery options:
    retries exhausted, repeated failed exclusivity recovery, or every TEP
    failed.  Subclasses :class:`~repro.pscp.machine.MachineError`, so code
    that treats machine errors as crashes keeps working; a supervisor
    catches it specifically and restarts the machine from its last
    checkpoint instead.
    """

    def __init__(self, kind: str, cycle: int, target: object = None,
                 detail: str = "") -> None:
        self.kind = kind
        self.cycle = cycle
        self.target = target
        self.detail = detail
        super().__init__(self.describe())

    def describe(self) -> str:
        text = f"unrecoverable {self.kind}@{self.cycle}"
        if self.target is not None:
            text += f" target={self.target}"
        if self.detail:
            text += f" ({self.detail})"
        return text


@dataclass
class Detection:
    """One detector firing (and, eventually, its recovery outcome)."""

    kind: str
    cycle: int
    target: object = None
    detail: str = ""
    #: flipped to True when the recovery completed (retry succeeded, safe
    #: state restored, surviving TEPs took over)
    recovered: bool = False

    def describe(self) -> str:
        text = f"{self.kind}@{self.cycle}"
        if self.target is not None:
            text += f" target={self.target}"
        if self.detail:
            text += f" ({self.detail})"
        return text + (" [recovered]" if self.recovered else "")


def configuration_problems(chart, configuration: FrozenSet[str]) -> List[str]:
    """Exclusivity-set violations of *configuration* against *chart*.

    A legal configuration contains the root, exactly one active child per
    active OR-state, every region of every active AND-state, and no state
    whose parent is inactive.
    """
    problems: List[str] = []
    states = chart.states
    active = set(configuration)
    unknown = active - set(states)
    if unknown:
        problems.append(f"unknown states {sorted(unknown)}")
        active -= unknown
    if chart.root not in active:
        problems.append("root state inactive")
    for name in sorted(active):
        state = states[name]
        if state.parent is not None and state.parent not in active:
            problems.append(f"{name} active but parent {state.parent} is not")
        if not state.children:
            continue
        active_children = [c for c in state.children if c in active]
        from repro.statechart.model import StateKind
        if state.kind is StateKind.AND:
            if len(active_children) != len(state.children):
                missing = sorted(set(state.children) - set(active_children))
                problems.append(f"AND-state {name} missing regions {missing}")
        elif len(active_children) == 0:
            problems.append(f"OR-state {name} has no active child")
        elif len(active_children) > 1:
            problems.append(
                f"OR-state {name} has {len(active_children)} active "
                f"children {active_children} (exclusivity violation)")
    return problems


class MachineGuard:
    """Watchdog + exclusivity checker + retry policy + failover accounting."""

    def __init__(
        self,
        watchdog_margin: float = 4.0,
        watchdog_slack: int = 64,
        max_retries: int = 3,
        backoff_base: int = 1,
        safe_state: Optional[Iterable[str]] = None,
        escalate_unrecoverable: bool = False,
        max_consecutive_illegal: int = 3,
    ) -> None:
        if watchdog_margin < 1.0:
            raise ValueError("watchdog margin must be >= 1 (the WCET bound)")
        self.watchdog_margin = watchdog_margin
        self.watchdog_slack = watchdog_slack
        self.max_retries = max_retries
        self.backoff_base = max(1, backoff_base)
        #: raise :class:`MachineEscalation` out of the cycle when in-cycle
        #: recovery is exhausted, instead of limping on (farm mode)
        self.escalate_unrecoverable = escalate_unrecoverable
        #: consecutive failed exclusivity recoveries before escalating
        self.max_consecutive_illegal = max(1, max_consecutive_illegal)
        self._consecutive_illegal = 0
        self.escalation_count = 0
        self._safe_state_override = (frozenset(safe_state)
                                     if safe_state is not None else None)
        self.machine = None
        self.tracer = None
        self._track: Optional[int] = None
        #: per-transition watchdog budgets (cycles), computed at bind time
        self.budgets: Dict[int, int] = {}
        self.safe_state: FrozenSet[str] = frozenset()
        self.detections: List[Detection] = []
        self._cycle_log: List[Detection] = []
        #: (due cycle, seq, transition index) heap of scheduled retries
        self._retry_heap: List[Tuple[int, int, int]] = []
        self._retry_seq = 0
        self._attempts: Dict[int, int] = {}
        #: transition index -> the Detection awaiting a successful retry
        self._open_aborts: Dict[int, Detection] = {}
        # counters (also published to the metrics registry)
        self.watchdog_aborts = 0
        self.retries_scheduled = 0
        self.retries_succeeded = 0
        self.retries_exhausted = 0
        self.illegal_configurations = 0
        self.safe_state_recoveries = 0
        self.tep_failovers = 0

    # -- wiring ------------------------------------------------------------
    def bind(self, machine) -> None:
        """Called by :meth:`PscpMachine.attach_guard`: pre-compute the
        per-transition watchdog budgets and resolve the safe state."""
        from repro.pscp.machine import stub_wcet

        self.machine = machine
        self.safe_state = (self._safe_state_override
                           if self._safe_state_override is not None
                           else machine.chart.initial_configuration())
        problems = configuration_problems(machine.chart, self.safe_state)
        if problems:
            raise ValueError(f"declared safe state is illegal: {problems}")
        self.budgets = {
            transition.index: int(
                self.watchdog_margin
                * stub_wcet(transition, machine.compiled,
                            machine._param_names)
            ) + self.watchdog_slack
            for transition in machine.chart.transitions
        }

    def attach_tracer(self, tracer) -> None:
        self.tracer = tracer
        self._track = None if tracer is None else tracer.track("recovery")

    # -- logging -----------------------------------------------------------
    def _record(self, detection: Detection) -> Detection:
        self.detections.append(detection)
        self._cycle_log.append(detection)
        if self.tracer is not None:
            time = self.machine.time if self.machine is not None else 0
            self.tracer.instant(self._track, detection.describe(), time,
                                {"kind": detection.kind,
                                 "cycle": detection.cycle})
        return detection

    def _note_escalation(self, cycle: int, kind: str, detail: str) -> None:
        """Mark the escalation in the machine's flight recorder (if any) so
        the forensics bundle carries the cause inline with the ring."""
        from repro.obs.flightrec import FlightRecorder

        recorder = (None if self.machine is None
                    else self.machine.observer(FlightRecorder))
        if recorder is not None:
            recorder.note_escalation(cycle, kind, detail)

    def drain_cycle_log(self) -> Tuple[Detection, ...]:
        if not self._cycle_log:
            return ()
        log = tuple(self._cycle_log)
        self._cycle_log.clear()
        return log

    # -- watchdog + retry --------------------------------------------------
    def on_watchdog_abort(self, cycle: int, transition_index: int) -> None:
        """A dispatch exceeded its budget and was aborted at the budget."""
        self.watchdog_aborts += 1
        attempts = self._attempts.get(transition_index, 0) + 1
        self._attempts[transition_index] = attempts
        detection = self._open_aborts.get(transition_index)
        if detection is None:
            detection = self._record(Detection(
                WATCHDOG_ABORT, cycle, transition_index,
                f"budget {self.budgets.get(transition_index, '?')} exceeded"))
            self._open_aborts[transition_index] = detection
        if attempts > self.max_retries:
            detail = f"gave up after {attempts - 1} retries"
            self._record(Detection(
                RETRY_EXHAUSTED, cycle, transition_index, detail))
            self.retries_exhausted += 1
            del self._open_aborts[transition_index]
            del self._attempts[transition_index]
            if self.escalate_unrecoverable:
                self.escalation_count += 1
                self._note_escalation(cycle, RETRY_EXHAUSTED, detail)
                raise MachineEscalation(
                    RETRY_EXHAUSTED, cycle, transition_index, detail)
            return
        # exponential backoff in configuration cycles: 1, 2, 4, ...
        backoff = self.backoff_base * (1 << (attempts - 1))
        heapq.heappush(self._retry_heap,
                       (cycle + backoff, self._retry_seq, transition_index))
        self._retry_seq += 1
        self.retries_scheduled += 1

    def due_retries(self, cycle: int) -> List[int]:
        """Aborted transitions to re-post to the TAT this cycle."""
        due: List[int] = []
        while self._retry_heap and self._retry_heap[0][0] <= cycle:
            _, _, index = heapq.heappop(self._retry_heap)
            due.append(index)
        return due

    def has_open_abort(self, transition_index: int) -> bool:
        return transition_index in self._open_aborts

    def on_retry_success(self, cycle: int, transition_index: int) -> None:
        """A previously aborted transition completed within budget."""
        detection = self._open_aborts.pop(transition_index, None)
        if detection is not None:
            detection.recovered = True
            detection.detail += f"; retry succeeded at cycle {cycle}"
        self._attempts.pop(transition_index, None)
        self.retries_succeeded += 1
        if self.tracer is not None and detection is not None:
            # the recovery window as a span: abort cycle -> success time
            self.tracer.instant(
                self._track, f"retry-ok t{transition_index}",
                self.machine.time if self.machine is not None else cycle,
                {"transition": transition_index})

    # -- exclusivity checker -----------------------------------------------
    def check_configuration(self, configuration: FrozenSet[str]) -> List[str]:
        problems = configuration_problems(self.machine.chart, configuration)
        if not problems:
            self._consecutive_illegal = 0
        return problems

    def on_illegal_configuration(self, cycle: int,
                                 problems: List[str]) -> FrozenSet[str]:
        """Record the detection; returns the configuration to recover to.

        Safe-state recovery normally succeeds in one shot; if the very next
        checks keep finding an illegal configuration, recovery itself is
        failing (e.g. the corruption re-bites every cycle) and, in farm
        mode, the guard escalates instead of looping forever.
        """
        self.illegal_configurations += 1
        self._consecutive_illegal += 1
        if (self.escalate_unrecoverable
                and self._consecutive_illegal >= self.max_consecutive_illegal):
            detail = (f"safe-state recovery failed "
                      f"{self._consecutive_illegal} consecutive times: "
                      + "; ".join(problems))
            self._record(Detection(
                ILLEGAL_CONFIGURATION, cycle, None, detail))
            self.escalation_count += 1
            self._note_escalation(cycle, ILLEGAL_CONFIGURATION, detail)
            raise MachineEscalation(ILLEGAL_CONFIGURATION, cycle, None,
                                    detail)
        self.safe_state_recoveries += 1
        self._record(Detection(
            ILLEGAL_CONFIGURATION, cycle, None,
            "; ".join(problems), recovered=True))
        return self.safe_state

    def on_all_teps_failed(self, cycle: int) -> None:
        """The last TEP failed: nothing can execute routines any more.

        Records the terminal detection; in farm mode raises
        :class:`MachineEscalation` so a supervisor restarts from snapshot,
        otherwise returns and the machine raises its usual fatal
        :class:`MachineError`.
        """
        self._record(Detection(
            ALL_TEPS_FAILED, cycle, None, "no executor survives"))
        if self.escalate_unrecoverable:
            self.escalation_count += 1
            self._note_escalation(cycle, ALL_TEPS_FAILED,
                                  "no executor survives")
            raise MachineEscalation(ALL_TEPS_FAILED, cycle, None,
                                    "no executor survives")

    # -- failover ----------------------------------------------------------
    def on_tep_failed(self, cycle: int, tep_index: int,
                      survivors: List[int]) -> None:
        self.tep_failovers += 1
        self._record(Detection(
            TEP_FAILOVER, cycle, tep_index,
            f"survivors {survivors}", recovered=bool(survivors)))

    # -- supervision -------------------------------------------------------
    def reset_transient(self) -> None:
        """Clear in-flight recovery state after a restart-from-snapshot.

        Scheduled retries, open aborts, attempt counts and the
        consecutive-illegal streak refer to the timeline the restore just
        discarded; cumulative counters and the detection log are history and
        survive.
        """
        self._retry_heap.clear()
        self._attempts.clear()
        self._open_aborts.clear()
        self._cycle_log.clear()
        self._consecutive_illegal = 0

    # -- reporting ---------------------------------------------------------
    def publish(self, metrics) -> None:
        """Publish detection/recovery counters into a metrics registry."""
        metrics.counter("guard.watchdog_aborts",
                        "dispatches aborted at their cycle budget").value = \
            self.watchdog_aborts
        metrics.counter("guard.retries_scheduled").value = \
            self.retries_scheduled
        metrics.counter("guard.retries_succeeded").value = \
            self.retries_succeeded
        metrics.counter("guard.retries_exhausted").value = \
            self.retries_exhausted
        metrics.counter("guard.illegal_configurations",
                        "exclusivity-set violations detected").value = \
            self.illegal_configurations
        metrics.counter("guard.safe_state_recoveries").value = \
            self.safe_state_recoveries
        metrics.counter("guard.tep_failovers").value = self.tep_failovers
        metrics.counter("guard.escalations",
                        "unrecoverable faults escalated").value = \
            self.escalation_count
