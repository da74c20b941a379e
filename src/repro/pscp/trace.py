"""Cycle traces and deadline monitoring.

The paper's timing constraints (Table 2) are event arrival periods: an
event arriving every P reference-clock cycles must be consumed before its
next arrival.  The :class:`DeadlineMonitor` watches a machine's steps and
records, per constrained event, the latency from arrival to the end of the
configuration cycle that consumed it — the dynamic counterpart of the static
event-cycle bounds, used by the closed-loop validation benchmark.

Miss accounting is explicit, decided at the moment the outcome is known:

* an arrival still unconsumed when the next arrival of the same event lands
  is **superseded** (the CR event bit is overwritten) — a miss, recorded at
  :meth:`DeadlineMonitor.arrival` time;
* an arrival sampled into a configuration cycle that fires no consuming
  transition is **dropped** ("events are only available during a single
  system cycle") — a miss, recorded at :meth:`DeadlineMonitor.observe` time;
* a consumed arrival whose latency exceeds the period is a **late** miss;
* the final, still-open arrival is a miss only once the machine's clock has
  already advanced past its deadline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.pscp.machine import MachineStep
from repro.statechart.model import Chart


@dataclass
class EventRecord:
    """One arrival of a constrained event."""

    event: str
    arrival_time: int
    consumed_time: Optional[int] = None
    #: overwritten by a newer arrival before any cycle consumed it
    superseded: bool = False
    #: sampled into a cycle whose fired transitions did not consume it
    dropped: bool = False
    #: machine time of the superseding arrival / the dropping cycle's end
    resolved_at: Optional[int] = None
    #: the consuming cycle's start and length (critical-path attribution)
    consumed_start: Optional[int] = None
    consumed_length: Optional[int] = None

    @property
    def outcome(self) -> str:
        if self.superseded:
            return "superseded"
        if self.dropped:
            return "dropped"
        if self.consumed_time is not None:
            return "consumed"
        return "open"

    @property
    def latency(self) -> Optional[int]:
        if self.consumed_time is None:
            return None
        return self.consumed_time - self.arrival_time

    def is_miss(self, period: int, now: Optional[int] = None) -> bool:
        """Did this arrival miss its deadline?

        ``now`` (the latest observed machine time) decides the still-open
        case: unconsumed and already past the deadline is a miss.
        """
        if self.superseded or self.dropped:
            return True
        if self.consumed_time is not None:
            return self.latency > period
        return now is not None and now - self.arrival_time > period


@dataclass
class DeadlineReport:
    event: str
    period: int
    arrivals: int
    consumed: int
    worst_latency: Optional[int]
    misses: int
    superseded: int = 0
    dropped: int = 0

    @property
    def met(self) -> bool:
        return self.misses == 0 and self.arrivals == self.consumed


class DeadlineMonitor:
    """Feed it every arrival and every machine step; ask for reports."""

    def __init__(self, chart: Chart) -> None:
        self.chart = chart
        self.periods: Dict[str, int] = {
            event.name: event.period
            for event in chart.constrained_events()}
        self.records: Dict[str, List[EventRecord]] = {
            name: [] for name in self.periods}
        self._open: Dict[str, EventRecord] = {}
        self._now: Optional[int] = None
        #: (start, end, kind) spans of cycles the guard spent recovering —
        #: fed only when a step carries recoveries, so the common path
        #: stays one truthiness check per observed step
        self._anomalies: List[tuple] = []

    def arrival(self, event: str, time: int) -> None:
        """An external constrained event was offered to the machine."""
        if event not in self.periods:
            return
        # a still-unconsumed previous arrival is overwritten — explicit miss
        previous = self._open.get(event)
        if previous is not None:
            previous.superseded = True
            previous.resolved_at = time
        record = EventRecord(event, time)
        self.records[event].append(record)
        self._open[event] = record

    def observe(self, step: MachineStep) -> None:
        """Give the monitor the machine step that sampled recent arrivals."""
        self._now = step.end_time
        if step.recoveries:
            self._note_anomalies(step)
        for event in step.events_sampled:
            record = self._open.get(event)
            if record is None:
                continue
            if any(t.consumes(event) for t in step.fired):
                record.consumed_time = step.end_time
                record.consumed_start = step.start_time
                record.consumed_length = step.cycle_length
            else:
                # the CR resets the event part at end of cycle: an arrival
                # sampled but not consumed this cycle is gone for good
                record.dropped = True
                record.resolved_at = step.end_time
            del self._open[event]

    def advance(self, now: int) -> None:
        """The machine repeated cycles (:meth:`PscpMachine.repeat
        <repro.pscp.machine.PscpMachine.repeat>`) up to *now*: no arrival
        was open for their input, so only the clock moves."""
        self._now = now

    def _note_anomalies(self, step: MachineStep) -> None:
        """Classify a recovery-bearing cycle for latency attribution."""
        kinds = {r.kind for r in step.recoveries}
        retry_kinds = {"watchdog-abort", "retry-exhausted"}
        kind = "retry" if kinds & retry_kinds else "restart"
        self._anomalies.append((step.start_time, step.end_time, kind))

    def report(self, event: str) -> DeadlineReport:
        period = self.periods[event]
        records = self.records[event]
        consumed = [r for r in records if r.latency is not None]
        return DeadlineReport(
            event=event,
            period=period,
            arrivals=len(records),
            consumed=len(consumed),
            worst_latency=max((r.latency for r in consumed), default=None),
            misses=sum(1 for r in records if r.is_miss(period, self._now)),
            superseded=sum(1 for r in records if r.superseded),
            dropped=sum(1 for r in records if r.dropped),
        )

    def reports(self) -> List[DeadlineReport]:
        return [self.report(event) for event in self.periods]

    def all_met(self) -> bool:
        return all(report.misses == 0 for report in self.reports())

    # -- critical-path attribution -----------------------------------------
    def explain(self, miss, ledger_timeline=None) -> Dict[str, object]:
        """Where did one arrival's latency go?  *miss* is an
        :class:`EventRecord` or an event name (the worst miss of that
        event is picked; with no miss, the worst consumed latency).

        Returns the dominant path split into cycle-cost segments:
        ``queued`` (arrival to the start of the resolving cycle, minus
        recovery cycles), ``retry`` (watchdog-abort/retry cycles inside
        the wait), ``restart`` (safe-state/failover recovery cycles) and
        ``dispatch`` (the consuming cycle itself).  *ledger_timeline* — a
        supervisor :attr:`~repro.resil.supervisor.FarmLedger.timeline` —
        adds tick-stamped shed/restart-from-checkpoint annotations from
        the farm layer.  Deterministic: same run, same answer.
        """
        record = miss if isinstance(miss, EventRecord) \
            else self._pick_record(miss)
        period = self.periods.get(record.event)
        is_miss = period is not None and record.is_miss(period, self._now)
        if record.consumed_start is not None:
            resolved = record.consumed_start
        elif record.resolved_at is not None:
            resolved = record.resolved_at
        else:
            resolved = self._now if self._now is not None \
                else record.arrival_time
        resolved = max(resolved, record.arrival_time)

        retry = restart = 0
        for start, end, kind in self._anomalies:
            if start >= record.arrival_time and end <= resolved:
                if kind == "retry":
                    retry += end - start
                else:
                    restart += end - start
        queued = max(0, resolved - record.arrival_time - retry - restart)
        segments = [{"kind": "queued", "cycles": queued}]
        if retry:
            segments.append({"kind": "retry", "cycles": retry})
        if restart:
            segments.append({"kind": "restart", "cycles": restart})
        if record.consumed_length is not None:
            segments.append({"kind": "dispatch",
                             "cycles": record.consumed_length})
        dominant = max(segments, key=lambda s: (s["cycles"], s["kind"]))

        annotations = []
        if ledger_timeline:
            farm_kinds = {"shed", "respawn", "promotion", "backoff",
                          "worker-lost", "process-kill"}
            annotations = [dict(entry) for entry in ledger_timeline
                           if entry.get("kind") in farm_kinds]
        outcome = record.outcome
        if outcome == "consumed":
            outcome = "late" if is_miss else "met"
        elif outcome == "open" and is_miss:
            outcome = "expired-open"
        return {
            "event": record.event,
            "arrival_time": record.arrival_time,
            "period": period,
            "deadline": (record.arrival_time + period
                         if period is not None else None),
            "outcome": outcome,
            "miss": is_miss,
            "latency": record.latency,
            "segments": segments,
            "dominant": dominant["kind"],
            "annotations": annotations,
        }

    def _pick_record(self, event: str) -> EventRecord:
        records = self.records.get(event)
        if not records:
            raise KeyError(f"no arrivals recorded for event {event!r}")
        period = self.periods[event]
        misses = [r for r in records if r.is_miss(period, self._now)]
        pool = misses if misses else records
        return max(pool, key=lambda r: (r.latency or 0, r.arrival_time))

    def publish(self, metrics) -> None:
        """Publish the monitor's state into a metrics registry
        (:class:`repro.obs.MetricsRegistry`)."""
        for report in self.reports():
            prefix = f"deadline.{report.event}"
            metrics.counter(f"{prefix}.arrivals",
                            "constrained-event arrivals").value = \
                report.arrivals
            metrics.counter(f"{prefix}.consumed").value = report.consumed
            metrics.counter(f"{prefix}.misses").value = report.misses
            metrics.gauge(f"{prefix}.period_cycles").set(report.period)
            histogram = metrics.histogram(
                f"{prefix}.latency_cycles",
                "arrival-to-consumption latency")
            histogram.reset()  # publish() snapshots the whole run
            for record in self.records[report.event]:
                if record.latency is not None:
                    histogram.observe(record.latency)
