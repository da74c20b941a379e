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

    def arrival(self, event: str, time: int) -> None:
        """An external constrained event was offered to the machine."""
        if event not in self.periods:
            return
        # a still-unconsumed previous arrival is overwritten — explicit miss
        previous = self._open.get(event)
        if previous is not None:
            previous.superseded = True
        record = EventRecord(event, time)
        self.records[event].append(record)
        self._open[event] = record

    def observe(self, step: MachineStep) -> None:
        """Give the monitor the machine step that sampled recent arrivals."""
        self._now = step.end_time
        for event in step.events_sampled:
            record = self._open.get(event)
            if record is None:
                continue
            if any(t.consumes(event) for t in step.fired):
                record.consumed_time = step.end_time
            else:
                # the CR resets the event part at end of cycle: an arrival
                # sampled but not consumed this cycle is gone for good
                record.dropped = True
            del self._open[event]

    def advance(self, now: int) -> None:
        """The machine repeated cycles (:meth:`PscpMachine.repeat
        <repro.pscp.machine.PscpMachine.repeat>`) up to *now*: no arrival
        was open for their input, so only the clock moves."""
        self._now = now

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
