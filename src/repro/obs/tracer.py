"""Structured cycle tracing for the PSCP simulator.

The tracer is the dynamic counterpart of the static timing analysis: it
records *where the reference-clock cycles go* — configuration cycles, SLA
evaluations, scheduler dispatch, per-TEP routine execution, condition-cache
copy traffic — as timestamped events on named tracks, one track per
architectural unit.  The event stream exports to Chrome trace-event JSON
(:mod:`repro.obs.export`) and loads directly in Perfetto.

Zero overhead when detached
---------------------------

The tracer is a :class:`~repro.pscp.machine.MachineObserver`, and a
machine with no observer calls no hook.  Bound to a machine, the tracer
registers its tracks and span names once, so the traced path is a tuple
append per event.  The fault injector and the guard (handed the machine's
tracer) guard each hook with ``if tracer is not None:``.

Timestamps are reference-clock cycles.  The exporter maps one cycle to one
microsecond of trace time, so Perfetto's time axis reads directly in cycles.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.pscp.machine import MachineObserver
from repro.pscp.scheduler import DISPATCH_OVERHEAD_CYCLES, SLA_OVERHEAD_CYCLES
from repro.statechart.labels import action_routine_name

#: event-record kinds (mirror the Chrome trace-event phases they export to)
SPAN = "X"
INSTANT = "i"
COUNTER = "C"


class Tracer(MachineObserver):
    """An in-memory event sink with named tracks.

    Events are stored as flat tuples ``(kind, track_id, name, ts, dur,
    args)`` — cheap to append on the hot path, structured enough for the
    exporters to consume without re-parsing.
    """

    __slots__ = ("events", "_track_ids", "track_names", "metadata",
                 "machine", "_machine_track", "_sla_track",
                 "_scheduler_track", "_tep_tracks", "_bus_track",
                 "_span_names", "_idle_start", "_idle_cycles", "_dispatched",
                 "_words", "_executed")

    def __init__(self) -> None:
        self.events: List[Tuple[str, int, str, int, int,
                                Optional[Dict[str, Any]]]] = []
        self._track_ids: Dict[str, int] = {}
        self.track_names: List[str] = []
        self.metadata: Dict[str, Any] = {}
        self.machine = None  # bind() sets the track ids and span names
        self._idle_start: Optional[int] = None  # pending quiescent run
        self._idle_cycles = 0

    # -- tracks -----------------------------------------------------------
    def track(self, name: str) -> int:
        """Return (registering on first use) the integer id of a track."""
        track_id = self._track_ids.get(name)
        if track_id is None:
            track_id = len(self.track_names)
            self._track_ids[name] = track_id
            self.track_names.append(name)
        return track_id

    # -- recording --------------------------------------------------------
    def span(self, track_id: int, name: str, start: int, duration: int,
             args: Optional[Dict[str, Any]] = None) -> None:
        """A complete span: *name* occupied *track* for *duration* cycles."""
        self.events.append((SPAN, track_id, name, start, duration, args))

    def instant(self, track_id: int, name: str, ts: int,
                args: Optional[Dict[str, Any]] = None) -> None:
        """A point event at *ts*."""
        self.events.append((INSTANT, track_id, name, ts, 0, args))

    def counter(self, track_id: int, name: str, ts: int, value: int) -> None:
        """A sampled counter value (renders as a counter track)."""
        self.events.append((COUNTER, track_id, name, ts, value, None))

    # -- the machine observer ----------------------------------------------
    def bind(self, machine) -> None:
        """Register the machine's tracks and per-transition span names."""
        self.machine = machine
        self._machine_track = self.track("machine")
        self._sla_track = self.track("SLA")
        self._scheduler_track = self.track("scheduler")
        self._tep_tracks = [self.track(f"TEP {index}")
                            for index in range(machine.arch.n_teps)]
        self._bus_track = self.track("cond-cache bus")
        self._span_names = {
            t.index: f"t{t.index} " + (action_routine_name(t.action)
                                       if t.action else "(no action)")
            for t in machine.chart.transitions}
        self.metadata.setdefault("architecture", machine.arch.describe())
        self.metadata.setdefault("chart", machine.chart.name)
        self._idle_start = None
        self._idle_cycles = 0
        #: this cycle's ``{transition: (cycles, instructions)}``, or None
        self._dispatched: Optional[Dict[int, Tuple[int, int]]] = None

    def flush(self) -> None:
        """Emit the pending idle span (also before exporting mid-run)."""
        if self._idle_start is None:
            return
        self.span(self._machine_track, "idle", self._idle_start,
                  self._idle_cycles * SLA_OVERHEAD_CYCLES,
                  {"cycles": self._idle_cycles})
        self._idle_start = None
        self._idle_cycles = 0

    def on_sla(self, cycle, sampled, enabled, retries) -> None:
        machine = self.machine
        if not enabled and not sampled and not retries:
            # quiescent cycle: coalesce into one pending "idle" span
            # instead of paying for per-cycle event emission
            if self._idle_start is None:
                self._idle_start = machine.time
            self._idle_cycles += 1
            self._dispatched = None
            return
        self.flush()
        self.span(self._sla_track, "SLA eval", machine.time,
                  SLA_OVERHEAD_CYCLES, {"enabled": len(enabled)})
        for name in sorted(sampled):
            self.instant(self._machine_track, name, machine.time)
        self._words = machine.cond_cache_bridge.words_total
        self._executed = machine.executor.instructions_executed
        self._dispatched = {}

    def on_dispatch(self, cycle, index, completed, cost, raised,
                    port_accesses) -> None:
        dispatched = self._dispatched
        if dispatched is not None:
            executed = self.machine.executor.instructions_executed
            dispatched[index] = (cost, executed - self._executed)
            self._executed = executed

    def record_step(self, cycle, step) -> None:
        """Emit the cycle's spans, raise instants and cache-word count."""
        dispatched = self._dispatched
        if dispatched is None:
            return
        self._dispatched = None
        start, end = step.start_time, step.end_time
        self.span(self._machine_track, "cycle", start, step.cycle_length,
                  {"cycle": cycle, "fired": len(step.fired)})
        plan = step.plan
        if plan is not None:
            parallel_start = start + SLA_OVERHEAD_CYCLES
            self.span(self._scheduler_track, "TAT drain", parallel_start,
                      step.cycle_length - SLA_OVERHEAD_CYCLES,
                      {"transitions": len(plan.order)})
            for index, tep_index in plan.diverted:
                self.instant(self._scheduler_track, "mutex-serialize",
                             parallel_start,
                             {"transition": index, "tep": tep_index})
            for tep_index, queue in enumerate(plan.queues):
                cursor = parallel_start
                for index in queue:
                    cost, retired = dispatched[index]
                    duration = DISPATCH_OVERHEAD_CYCLES + cost
                    self.span(self._tep_tracks[tep_index],
                              self._span_names[index], cursor, duration,
                              {"transition": index, "cycles": cost,
                               "instructions": retired})
                    cursor += duration
        for name in sorted(step.events_raised):
            self.instant(self._machine_track, f"raise {name}", end)
        words = self.machine.cond_cache_bridge.words_total - self._words
        if words:
            self.counter(self._bus_track, "cache words", end, words)

    # -- inspection -------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def spans(self) -> List[Tuple[str, int, str, int, int,
                                  Optional[Dict[str, Any]]]]:
        return [event for event in self.events if event[0] == SPAN]

    def events_on(self, track_name: str):
        track_id = self._track_ids.get(track_name)
        return [event for event in self.events if event[1] == track_id]
