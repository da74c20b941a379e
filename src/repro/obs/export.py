"""Trace and metrics exporters.

Two consumers:

* **Perfetto / chrome://tracing** — :func:`chrome_trace` renders a
  :class:`~repro.obs.tracer.Tracer`'s event stream as Chrome trace-event
  JSON (the ``{"traceEvents": [...]}`` object format).  Each tracer track
  becomes a named thread under one "PSCP machine" process, so the TEPs, the
  SLA, the scheduler and the condition-cache bus appear as parallel swim
  lanes.  One reference-clock cycle maps to one microsecond of trace time.

* **terminals** — :func:`trace_summary` aggregates the same stream into the
  plain-text table style of :mod:`repro.flow.report`.

Multi-machine traces
--------------------

A farm run produces one tracer per machine.  :func:`chrome_trace_events`
threads a ``pid`` through every event (defaulting to the historical single
``TRACE_PID``, which keeps single-machine output byte-identical), and
:func:`merged_chrome_trace` lays many tracers out as separate trace-event
*processes* — ``worker0`` is pid 2, ``worker1`` pid 3, ... — with the
supervisor's shed/restart/escalation instants on a dedicated pid-1 track,
so one Perfetto page shows the whole farm timeline.
"""

from __future__ import annotations

import json
from typing import IO, Any, Dict, Iterable, List, Mapping, Optional, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import COUNTER, INSTANT, SPAN, Tracer

#: the default trace-event process single-machine tracks live under (the
#: supervisor claims it in merged farm traces; machines get pid 2, 3, ...)
TRACE_PID = 1

#: first pid handed to a machine in a merged farm trace
FIRST_MACHINE_PID = TRACE_PID + 1


def chrome_trace_events(tracer: Tracer, pid: int = TRACE_PID,
                        process_name: str = "PSCP machine",
                        process_sort_index: Optional[int] = None
                        ) -> List[Dict[str, Any]]:
    """The tracer's events in Chrome trace-event form (list of dicts).

    *pid* names the trace-event process all this tracer's tracks live
    under; the default keeps the historical single-machine output
    byte-identical.  *process_sort_index* orders processes in the viewer
    (emitted only when given, again to preserve the default output).
    """
    events: List[Dict[str, Any]] = [{
        "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
        "args": {"name": process_name},
    }]
    if process_sort_index is not None:
        events.append({
            "ph": "M", "name": "process_sort_index", "pid": pid, "tid": 0,
            "args": {"sort_index": process_sort_index}})
    for track_id, track_name in enumerate(tracer.track_names):
        events.append({
            "ph": "M", "name": "thread_name", "pid": pid,
            "tid": track_id, "args": {"name": track_name}})
        events.append({
            "ph": "M", "name": "thread_sort_index", "pid": pid,
            "tid": track_id, "args": {"sort_index": track_id}})
    for kind, track_id, name, ts, dur, args in tracer.events:
        if kind == SPAN:
            event = {"ph": "X", "name": name, "pid": pid,
                     "tid": track_id, "ts": ts, "dur": dur}
        elif kind == INSTANT:
            event = {"ph": "i", "name": name, "pid": pid,
                     "tid": track_id, "ts": ts, "s": "t"}
        elif kind == COUNTER:
            event = {"ph": "C", "name": name, "pid": pid,
                     "tid": track_id, "ts": ts, "args": {name: dur}}
        else:  # pragma: no cover - tracer only emits the three kinds
            continue
        if args:
            event.setdefault("args", {}).update(args)
        events.append(event)
    return events


def chrome_trace(tracer: Tracer,
                 metrics: Optional[MetricsRegistry] = None
                 ) -> Dict[str, Any]:
    """The full trace JSON object (``traceEvents`` + metadata)."""
    document: Dict[str, Any] = {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": dict(tracer.metadata),
    }
    if metrics is not None:
        document["otherData"]["metrics"] = metrics.collect()
    return document


def write_chrome_trace(tracer: Tracer, destination: Union[str, IO[str]],
                       metrics: Optional[MetricsRegistry] = None) -> None:
    """Serialize :func:`chrome_trace` to a path or file object."""
    document = chrome_trace(tracer, metrics)
    if hasattr(destination, "write"):
        json.dump(document, destination)
    else:
        with open(destination, "w") as handle:
            json.dump(document, handle)


def merged_chrome_trace(tracers: Mapping[str, Tracer],
                        supervisor_events: Optional[
                            Iterable[Dict[str, Any]]] = None,
                        metrics: Optional[MetricsRegistry] = None,
                        dropped_events: int = 0,
                        flows: Optional[
                            Iterable[Dict[str, Any]]] = None
                        ) -> Dict[str, Any]:
    """One trace document for a whole farm.

    *tracers* maps machine names (``worker0``, ...) to their tracers; each
    becomes its own trace-event process (pid 2, 3, ... in mapping order) so
    the tracks of different machines never collide.  *supervisor_events* —
    dicts with ``tick``, ``kind`` and optional ``worker``/``detail`` keys,
    as recorded on :attr:`~repro.resil.supervisor.FarmLedger.timeline` —
    land as instants on a dedicated pid-1 "farm supervisor" track (one
    supervisor tick maps to one microsecond, like one machine cycle does).

    *flows* — ready-made Chrome flow-event dicts (``ph: "s"``/``"f"``
    pairs from :func:`repro.obs.causal.dag_flow_events`) — are appended
    verbatim, drawing the causal lineage as arrows across the farm's
    process tracks in Perfetto.  ``None`` (the default) keeps the output
    byte-identical to the historical export.

    The supervisor timeline is a bounded ring; when events aged out, pass
    the ledger's ``timeline_dropped`` as *dropped_events* — the trace then
    carries the truncation honestly (metadata plus a leading instant)
    instead of silently presenting a partial timeline as complete.
    """
    events: List[Dict[str, Any]] = [
        {"ph": "M", "name": "process_name", "pid": TRACE_PID, "tid": 0,
         "args": {"name": "farm supervisor"}},
        {"ph": "M", "name": "process_sort_index", "pid": TRACE_PID,
         "tid": 0, "args": {"sort_index": 0}},
        {"ph": "M", "name": "thread_name", "pid": TRACE_PID, "tid": 0,
         "args": {"name": "supervisor"}},
    ]
    for event in supervisor_events or ():
        args = {key: value for key, value in event.items()
                if key not in ("tick", "kind") and value is not None}
        record: Dict[str, Any] = {
            "ph": "i", "name": event["kind"], "pid": TRACE_PID, "tid": 0,
            "ts": event["tick"], "s": "t"}
        if args:
            record["args"] = args
        events.append(record)
    metadata: Dict[str, Any] = {"machines": {}}
    if dropped_events:
        metadata["supervisor_timeline_dropped"] = dropped_events
        events.append({
            "ph": "i", "name": "timeline-truncated", "pid": TRACE_PID,
            "tid": 0, "ts": 0, "s": "t",
            "args": {"dropped": dropped_events,
                     "detail": f"{dropped_events} oldest supervisor "
                               f"event(s) aged out of the ring"}})
    for index, (name, tracer) in enumerate(tracers.items()):
        pid = FIRST_MACHINE_PID + index
        events.extend(chrome_trace_events(
            tracer, pid=pid, process_name=name,
            process_sort_index=index + 1))
        metadata["machines"][name] = {"pid": pid,
                                      **dict(tracer.metadata)}
    if flows is not None:
        flow_events = list(flows)
        events.extend(flow_events)
        metadata["lineage_flow_events"] = len(flow_events)
    document: Dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": metadata,
    }
    if metrics is not None:
        document["otherData"]["metrics"] = metrics.collect()
    return document


def write_merged_chrome_trace(tracers: Mapping[str, Tracer],
                              destination: Union[str, IO[str]],
                              supervisor_events: Optional[
                                  Iterable[Dict[str, Any]]] = None,
                              metrics: Optional[MetricsRegistry] = None,
                              dropped_events: int = 0,
                              flows: Optional[
                                  Iterable[Dict[str, Any]]] = None) -> None:
    """Serialize :func:`merged_chrome_trace` to a path or file object."""
    document = merged_chrome_trace(tracers, supervisor_events, metrics,
                                   dropped_events=dropped_events,
                                   flows=flows)
    if hasattr(destination, "write"):
        json.dump(document, destination)
    else:
        with open(destination, "w") as handle:
            json.dump(document, handle)


def trace_summary(tracer: Tracer,
                  metrics: Optional[MetricsRegistry] = None) -> str:
    """Plain-text roll-up: per-track span totals, busiest span names, and
    (when given) the metrics registry."""
    from repro.flow.report import ascii_table  # deferred: avoids a cycle
    # through repro.flow.__init__, which imports modules that use repro.obs

    per_track: Dict[int, List[int]] = {}
    per_name: Dict[str, List[int]] = {}
    instants = 0
    for kind, track_id, name, _ts, dur, _args in tracer.events:
        if kind == SPAN:
            per_track.setdefault(track_id, [0, 0])
            per_name.setdefault(name, [0, 0])
            for bucket in (per_track[track_id], per_name[name]):
                bucket[0] += 1
                bucket[1] += dur
        elif kind == INSTANT:
            instants += 1

    parts: List[str] = []
    track_rows = [
        (tracer.track_names[track_id], count, cycles)
        for track_id, (count, cycles) in sorted(per_track.items())]
    parts.append(ascii_table(["Track", "Spans", "Busy cycles"], track_rows,
                             title="Trace summary (per track)"))
    name_rows = sorted(per_name.items(), key=lambda item: -item[1][1])[:12]
    parts.append(ascii_table(
        ["Span", "Count", "Total cycles"],
        [(name, count, cycles) for name, (count, cycles) in name_rows],
        title="Busiest spans"))
    parts.append(f"{len(tracer.events)} events total "
                 f"({instants} instants) on {len(tracer.track_names)} tracks")
    if metrics is not None:
        parts.append(metrics_summary(metrics))
    return "\n\n".join(parts)


def metrics_summary(metrics: MetricsRegistry) -> str:
    from repro.flow.report import ascii_table  # deferred (see trace_summary)

    return ascii_table(["Metric", "Type", "Value"], metrics.summary_rows(),
                       title="Metrics")
