"""Observability: structured tracing, metrics, and exporters.

The measurement layer above the cycle-exact simulator::

    from repro.obs import Tracer, MetricsRegistry, write_chrome_trace

    tracer = Tracer()
    machine.attach(tracer)
    machine.run(stimulus)
    write_chrome_trace(tracer, "trace.json")   # open in ui.perfetto.dev

Design rule: the tracer, the flight recorder and the lineage tracker are
:class:`~repro.pscp.machine.MachineObserver` subclasses attached with
``machine.attach``; a machine with no observer calls no hook, and no
observer changes what the machine computes.
"""

from repro.obs.causal import (
    CausalDag,
    DAG_VERSION,
    FarmLineage,
    dag_flow_events,
    load_dag,
    render_chain,
)
from repro.obs.export import (
    chrome_trace,
    chrome_trace_events,
    merged_chrome_trace,
    metrics_summary,
    trace_summary,
    write_chrome_trace,
    write_merged_chrome_trace,
)
from repro.obs.farm import FarmSampler, ShardAggregator, render_dashboard, \
    sparkline, write_samples
from repro.obs.flightrec import (
    FORENSICS_VERSION,
    SUPPORTED_FORENSICS_VERSIONS,
    FlightRecorder,
    load_forensics_bundle,
    render_forensics,
    write_forensics_bundle,
)
from repro.obs.lineage import LineageTracker
from repro.obs.metrics import (
    DEFAULT_CYCLE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ScopedRegistry,
)
from repro.obs.tracer import COUNTER, INSTANT, SPAN, Tracer

__all__ = [
    "COUNTER", "CausalDag", "Counter", "DAG_VERSION",
    "DEFAULT_CYCLE_BUCKETS", "FORENSICS_VERSION", "FarmLineage",
    "FarmSampler",
    "ShardAggregator", "FlightRecorder", "Gauge",
    "Histogram", "INSTANT", "LineageTracker", "MetricsRegistry",
    "SUPPORTED_FORENSICS_VERSIONS", "ScopedRegistry",
    "SPAN",
    "Tracer", "chrome_trace", "chrome_trace_events", "dag_flow_events",
    "load_dag",
    "load_forensics_bundle", "merged_chrome_trace", "metrics_summary",
    "render_chain",
    "render_dashboard", "render_forensics", "sparkline", "trace_summary",
    "write_chrome_trace", "write_forensics_bundle",
    "write_merged_chrome_trace", "write_samples",
]
