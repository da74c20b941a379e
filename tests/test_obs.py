"""Tests for the observability layer: tracer, metrics, exporters, and the
tracing hooks in the machine/TEP/flow.

The load-bearing property is enable/disable parity: an attached tracer must
observe the machine without perturbing it — identical ``MachineStep``
results, cycle counts and architectural state with tracing on and off.
"""

import io
import json

import pytest

from repro.action.check import Externals
from repro.isa import CodeGenerator, MD16_TEP, NameMaps, prepare_program
from repro.obs import (
    Counter,
    FlightRecorder,
    Gauge,
    Histogram,
    LineageTracker,
    MetricsRegistry,
    Tracer,
    chrome_trace,
    metrics_summary,
    trace_summary,
    write_chrome_trace,
)
from repro.pscp import PscpMachine
from repro.sla.blif import emit_blif, parse_blif
from repro.statechart import ChartBuilder


def build_machine(chart, source, arch=MD16_TEP, **kwargs):
    externals = Externals.from_chart(chart)
    checked = prepare_program(source, arch, externals)
    maps = NameMaps.from_chart(chart)
    compiled = CodeGenerator(checked, arch, maps=maps).compile()
    params = {f.name: [p.name for p in f.params]
              for f in checked.program.functions}
    return PscpMachine(chart, compiled, param_names=params, **kwargs)


def pingpong_chart():
    b = ChartBuilder("pingpong")
    b.event("GO", period=500).event("BACK")
    b.condition("FLAG")
    with b.or_state("Top", default="A"):
        b.basic("A").transition("B", label="GO/Work()")
        b.basic("B").transition("A", label="BACK/SetTrue(FLAG)")
    return b.build()


PINGPONG_ROUTINES = """
int:16 total;
void Work() { total = total + 3; }
"""

STIMULUS = [{"GO"}, {"BACK"}, set(), {"GO"}, {"BACK"}, {"GO"}]


def step_fingerprint(step):
    return (tuple(t.index for t in step.fired), step.configuration,
            step.cycle_length, step.start_time, step.end_time,
            step.events_sampled, step.events_raised)


class TestTracerParity:
    def test_identical_steps_with_tracing_on_and_off(self):
        chart = pingpong_chart()
        plain = build_machine(chart, PINGPONG_ROUTINES)
        traced = build_machine(chart, PINGPONG_ROUTINES)
        traced.attach(Tracer())

        plain_steps = plain.run(STIMULUS)
        traced_steps = traced.run(STIMULUS)

        assert ([step_fingerprint(s) for s in plain_steps]
                == [step_fingerprint(s) for s in traced_steps])
        assert plain.time == traced.time
        assert plain.read_global("total") == traced.read_global("total")
        assert plain.cr.conditions == traced.cr.conditions

    def test_identical_steps_with_every_observer_attached(self):
        chart = pingpong_chart()
        plain = build_machine(chart, PINGPONG_ROUTINES)
        observed = build_machine(chart, PINGPONG_ROUTINES)
        tracer, recorder, lineage = Tracer(), FlightRecorder(), \
            LineageTracker()
        observed.attach(tracer)
        observed.attach(recorder)
        observed.attach(lineage)

        plain_steps = plain.run(STIMULUS)
        observed_steps = observed.run(STIMULUS)

        assert ([step_fingerprint(s) for s in plain_steps]
                == [step_fingerprint(s) for s in observed_steps])
        assert plain.time == observed.time
        assert plain.read_global("total") == observed.read_global("total")
        assert plain.cr.conditions == observed.cr.conditions
        # each observer really ran on the hot path
        assert len(tracer) and len(recorder) == len(STIMULUS)
        assert lineage.hops

    def test_detach_restores_disabled_path(self):
        machine = build_machine(pingpong_chart(), PINGPONG_ROUTINES)
        tracer = Tracer()
        machine.attach(tracer)
        machine.step({"GO"})
        recorded = len(tracer)
        assert recorded > 0
        machine.detach(tracer)
        assert machine.observers == ()
        machine.step({"BACK"})
        assert len(tracer) == recorded

    def test_disabled_by_default(self):
        machine = build_machine(pingpong_chart(), PINGPONG_ROUTINES)
        assert machine.observers == ()
        assert machine.observer(Tracer) is None
        machine.step({"GO"})  # must not touch any tracer


class TestMachineTracing:
    def trace(self):
        machine = build_machine(pingpong_chart(), PINGPONG_ROUTINES)
        tracer = Tracer()
        machine.attach(tracer)
        steps = machine.run(STIMULUS)
        return machine, tracer, steps

    def test_tracks_registered(self):
        _machine, tracer, _steps = self.trace()
        assert {"machine", "SLA", "scheduler", "TEP 0",
                "cond-cache bus"} <= set(tracer.track_names)

    def test_cycle_and_idle_spans_cover_machine_time(self):
        machine, tracer, _steps = self.trace()
        cycle_spans = [e for e in tracer.spans() if e[2] == "cycle"]
        idle_spans = [e for e in tracer.spans() if e[2] == "idle"]
        # quiescent cycles are coalesced into "idle" spans; together they
        # account for every configuration cycle and every reference cycle
        assert (len(cycle_spans)
                + sum(span[5]["cycles"] for span in idle_spans)
                == machine.cycle_count)
        assert idle_spans, "the empty-stimulus cycle must coalesce"
        assert (sum(span[4] for span in cycle_spans)
                + sum(span[4] for span in idle_spans) == machine.time)

    def test_tep_spans_carry_costs_and_instructions(self):
        _machine, tracer, _steps = self.trace()
        tep_spans = tracer.events_on("TEP 0")
        assert tep_spans, "fired transitions must appear on the TEP track"
        for _kind, _track, name, _ts, dur, args in tep_spans:
            assert args["cycles"] > 0
            assert args["instructions"] > 0
            assert dur > args["cycles"]  # includes dispatch overhead

    def test_sampled_events_become_instants(self):
        _machine, tracer, _steps = self.trace()
        instants = {e[2] for e in tracer.events if e[0] == "i"}
        assert {"GO", "BACK"} <= instants

    def test_cache_traffic_counted(self):
        machine, tracer, steps = self.trace()
        bridge = machine.cond_cache_bridge
        assert bridge.transfers == sum(len(s.fired) for s in steps)
        assert bridge.words_copied_in == bridge.words_copied_back > 0
        counters = [e for e in tracer.events if e[0] == "C"]
        assert sum(e[4] for e in counters) == bridge.words_total


class TestHistoryModes:
    def test_default_history_unbounded(self):
        # the machine keeps no step history: run() returns every step
        machine = build_machine(pingpong_chart(), PINGPONG_ROUTINES)
        steps = machine.run(STIMULUS)
        assert len(steps) == machine.cycle_count == len(STIMULUS)
        assert steps[-1].end_time == machine.time


class TestMetrics:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.counter("hits").inc(4)
        registry.gauge("depth").set(7)
        assert registry["hits"].value == 5
        assert registry["depth"].value == 7

    def test_histogram_buckets_and_stats(self):
        histogram = Histogram("lat", buckets=(10, 100))
        for value in (3, 7, 50, 120):
            histogram.observe(value)
        assert histogram.counts == [2, 1]
        assert histogram.overflow == 1
        assert histogram.count == 4
        assert histogram.min == 3 and histogram.max == 120
        assert histogram.mean == pytest.approx(45.0)
        assert histogram.quantile(0.5) == 10

    def test_type_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_collect_is_json_ready(self):
        registry = MetricsRegistry()
        registry.counter("a", "help text").inc()
        registry.histogram("h").observe(12)
        document = json.dumps(registry.collect())
        parsed = json.loads(document)
        assert parsed["a"]["value"] == 1
        assert parsed["h"]["count"] == 1

    def test_summary_table_renders(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(2)
        registry.histogram("h").observe(5)
        text = metrics_summary(registry)
        assert "Metrics" in text and "a" in text and "h" in text


class TestChromeExport:
    def make_tracer(self):
        tracer = Tracer()
        track = tracer.track("unit")
        tracer.span(track, "work", 10, 5, {"k": 1})
        tracer.instant(track, "ping", 12)
        tracer.counter(track, "load", 15, 3)
        return tracer

    def test_chrome_trace_shape(self):
        document = chrome_trace(self.make_tracer())
        events = document["traceEvents"]
        phases = [event["ph"] for event in events]
        assert "X" in phases and "i" in phases and "C" in phases
        span = next(event for event in events if event["ph"] == "X")
        assert span["ts"] == 10 and span["dur"] == 5
        assert span["args"]["k"] == 1
        names = {event["args"]["name"] for event in events
                 if event.get("name") == "thread_name"}
        assert names == {"unit"}
        json.dumps(document)  # must be serializable

    def test_write_chrome_trace_to_path(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(self.make_tracer(), str(path))
        document = json.loads(path.read_text())
        assert document["traceEvents"]

    def test_write_chrome_trace_to_fileobj_with_metrics(self):
        registry = MetricsRegistry()
        registry.counter("n").inc()
        buffer = io.StringIO()
        write_chrome_trace(self.make_tracer(), buffer, registry)
        document = json.loads(buffer.getvalue())
        assert document["otherData"]["metrics"]["n"]["value"] == 1

    def test_trace_summary_text(self):
        text = trace_summary(self.make_tracer())
        assert "unit" in text and "work" in text


class TestBlifMetrics:
    def test_evaluation_counters(self):
        from repro.sla.synth import synthesize

        chart = pingpong_chart()
        model = parse_blif(emit_blif(synthesize(chart)))
        registry = MetricsRegistry()
        model.attach_metrics(registry)
        assignment = {name: False for name in model.inputs}
        model.evaluate(assignment)
        model.evaluate(assignment)
        assert registry["pla.evaluations"].value == 2
        assert registry["pla.product_terms_scanned"].value > 0
        model.attach_metrics(None)
        model.evaluate(assignment)
        assert registry["pla.evaluations"].value == 2


class TestImprovementProfile:
    def test_improver_records_profile(self):
        from repro.flow import (
            Improver,
            improvement_profile_json,
            improvement_profile_report,
        )

        chart = pingpong_chart()
        source = """
int:16 total;
void Work() {
  int:16 i = 0;
  @bound(30) while (i < 30) { total = total + i; i = i + 1; }
}
"""
        result = Improver(chart, source).run()
        profile = improvement_profile_json(result)
        assert len(profile["rungs"]) == len(result.steps)
        assert profile["rungs"][0]["rung"] == "baseline"
        assert all(step.wall_seconds > 0 for step in result.steps)
        assert profile["rungs"][0]["area_delta"] == 0
        document = json.dumps(profile)
        assert "baseline" in document
        report = improvement_profile_report(result)
        assert "Improvement ladder profile" in report


class TestSchedulerDiversions:
    def test_mutual_exclusion_diversion_recorded(self):
        from repro.pscp import round_robin_dispatch

        arch = MD16_TEP.with_(
            n_teps=2,
            mutual_exclusions=frozenset({frozenset({"A", "B"})}))
        routines = {0: "A", 1: "B", 2: "C"}
        plan = round_robin_dispatch([0, 1, 2], routines.get, arch)
        assert plan.diverted == [(1, 0)]
        assert plan.queues[0][:2] == [0, 1]
