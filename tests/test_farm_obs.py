"""Tests for farm-wide observability: the flight recorder, forensics
bundles, the farm sampler/dashboard, and the merged multi-machine trace.

The load-bearing properties:

* **near-zero, non-perturbing recorder** — a machine with a flight
  recorder attached produces the byte-identical step sequence of an
  uninstrumented one, and the ring rides through snapshot/restore without
  changing the continuation;
* **forensics completeness** — every escalation dumps a versioned bundle
  whose ring tail is exactly the machine's last executed cycles;
* **conservation at every tick** — the sampler re-checks the ledger
  identities at each sampled tick, not just at the end;
* **idempotent publication** — publishing farm metrics twice changes
  nothing.
"""

import io
import json
import random

import pytest

from repro.fault import (
    FaultInjector,
    FaultPlan,
    FaultSurface,
)
from repro.fault.model import TEP_FAIL, TEP_RUNAWAY
from repro.flow import build_system, select_initial_architecture
from repro.obs import (
    FORENSICS_VERSION,
    FarmLineage,
    FarmSampler,
    FlightRecorder,
    Histogram,
    MetricsRegistry,
    Tracer,
    chrome_trace_events,
    dag_flow_events,
    load_forensics_bundle,
    merged_chrome_trace,
    render_dashboard,
    render_forensics,
    sparkline,
    write_forensics_bundle,
)
from repro.obs.export import FIRST_MACHINE_PID, TRACE_PID
from repro.fault.model import ProcessKill
from repro.resil import (
    FarmConfig,
    MachineSnapshot,
    RestartPolicy,
    ShardSupervisor,
    SnapshotError,
    Supervisor,
    generate_event_stream,
)
from repro.workloads.generators import parallel_servers


def step_fingerprint(step):
    return (tuple(t.index for t in step.fired), step.configuration,
            step.cycle_length, step.start_time, step.end_time,
            step.events_sampled, step.events_raised,
            step.faults, step.recoveries)


def round_robin_stimulus(chart, cycles):
    events = sorted(chart.events)
    return [[events[i % len(events)]] for i in range(cycles)]


@pytest.fixture(scope="module")
def system():
    chart, routines = parallel_servers(2)
    arch = select_initial_architecture(chart, routines)
    if arch.n_teps < 2:
        arch = arch.with_(n_teps=2)
    return build_system(chart, routines, arch)


# ---------------------------------------------------------------------------
# the flight recorder
# ---------------------------------------------------------------------------

class TestFlightRecorder:
    def test_ring_is_bounded_and_oldest_first(self, system):
        machine = system.make_machine()
        recorder = FlightRecorder(capacity=8)
        machine.attach(recorder)
        stimulus = round_robin_stimulus(system.chart, 20)
        for events in stimulus:
            machine.step(events)
        assert len(recorder) == 8
        assert recorder.recorded == 20
        assert recorder.dropped == 12
        entries = recorder.entries()
        assert [e["cycle"] for e in entries] == list(range(12, 20))
        assert all(e["kind"] == "step" for e in entries)

    def test_ring_tail_matches_machine_history(self, system):
        machine = system.make_machine()
        recorder = FlightRecorder(capacity=6)
        machine.attach(recorder)
        steps = [machine.step(events)
                 for events in round_robin_stimulus(system.chart, 15)]
        tail = steps[-6:]
        entries = recorder.entries()
        assert [e["fired"] for e in entries] == \
            [[t.index for t in s.fired] for s in tail]
        assert [e["start"] for e in entries] == \
            [s.start_time for s in tail]
        assert [e["length"] for e in entries] == \
            [s.cycle_length for s in tail]

    def test_recorder_does_not_perturb_the_run(self, system):
        stimulus = round_robin_stimulus(system.chart, 25)
        plain = system.make_machine()
        observed = system.make_machine()
        observed.attach(FlightRecorder(capacity=4))
        plain_steps = [plain.step(events) for events in stimulus]
        observed_steps = [observed.step(events) for events in stimulus]
        assert ([step_fingerprint(s) for s in plain_steps]
                == [step_fingerprint(s) for s in observed_steps])

    def test_marks_interleave_with_steps(self, system):
        machine = system.make_machine()
        recorder = FlightRecorder(capacity=16)
        machine.attach(recorder)
        stimulus = round_robin_stimulus(system.chart, 4)
        machine.step(stimulus[0])
        recorder.note_checkpoint(machine.cycle_count, "ckpt1@cycle1")
        machine.step(stimulus[1])
        recorder.note_escalation(machine.cycle_count, "retry-exhausted",
                                 "budget spent")
        kinds = [e["kind"] for e in recorder.entries()]
        assert kinds == ["step", "checkpoint", "step", "escalation"]
        assert recorder.last_checkpoint == "ckpt1@cycle1"
        assert recorder.last_escalation["kind"] == "retry-exhausted"

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(capacity=0)


# ---------------------------------------------------------------------------
# forensics bundles
# ---------------------------------------------------------------------------

class TestForensics:
    def _bundle(self, system):
        machine = system.make_machine()
        recorder = FlightRecorder(capacity=8)
        machine.attach(recorder)
        for events in round_robin_stimulus(system.chart, 10):
            machine.step(events)
        recorder.note_checkpoint(9, "w0:ckpt1@cycle9")
        return recorder.forensics_bundle(
            cause={"kind": "escalation", "tick": 7, "detail": "boom"},
            worker="worker0", metrics_delta={"processed": 3})

    def test_bundle_carries_ring_cause_and_context(self, system):
        bundle = self._bundle(system)
        assert bundle["version"] == FORENSICS_VERSION
        assert bundle["worker"] == "worker0"
        assert bundle["cause"]["detail"] == "boom"
        assert bundle["metrics_delta"] == {"processed": 3}
        assert bundle["machine"]["chart"] == system.chart.name
        assert bundle["machine"]["cycle_count"] == 10
        assert bundle["last_checkpoint"] == "w0:ckpt1@cycle9"
        steps = [e for e in bundle["ring"] if e["kind"] == "step"]
        assert steps[-1]["cycle"] == 9

    def test_write_load_round_trip(self, system, tmp_path):
        bundle = self._bundle(system)
        path = tmp_path / "bundle.json"
        write_forensics_bundle(bundle, str(path))
        assert load_forensics_bundle(str(path)) == bundle

    def test_load_refuses_other_versions(self, system, tmp_path):
        bundle = self._bundle(system)
        bundle["version"] = FORENSICS_VERSION + 1
        path = tmp_path / "bundle.json"
        write_forensics_bundle(bundle, str(path))
        with pytest.raises(ValueError, match="version"):
            load_forensics_bundle(str(path))
        path.write_text(json.dumps(["not", "a", "bundle"]))
        with pytest.raises(ValueError, match="version"):
            load_forensics_bundle(str(path))

    def test_render_mentions_cause_and_every_entry(self, system):
        bundle = self._bundle(system)
        text = render_forensics(bundle)
        assert "worker0" in text
        assert "boom" in text
        assert "w0:ckpt1@cycle9" in text
        assert text.count("step") >= len(
            [e for e in bundle["ring"] if e["kind"] == "step"])


# ---------------------------------------------------------------------------
# snapshot integration
# ---------------------------------------------------------------------------

class TestRecorderSnapshots:
    def test_snapshot_has_explicit_null_without_recorder(self, system):
        machine = system.make_machine()
        machine.step(round_robin_stimulus(system.chart, 1)[0])
        document = machine.snapshot().to_json()
        assert "flight_recorder" in document
        assert document["flight_recorder"] is None

    def test_continuation_is_byte_identical_with_recorder(self, system):
        stimulus = round_robin_stimulus(system.chart, 30)
        cut = 11
        original = system.make_machine()
        original_recorder = FlightRecorder(capacity=8)
        original.attach(original_recorder)
        for events in stimulus[:cut]:
            original.step(events)
        snapshot = original.snapshot()
        reference = [original.step(events) for events in stimulus[cut:]]

        restored = system.make_machine()
        restored_recorder = FlightRecorder(capacity=8)
        restored.attach(restored_recorder)
        restored.restore(snapshot)
        continued = [restored.step(events) for events in stimulus[cut:]]

        assert ([step_fingerprint(s) for s in continued]
                == [step_fingerprint(s) for s in reference])
        # both recorders agree on the ring from the continuation on, and
        # re-snapshotting stays byte-identical (digest is a fixpoint)
        assert restored_recorder.entries() == original_recorder.entries()
        assert (restored.snapshot().to_json_str()
                == original.snapshot().to_json_str())

    def test_recorder_state_round_trips_through_json(self, system):
        machine = system.make_machine()
        recorder = FlightRecorder(capacity=4)
        machine.attach(recorder)
        for events in round_robin_stimulus(system.chart, 9):
            machine.step(events)
        recorder.note_checkpoint(9, "ref")
        text = machine.snapshot().to_json_str()
        reparsed = MachineSnapshot.from_json_str(text)
        assert reparsed.to_json_str() == text
        fresh = system.make_machine()
        fresh_recorder = FlightRecorder(capacity=4)
        fresh.attach(fresh_recorder)
        fresh.restore(reparsed)
        assert fresh_recorder.entries() == recorder.entries()
        assert fresh_recorder.recorded == recorder.recorded
        assert fresh_recorder.last_checkpoint == "ref"

    def test_restore_without_recorder_is_refused(self, system):
        machine = system.make_machine()
        machine.attach(FlightRecorder(capacity=4))
        machine.step(round_robin_stimulus(system.chart, 1)[0])
        snapshot = machine.snapshot()
        bare = system.make_machine()
        with pytest.raises(SnapshotError, match="recorder"):
            bare.restore(snapshot)
        # but skipping attachments restores fine
        bare.restore(snapshot, restore_attachments=False)

    def test_old_documents_without_the_field_still_load(self, system):
        machine = system.make_machine()
        machine.step(round_robin_stimulus(system.chart, 1)[0])
        document = machine.snapshot().to_json()
        del document["flight_recorder"]  # a pre-recorder version-1 document
        snapshot = MachineSnapshot.from_json(document)
        assert snapshot.flight_recorder is None


# ---------------------------------------------------------------------------
# trace export: pid threading and the merged document
# ---------------------------------------------------------------------------

class TestTraceExport:
    def _traced_machine(self, system, cycles=10):
        machine = system.make_machine()
        tracer = Tracer()
        machine.attach(tracer)
        for events in round_robin_stimulus(system.chart, cycles):
            machine.step(events)
        tracer.flush()
        return tracer

    def test_default_pid_is_unchanged(self, system):
        tracer = self._traced_machine(system)
        default = chrome_trace_events(tracer)
        explicit = chrome_trace_events(tracer, pid=TRACE_PID)
        assert default == explicit
        assert {e["pid"] for e in default} == {TRACE_PID}

    def test_pid_threads_through_every_event(self, system):
        tracer = self._traced_machine(system)
        events = chrome_trace_events(tracer, pid=7,
                                     process_name="machine seven")
        assert {e["pid"] for e in events} == {7}
        names = [e for e in events if e.get("name") == "process_name"]
        assert names and names[0]["args"]["name"] == "machine seven"

    def test_merged_trace_separates_machines_and_supervisor(self, system):
        tracers = {"worker0": self._traced_machine(system),
                   "worker1": self._traced_machine(system)}
        timeline = [
            {"tick": 3, "kind": "shed", "worker": "worker0",
             "detail": "overload"},
            {"tick": 5, "kind": "escalation", "worker": "worker1",
             "detail": "all-teps-failed"},
            {"tick": 7, "kind": "restart", "worker": "worker1"},
        ]
        document = merged_chrome_trace(tracers, supervisor_events=timeline)
        machines = document["otherData"]["machines"]
        pids = [machines[name]["pid"] for name in ("worker0", "worker1")]
        assert pids == [FIRST_MACHINE_PID, FIRST_MACHINE_PID + 1]
        by_pid = {}
        for event in document["traceEvents"]:
            by_pid.setdefault(event["pid"], []).append(event)
        assert set(by_pid) == {1, FIRST_MACHINE_PID, FIRST_MACHINE_PID + 1}
        instants = [e for e in by_pid[1] if e["ph"] == "i"]
        assert [(e["name"], e["ts"]) for e in instants] == \
            [("shed", 3), ("escalation", 5), ("restart", 7)]
        assert instants[0]["args"]["worker"] == "worker0"

    def test_merged_trace_with_no_supervisor_events(self, system):
        document = merged_chrome_trace(
            {"worker0": self._traced_machine(system)})
        machine_events = [e for e in document["traceEvents"]
                          if e["pid"] == FIRST_MACHINE_PID
                          and e["ph"] != "M"]
        assert machine_events, "machine events missing from merged trace"


# ---------------------------------------------------------------------------
# histogram digests
# ---------------------------------------------------------------------------

class TestHistogramSummary:
    def test_summary_matches_quantiles(self):
        histogram = Histogram("latency", buckets=(1, 2, 4, 8))
        for value in (1, 1, 2, 3, 5, 9):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 6
        assert summary["mean"] == pytest.approx(21 / 6)
        assert summary["p50"] == histogram.quantile(0.50)
        assert summary["p95"] == histogram.quantile(0.95)
        assert summary["p99"] == histogram.quantile(0.99)

    def test_quantile_is_a_bucket_upper_bound(self):
        histogram = Histogram("latency", buckets=(1, 2, 4, 8))
        for value in (3, 3, 5):
            histogram.observe(value)
        # 3 falls in the (2, 4] bucket: the quantile reports the bucket's
        # upper bound — an overestimate bounded by the bucket width,
        # surfaced per percentile in the summary digest
        assert histogram.quantile(0.5) == 4
        assert histogram.quantile_error_bound(0.5) == 4 - 3
        assert (histogram.summary()["quantile_error_bounds"]["p50"]
                == histogram.quantile_error_bound(0.5))
        # the overflow bucket is exact: it reports the observed maximum
        histogram.observe(100)
        assert histogram.quantile(1.0) == 100

    def test_constant_distribution_is_exact(self):
        # a single-sample (or constant) histogram must report its one
        # value, never a bucket bound above anything ever observed
        histogram = Histogram("latency", buckets=(1, 2, 4, 8))
        histogram.observe(3)
        assert histogram.quantile(0.5) == 3
        assert histogram.quantile_error_bound(0.5) == 0
        histogram.observe(3)
        assert histogram.quantile(0.99) == 3

    def test_quantile_clamped_to_observed_max(self):
        # mixed distribution whose top bucket bound exceeds the max: the
        # reported quantile never overshoots the exact observed maximum
        histogram = Histogram("latency", buckets=(1, 2, 4, 8))
        for value in (1, 1, 1, 5):
            histogram.observe(value)
        assert histogram.quantile(0.99) == 5  # bucket bound 8, max 5
        assert histogram.quantile_error_bound(0.99) == 5 - 4

    def test_empty_summary(self):
        summary = Histogram("latency").summary()
        assert summary["count"] == 0
        assert summary["p50"] is None
        assert summary["quantile_error_bounds"]["p50"] is None


# ---------------------------------------------------------------------------
# the sampler, publication idempotence, and the dashboard
# ---------------------------------------------------------------------------

def chaos_factory(system, seed):
    surface = FaultSurface.from_system(system)

    def factory(worker_index):
        rng = random.Random(seed * 6271 + worker_index)
        return FaultInjector(FaultPlan.generate(
            rng, surface, [TEP_RUNAWAY, TEP_FAIL],
            n_faults=5, horizon=30))
    return factory


@pytest.fixture(scope="module")
def chaos_run(system):
    sampler = FarmSampler(every=2)
    supervisor = Supervisor.for_system(
        system, n_workers=2,
        config=FarmConfig(queue_capacity=4, checkpoint_every=8),
        policy=RestartPolicy(),
        injector_factory=chaos_factory(system, seed=3),
        observer_factory=lambda index: [FlightRecorder(capacity=32),
                                        Tracer()],
        sampler=sampler)
    stream = generate_event_stream(system.chart.events, 80, seed=3)
    report = supervisor.run(stream)
    return supervisor, sampler, report


class TestFarmSampler:
    def test_conservation_holds_at_every_sampled_tick(self, chaos_run):
        supervisor, sampler, report = chaos_run
        assert report.conservation() == []
        assert len(sampler) >= 2
        assert sampler.conservation() == []

    def test_samples_land_on_the_period(self, chaos_run):
        _, sampler, _ = chaos_run
        assert all(s["tick"] % sampler.every == 0 for s in sampler.samples)
        ticks = sampler.series("tick")
        assert ticks == sorted(ticks)

    def test_worker_series_and_final_sample_agree_with_report(
            self, chaos_run):
        supervisor, sampler, report = chaos_run
        # the run may end between sampling periods, so the last sample can
        # trail the final report — but never overshoot it
        last = sampler.samples[-1]
        assert last["submitted"] <= report.submitted
        assert last["processed"] <= report.processed
        assert sampler.series("processed") == \
            sorted(sampler.series("processed"))
        for worker in supervisor.workers:
            series = sampler.worker_series(worker.name, "processed")
            assert series[-1] <= worker.processed
            assert series == sorted(series)  # monotone counter

    def test_csv_and_json_exports(self, chaos_run):
        _, sampler, _ = chaos_run
        text = sampler.to_csv()
        lines = text.strip().splitlines()
        assert len(lines) == len(sampler) + 1
        header = lines[0].split(",")
        assert "worker0.queue_depth" in header
        assert "worker1.latency_p95" in header
        assert len(lines[1].split(",")) == len(header)
        buffer = io.StringIO()
        sampler.write_json(buffer)
        document = json.loads(buffer.getvalue())
        assert document["every"] == sampler.every
        assert len(document["samples"]) == len(sampler)

    def test_limit_bounds_memory(self, system):
        sampler = FarmSampler(every=1, limit=3)
        supervisor = Supervisor.for_system(
            system, n_workers=1, config=FarmConfig(queue_capacity=32),
            sampler=sampler)
        stream = generate_event_stream(system.chart.events, 30, seed=1)
        supervisor.run(stream)
        assert len(sampler) == 3
        assert sampler.dropped > 0


class TestEscalationForensics:
    def test_every_escalation_dumps_a_bundle(self, chaos_run):
        supervisor, _, report = chaos_run
        bundles = supervisor.forensics_bundles()
        assert report.escalations >= 1, "chaos never escalated"
        assert len(bundles) == report.escalations
        assert report.forensics_bundles == len(bundles)

    def test_bundle_ring_tail_matches_the_tracer(self, chaos_run):
        supervisor, _, _ = chaos_run
        for worker in supervisor.workers:
            for bundle in worker.forensics:
                steps = [e for e in bundle["ring"] if e["kind"] == "step"]
                assert steps, "escalation with an empty ring"
                # the ring tail is the machine's last completed cycle at
                # dump time: the escalating cycle itself never completed
                assert (steps[-1]["cycle"]
                        == bundle["machine"]["cycle_count"] - 1)
                assert bundle["cause"]["kind"] in (
                    "escalation", "permanent-failure")
                assert bundle["last_checkpoint"].startswith(worker.name)

    def test_supervisor_timeline_names_the_escalations(self, chaos_run):
        _, _, report = chaos_run
        kinds = {entry["kind"] for entry in report.timeline}
        assert "escalation" in kinds
        assert "restart" in kinds
        for entry in report.timeline:
            assert entry["tick"] >= 1


class TestPublishIdempotence:
    def test_publishing_twice_changes_nothing(self, chaos_run):
        supervisor, _, _ = chaos_run
        metrics = MetricsRegistry()
        supervisor.publish(metrics)
        first = json.dumps(metrics.collect(), sort_keys=True)
        supervisor.publish(metrics)
        assert json.dumps(metrics.collect(), sort_keys=True) == first

    def test_latency_histogram_is_copied_not_accumulated(self, chaos_run):
        supervisor, _, _ = chaos_run
        metrics = MetricsRegistry()
        supervisor.publish(metrics)
        supervisor.publish(metrics)
        for worker in supervisor.workers:
            published = metrics.histogram(
                f"farm.{worker.name}.dispatch_latency_ticks")
            assert published.count == worker.latency.count
            assert published.sum == worker.latency.sum


class TestDashboard:
    def test_dashboard_renders_workers_and_sparklines(self, chaos_run):
        supervisor, sampler, _ = chaos_run
        text = render_dashboard(supervisor, sampler)
        assert "Farm dashboard" in text
        for worker in supervisor.workers:
            assert worker.name in text
        for label in ("in-flight", "throughput", "restarts", "worst p95"):
            assert label in text

    def test_sparkline_shapes(self):
        assert sparkline([], width=8) == " " * 8
        assert sparkline([0, 0, 0], width=3) == "▁▁▁"
        strip = sparkline([0, 5, 10], width=3)
        assert len(strip) == 3
        assert strip[0] < strip[-1]
        assert len(sparkline(list(range(100)), width=10)) == 10
        assert len(sparkline([1], width=5)) == 5


# ---------------------------------------------------------------------------
# cross-process lineage in the merged trace
# ---------------------------------------------------------------------------

def run_distributed_lineage(system, seed=7):
    """One seeded distributed chaos run with the farm lineage attached;
    returns (lineage, report) — the shape `repro serve --lineage` wires."""
    lineage = FarmLineage()
    supervisor = ShardSupervisor(
        system, n_shards=2, standby=True,
        config=FarmConfig(queue_capacity=16, checkpoint_every=4, batch=2,
                          arrivals_per_tick=5),
        kill_plan=[ProcessKill(tick=4, shard=0, after_items=1)],
        lineage=lineage)
    stream = generate_event_stream(system.chart.events, 40, seed=seed)
    report = supervisor.run(stream)
    pids = {shard.name: FIRST_MACHINE_PID + index
            for index, shard in enumerate(supervisor.shards)}
    return lineage, report, pids


@pytest.fixture(scope="module")
def distributed_lineage(system):
    return run_distributed_lineage(system)


class TestDistributedLineageTrace:
    def test_conservation_holds_across_the_kill(self, distributed_lineage):
        lineage, report, _ = distributed_lineage
        assert report.kills_fired >= 1, "chaos never killed a shard"
        assert lineage.conservation() == []
        assert any(node.startswith("death:") for node in lineage.dag.nodes)
        # worker digests stitched in under generation namespaces
        assert any("/" in node for node in lineage.dag.nodes)

    def test_flow_events_bind_supervisor_to_shard_pids(
            self, distributed_lineage):
        lineage, _, pids = distributed_lineage
        flows = dag_flow_events(lineage.dag, pids=pids)
        assert flows, "no flow events from a chaos run"
        assert {event["ph"] for event in flows} <= {"s", "f"}
        starts = {e["id"] for e in flows if e["ph"] == "s"}
        finishes = {e["id"] for e in flows if e["ph"] == "f"}
        assert starts == finishes  # every flow arrow has both ends
        seen_pids = {event["pid"] for event in flows}
        assert 1 in seen_pids  # supervisor-side nodes
        assert seen_pids & set(pids.values())  # and shard-side nodes
        # a dispatch flow lands on the dispatched shard's trace track
        dispatch_finishes = [e for e in flows if e["ph"] == "f"
                             and e["id"].endswith("->disp:0:0")]
        assert dispatch_finishes
        assert dispatch_finishes[0]["pid"] in pids.values()

    def test_merged_trace_embeds_the_flows(self, distributed_lineage):
        lineage, _, pids = distributed_lineage
        flows = dag_flow_events(lineage.dag, pids=pids)
        document = merged_chrome_trace({}, flows=flows)
        assert document["otherData"]["lineage_flow_events"] == len(flows)
        lineage_events = [e for e in document["traceEvents"]
                         if e.get("cat") == "lineage"]
        assert len(lineage_events) == len(flows)

    def test_two_same_seed_runs_are_byte_identical(self, system,
                                                   distributed_lineage):
        first_lineage, _, first_pids = distributed_lineage
        second_lineage, _, second_pids = run_distributed_lineage(system)
        assert first_pids == second_pids
        assert first_lineage.dumps() == second_lineage.dumps()
        first_doc = merged_chrome_trace(
            {}, flows=dag_flow_events(first_lineage.dag, pids=first_pids))
        second_doc = merged_chrome_trace(
            {}, flows=dag_flow_events(second_lineage.dag, pids=second_pids))
        assert (json.dumps(first_doc, sort_keys=True)
                == json.dumps(second_doc, sort_keys=True))
