"""Tests for the resilience subsystem: snapshots, queues, the farm.

The two load-bearing properties:

* **round-trip** — ``restore(snapshot(m))`` at an arbitrary cycle produces
  the exact same ``MachineStep`` sequence as the uninterrupted run from
  that cycle on, for every workload generator and even mid fault campaign;
* **conservation** — the supervised farm never loses work silently: under
  seeded chaos, submitted = accepted + rejected and accepted = processed +
  shed + in-flight, with every drop carrying a reason.
"""

import json

import pytest

from repro.action.check import Externals
from repro.fault import (
    ALL_TEPS_FAILED,
    FaultInjector,
    FaultPlan,
    FaultSurface,
    MachineEscalation,
    MachineGuard,
)
from repro.fault.model import Fault, CR_STATE_FLIP, TEP_FAIL, TEP_RUNAWAY, \
    TEP_STALL
from repro.flow import build_system, select_initial_architecture
from repro.isa import CodeGenerator, MD16_TEP, NameMaps, prepare_program
from repro.obs import MetricsRegistry, Tracer
from repro.pscp import MachineImage, PscpMachine
from repro.pscp.machine import MachineError
from repro.pscp.timers import Timer, TimerBank
from repro.resil import (
    BoundedQueue,
    CircuitBreaker,
    FarmConfig,
    MachineSnapshot,
    RestartPolicy,
    SNAPSHOT_VERSION,
    SnapshotError,
    Supervisor,
    WorkItem,
    generate_event_stream,
)
from repro.resil.queue import REJECT_QUEUE_FULL
from repro.resil.supervisor import FAILED
from repro.fault.campaign import FaultCampaign
from repro.statechart import ChartBuilder
from repro.workloads import (
    SMD_MUTUAL_EXCLUSIONS,
    SMD_ROUTINES,
    smd_chart,
)
from repro.workloads.generators import (
    parallel_servers,
    pipeline_chart,
    wide_decoder,
)
from repro.workloads.motors import MotorSpec
import random


def build_machine(chart, source, arch=MD16_TEP, **kwargs):
    externals = Externals.from_chart(chart)
    checked = prepare_program(source, arch, externals)
    maps = NameMaps.from_chart(chart)
    compiled = CodeGenerator(checked, arch, maps=maps).compile()
    params = {f.name: [p.name for p in f.params]
              for f in checked.program.functions}
    return PscpMachine(MachineImage.link(chart, compiled, params),
                       **kwargs)


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


def step_fingerprint(step):
    return (tuple(t.index for t in step.fired), step.configuration,
            step.cycle_length, step.start_time, step.end_time,
            step.events_sampled, step.events_raised,
            step.faults, step.recoveries)


def round_robin_stimulus(chart, cycles):
    events = sorted(chart.events)
    return [[events[i % len(events)]] for i in range(cycles)]


# ---------------------------------------------------------------------------
# snapshot round-trip
# ---------------------------------------------------------------------------

WORKLOADS = {
    "parallel_servers": lambda: parallel_servers(3),
    "pipeline": lambda: pipeline_chart(3),
    "wide_decoder": lambda: wide_decoder(4),
}


class TestSnapshotRoundTrip:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    @pytest.mark.parametrize("cut", [1, 7, 23])
    def test_restore_reproduces_remaining_steps(self, name, cut):
        chart, routines = WORKLOADS[name]()
        arch = select_initial_architecture(chart, routines)
        system = build_system(chart, routines, arch)
        stimulus = round_robin_stimulus(chart, 40)

        original = system.make_machine()
        for events in stimulus[:cut]:
            original.step(events)
        snapshot = original.snapshot()
        reference = [original.step(events) for events in stimulus[cut:]]

        restored = system.make_machine()
        restored.restore(snapshot)
        continued = [restored.step(events) for events in stimulus[cut:]]

        assert ([step_fingerprint(s) for s in continued]
                == [step_fingerprint(s) for s in reference])
        assert restored.time == original.time
        assert restored.cycle_count == original.cycle_count
        assert restored.executor.internal == original.executor.internal
        assert restored.executor.external == original.executor.external

    def test_json_round_trip_is_byte_identical(self):
        chart, routines = parallel_servers(2)
        arch = select_initial_architecture(chart, routines)
        system = build_system(chart, routines, arch)
        machine = system.make_machine()
        for events in round_robin_stimulus(chart, 9):
            machine.step(events)
        snapshot = machine.snapshot()
        text = snapshot.to_json_str()
        reparsed = MachineSnapshot.from_json_str(text)
        assert reparsed.to_json_str() == text
        # and the reparsed document restores just as well
        machine2 = system.make_machine()
        machine2.restore(reparsed)
        assert machine2.cr.configuration == machine.cr.configuration

    def test_snapshotting_does_not_perturb_the_run(self):
        chart = pingpong_chart()
        stimulus = [{"GO"}, {"BACK"}, set(), {"GO"}, {"BACK"}, {"GO"}]
        plain = build_machine(chart, PINGPONG_ROUTINES)
        observed = build_machine(chart, PINGPONG_ROUTINES)
        plain_steps = [plain.step(events) for events in stimulus]
        observed_steps = []
        for events in stimulus:
            observed.snapshot()  # pure read
            observed_steps.append(observed.step(events))
        assert ([step_fingerprint(s) for s in plain_steps]
                == [step_fingerprint(s) for s in observed_steps])
        assert plain.read_global("total") == observed.read_global("total")

    def test_timer_state_round_trips(self):
        chart = pingpong_chart()
        machine = build_machine(chart, PINGPONG_ROUTINES)
        bank = TimerBank([Timer("GO", period=40), Timer("BACK", period=70)])
        bank.events_between(0, 100)  # advance the counters
        snapshot = machine.snapshot(timer_bank=bank)
        assert snapshot.timers is not None
        bank.events_between(100, 500)  # perturb past the snapshot
        machine2 = build_machine(chart, PINGPONG_ROUTINES)
        bank2 = TimerBank([Timer("GO", period=40), Timer("BACK", period=70)])
        machine2.restore(snapshot, timer_bank=bank2)
        # the restored bank fires exactly like the original did after t=100
        fresh = TimerBank([Timer("GO", period=40), Timer("BACK", period=70)])
        fresh.events_between(0, 100)
        assert (bank2.events_between(100, 300)
                == fresh.events_between(100, 300))


class TestSnapshotValidation:
    def _snapshot(self):
        chart = pingpong_chart()
        machine = build_machine(chart, PINGPONG_ROUTINES)
        machine.step({"GO"})
        return machine, machine.snapshot()

    def test_version_mismatch_is_refused(self):
        machine, snapshot = self._snapshot()
        snapshot.version = SNAPSHOT_VERSION + 1
        with pytest.raises(SnapshotError, match="version"):
            machine.restore(snapshot)
        with pytest.raises(SnapshotError, match="version"):
            MachineSnapshot.from_json(snapshot.to_json())

    def test_wrong_chart_is_refused(self):
        _, snapshot = self._snapshot()
        chart, routines = parallel_servers(2)
        arch = select_initial_architecture(chart, routines)
        other = build_system(chart, routines, arch).make_machine()
        with pytest.raises(SnapshotError, match="chart"):
            other.restore(snapshot)

    def test_missing_field_is_refused(self):
        _, snapshot = self._snapshot()
        document = snapshot.to_json()
        del document["executor"]
        with pytest.raises(SnapshotError, match="missing"):
            MachineSnapshot.from_json(document)

    @pytest.mark.parametrize("field, name", [
        ("events", "GHOST"), ("conditions", "GHOST"),
        ("configuration", "Nowhere")])
    def test_unknown_cr_name_is_refused(self, field, name):
        _, snapshot = self._snapshot()
        snapshot.cr[field] = sorted(snapshot.cr[field] + [name])
        fresh = build_machine(pingpong_chart(), PINGPONG_ROUTINES)
        with pytest.raises(SnapshotError,
                           match=rf"cr\.{field} names \['{name}'\]"):
            fresh.restore(snapshot)
        # refused before any state was loaded: the machine still steps
        assert fresh.cycle_count == 0
        assert fresh.step({"GO"}).fired

    def test_unknown_pending_event_is_refused(self):
        _, snapshot = self._snapshot()
        snapshot.pending_internal_events = ["GHOST"]
        fresh = build_machine(pingpong_chart(), PINGPONG_ROUTINES)
        with pytest.raises(SnapshotError,
                           match=r"pending_internal_events names \['GHOST'\]"):
            fresh.restore(snapshot)

    def test_attachment_state_needs_an_attachment(self):
        chart = pingpong_chart()
        machine = build_machine(chart, PINGPONG_ROUTINES)
        machine.attach_injector(FaultInjector(FaultPlan.empty()))
        machine.step({"GO"})
        snapshot = machine.snapshot()
        bare = build_machine(chart, PINGPONG_ROUTINES)
        with pytest.raises(SnapshotError, match="injector"):
            bare.restore(snapshot)
        # dropping attachment state restores fine
        bare.restore(snapshot, restore_attachments=False)
        assert bare.cycle_count == machine.cycle_count


# ---------------------------------------------------------------------------
# snapshot determinism under faults (the mid-campaign checkpoint property)
# ---------------------------------------------------------------------------

class TestSnapshotUnderFaults:
    CUT = 6

    def _plan(self):
        return FaultPlan((
            Fault(TEP_STALL, 2, None, 900),
            Fault(CR_STATE_FLIP, 4, 0),
            Fault(TEP_STALL, 9, None, 900),
        ))

    def _stimulus(self):
        return [{"GO"} if i % 2 == 0 else {"BACK"} for i in range(20)]

    def _machine(self):
        machine = build_machine(pingpong_chart(), PINGPONG_ROUTINES)
        machine.attach_injector(FaultInjector(self._plan()))
        machine.attach_guard(MachineGuard())
        return machine

    def test_checkpoint_mid_campaign_continues_byte_identically(self):
        stimulus = self._stimulus()
        reference = self._machine()
        reference_steps = [reference.step(e) for e in stimulus]
        assert reference.injector.injected, "plan never bit; test is vacuous"
        assert reference.guard.detections, "guard never fired"

        interrupted = self._machine()
        for events in stimulus[:self.CUT]:
            interrupted.step(events)
        snapshot = interrupted.snapshot(include_attachments=True)
        text = snapshot.to_json_str()  # survives serialization too

        resumed = build_machine(pingpong_chart(), PINGPONG_ROUTINES)
        resumed.attach_injector(FaultInjector(FaultPlan.empty()))
        resumed.attach_guard(MachineGuard())
        resumed.restore(MachineSnapshot.from_json_str(text))
        continued = [resumed.step(e) for e in stimulus[self.CUT:]]

        ref_tail = [step_fingerprint(s)
                    for s in reference_steps[self.CUT:]]
        assert [step_fingerprint(s) for s in continued] == ref_tail
        assert resumed.read_global("total") == reference.read_global("total")
        # detection/injection history carried across the checkpoint
        assert ([d.describe() for d in resumed.guard.detections]
                == [d.describe() for d in reference.guard.detections])
        assert ([f.describe() for f in resumed.injector.injected]
                == [f.describe() for f in reference.injector.injected])


# ---------------------------------------------------------------------------
# guard escalation
# ---------------------------------------------------------------------------

class TestEscalation:
    def test_all_teps_failed_escalates_in_farm_mode(self):
        machine = build_machine(pingpong_chart(), PINGPONG_ROUTINES)
        machine.attach_guard(MachineGuard(escalate_unrecoverable=True))
        with pytest.raises(MachineEscalation) as info:
            machine.fail_tep(0)
        assert info.value.kind == ALL_TEPS_FAILED
        assert machine.guard.escalation_count == 1

    def test_without_escalation_all_teps_failed_stays_machine_error(self):
        machine = build_machine(pingpong_chart(), PINGPONG_ROUTINES)
        machine.attach_guard(MachineGuard())
        with pytest.raises(MachineError) as info:
            machine.fail_tep(0)
        assert not isinstance(info.value, MachineEscalation)

    def test_retry_exhaustion_escalates_in_farm_mode(self):
        machine = build_machine(pingpong_chart(), PINGPONG_ROUTINES)
        plan = FaultPlan(tuple(Fault(TEP_RUNAWAY, 1) for _ in range(6)))
        machine.attach_injector(FaultInjector(plan))
        machine.attach_guard(MachineGuard(max_retries=1,
                                          escalate_unrecoverable=True))
        stimulus = [{"GO"} if i % 2 == 0 else {"BACK"} for i in range(30)]
        with pytest.raises(MachineEscalation) as info:
            for events in stimulus:
                machine.step(events)
        assert info.value.kind == "retry-exhausted"

    def test_reset_transient_clears_inflight_recovery_state(self):
        guard = MachineGuard()
        machine = build_machine(pingpong_chart(), PINGPONG_ROUTINES)
        machine.attach_guard(guard)
        guard._retry_heap.append((10, 0, 1))
        guard._attempts[1] = 2
        guard._consecutive_illegal = 2
        guard.watchdog_aborts = 5
        guard.reset_transient()
        assert not guard._retry_heap and not guard._attempts
        assert guard._consecutive_illegal == 0
        assert guard.watchdog_aborts == 5  # history survives


# ---------------------------------------------------------------------------
# fail_tep semantics + run() trace flushing (regression coverage)
# ---------------------------------------------------------------------------

class TestFailTep:
    def test_out_of_range_index_is_rejected(self):
        machine = build_machine(pingpong_chart(), PINGPONG_ROUTINES,
                                arch=MD16_TEP.with_(n_teps=2))
        with pytest.raises(MachineError, match="architecture has 2 TEP"):
            machine.fail_tep(2)
        with pytest.raises(MachineError, match="cannot fail TEP -1"):
            machine.fail_tep(-1)

    def test_failing_twice_is_idempotent(self):
        machine = build_machine(pingpong_chart(), PINGPONG_ROUTINES,
                                arch=MD16_TEP.with_(n_teps=2))
        machine.fail_tep(0)
        machine.fail_tep(0)  # no error, no double accounting
        assert machine.failed_teps == {0}
        assert machine._available_teps == [1]

    def test_run_flushes_coalesced_idle_spans(self):
        machine = build_machine(pingpong_chart(), PINGPONG_ROUTINES)
        tracer = Tracer()
        machine.attach(tracer)
        machine.run([{"GO"}, set(), set(), set()])  # ends quiescent
        idle = [e for e in tracer.events if e[2] == "idle"]
        assert idle, "trailing idle span was dropped"


# ---------------------------------------------------------------------------
# queues and breakers
# ---------------------------------------------------------------------------

class TestBoundedQueue:
    def test_accepts_until_full_then_rejects(self):
        queue = BoundedQueue(2, shed_enabled=False)
        assert queue.offer(WorkItem(0, ("E",))).accepted
        assert queue.offer(WorkItem(1, ("E",))).accepted
        verdict = queue.offer(WorkItem(2, ("E",)))
        assert not verdict.accepted
        assert verdict.reason == REJECT_QUEUE_FULL
        assert queue.high_watermark == 2

    def test_sheds_the_cheapest_oldest_item_for_higher_priority(self):
        queue = BoundedQueue(3)
        queue.offer(WorkItem(0, ("E",), priority=1))
        queue.offer(WorkItem(1, ("E",), priority=0))
        queue.offer(WorkItem(2, ("E",), priority=0))
        verdict = queue.offer(WorkItem(3, ("E",), priority=2))
        assert verdict.accepted
        assert verdict.shed is not None and verdict.shed.seq == 1
        # equal priority never sheds: FIFO fairness for same-class traffic
        verdict = queue.offer(WorkItem(4, ("E",), priority=0))
        assert not verdict.accepted

    def test_push_front_and_drain(self):
        queue = BoundedQueue(4)
        queue.offer(WorkItem(0, ("E",)))
        first = queue.pop()
        queue.push_front(first)
        assert queue.pop().seq == 0
        queue.offer(WorkItem(1, ("E",)))
        queue.offer(WorkItem(2, ("E",)))
        assert [i.seq for i in queue.drain()] == [1, 2]
        assert len(queue) == 0


class TestCircuitBreaker:
    def test_opens_after_threshold_and_probes_half_open(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown_ticks=5)
        assert breaker.admits(0)
        breaker.record_failure(1)
        assert breaker.admits(1)
        breaker.record_failure(2)
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.admits(3)
        assert breaker.admits(7)  # cooldown elapsed -> half-open probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_failure(7)  # failed probe re-opens immediately
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.admits(12)
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.opened_count == 2


# ---------------------------------------------------------------------------
# the supervised farm
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def farm_system():
    chart, routines = parallel_servers(2)
    arch = select_initial_architecture(chart, routines)
    if arch.n_teps < 2:
        arch = arch.with_(n_teps=2)
    return build_system(chart, routines, arch)


class TestSupervisor:
    def _chaos_factory(self, system, seed):
        surface = FaultSurface.from_system(system)

        def factory(worker_index):
            rng = random.Random(seed * 6271 + worker_index)
            return FaultInjector(FaultPlan.generate(
                rng, surface, [TEP_RUNAWAY, TEP_FAIL],
                n_faults=5, horizon=30))
        return factory

    def _run(self, system, seed=3, items=80, **kwargs):
        supervisor = Supervisor.for_system(
            system, n_workers=2,
            config=FarmConfig(queue_capacity=4, checkpoint_every=8),
            policy=kwargs.pop("policy", RestartPolicy()),
            injector_factory=self._chaos_factory(system, seed),
            **kwargs)
        stream = generate_event_stream(system.chart.events, items, seed=seed)
        return supervisor.run(stream)

    def test_conservation_holds_under_seeded_chaos(self, farm_system):
        report = self._run(farm_system)
        assert report.conservation() == []
        assert report.restarts >= 1, "chaos never forced a restart"
        assert report.processed > 0
        total_shed = sum(report.shed.values())
        total_rejected = sum(report.rejected.values())
        assert (report.submitted
                == report.processed + total_shed + total_rejected
                + report.in_flight)

    def test_chaos_run_is_deterministic(self, farm_system):
        first = self._run(farm_system)
        second = self._run(farm_system)
        assert (json.dumps(first.to_json(), sort_keys=True)
                == json.dumps(second.to_json(), sort_keys=True))

    def test_exhausted_restart_budget_fails_worker_and_sheds_queue(
            self, farm_system):
        report = self._run(farm_system,
                           policy=RestartPolicy(max_restarts=0))
        assert report.conservation() == []
        assert report.permanent_failures >= 1
        failed = [w for w in report.workers if w["state"] == FAILED]
        assert failed
        assert report.shed.get("worker-failed", 0) >= 1

    def test_fault_free_farm_processes_everything(self, farm_system):
        supervisor = Supervisor.for_system(
            farm_system, n_workers=2, config=FarmConfig(queue_capacity=8))
        stream = generate_event_stream(farm_system.chart.events, 40, seed=1)
        report = supervisor.run(stream)
        assert report.conservation() == []
        assert report.processed == 40
        assert report.restarts == 0 and not report.rejected

    def test_metrics_are_published(self, farm_system):
        metrics = MetricsRegistry()
        supervisor = Supervisor.for_system(
            farm_system, n_workers=2, config=FarmConfig(queue_capacity=32),
            metrics=metrics)
        stream = generate_event_stream(farm_system.chart.events, 20, seed=1)
        supervisor.run(stream)
        assert metrics["farm.processed"].value == 20
        assert "farm.worker0.queue_depth" in metrics
        assert "farm.worker1.processed" in metrics

    def test_event_stream_is_seed_deterministic(self, farm_system):
        events = farm_system.chart.events
        assert (generate_event_stream(events, 25, seed=9)
                == generate_event_stream(events, 25, seed=9))
        assert (generate_event_stream(events, 25, seed=9)
                != generate_event_stream(events, 25, seed=10))


class TestScopedRegistry:
    def test_scoped_names_prefix_into_the_parent(self):
        metrics = MetricsRegistry()
        scoped = metrics.scoped("farm.worker0")
        scoped.counter("processed").inc(3)
        scoped.scoped("queue").gauge("depth").set(2)
        assert metrics["farm.worker0.processed"].value == 3
        assert metrics["farm.worker0.queue.depth"].value == 2


# ---------------------------------------------------------------------------
# restore-from-checkpoint inside the closed loop and the campaign
# ---------------------------------------------------------------------------

FAST_MOTORS = {
    "X": MotorSpec("X", 50_000.0, 0.025e-3, 1.25, 2000.0),
    "Y": MotorSpec("Y", 50_000.0, 0.025e-3, 1.25, 2000.0),
    "Phi": MotorSpec("Phi", 9_000.0, 0.1, 900.0, 0.0),
}


@pytest.fixture(scope="module")
def smd_system():
    arch = MD16_TEP.with_(n_teps=2,
                          mutual_exclusions=SMD_MUTUAL_EXCLUSIONS,
                          microcode_optimized=True)
    return build_system(smd_chart(), SMD_ROUTINES, arch, specialize=True)


class TestCampaignRestore:
    def _campaign(self, system):
        return FaultCampaign(system, seed=2, runs_per_class=1,
                             classes=("tep-fail",), faults_per_run=3,
                             restore_from_checkpoint=True)

    def test_unrecoverable_run_is_restored_not_crashed(self, smd_system):
        report = self._campaign(smd_system).run()
        stats = report.class_stats[0]
        assert stats.restored >= 1
        assert stats.crashed == 0
        assert stats.completed_moves == stats.runs
        run = next(r for r in report.runs if r.restored)
        assert not run.crashed and run.completed_moves

    def test_restored_campaign_is_seed_deterministic(self, smd_system):
        first = self._campaign(smd_system).run()
        second = self._campaign(smd_system).run()
        assert (json.dumps(first.to_json(), sort_keys=True)
                == json.dumps(second.to_json(), sort_keys=True))

    def test_without_restore_the_same_plan_crashes(self, smd_system):
        campaign = FaultCampaign(smd_system, seed=2, runs_per_class=1,
                                 classes=("tep-fail",), faults_per_run=3)
        report = campaign.run()
        assert report.class_stats[0].crashed >= 1
        assert report.class_stats[0].restored == 0
