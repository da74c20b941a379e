"""Tests for the fault subsystem: injector, guard, failover, campaigns.

The load-bearing property mirrors the tracer's enable/disable parity: an
attached injector with an *empty* plan (guard attached or not) must produce
byte-identical ``MachineStep`` history, cycle counts and architectural
state versus a machine with no injector at all.
"""

import io
import json
import pathlib

import pytest

from repro.action.check import Externals
from repro.cli import run
from repro.fault import (
    Fault,
    FaultCampaign,
    FaultError,
    FaultInjector,
    FaultPlan,
    FaultSurface,
    ILLEGAL_CONFIGURATION,
    MachineGuard,
    RETRY_EXHAUSTED,
    TEP_FAILOVER,
    WATCHDOG_ABORT,
    configuration_problems,
)
from repro.flow import build_system
from repro.isa import CodeGenerator, MD16_TEP, NameMaps, prepare_program
from repro.pscp import MachineImage, PscpMachine, round_robin_dispatch
from repro.pscp.machine import MachineError
from repro.statechart import ChartBuilder
from repro.workloads import (
    MoveCommand,
    SMD_MUTUAL_EXCLUSIONS,
    SMD_ROUTINES,
    SmdClosedLoop,
    smd_chart,
)
from repro.workloads.motors import Motor, MotorSpec, X_MOTOR


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

STIMULUS = [{"GO"}, {"BACK"}, set(), {"GO"}, {"BACK"}, {"GO"}]


def step_fingerprint(step):
    return (tuple(t.index for t in step.fired), step.configuration,
            step.cycle_length, step.start_time, step.end_time,
            step.events_sampled, step.events_raised,
            step.faults, step.recoveries)


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


class TestFaultFreeParity:
    def test_empty_plan_is_byte_identical_to_no_injector(self):
        chart = pingpong_chart()
        plain = build_machine(chart, PINGPONG_ROUTINES)
        faulted = build_machine(chart, PINGPONG_ROUTINES)
        faulted.attach_injector(FaultInjector(FaultPlan.empty()))

        plain_steps = plain.run(STIMULUS)
        faulted_steps = faulted.run(STIMULUS)

        assert ([step_fingerprint(s) for s in plain_steps]
                == [step_fingerprint(s) for s in faulted_steps])
        assert plain.time == faulted.time
        assert plain.cycle_count == faulted.cycle_count
        assert plain.read_global("total") == faulted.read_global("total")
        assert plain.cr.conditions == faulted.cr.conditions

    def test_guard_alone_is_byte_identical_too(self):
        chart = pingpong_chart()
        plain = build_machine(chart, PINGPONG_ROUTINES)
        guarded = build_machine(chart, PINGPONG_ROUTINES)
        guarded.attach_guard(MachineGuard())

        plain_steps = plain.run(STIMULUS)
        guarded_steps = guarded.run(STIMULUS)

        assert ([step_fingerprint(s) for s in plain_steps]
                == [step_fingerprint(s) for s in guarded_steps])
        assert plain.time == guarded.time
        assert guarded.guard.detections == []

    def test_detached_by_default(self):
        machine = build_machine(pingpong_chart(), PINGPONG_ROUTINES)
        assert machine.injector is None
        assert machine.guard is None
        step = machine.step({"GO"})
        assert step.faults == () and step.recoveries == ()

    def test_closed_loop_empty_plan_parity(self, smd_system):
        plain = SmdClosedLoop(smd_system, motor_specs=FAST_MOTORS)
        faulted = SmdClosedLoop(smd_system, motor_specs=FAST_MOTORS,
                                injector=FaultInjector(FaultPlan.empty()),
                                guard=MachineGuard())
        commands = [MoveCommand(20, 15, 3)]
        plain_report = plain.run(commands, max_configuration_cycles=15000)
        faulted_report = faulted.run(commands, max_configuration_cycles=15000)
        assert plain_report.total_cycles == faulted_report.total_cycles
        assert (plain_report.configuration_cycles
                == faulted_report.configuration_cycles)
        assert plain_report.final_positions == faulted_report.final_positions
        assert plain_report.all_moves_completed
        assert faulted_report.all_moves_completed


class TestFaultModel:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultError):
            Fault("gremlin", 3)

    def test_negative_cycle_rejected(self):
        with pytest.raises(FaultError):
            Fault("event-drop", -1, "GO")

    def test_plan_sorts_by_cycle(self):
        plan = FaultPlan((Fault("event-drop", 9, "GO"),
                          Fault("ram-flip", 2, None, 1)))
        assert [fault.cycle for fault in plan] == [2, 9]

    def test_surface_and_generation_are_deterministic(self, smd_system):
        import random

        surface = FaultSurface.from_system(smd_system)
        assert surface.events and surface.conditions
        assert surface.n_teps == 2
        assert surface.fragile_state_bits, \
            "the SMD Move* OR-states have 3 children -> unused code points"
        kinds = ("event-drop", "cr-state-flip", "tep-stall")
        one = FaultPlan.generate(random.Random(7), surface, kinds, n_faults=6)
        two = FaultPlan.generate(random.Random(7), surface, kinds, n_faults=6)
        assert one.describe() == two.describe()


class TestEventBusFaults:
    def test_drop_suppresses_the_transition(self):
        machine = build_machine(pingpong_chart(), PINGPONG_ROUTINES)
        machine.attach_injector(FaultInjector(FaultPlan(
            (Fault("event-drop", 0, "GO"),))))
        step = machine.step({"GO"})
        assert step.fired == []
        assert "GO" not in step.events_sampled
        assert len(step.faults) == 1
        assert machine.injector.exhausted

    def test_delay_redelivers_later(self):
        machine = build_machine(pingpong_chart(), PINGPONG_ROUTINES)
        machine.attach_injector(FaultInjector(FaultPlan(
            (Fault("event-delay", 0, "GO", param=2),))))
        first = machine.step({"GO"})
        assert first.fired == []
        machine.step(set())
        third = machine.step(set())  # cycle 2: the delayed GO arrives
        assert [t.index for t in third.fired] == [0]
        assert machine.read_global("total") == 3

    def test_duplicate_fires_twice(self):
        machine = build_machine(pingpong_chart(), PINGPONG_ROUTINES)
        machine.attach_injector(FaultInjector(FaultPlan(
            (Fault("event-duplicate", 0, "GO", param=2),))))
        machine.step({"GO"})       # fires normally, duplicate armed
        machine.step({"BACK"})     # back to A
        third = machine.step(set())  # the duplicated GO bites
        assert [t.index for t in third.fired] == [0]
        assert machine.read_global("total") == 6

    def test_faults_stay_armed_until_victim_appears(self):
        machine = build_machine(pingpong_chart(), PINGPONG_ROUTINES)
        machine.attach_injector(FaultInjector(FaultPlan(
            (Fault("event-drop", 0, "GO"),))))
        machine.step(set())
        machine.step(set())
        assert not machine.injector.exhausted
        step = machine.step({"GO"})
        assert step.fired == []
        assert machine.injector.exhausted


class TestWatchdogAndRetry:
    def test_runaway_is_aborted_and_retried(self):
        machine = build_machine(pingpong_chart(), PINGPONG_ROUTINES)
        machine.attach_injector(FaultInjector(FaultPlan(
            (Fault("tep-runaway", 0),))))
        guard = MachineGuard()
        machine.attach_guard(guard)
        budget = guard.budgets[0]

        first = machine.step({"GO"})
        # aborted at exactly the budget; the routine's RAM write never ran
        assert machine.read_global("total") == 0
        assert first.cycle_length == 2 + 4 + budget  # SLA + dispatch + budget
        assert [d.kind for d in first.recoveries] == [WATCHDOG_ABORT]
        assert guard.watchdog_aborts == 1

        second = machine.step(set())  # backoff 1 -> retry due now
        assert second.fired == []     # retry re-executes, no state change
        assert machine.read_global("total") == 3
        assert guard.retries_succeeded == 1
        assert guard.detections[0].recovered

    def test_retries_exhaust_after_max_attempts(self):
        machine = build_machine(pingpong_chart(), PINGPONG_ROUTINES)
        machine.attach_injector(FaultInjector(FaultPlan(
            tuple(Fault("tep-runaway", 0) for _ in range(5)))))
        guard = MachineGuard(max_retries=2)
        machine.attach_guard(guard)
        machine.step({"GO"})
        for _ in range(8):
            machine.step(set())
        assert guard.retries_exhausted == 1
        kinds = [d.kind for d in guard.detections]
        assert kinds.count(RETRY_EXHAUSTED) == 1
        assert not guard.detections[0].recovered
        assert machine.read_global("total") == 0

    def test_stall_within_budget_completes(self):
        machine = build_machine(pingpong_chart(), PINGPONG_ROUTINES)
        machine.attach_injector(FaultInjector(FaultPlan(
            (Fault("tep-stall", 0, param=5),))))
        machine.attach_guard(MachineGuard())
        plain = build_machine(pingpong_chart(), PINGPONG_ROUTINES)
        reference = plain.step({"GO"})

        step = machine.step({"GO"})
        # the routine ran (effects applied), just 5 cycles late
        assert machine.read_global("total") == 3
        assert step.cycle_length == reference.cycle_length + 5
        assert machine.guard.watchdog_aborts == 0

    def test_stall_beyond_budget_is_aborted(self):
        machine = build_machine(pingpong_chart(), PINGPONG_ROUTINES)
        guard = MachineGuard()
        machine.attach_injector(FaultInjector(FaultPlan(
            (Fault("tep-stall", 0, param=100_000),))))
        machine.attach_guard(guard)
        step = machine.step({"GO"})
        assert step.cycle_length == 2 + 4 + guard.budgets[0]
        assert guard.watchdog_aborts == 1

    def test_runaway_without_guard_costs_default_budget(self):
        from repro.fault.model import DEFAULT_RUNAWAY_CYCLES

        machine = build_machine(pingpong_chart(), PINGPONG_ROUTINES)
        machine.attach_injector(FaultInjector(FaultPlan(
            (Fault("tep-runaway", 0),))))
        step = machine.step({"GO"})
        assert step.cycle_length == 2 + 4 + DEFAULT_RUNAWAY_CYCLES
        assert machine.read_global("total") == 0  # effects lost, undetected


def tri_chart():
    b = ChartBuilder("tri")
    b.event("GO").event("HOP")
    with b.or_state("Top", default="A"):
        b.basic("A").transition("B", label="GO")
        b.basic("B").transition("C", label="HOP")
        b.basic("C")
    return b.build()


class TestExclusivityChecker:
    def test_legal_configuration_has_no_problems(self):
        chart = tri_chart()
        assert configuration_problems(
            chart, chart.initial_configuration()) == []

    def test_two_active_or_children_detected(self):
        chart = tri_chart()
        config = chart.initial_configuration() | {"B"}
        problems = configuration_problems(chart, config)
        assert any("exclusivity" in p for p in problems)

    def test_orphan_and_childless_or_detected(self):
        chart = tri_chart()
        initial = chart.initial_configuration()
        orphan = configuration_problems(chart, frozenset({"A"}))
        assert any("parent" in p or "root" in p for p in orphan)
        childless = configuration_problems(chart, initial - {"A"})
        assert any("no active child" in p for p in childless)

    def test_state_flip_recovers_to_safe_state(self):
        chart = tri_chart()
        machine = build_machine(chart, "")
        encoding = machine.pla.layout.encoding
        machine.step({"GO"})  # now in B
        assert machine.in_state("B")
        # find a bit whose flip decodes to an illegal configuration (a
        # 3-child OR-selector always has one)
        bits = encoding.encode(machine.cr.configuration)
        bad_bit = next(
            bit for bit in range(encoding.width)
            if configuration_problems(
                chart,
                frozenset(encoding.active_states(bits ^ (1 << bit)))))
        guard = MachineGuard()
        machine.attach_injector(FaultInjector(FaultPlan(
            (Fault("cr-state-flip", machine.cycle_count, bad_bit),))))
        machine.attach_guard(guard)

        step = machine.step(set())
        assert [d.kind for d in step.recoveries] == [ILLEGAL_CONFIGURATION]
        assert step.recoveries[0].recovered
        assert machine.cr.configuration == guard.safe_state
        assert machine.in_state("A")

    def test_declared_safe_state_must_be_legal(self):
        machine = build_machine(tri_chart(), "")
        with pytest.raises(ValueError):
            machine.attach_guard(MachineGuard(safe_state={"B"}))


class TestTepFailover:
    def test_dispatch_restricted_to_available_teps(self):
        arch = MD16_TEP.with_(n_teps=2)
        plan = round_robin_dispatch([0, 1, 2], {}.get, arch,
                                    available_teps=[1])
        assert plan.queues[0] == []
        assert plan.queues[1] == [0, 1, 2]

    def test_default_rotation_unchanged(self):
        arch = MD16_TEP.with_(n_teps=2)
        restricted = round_robin_dispatch([0, 1, 2], {}.get, arch,
                                          available_teps=[0, 1])
        default = round_robin_dispatch([0, 1, 2], {}.get, arch)
        assert restricted.queues == default.queues

    def test_no_available_tep_rejected(self):
        arch = MD16_TEP.with_(n_teps=2)
        with pytest.raises(ValueError):
            round_robin_dispatch([0], {}.get, arch, available_teps=[])

    def test_fail_tep_replans_on_survivor(self):
        machine = build_machine(pingpong_chart(), PINGPONG_ROUTINES,
                                arch=MD16_TEP.with_(n_teps=2))
        guard = MachineGuard()
        machine.attach_injector(FaultInjector(FaultPlan(
            (Fault("tep-fail", 0, 0),))))
        machine.attach_guard(guard)
        step = machine.step({"GO"})
        assert machine.failed_teps == {0}
        assert step.plan.queues[0] == []
        assert step.plan.queues[1] == [0]
        assert guard.tep_failovers == 1
        assert [d.kind for d in step.recoveries] == [TEP_FAILOVER]
        assert machine.read_global("total") == 3  # work still done

    def test_losing_every_tep_is_fatal(self):
        machine = build_machine(pingpong_chart(), PINGPONG_ROUTINES,
                                arch=MD16_TEP.with_(n_teps=2))
        machine.fail_tep(0)
        with pytest.raises(MachineError):
            machine.fail_tep(1)


class TestSatellites:
    def test_motor_has_work_property(self):
        motor = Motor(X_MOTOR)
        assert not motor.has_work
        motor.command_move(5, 0)
        assert motor.has_work and motor.moving
        motor.pulses_between(-1, 10**12)
        assert motor.has_work and not motor.moving

    def test_truncated_run_is_reported_honestly(self, smd_system):
        loop = SmdClosedLoop(smd_system, motor_specs=FAST_MOTORS)
        report = loop.run([MoveCommand(50, 50, 5)],
                          max_configuration_cycles=20)
        assert report.truncated
        assert not report.all_moves_completed

    def test_completed_run_is_not_truncated(self, smd_system):
        loop = SmdClosedLoop(smd_system, motor_specs=FAST_MOTORS)
        report = loop.run([MoveCommand(10, 10, 2)],
                          max_configuration_cycles=15000)
        assert not report.truncated
        assert report.all_moves_completed


CAMPAIGN_CLASSES = ("tep-stall", "tep-runaway", "cr-state-flip", "tep-fail")
CAMPAIGN_SEED = 2


class TestCampaign:
    @pytest.fixture(scope="class")
    def campaign_report(self, smd_system):
        return FaultCampaign(smd_system, seed=CAMPAIGN_SEED,
                             runs_per_class=1,
                             classes=CAMPAIGN_CLASSES).run()

    def test_identical_seed_identical_report(self, smd_system,
                                             campaign_report):
        again = FaultCampaign(smd_system, seed=CAMPAIGN_SEED,
                              runs_per_class=1,
                              classes=CAMPAIGN_CLASSES).run()
        assert (json.dumps(campaign_report.to_json(), sort_keys=True)
                == json.dumps(again.to_json(), sort_keys=True))

    def test_every_recovery_mechanism_demonstrated(self, campaign_report):
        by_class = {s.fault_class: s for s in campaign_report.class_stats}
        # watchdog abort + retry
        assert by_class["tep-stall"].recovered >= 1
        assert by_class["tep-runaway"].recovered >= 1
        # illegal-configuration recovery to the safe state
        assert by_class["cr-state-flip"].recovered >= 1
        # TEP failover completing every move on the survivors
        assert by_class["tep-fail"].recovered >= 1
        assert (by_class["tep-fail"].completed_moves
                == by_class["tep-fail"].runs)

    def test_report_renders_and_publishes(self, campaign_report):
        from repro.obs import MetricsRegistry

        text = campaign_report.render()
        assert "Fault campaign" in text and "tep-fail" in text
        metrics = MetricsRegistry()
        campaign_report.publish(metrics)
        assert metrics["campaign.runs"].value == len(CAMPAIGN_CLASSES)
        assert metrics["campaign.recovered"].value >= 4

    def test_unknown_class_rejected(self, smd_system):
        with pytest.raises(ValueError):
            FaultCampaign(smd_system, classes=("gremlin",))


GOLDEN = pathlib.Path(__file__).parent / "golden"
SMD_PROJECT = pathlib.Path(__file__).parent.parent / "examples" / "smd"


class TestSlaStuckOnGolden:
    """The SLA stuck-at semantics, pinned.  Run 0 forces a transition whose
    source is not active; its set-level next state is a configuration the
    state encoding cannot represent, and the guard must see it (a CR that
    round-tripped the configuration through the state code would not)."""

    def test_campaign_matches_golden(self):
        out = io.StringIO()
        status = run(["faults", str(SMD_PROJECT), "--seed", "2",
                      "--runs-per-class", "2", "--classes", "sla-stuck-on",
                      "--json"], out=out)
        assert status == 0
        golden = (GOLDEN / "faults_smd_sla_stuck_on.json").read_text()
        assert out.getvalue() == golden
        assert ("illegal-configuration@2456 (RunY active but parent MoveY "
                "is not) [recovered]") in golden
