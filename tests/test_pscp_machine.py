"""Tests for the PSCP machine: scheduler, CR, ports, timers, and the
machine-vs-interpreter equivalence property."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.action.check import Externals
from repro.isa import CodeGenerator, MD16_TEP, NameMaps, prepare_program
from repro.pscp import (
    DISPATCH_OVERHEAD_CYCLES,
    DeadlineMonitor,
    InterruptController,
    MachineError,
    MachineImage,
    PortBus,
    PortError,
    PscpMachine,
    SLA_OVERHEAD_CYCLES,
    Timer,
    TimerBank,
    round_robin_dispatch,
)
from repro.statechart import ChartBuilder, Interpreter


def build_machine(chart, source, arch=MD16_TEP, port_bus=None):
    externals = Externals.from_chart(chart)
    checked = prepare_program(source, arch, externals)
    maps = NameMaps.from_chart(chart)
    compiled = CodeGenerator(checked, arch, maps=maps).compile()
    params = {f.name: [p.name for p in f.params]
              for f in checked.program.functions}
    return PscpMachine(MachineImage.link(chart, compiled, params),
                       port_bus=port_bus)


def counter_chart():
    b = ChartBuilder("counter")
    b.event("GO").event("STEP").event("DONE_EV")
    b.condition("DONE")
    with b.or_state("Main", default="Idle"):
        b.basic("Idle").transition("Run", label="GO/Init()")
        run = b.basic("Run")
        run.transition("Fin", label="STEP [DONE]")
        run.transition("Run", label="STEP [not DONE]/Work(3)")
        b.basic("Fin")
    return b.build()


COUNTER_SRC = """
int:16 acc;
void Init() { acc = 0; }
void Work(int:16 k) {
  acc = acc + k;
  if (acc >= 9) { SetTrue(DONE); Raise(DONE_EV); }
}
"""


class TestMachineBasics:
    def test_initial_configuration(self):
        machine = build_machine(counter_chart(), COUNTER_SRC)
        assert machine.in_state("Idle")

    def test_transition_with_routine_executes(self):
        machine = build_machine(counter_chart(), COUNTER_SRC)
        machine.step({"GO"})
        assert machine.in_state("Run")
        machine.step({"STEP"})
        assert machine.read_global("acc") == 3

    def test_condition_written_back_to_cr(self):
        machine = build_machine(counter_chart(), COUNTER_SRC)
        machine.step({"GO"})
        for _ in range(3):
            machine.step({"STEP"})
        assert machine.condition("DONE")

    def test_guard_steers_transition(self):
        machine = build_machine(counter_chart(), COUNTER_SRC)
        machine.step({"GO"})
        for _ in range(3):
            machine.step({"STEP"})
        machine.step({"STEP"})
        assert machine.in_state("Fin")

    def test_raised_event_visible_next_cycle(self):
        b = ChartBuilder("chain")
        b.event("START").event("PING")
        with b.or_state("Top", default="S0"):
            b.basic("S0").transition("S1", label="START/Fire()")
            b.basic("S1").transition("S2", label="PING")
            b.basic("S2")
        chart = b.build()
        machine = build_machine(chart, "void Fire() { Raise(PING); }")
        machine.step({"START"})
        assert machine.in_state("S1")
        step = machine.step()
        assert not step.quiescent
        assert machine.in_state("S2")

    def test_unknown_event_rejected(self):
        machine = build_machine(counter_chart(), COUNTER_SRC)
        with pytest.raises(MachineError):
            machine.step({"NOPE"})

    def test_quiescent_cycle_costs_only_sla_overhead(self):
        machine = build_machine(counter_chart(), COUNTER_SRC)
        step = machine.step()
        assert step.quiescent
        assert step.cycle_length == SLA_OVERHEAD_CYCLES

    def test_time_accumulates(self):
        machine = build_machine(counter_chart(), COUNTER_SRC)
        steps = [machine.step({"GO"}), machine.step({"STEP"})]
        assert machine.time == sum(s.cycle_length for s in steps)

    def test_events_last_single_cycle(self):
        machine = build_machine(counter_chart(), COUNTER_SRC)
        machine.step({"GO"})
        step = machine.step()  # GO is gone
        assert step.quiescent


class TestEquivalenceWithInterpreter:
    """Property: machine and interpreter agree on fired transitions and
    configurations for random traces (with matching action semantics)."""

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.sets(st.sampled_from(["GO", "STEP"])), max_size=8))
    def test_configurations_match(self, trace):
        chart = counter_chart()
        machine = build_machine(chart, COUNTER_SRC)

        state = {"acc": 0}

        def init(interp, transition):
            state["acc"] = 0

        def work(interp, transition):
            state["acc"] += 3
            if state["acc"] >= 9:
                interp.set_condition("DONE", True)
                interp.raise_event("DONE_EV")

        interp = Interpreter(chart, actions={"Init": init, "Work": work})
        for events in trace:
            machine_step = machine.step(events)
            interp_step = interp.step(events)
            assert machine.cr.configuration == interp.configuration
            assert [t.index for t in machine_step.fired] == \
                [t.index for t in interp_step.fired]
            assert machine.condition("DONE") == interp.condition("DONE")
        assert machine.read_global("acc") == state["acc"] \
            or not any("GO" in t for t in trace)


class TestDispatch:
    def test_round_robin_alternates(self):
        arch = MD16_TEP.with_(n_teps=2)
        plan = round_robin_dispatch([0, 1, 2, 3], lambda i: f"r{i}", arch)
        assert plan.queues == [[0, 2], [1, 3]]

    def test_single_tep_serializes(self):
        plan = round_robin_dispatch([0, 1, 2], lambda i: f"r{i}", MD16_TEP)
        assert plan.queues == [[0, 1, 2]]

    def test_mutual_exclusion_forces_same_queue(self):
        arch = MD16_TEP.with_(n_teps=2, mutual_exclusions=frozenset(
            {frozenset({"r0", "r1"})}))
        plan = round_robin_dispatch([0, 1], lambda i: f"r{i}", arch)
        assert plan.queues == [[0, 1], []]

    def test_non_exclusive_still_parallel(self):
        arch = MD16_TEP.with_(n_teps=2, mutual_exclusions=frozenset(
            {frozenset({"r0", "r9"})}))
        plan = round_robin_dispatch([0, 1], lambda i: f"r{i}", arch)
        assert plan.queues == [[0], [1]]

    def test_makespan_is_max_queue(self):
        arch = MD16_TEP.with_(n_teps=2)
        plan = round_robin_dispatch([0, 1], lambda i: f"r{i}", arch)
        costs = {0: 100, 1: 30}
        assert plan.makespan(lambda i: costs[i]) == \
            100 + DISPATCH_OVERHEAD_CYCLES

    def test_two_teps_shorten_cycle(self):
        """The core Table 4 effect: a second TEP nearly halves a cycle with
        two comparable transitions."""
        chart_b = ChartBuilder("par")
        chart_b.event("T")
        with chart_b.and_state("W"):
            with chart_b.or_state("A", default="A1"):
                chart_b.basic("A1").transition("A1", label="T/WorkA()")
            with chart_b.or_state("B", default="B1"):
                chart_b.basic("B1").transition("B1", label="T/WorkB()")
        chart = chart_b.build()
        src = """
        int:16 a;
        int:16 b;
        void WorkA() { int:16 i = 0; @bound(10) while (i < 10) { a = a + i; i = i + 1; } }
        void WorkB() { int:16 i = 0; @bound(10) while (i < 10) { b = b + i; i = i + 1; } }
        """
        one = build_machine(chart, src, MD16_TEP)
        two = build_machine(chart, src, MD16_TEP.with_(n_teps=2))
        len_one = one.step({"T"}).cycle_length
        len_two = two.step({"T"}).cycle_length
        assert len_two < len_one
        assert len_two < 0.75 * len_one

    def test_mutually_exclusive_routines_not_sped_up(self):
        chart_b = ChartBuilder("par2")
        chart_b.event("T")
        with chart_b.and_state("W"):
            with chart_b.or_state("A", default="A1"):
                chart_b.basic("A1").transition("A1", label="T/WorkA()")
            with chart_b.or_state("B", default="B1"):
                chart_b.basic("B1").transition("B1", label="T/WorkB()")
        chart = chart_b.build()
        src = """
        int:16 shared;
        void WorkA() { shared = shared + 1; }
        void WorkB() { shared = shared + 2; }
        """
        arch = MD16_TEP.with_(n_teps=2, mutual_exclusions=frozenset(
            {frozenset({"WorkA", "WorkB"})}))
        serial = build_machine(chart, src, arch)
        parallel = build_machine(chart, src, MD16_TEP.with_(n_teps=2))
        assert serial.step({"T"}).cycle_length > \
            parallel.step({"T"}).cycle_length


def compile_counter():
    """The counter chart, its compiled routines and their parameter names."""
    chart = counter_chart()
    checked = prepare_program(COUNTER_SRC, MD16_TEP,
                              Externals.from_chart(chart))
    compiled = CodeGenerator(checked, MD16_TEP,
                             maps=NameMaps.from_chart(chart)).compile()
    params = {f.name: [p.name for p in f.params]
              for f in checked.program.functions}
    return chart, compiled, params


class TestStubWcet:
    def test_stub_wcet_bounds_measured(self):
        chart, compiled, params = compile_counter()
        machine = PscpMachine(MachineImage.link(chart, compiled, params))
        machine.step({"GO"})
        step = machine.step({"STEP"})
        work_transition = step.fired[0]
        bound = machine.image.wcet(work_transition.index)
        measured = step.cycle_length - SLA_OVERHEAD_CYCLES - \
            DISPATCH_OVERHEAD_CYCLES
        assert measured <= bound

    def test_wcet_override_wins(self):
        chart, compiled, params = compile_counter()
        chart.transitions[0].wcet_override = 777
        image = MachineImage.link(chart, compiled, params)
        assert image.wcet(0) == 777
        assert image.costs[0] != 777

    @pytest.mark.parametrize("param_names", [None, {}])
    def test_missing_parameter_names_refused_like_the_machine(
            self, param_names):
        """Without parameter names the linker cannot marshal ``Work(3)``'s
        argument; it must refuse, not price the stub without the
        marshalling."""
        chart, compiled, params = compile_counter()
        work = next(t for t in chart.transitions if t.action == "Work(3)")
        assert MachineImage.link(chart, compiled, params).costs[
            work.index] == 74
        with pytest.raises(MachineError, match="parameter names for 'Work' "
                                               "are required"):
            MachineImage.link(chart, compiled, param_names)


class TestPortBus:
    def test_latch_semantics(self):
        bus = PortBus()
        bus.write(0x700, 42)
        assert bus.read(0x700) == 42

    def test_handlers(self):
        bus = PortBus()
        values = []
        bus.map_read(0x701, lambda: 7)
        bus.map_write(0x702, values.append)
        assert bus.read(0x701) == 7
        bus.write(0x702, 9)
        assert values == [9]

    def test_strict_mode_rejects_unmapped(self):
        bus = PortBus(strict=True)
        with pytest.raises(PortError):
            bus.read(0x700)
        bus.map_latch(0x700)
        assert bus.read(0x700) == 0

    def test_access_log(self):
        bus = PortBus()
        bus.write(1, 5)
        bus.read(1)
        assert bus.access_log == [("w", 1, 5), ("r", 1, 5)]


class TestTimers:
    def test_timer_fires_each_period(self):
        timer = Timer("TICK", 100)
        assert timer.advance(0, 350) == [100, 200, 300]
        assert timer.advance(350, 400) == [400]

    def test_phase_offset(self):
        timer = Timer("TICK", 100, phase=30)
        assert timer.advance(0, 250) == [30, 130, 230]

    def test_disabled_timer_silent(self):
        timer = Timer("TICK", 50, enabled=False)
        assert timer.advance(0, 500) == []

    def test_bad_period_rejected(self):
        with pytest.raises(ValueError):
            Timer("TICK", 0)

    def test_bank_merges_sorted(self):
        bank = TimerBank([Timer("A", 100), Timer("B", 150)])
        events = bank.events_between(0, 300)
        assert events == [(100, "A"), (150, "B"), (200, "A"), (300, "A"),
                          (300, "B")]

    def test_bank_pending_set(self):
        bank = TimerBank([Timer("A", 10), Timer("B", 25)])
        assert bank.pending_events(0, 25) == {"A", "B"}


class TestInterrupts:
    def test_interrupt_preempts_normal_events(self):
        ic = InterruptController({"IRQ"})
        assert ic.filter({"IRQ", "NORMAL"}) == {"IRQ"}
        assert ic.held_events == {"NORMAL"}
        # held events replayed next cycle
        assert ic.filter(set()) == {"NORMAL"}

    def test_no_interrupt_passthrough(self):
        ic = InterruptController({"IRQ"})
        assert ic.filter({"A", "B"}) == {"A", "B"}

    def test_interrupt_alone_passes(self):
        ic = InterruptController({"IRQ"})
        assert ic.filter({"IRQ"}) == {"IRQ"}
        assert ic.held_events == set()


class TestDeadlineMonitor:
    def make_machine(self):
        b = ChartBuilder("mon")
        b.event("PULSE", period=300)
        with b.or_state("Top", default="S"):
            b.basic("S").transition("S", label="PULSE/Handle()")
        chart = b.build()
        return chart, build_machine(chart, "void Handle() { }")

    def test_latency_recorded(self):
        chart, machine = self.make_machine()
        monitor = DeadlineMonitor(chart)
        monitor.arrival("PULSE", machine.time)
        step = machine.step({"PULSE"})
        monitor.observe(step)
        report = monitor.report("PULSE")
        assert report.arrivals == 1
        assert report.consumed == 1
        assert report.worst_latency == step.end_time
        assert report.met

    def test_miss_detected_when_latency_exceeds_period(self):
        chart, machine = self.make_machine()
        monitor = DeadlineMonitor(chart)
        monitor.arrival("PULSE", 0)
        # let a lot of time pass before the consuming step
        for _ in range(40):
            machine.step()
        step = machine.step({"PULSE"})
        monitor.observe(step)
        report = monitor.report("PULSE")
        if step.end_time > 300:
            assert report.misses >= 1

    def test_unconstrained_event_ignored(self):
        chart, machine = self.make_machine()
        monitor = DeadlineMonitor(chart)
        monitor.arrival("NOT_TRACKED", 0)
        assert monitor.reports()[0].arrivals == 0
