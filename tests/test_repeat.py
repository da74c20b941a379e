"""Repeated configuration cycles: :meth:`PscpMachine.repeat`.

A cycle that dispatches nothing writes no condition, memory word, port or
configuration and raises no event, so the same CR word enables nothing
again.  ``repeat(n, events)`` advances *n* such cycles in one call, and
the SMD closed loop calls it for every run of identical input.  These
tests are its oracle: each run is compared byte for byte with stepping
every cycle, on the closed loop (the e2e ``smd`` workload's commands,
seeds 1-5) and on the 12 campaign charts of ``tests/test_frontend.py``
under sparse input held for random stretches.
"""

import dataclasses
import io
import json
import random

import pytest

from repro.fault import FaultInjector, FaultPlan, MachineGuard
from repro.flow import Frontend, build_system
from repro.fuzz import generate_spec, render_chart, render_source
from repro.isa import MD16_TEP
from repro.obs import FlightRecorder, LineageTracker, Tracer
from repro.obs.export import write_chrome_trace
from repro.pscp import MachineError, MachineObserver, PscpMachine
from repro.resil.snapshot import MachineSnapshot, restore_machine, \
    snapshot_machine
from repro.workloads import (FAST_MOTORS, SMD_MUTUAL_EXCLUSIONS,
                             SMD_ROUTINES, MoveCommand, SmdClosedLoop,
                             smd_chart)

#: campaign seed 1's first 12 charts, as in ``tests/test_frontend.py``
CHART_SEEDS = tuple(range(7919, 7931))


@pytest.fixture(scope="module")
def smd_system():
    arch = MD16_TEP.with_(n_teps=2, microcode_optimized=True,
                          mutual_exclusions=SMD_MUTUAL_EXCLUSIONS)
    return build_system(smd_chart(), SMD_ROUTINES, arch, specialize=True)


def step_each(machine, n, external_events=()):
    """The reference :meth:`PscpMachine.repeat`: step each cycle."""
    for _ in range(n):
        machine.step(external_events)


def no_run(loop, events, limit):
    """The reference closed-loop horizon: no run, so the loop works out
    every cycle's input and steps it."""
    return 0


#: the two references: the machine steps each cycle of every run the loop
#: finds, and the loop finds no run at all
REFERENCES = {"step-each": (PscpMachine, "repeat", step_each),
              "no-run": (SmdClosedLoop, "_repeatable_cycles", no_run)}


class Observers:
    """A tracer, two flight recorders (one holding every cycle) and a
    lineage tracker, attached to one machine."""

    def __init__(self, machine, capacity=4096):
        self.tracer = Tracer()
        self.recorder = FlightRecorder()
        self.history = FlightRecorder(capacity=capacity)
        self.lineage = LineageTracker()
        for observer in (self.tracer, self.recorder, self.history,
                         self.lineage):
            machine.attach(observer)
        self.machine = machine

    def outputs(self):
        for observer in self.machine.observers:
            observer.flush()
        trace = io.StringIO()
        write_chrome_trace(self.tracer, trace)
        cause = {"kind": "test"}
        return {
            "trace": trace.getvalue(),
            "bundle": json.dumps(self.recorder.forensics_bundle(cause),
                                 sort_keys=True),
            "history": json.dumps(self.history.forensics_bundle(cause),
                                  sort_keys=True),
            "lengths": (len(self.recorder), self.recorder.dropped,
                        len(self.history), self.history.dropped),
            "dag": self.lineage.dag().dumps(),
        }


def machine_state(machine):
    """Everything a continuation depends on, as comparable values."""
    return {
        "time": machine.time,
        "cycle_count": machine.cycle_count,
        "cr": machine.cr.bits,
        "snapshot": snapshot_machine(machine).to_json_str(),
    }


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

def smd_commands(seed):
    """The e2e ``smd`` workload's four seeded move commands."""
    rng = random.Random(seed)
    return [MoveCommand(rng.randrange(10, 80), rng.randrange(10, 80),
                        rng.randrange(1, 12)) for _ in range(4)]


def closed_loop(system, seed, observed, spurious=0):
    """One 20,000-cycle run; *spurious* extra events the controller
    mostly ignores arrive at seeded times."""
    loop = SmdClosedLoop(system, motor_specs=FAST_MOTORS)
    rng = random.Random(seed)
    for _ in range(spurious):
        loop.schedule(rng.randrange(50000),
                      rng.choice(("GRAB_RELEASE", "END_DATA")))
    observers = Observers(loop.machine) if observed else None
    report = loop.run(smd_commands(seed), max_configuration_cycles=20000)
    result = {"report": repr(dataclasses.asdict(report)),
              "machine": machine_state(loop.machine)}
    if observers is not None:
        result["observers"] = observers.outputs()
    return result


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_closed_loop_repeats_exactly_what_stepping_does(smd_system, seed):
    repeated = {observed: closed_loop(smd_system, seed, observed)
                for observed in (False, True)}
    assert repeated[False]["report"] == repeated[True]["report"]
    for reference in REFERENCES.values():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(*reference)
            for observed in (False, True):
                assert (closed_loop(smd_system, seed, observed)
                        == repeated[observed])


@pytest.mark.parametrize("seed", [1, 2])
def test_closed_loop_repeats_exactly_under_spurious_input(smd_system, seed,
                                                          monkeypatch):
    repeated = closed_loop(smd_system, seed, True, spurious=40)
    monkeypatch.setattr(*REFERENCES["no-run"])
    assert closed_loop(smd_system, seed, True, spurious=40) == repeated


def test_closed_loop_steps_few_cycles(smd_system, monkeypatch):
    counts = {"step": 0, "repeated": 0}
    real_step, real_repeat = PscpMachine.step, PscpMachine.repeat

    def step(machine, events=()):
        counts["step"] += 1
        return real_step(machine, events)

    def repeat(machine, n, external_events=()):
        counts["repeated"] += n
        return real_repeat(machine, n, external_events)

    monkeypatch.setattr(PscpMachine, "step", step)
    monkeypatch.setattr(PscpMachine, "repeat", repeat)
    report = SmdClosedLoop(smd_system, motor_specs=FAST_MOTORS).run(
        smd_commands(1), max_configuration_cycles=20000)
    assert report.configuration_cycles == 20000
    assert counts["step"] + counts["repeated"] == 20000
    assert counts["step"] < 1000


def test_restore_from_checkpoint_steps_every_cycle(smd_system, monkeypatch):
    monkeypatch.setattr(PscpMachine, "repeat", None)  # never called
    loop = SmdClosedLoop(smd_system, motor_specs=FAST_MOTORS)
    report = loop.run([MoveCommand(10, 10, 2)], max_configuration_cycles=500,
                      restore_from_checkpoint=True)
    assert report.configuration_cycles == 500


# ---------------------------------------------------------------------------
# the machine, on the campaign charts
# ---------------------------------------------------------------------------

def held_input(chart, seed, cycles):
    """Sparse random input, each set held for a random stretch."""
    rng = random.Random(seed)
    events = sorted(chart.events)
    schedule = []
    while len(schedule) < cycles:
        held = frozenset(rng.sample(events, min(len(events),
                                                rng.choice((0, 0, 1, 1, 2)))))
        schedule.extend([held] * rng.randrange(1, 60))
    return schedule[:cycles]


def drive(system, schedule, repeating):
    """Step *schedule* per cycle, or repeat each run where legal; return
    the machine state, the observer outputs and the repeated cycles."""
    machine = system.make_machine()
    observers = Observers(machine, capacity=len(schedule))
    repeated = 0
    index = 0
    while index < len(schedule):
        events = schedule[index]
        if repeating and machine.repeat_refusal(events) is None:
            end = index
            while end < len(schedule) and schedule[end] == events:
                end += 1
            machine.repeat(end - index, events)
            repeated += end - index
            index = end
            continue
        machine.step(events)
        index += 1
    return machine_state(machine), observers.outputs(), repeated


@pytest.mark.parametrize("seed", CHART_SEEDS)
def test_campaign_chart_repeats_exactly_what_stepping_does(seed):
    spec = generate_spec(seed)
    frontend = Frontend(render_chart(spec), render_source(spec))
    system = frontend.build(frontend.initial_architecture())
    schedule = held_input(system.chart, seed, 600)
    stepped_state, stepped_outputs, none = drive(system, schedule, False)
    state, outputs, repeated = drive(system, schedule, True)
    assert none == 0 and repeated > 100
    assert state == stepped_state
    assert outputs == stepped_outputs


# ---------------------------------------------------------------------------
# refusals
# ---------------------------------------------------------------------------

def idle_machine(system):
    """A machine whose last cycle (empty input) dispatched nothing."""
    machine = system.make_machine()
    machine.step({"POWER"})
    for _ in range(50):
        if not machine.step().fired:
            return machine
    raise AssertionError("no idle cycle")


def assert_refused(machine, events=()):
    observers = Observers(machine)
    before = machine_state(machine)
    traced = list(observers.tracer.events)
    assert machine.repeat_refusal(events) is not None
    with pytest.raises(MachineError):
        machine.repeat(5, events)
    assert machine_state(machine) == before
    assert observers.tracer.events == traced
    assert observers.history.recorded == 0 and not observers.lineage.hops


def test_repeat_is_legal_after_an_idle_cycle(smd_system):
    machine = idle_machine(smd_system)
    time, cycle = machine.time, machine.cycle_count
    assert machine.repeat_refusal() is None
    machine.repeat(7)
    assert (machine.time, machine.cycle_count) == (time + 14, cycle + 7)
    with pytest.raises(MachineError):
        machine.repeat(0)


def test_repeat_refused_after_a_cycle_that_fired(smd_system):
    machine = smd_system.make_machine()
    assert machine.step({"POWER"}).fired
    assert_refused(machine, {"POWER"})
    assert_refused(machine)


def test_repeat_refused_for_a_different_input(smd_system):
    machine = idle_machine(smd_system)
    assert_refused(machine, {"DATA_VALID"})
    assert_refused(machine, {"NO_SUCH_EVENT"})


@pytest.mark.parametrize("unit", ["injector", "guard"])
def test_repeat_refused_with_an_injector_or_a_guard(smd_system, unit):
    machine = idle_machine(smd_system)
    if unit == "injector":
        machine.attach_injector(FaultInjector(FaultPlan(())))
    else:
        machine.attach_guard(MachineGuard())
    assert_refused(machine)


def test_repeat_refused_with_internal_events_pending(smd_system):
    machine = idle_machine(smd_system)
    document = json.loads(snapshot_machine(machine).to_json_str())
    document["pending_internal_events"] = ["BUF_EMPTY"]
    restore_machine(machine,
                    MachineSnapshot.from_json_str(json.dumps(document)))
    assert_refused(machine)


def test_repeat_refused_after_restoring_another_cr_word(smd_system):
    early = smd_system.make_machine()
    # before POWER: the initial configuration
    snapshot = snapshot_machine(early)
    machine = idle_machine(smd_system)
    assert machine.repeat_refusal() is None
    restore_machine(machine, snapshot)
    assert_refused(machine)


# ---------------------------------------------------------------------------
# observers without a run hook
# ---------------------------------------------------------------------------

class StepCycles(MachineObserver):
    """Overrides only ``record_step``."""

    def __init__(self):
        self.cycles = []

    def record_step(self, cycle, step):
        self.cycles.append((cycle, step.start_time, step.events_sampled))


class DispatchCount(MachineObserver):
    """Overrides only ``on_dispatch``, as the fuzz oracle's WCET watch."""

    def __init__(self):
        self.dispatches = 0

    def on_dispatch(self, cycle, index, completed, cost, raised,
                    port_accesses):
        self.dispatches += 1


def test_an_observer_without_on_repeat_sees_every_cycle(smd_system):
    machine = idle_machine(smd_system)
    start, first = machine.time, machine.cycle_count
    watcher = StepCycles()
    machine.attach(watcher)
    machine.repeat(4)
    assert watcher.cycles == [(first + k, start + 2 * k, frozenset())
                              for k in range(4)]


def test_a_dispatch_observer_does_not_force_stepping(smd_system,
                                                     monkeypatch):
    machine = idle_machine(smd_system)
    machine.attach(DispatchCount())
    cycle = machine.cycle_count
    monkeypatch.setattr(PscpMachine, "step", None)  # never called
    machine.repeat(4)
    assert machine.cycle_count == cycle + 4


def test_closed_loop_observer_without_on_repeat_sees_every_cycle(smd_system):
    loop = SmdClosedLoop(smd_system, motor_specs=FAST_MOTORS)
    watcher = StepCycles()
    loop.machine.attach(watcher)
    report = loop.run([MoveCommand(10, 10, 2)], max_configuration_cycles=3000)
    assert [cycle for cycle, _, _ in watcher.cycles] == list(
        range(report.configuration_cycles))
