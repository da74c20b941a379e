"""The SLA memo's oracle leg: one CR word, one set of SLA outputs.

:meth:`PscpMachine.step` takes a CR word's enabled transitions, fired
transitions, dispatch plan and next configuration from its build's memo
(:meth:`MachineImage.sla_memo`), filled the first time the word occurs.
These tests run each workload twice, once with the memo and once with the
build's memo cleared before every cycle (so every cycle computes its
outputs and reads nothing back), and compare every :class:`MachineStep`
field and the final ``snapshot_machine`` document:

* the e2e ``elevator`` drive, 6,000 cycles, seeds 1 and 2;
* the SMD closed loop on the e2e ``smd`` workload's commands;
* campaign seed 1's first 12 charts (chart seeds 7919-7930) on every
  ladder rung.

Then the cases the memo's key and checks exist for: one image under two
PLAs, a restored illegal configuration that shares a legal one's word,
guard retries and a failed TEP (also against an empty fault injector,
which makes every cycle compute), a restore into a machine whose memo is
warm, and more distinct words than the memo's cap.
"""

import contextlib
import pathlib
import random
from unittest import mock

import pytest

from repro.action.check import Externals
from repro.fault import FaultInjector, FaultPlan, MachineGuard
from repro.fault.model import SLA_STUCK_OFF, Fault
from repro.flow import build_system, select_initial_architecture
from repro.fuzz import OracleHarness, event_trace, generate_spec
from repro.isa import MD16_TEP, CodeGenerator, NameMaps, prepare_program
from repro.pscp import DeadlineMonitor, MachineImage, PscpMachine
from repro.pscp import machine as machine_module
from repro.resil.snapshot import MachineSnapshot, restore_machine, \
    snapshot_machine
from repro.sla import Pla, synthesize
from repro.statechart import ChartBuilder, parse_chart
from repro.workloads import (FAST_MOTORS, SMD_MUTUAL_EXCLUSIONS,
                             SMD_ROUTINES, MoveCommand, SmdClosedLoop,
                             smd_chart)
from repro.workloads.elevator import (ELEVATOR_MUTUAL_EXCLUSIONS,
                                      ELEVATOR_ROUTINES, elevator_chart)

#: campaign seed 1's first 12 charts (``seed * 7919 + index``)
CHART_SEEDS = tuple(range(7919, 7931))

BOUND_OVERRUN = (pathlib.Path(__file__).parent / "fixtures" / "run_errors"
                 / "bound_overrun")

MARK = "int:16 marks; void Mark() { marks = marks + 1; }"


def outputs(step):
    """Every field of *step* as plain, comparable data."""
    plan = step.plan
    return (tuple(t.index for t in step.fired),
            tuple(sorted(step.configuration)),
            step.cycle_length, step.start_time, step.end_time,
            None if plan is None else (tuple(map(tuple, plan.queues)),
                                       tuple(plan.order),
                                       tuple(plan.diverted)),
            tuple(sorted(step.events_sampled)),
            tuple(sorted(step.events_raised)),
            repr(step.faults), repr(step.recoveries))


class Record:
    """What :func:`stepping` saw: every step's :func:`outputs` and the
    number of SLA evaluations (:meth:`Pla.enabled` calls)."""

    def __init__(self):
        self.steps = []
        self.evaluations = 0


@contextlib.contextmanager
def stepping(memo=True):
    """Record every :meth:`PscpMachine.step`; without *memo*, clear the
    stepping machine's build memo before each cycle."""
    record = Record()
    step, enabled = PscpMachine.step, Pla.enabled

    def recorded_step(machine, external_events=()):
        if not memo:
            machine.image.sla_memo(machine.pla).clear()
        result = step(machine, external_events)
        record.steps.append(outputs(result))
        return result

    def counted_enabled(pla, cr_bits):
        record.evaluations += 1
        return enabled(pla, cr_bits)

    with mock.patch.object(PscpMachine, "step", recorded_step), \
            mock.patch.object(Pla, "enabled", counted_enabled):
        yield record


def document(machine):
    return snapshot_machine(machine).to_json_str()


def assert_same_both_ways(drive):
    """*drive()* (which returns its machine) with the memo and with the
    memo cleared before every cycle steps alike and ends alike; returns
    the memo run's record and machine."""
    with stepping() as memo:
        machine = drive()
    with stepping(memo=False) as plain:
        reference = drive()
    assert memo.steps, "the drive stepped nothing"
    assert memo.steps == plain.steps
    assert document(machine) == document(reference)
    return memo, machine


def words(machine):
    return len(machine.image.sla_memo(machine.pla))


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

def elevator_system():
    arch = MD16_TEP.with_(n_teps=2, microcode_optimized=True,
                          mutual_exclusions=ELEVATOR_MUTUAL_EXCLUSIONS)
    return build_system(elevator_chart(), ELEVATOR_ROUTINES, arch,
                        specialize=True)


def drive_elevator(machine, seed, cycles=6000):
    """Step *machine* as the e2e ``elevator`` workload does: the
    constrained events at their periods plus one seeded driver event per
    cycle.  Returns the event sets it stepped."""
    periods = DeadlineMonitor(machine.chart).periods
    constrained = sorted(periods)
    driver = sorted(set(machine.chart.events) - set(periods) - {"POWER_ON"})
    next_arrival = dict.fromkeys(constrained, 0)
    rng = random.Random(seed)
    stepped = [{"POWER_ON"}]
    machine.step({"POWER_ON"})
    for _ in range(cycles - 1):
        due = {rng.choice(driver)}
        for event in constrained:
            if next_arrival[event] <= machine.time:
                due.add(event)
                next_arrival[event] = machine.time + periods[event]
        machine.step(due)
        stepped.append(due)
    return stepped


@pytest.mark.parametrize("seed", [1, 2])
def test_elevator_drive(seed):
    def drive():
        machine = elevator_system().make_machine()
        drive_elevator(machine, seed)
        return machine

    memo, machine = assert_same_both_ways(drive)
    assert len(memo.steps) == 6000
    # the SLA evaluated each distinct word once
    assert memo.evaluations == words(machine) < 1000
    # the mutual exclusions divert transitions: the plans are not trivial
    assert any(step[5] and step[5][2] for step in memo.steps)


def test_smd_closed_loop():
    arch = MD16_TEP.with_(n_teps=2, microcode_optimized=True,
                          mutual_exclusions=SMD_MUTUAL_EXCLUSIONS)
    rng = random.Random(1)
    commands = [MoveCommand(rng.randrange(10, 80), rng.randrange(10, 80),
                            rng.randrange(1, 12)) for _ in range(4)]
    reports = []

    def drive():
        system = build_system(smd_chart(), SMD_ROUTINES, arch,
                              specialize=True)
        loop = SmdClosedLoop(system, motor_specs=FAST_MOTORS)
        report = loop.run(commands, max_configuration_cycles=20000)
        reports.append((report.total_cycles, report.configuration_cycles,
                        report.final_positions, report.commands_completed))
        return loop.machine

    memo, machine = assert_same_both_ways(drive)
    assert reports[0] == reports[1]
    assert memo.evaluations == words(machine) < len(memo.steps)


@pytest.mark.parametrize("seed", CHART_SEEDS)
def test_campaign_chart_on_every_rung(seed):
    harness = OracleHarness(generate_spec(seed))
    trace = event_trace(harness.trace_seed, harness.spec.events, 200)
    for rung in harness.rungs():
        def drive():
            machine = rung.system.make_machine()
            for events in trace:
                machine.step(events)
            return machine

        # the rung's build may have stepped before: start its memo cold
        rung.system.image.sla_memo(rung.system.pla).clear()
        assert_same_both_ways(drive)


# ---------------------------------------------------------------------------
# what the memo's key and checks are for
# ---------------------------------------------------------------------------

def _ring_chart():
    """Four states in a ring: the binary code of ``D`` (``11``) is the
    one-hot code of ``{Top, A}``, so the two PLAs share words that mean
    different states."""
    b = ChartBuilder("ring")
    b.event("GO").event("BACK")
    ring = "ABCD"
    with b.or_state("Top", default="A"):
        for position, name in enumerate(ring):
            b.basic(name) \
                .transition(ring[(position + 1) % 4], label="GO/Mark()") \
                .transition(ring[position - 1], label="BACK/Mark()")
    return b.build()


def _image(chart, source):
    checked = prepare_program(source, MD16_TEP, Externals.from_chart(chart))
    compiled = CodeGenerator(checked, MD16_TEP,
                             maps=NameMaps.from_chart(chart)).compile()
    return MachineImage.link(chart, compiled,
                             {f.name: [] for f in checked.program.functions})


def test_one_image_under_two_plas_steps_as_each_alone():
    """A binary and a one-hot PLA read the same word differently: one
    image stepped under both, interleaved, gives what a machine under each
    gives alone on its own image."""
    chart = _ring_chart()
    rng = random.Random(5)
    trace = [set(rng.sample(["GO", "BACK"], rng.randrange(3)))
             for _ in range(200)]
    image = _image(chart, MARK)
    binary = PscpMachine(image, pla=synthesize(chart))
    onehot = PscpMachine(image, pla=synthesize(chart, onehot=True))
    together = [(outputs(binary.step(events)), outputs(onehot.step(events)))
                for events in trace]
    for position, onehot_code in enumerate((False, True)):
        alone = PscpMachine(_image(chart, MARK),
                            pla=synthesize(chart, onehot=onehot_code))
        assert [outputs(alone.step(events)) for events in trace] \
            == [pair[position] for pair in together]
    assert words(binary) and words(onehot)


def _nested_system():
    b = ChartBuilder("nested")
    b.event("GO").event("BACK")
    with b.or_state("Top", default="A"):
        b.basic("A").transition("B", label="GO")
        with b.or_state("B", default="B1"):
            b.basic("B1").transition("B2", label="GO/Mark()")
            b.basic("B2").transition("B1", label="BACK/Mark()")
    return build_system(b.build(), MARK, MD16_TEP)


def test_restored_illegal_configuration_steps_as_without_the_memo():
    """``{A, B, B1}`` is illegal (two children of ``Top``) but encodes to
    the word of the legal ``{B, B1}``; the legal machine's entry for that
    word must not move the illegal one."""
    system = _nested_system()
    legal = system.make_machine()
    legal.step({"GO"})  # A -> B, entering B1
    doc = snapshot_machine(legal).to_json()
    doc["cr"]["configuration"] = sorted(legal.cr.configuration | {"A"})
    snapshot = MachineSnapshot.from_json(doc)
    restored = system.make_machine()
    restore_machine(restored, snapshot)
    assert restored.cr.word({"GO"}) == legal.cr.word({"GO"})
    legal.step({"GO"})  # the legal configuration fills that word's entry
    trace = [{"GO"}, {"BACK"}, {"GO"}, set(), {"BACK"}]

    def drive():
        machine = system.make_machine()
        restore_machine(machine, snapshot)
        for events in trace:
            machine.step(events)
        return machine

    _, machine = assert_same_both_ways(drive)
    assert "A" in machine.cr.configuration


def test_stuck_at_output_bites_on_a_word_the_memo_holds():
    """A stuck-at SLA output changes what a word enables: a machine with
    an injector computes every cycle, also on a word the memo holds."""
    system = _nested_system()
    warm = system.make_machine()
    clean = [outputs(warm.step(events)) for events in ({"GO"}, {"GO"})]
    assert clean[1][0] == (1,)  # B1 -> B2, now in the memo
    machine = system.make_machine()
    machine.attach_injector(FaultInjector(FaultPlan(
        (Fault(SLA_STUCK_OFF, 1, 1),))))
    assert outputs(machine.step({"GO"})) == clean[0]
    step = machine.step({"GO"})
    assert step.fired == []
    assert [fault.kind for fault in step.faults] == [SLA_STUCK_OFF]


def _overrun_system():
    chart = parse_chart((BOUND_OVERRUN / "chart.sc").read_text())
    routines = (BOUND_OVERRUN / "routines.c").read_text()
    return build_system(chart, routines,
                        select_initial_architecture(chart, routines))


def assert_same_computed(make, drive):
    """*drive(machine)* on machines from *make()* steps alike with the
    memo, with it cleared before every cycle, and under an empty fault
    injector, with which every cycle computes its SLA outputs."""
    runs = []
    for memo, inject in ((True, False), (False, False), (True, True)):
        machine = make()
        if inject:
            machine.attach_injector(FaultInjector(FaultPlan.empty()))
        with stepping(memo) as record:
            drive(machine)
        runs.append((record.steps, document(machine)))
    assert runs[0] == runs[1] == runs[2]
    return runs[0][0]


def test_guard_retry_cycles_match():
    system = _overrun_system()

    def make():
        machine = system.make_machine()
        machine.attach_guard(MachineGuard())
        return machine

    def drive(machine):
        for events in [{"GO"}, set(), set(), set(), set(), {"STOP"},
                       set(), {"GO"}, set(), set(), {"STOP"}] * 3:
            machine.step(events)

    steps = assert_same_computed(make, drive)
    # cycles that dispatch only a retry, and one that adds it to a firing
    assert any(not step[0] and step[5] for step in steps)
    assert any(step[0] and len(step[5][1]) > len(step[0]) for step in steps)


def test_run_after_fail_tep_matches():
    system = elevator_system()
    events = drive_elevator(system.make_machine(), 1, 1200)

    def drive(machine):
        for cycle, due in enumerate(events):
            if cycle == 600:
                machine.fail_tep(0)
            machine.step(due)

    steps = assert_same_computed(system.make_machine, drive)
    # after the failure every queue is on the survivor
    assert all(not step[5][0][0] for step in steps[601:] if step[5])


def test_restore_into_a_warm_memo_steps_as_a_fresh_build():
    system = elevator_system()
    machine = system.make_machine()
    events = drive_elevator(machine, 1, 3000)
    probe = system.make_machine()
    for due in events[:1500]:
        probe.step(due)
    snapshot = snapshot_machine(probe)

    restore_machine(machine, snapshot)
    with stepping() as warm:
        for due in events[1500:]:
            machine.step(due)
    fresh = elevator_system().make_machine()
    restore_machine(fresh, snapshot)
    with stepping() as cold:
        for due in events[1500:]:
            fresh.step(due)
    assert warm.steps == cold.steps
    assert document(machine) == document(fresh)
    assert warm.evaluations < cold.evaluations


def test_more_distinct_words_than_the_cap(monkeypatch):
    monkeypatch.setattr(machine_module, "SLA_MEMO_CAP", 16)

    def drive():
        machine = elevator_system().make_machine()
        drive_elevator(machine, 2, 2000)
        return machine

    memo, machine = assert_same_both_ways(drive)
    assert words(machine) == 16
    assert memo.evaluations > 16
