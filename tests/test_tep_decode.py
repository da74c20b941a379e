"""Decoding is lazy, shared by a build's machines and safe across a restore.

A :class:`~repro.pscp.tep.ProgramImage` decodes a slot the first time any
TEP executes it, and every TEP on the image runs that one decoded handler
from then on.  These tests count decodes by patching
``repro.pscp.tep._decode``, which the undecoded placeholder calls:

* building the ``check`` workload's improvement ladder links images and
  decodes nothing;
* a 100-cycle elevator run decodes each slot it executes exactly once and
  no other slot;
* two machines of one build share one decoded table, so the second decodes
  nothing the first already did;
* restoring a snapshot into a machine whose slots are decoded, then
  stepping, ends in the same snapshot document as a fresh build restored
  and stepped the same way.
"""

import random
from collections import Counter

import pytest

from repro.flow import Improver, build_system
from repro.isa import MD16_TEP
from repro.pscp import tep as tep_module
from repro.resil import MachineSnapshot, restore_machine, snapshot_machine
from repro.workloads.elevator import (
    ELEVATOR_MUTUAL_EXCLUSIONS,
    ELEVATOR_ROUTINES,
    elevator_chart,
)

ARCH = MD16_TEP.with_(n_teps=2, microcode_optimized=True,
                      mutual_exclusions=ELEVATOR_MUTUAL_EXCLUSIONS)


@pytest.fixture
def decodes(monkeypatch):
    """Counts decodes per (image, slot); each decoded handler also records
    the slots it executes."""
    counts = Counter()
    executed = set()
    decode = tep_module._decode

    def counting(image, pc):
        counts[id(image), pc] += 1
        handler = decode(image, pc)

        def recording(tep, slot):
            executed.add((id(tep.image), slot))
            return handler(tep, slot)
        return recording
    monkeypatch.setattr(tep_module, "_decode", counting)
    return counts, executed


def decoded_slots(image):
    """The slots of *image* some TEP has executed."""
    return [slot for slot, handler in enumerate(image.handlers)
            if handler is not tep_module._undecoded]


def build():
    return build_system(elevator_chart(), ELEVATOR_ROUTINES, ARCH,
                        specialize=True)


def drive(machine, cycles, seed=1):
    """The elevator workload's stimulus: one seeded driver event per cycle
    plus the chart's periodic events."""
    chart = machine.chart
    periods = {name: event.period for name, event in chart.events.items()
               if event.period}
    driver = sorted(set(chart.events) - set(periods) - {"POWER_ON"})
    rng = random.Random(seed)
    for _ in range(cycles):
        due = {rng.choice(driver)}
        due.update(name for name, period in periods.items()
                   if machine.time % period < 40)
        machine.step(due)


def test_building_the_check_ladder_decodes_nothing(decodes):
    counts, _ = decodes
    improved = Improver(elevator_chart(), ELEVATOR_ROUTINES,
                        initial_arch=MD16_TEP,
                        mutual_exclusions=ELEVATOR_MUTUAL_EXCLUSIONS,
                        max_teps=3).run()
    assert len(improved.steps) > 1
    assert not counts
    assert decoded_slots(improved.final.image.program) == []


def test_a_run_decodes_each_executed_slot_once(decodes):
    counts, executed = decodes
    system = build()
    machine = system.make_machine()
    machine.step({"POWER_ON"})
    drive(machine, 99)
    image = system.image.program
    assert executed, "the run executed no routine"
    assert set(counts) == executed
    assert set(counts.values()) == {1}
    assert {slot for _, slot in executed} == set(decoded_slots(image))
    assert len(decoded_slots(image)) < len(image.instructions)


def test_machines_of_one_build_share_one_decoded_table(decodes):
    counts, _ = decodes
    system = build()
    first, second = system.make_machine(), system.make_machine()
    assert first.executor.handlers is second.executor.handlers
    assert first.executor.handlers is system.image.program.handlers
    for machine in (first, second):
        machine.step({"POWER_ON"})
        drive(machine, 60)
    decoded = sum(counts.values())
    assert decoded == len(decoded_slots(system.image.program))
    assert snapshot_machine(first).to_json_str() \
        == snapshot_machine(second).to_json_str()


def test_restore_into_a_decoded_machine_matches_a_fresh_one():
    system = build()
    source = system.make_machine()
    source.step({"POWER_ON"})
    drive(source, 80, seed=3)
    document = snapshot_machine(source).to_json_str()
    drive(source, 80, seed=5)

    decoded = system.make_machine()
    decoded.step({"POWER_ON"})
    drive(decoded, 120, seed=7)
    assert decoded_slots(decoded.image.program)
    fresh = build().make_machine()
    assert decoded_slots(fresh.image.program) == []

    finals = []
    for machine in (decoded, fresh):
        restore_machine(machine, MachineSnapshot.from_json_str(document))
        drive(machine, 80, seed=5)
        finals.append(snapshot_machine(machine).to_json_str())
    assert finals[0] == finals[1] == snapshot_machine(source).to_json_str()
