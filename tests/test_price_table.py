"""The price table agrees with the microprograms it is filled from.

``cycle_cost`` looks an instruction's price up in a table keyed by op,
operand class, ``Mem`` space and the architecture's wait states, microcode
optimization and pipelining.  Here every instruction a built machine can
execute — each routine instruction and each transition stub — is priced
again from a fresh ``microprogram`` and compared with the table and with
the TEP's per-slot price.  Each stub's ``stub_wcet`` must be its slots'
prices plus the called routine's WCET.  The systems are every ladder rung
of SMD, the elevator and the first 12 charts of fuzz campaign seed 1, and
SMD and the elevator on ``MINIMAL_TEP``, on the pipelined TEP of
``test_pipelined_tep`` and with more external-RAM wait states.
"""

import pytest

from repro.flow import Improver, build_system
from repro.fuzz import generate_spec, render_chart, render_source
from repro.isa import MD16_TEP, MINIMAL_TEP, Op, cycle_cost, microprogram
from repro.isa.isa import CONTROL_TRANSFERS
from repro.isa.microcode import FETCH_PROLOGUE, PIPELINE_FLUSH_CYCLES
from repro.pscp import DISPATCH_OVERHEAD_CYCLES, stub_wcet
from repro.workloads import SMD_MUTUAL_EXCLUSIONS, SMD_ROUTINES, smd_chart
from repro.workloads.elevator import (
    ELEVATOR_MUTUAL_EXCLUSIONS,
    ELEVATOR_ROUTINES,
    elevator_chart,
)

PIPELINED = MD16_TEP.with_(pipelined=True, name="md16-pipe")
SLOW_RAM = MD16_TEP.with_(external_ram_wait_states=5, name="md16-ws5")

#: campaign seed 1's first 12 charts (``seed * 7919 + index``)
CHART_SEEDS = tuple(range(7919, 7931))


def derived_price(instruction, arch):
    """The microprogram's length; on a pipelined TEP without the hidden
    fetch states, plus the flush penalty on a control transfer."""
    length = len(microprogram(instruction, arch))
    if not arch.pipelined:
        return length
    price = max(1, length - len(FETCH_PROLOGUE))
    if instruction.op in CONTROL_TRANSFERS:
        price += PIPELINE_FLUSH_CYCLES
    return price


def ladder_systems(name):
    if name == "smd":
        improver = Improver(smd_chart(), SMD_ROUTINES,
                            mutual_exclusions=SMD_MUTUAL_EXCLUSIONS,
                            max_teps=2)
    elif name == "elevator":
        improver = Improver(elevator_chart(), ELEVATOR_ROUTINES,
                            initial_arch=MD16_TEP,
                            mutual_exclusions=ELEVATOR_MUTUAL_EXCLUSIONS,
                            max_teps=3)
    else:
        spec = generate_spec(name)
        improver = Improver(render_chart(spec), render_source(spec))
    return [rung.system for rung in improver.rungs()]


def fixed_arch_systems(arch):
    return [build_system(smd_chart(), SMD_ROUTINES, arch),
            build_system(elevator_chart(), ELEVATOR_ROUTINES, arch)]


def price_problems(system):
    """Every slot of *system*'s TEP program whose table or per-slot price
    differs from its microprogram, and every stub whose ``stub_wcet`` is
    not its slots' prices plus the callee's WCET."""
    arch = system.arch
    machine = system.make_machine()
    program = machine.executor.program
    problems = []
    for slot, instruction in enumerate(program):
        want = derived_price(instruction, arch)
        got = (cycle_cost(instruction, arch), machine.executor.prices[slot])
        if got != (want, want):
            problems.append((arch.name, slot, str(instruction), want, got))
    for transition in system.chart.transitions:
        if transition.wcet_override is not None:
            continue
        slot = machine.executor.labels[machine.tat.entry(transition.index)]
        stub = 0
        while True:
            instruction = program[slot]
            stub += derived_price(instruction, arch)
            if instruction.op is Op.CALL:
                stub += system.compiled.wcets()[instruction.operand.name]
            if instruction.op is Op.TRET:
                break
            slot += 1
        static = (stub_wcet(transition, system.compiled, system.param_names),
                  system.transition_costs[transition.index]
                  - DISPATCH_OVERHEAD_CYCLES)
        if static != (stub, stub):
            problems.append((arch.name, transition.describe(), stub, static))
    return problems


@pytest.mark.parametrize("name", ("smd", "elevator") + CHART_SEEDS)
def test_every_ladder_rung_is_priced_by_its_microprograms(name):
    systems = ladder_systems(name)
    assert len(systems) > 1
    for system in systems:
        assert price_problems(system) == []


@pytest.mark.parametrize("arch", [MINIMAL_TEP, PIPELINED, SLOW_RAM],
                         ids=lambda arch: arch.name)
def test_fixed_architectures_are_priced_by_their_microprograms(arch):
    for system in fixed_arch_systems(arch):
        assert price_problems(system) == []
