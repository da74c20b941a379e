"""The machine-observer protocol.

A machine keeps one tuple of :class:`~repro.pscp.machine.MachineObserver`
instances and calls three hooks on each stepped cycle: ``on_sla`` before
the TAT drains, ``on_dispatch`` once per TAT dispatch, and ``record_step``
with the :class:`MachineStep` it returns.  A run of repeated cycles calls
``on_repeat`` once (``tests/test_repeat.py``).  A new observer is one
subclass and no machine edit.
"""

import random

import pytest

from repro.fault import FaultInjector, FaultPlan, MachineGuard
from repro.fault.model import TEP_FAIL, Fault
from repro.flow import build_system
from repro.isa import MD16_TEP
from repro.obs import FlightRecorder, LineageTracker, Tracer
from repro.pscp import MachineObserver


class HookLog(MachineObserver):
    """Logs every hook call; written against the protocol alone."""

    def __init__(self):
        self.sla = []
        self.dispatches = []
        self.steps = []

    def on_sla(self, cycle, sampled, enabled, retries):
        self.sla.append(cycle)

    def on_dispatch(self, cycle, index, completed, cost, raised,
                    port_accesses):
        self.dispatches.append((cycle, index, cost))

    def record_step(self, cycle, step):
        self.steps.append((cycle, step))


def _final(chart, routines, exclusions):
    arch = MD16_TEP.with_(n_teps=2, microcode_optimized=True,
                          mutual_exclusions=exclusions)
    return build_system(chart, routines, arch, specialize=True)


@pytest.fixture(scope="module")
def smd_system():
    from repro.workloads import SMD_MUTUAL_EXCLUSIONS, SMD_ROUTINES, \
        smd_chart

    return _final(smd_chart(), SMD_ROUTINES, SMD_MUTUAL_EXCLUSIONS)


@pytest.fixture(scope="module")
def elevator_system():
    from repro.workloads.elevator import ELEVATOR_MUTUAL_EXCLUSIONS, \
        ELEVATOR_ROUTINES, elevator_chart

    return _final(elevator_chart(), ELEVATOR_ROUTINES,
                  ELEVATOR_MUTUAL_EXCLUSIONS)


def stimulus(chart, cycles, seed=1):
    """One or two random chart events per cycle, some cycles empty."""
    rng = random.Random(seed)
    events = sorted(chart.events)
    return [set(rng.sample(events, rng.randrange(3)))
            for _ in range(cycles)]


@pytest.mark.parametrize("name", ["smd", "elevator"])
def test_hooks_match_the_returned_steps(name, request):
    system = request.getfixturevalue(f"{name}_system")
    machine = system.make_machine()
    log = HookLog()
    machine.attach(log)
    steps = [machine.step(events)
             for events in stimulus(system.chart, 400)]

    cycles = list(range(len(steps)))
    assert log.sla == cycles
    assert [cycle for cycle, _ in log.steps] == cycles
    assert all(seen is step for (_, seen), step in zip(log.steps, steps))
    expected = [(cycle, index) for cycle, step in enumerate(steps)
                if step.plan is not None for index in step.plan.order]
    assert [(cycle, index) for cycle, index, _ in log.dispatches] == expected
    assert len(expected) > 20, "the stimulus must fire transitions"
    assert all(cost > 0 for _, _, cost in log.dispatches)


def test_observer_lookup_and_detach(smd_system):
    machine = smd_system.make_machine()
    recorder, lineage = FlightRecorder(), LineageTracker()
    assert machine.observers == ()
    machine.attach(recorder)
    machine.attach(lineage)
    assert machine.observers == (recorder, lineage)
    assert machine.observer(FlightRecorder) is recorder
    assert machine.observer(LineageTracker) is lineage
    assert machine.observer(Tracer) is None
    machine.detach(recorder)
    assert machine.observers == (lineage,)
    assert machine.observer(FlightRecorder) is None


# ---------------------------------------------------------------------------
# the tracer hand-off to the injector and the guard
# ---------------------------------------------------------------------------

def tep_fail_plan():
    return FaultPlan((Fault(TEP_FAIL, 5, target=1),))


def test_detached_tracer_receives_no_fault_instants(smd_system):
    machine = smd_system.make_machine()
    tracer = Tracer()
    machine.attach(tracer)
    machine.attach_injector(FaultInjector(tep_fail_plan()))
    machine.attach_guard(MachineGuard())
    events = stimulus(smd_system.chart, 10)
    machine.step(events[0])
    machine.detach(tracer)
    recorded = list(tracer.events)
    for cycle_events in events[1:]:
        machine.step(cycle_events)

    assert machine.failed_teps == {1}, "the fault must still bite"
    assert machine.injector.tracer is None
    assert machine.guard.tracer is None
    assert tracer.events == recorded


@pytest.mark.parametrize("name", ["smd", "elevator"])
def test_tracer_attach_order_does_not_matter(name, request):
    system = request.getfixturevalue(f"{name}_system")
    events = stimulus(system.chart, 60)

    def traced(tracer_first):
        machine = system.make_machine()
        tracer = Tracer()
        if tracer_first:
            machine.attach(tracer)
        machine.attach_injector(FaultInjector(tep_fail_plan()))
        machine.attach_guard(MachineGuard())
        if not tracer_first:
            machine.attach(tracer)
        machine.run(events)
        return tracer

    first, last = traced(True), traced(False)
    assert first.track_names == last.track_names == [
        "machine", "SLA", "scheduler", "TEP 0", "TEP 1", "cond-cache bus",
        "faults", "recovery"]
    assert first.events == last.events
    assert first.events_on("faults") and first.events_on("recovery")
