"""One machine image per build.

:meth:`~repro.pscp.machine.MachineImage.link` emits each transition stub
once, resolves the labels and prices every program slot once.  Every
machine of a :class:`~repro.flow.build.BuiltSystem` shares that image and
allocates only run state, and the guard reads its budgets off the image:

* building a machine and binding a guard emit no stub and price nothing,
  and over a fuzz campaign the emitter runs once per linked transition;
* two machines of one build, stepped with different inputs, each equal a
  machine of a fresh build after every cycle (``snapshot_machine``), so no
  machine writes into the image it shares.
"""

import random
import sys
from collections import Counter

import pytest

import repro.isa.microcode
import repro.pscp.machine
from repro.fault import MachineGuard
from repro.flow import Frontend, build_system
from repro.fuzz import FuzzCampaign, generate_spec, render_chart, render_source
from repro.isa import MD16_TEP
from repro.pscp.machine import MachineImage
from repro.resil.snapshot import snapshot_machine

#: campaign seed 1's first 12 charts (``seed * 7919 + index``)
CHART_SEEDS = tuple(range(7919, 7931))


def smd_system():
    from repro.workloads import SMD_MUTUAL_EXCLUSIONS, SMD_ROUTINES, smd_chart

    arch = MD16_TEP.with_(n_teps=2, microcode_optimized=True,
                          mutual_exclusions=SMD_MUTUAL_EXCLUSIONS)
    return build_system(smd_chart(), SMD_ROUTINES, arch, specialize=True)


def elevator_system():
    from repro.workloads.elevator import ELEVATOR_ROUTINES, elevator_chart

    return build_system(elevator_chart(), ELEVATOR_ROUTINES, MD16_TEP)


def campaign_system(seed):
    spec = generate_spec(seed)
    frontend = Frontend(render_chart(spec), render_source(spec))
    return frontend.build(frontend.initial_architecture())


SYSTEMS = ([pytest.param(smd_system, id="smd"),
            pytest.param(elevator_system, id="elevator")]
           + [pytest.param(lambda seed=seed: campaign_system(seed),
                           id=str(seed)) for seed in CHART_SEEDS])


@pytest.fixture
def counts(monkeypatch):
    """Counts stub emissions, ``cycle_cost`` calls through every module
    binding, and the transitions :meth:`MachineImage.link` links."""
    counted = Counter()
    emit = repro.pscp.machine._transition_stub
    price = repro.isa.microcode.cycle_cost
    link = vars(MachineImage)["link"].__func__

    def emitting(*args, **kwargs):
        counted["emitted"] += 1
        return emit(*args, **kwargs)

    def pricing(*args, **kwargs):
        counted["priced"] += 1
        return price(*args, **kwargs)

    def linking(cls, chart, *args, **kwargs):
        counted["linked"] += len(chart.transitions)
        return link(cls, chart, *args, **kwargs)

    monkeypatch.setattr(repro.pscp.machine, "_transition_stub", emitting)
    monkeypatch.setattr(MachineImage, "link", classmethod(linking))
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "cycle_cost",
                                                None) is price:
            monkeypatch.setattr(module, "cycle_cost", pricing)
    return counted


@pytest.mark.parametrize("make_system", SYSTEMS[:2])
def test_machines_and_guards_share_the_image(counts, make_system):
    system = make_system()
    assert counts["emitted"] == len(system.chart.transitions)
    assert counts["priced"] >= len(system.image.program.instructions)
    counts.clear()
    first, second = system.make_machine(), system.make_machine()
    first.attach_guard(MachineGuard())
    assert counts == {}
    assert first.image is second.image is system.image
    for attribute in ("program", "labels", "prices"):
        assert (getattr(first.executor, attribute)
                is getattr(second.executor, attribute))
    assert first.tat.entries is second.tat.entries is system.image.entries


def test_campaign_emits_each_stub_once_per_link(counts):
    FuzzCampaign(seed=1, charts=2).run()
    assert counts["linked"] > 0
    assert counts["emitted"] == counts["linked"]


def random_trace(system, seed, cycles=40):
    rng = random.Random(seed)
    events = sorted(system.chart.events)
    return [{event for event in events if rng.random() < 0.25}
            for _ in range(cycles)]


@pytest.mark.parametrize("make_system", SYSTEMS)
def test_machines_of_one_build_equal_fresh_builds(make_system):
    """Interleaved steps on two machines of one build, each against a
    machine of its own fresh build: a write into the shared image by
    either machine would show in the other's snapshots."""
    system = make_system()
    shared = (system.make_machine(), system.make_machine())
    fresh = (make_system().make_machine(), make_system().make_machine())
    traces = (random_trace(system, 1), random_trace(system, 2))
    for cycle in range(len(traces[0])):
        for machine, reference, trace in zip(shared, fresh, traces):
            machine.step(trace[cycle])
            reference.step(trace[cycle])
            assert (snapshot_machine(machine).to_json_str()
                    == snapshot_machine(reference).to_json_str()), cycle
