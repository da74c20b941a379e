"""Direct unit tests for the CR runtime object and the dispatch scheduler."""

import pytest

from repro.fault import (
    ILLEGAL_CONFIGURATION,
    Fault,
    FaultInjector,
    FaultPlan,
    MachineGuard,
)
from repro.flow import build_system
from repro.isa import MD16_TEP, ArchConfig
from repro.pscp.condcache import ConditionCacheBridge
from repro.pscp.cr import ConfigurationRegister
from repro.pscp.scheduler import (
    DISPATCH_OVERHEAD_CYCLES,
    round_robin_dispatch,
)
from repro.resil import restore_machine, snapshot_machine
from repro.sla import cr_layout
from repro.statechart import ChartBuilder


def small_chart():
    b = ChartBuilder("cr")
    b.event("E1").event("E2")
    b.condition("C1", initial=True).condition("C2")
    with b.or_state("Top", default="A"):
        b.basic("A").transition("B", label="E1")
        b.basic("B")
    return b.build()


class TestConfigurationRegister:
    def make_cr(self):
        chart = small_chart()
        return chart, ConfigurationRegister(cr_layout(chart))

    def test_initial_state(self):
        chart, cr = self.make_cr()
        assert cr.configuration == chart.initial_configuration()
        assert cr.conditions == {"C1"}
        assert cr.events == set()

    def test_sample_and_reset_events(self):
        _, cr = self.make_cr()
        cr.sample_events({"E1"}, {"E2"})
        assert cr.events == {"E1", "E2"}
        cr.reset_events()
        assert cr.events == set()

    def test_unknown_event_rejected(self):
        _, cr = self.make_cr()
        with pytest.raises(KeyError):
            cr.sample_events({"GHOST"}, set())

    def test_condition_vector_and_write(self):
        _, cr = self.make_cr()
        assert cr.condition_vector() == {"C1": True, "C2": False}
        cr.write_conditions({"C1": False, "C2": True})
        assert cr.conditions == {"C2"}

    def test_unknown_condition_rejected(self):
        _, cr = self.make_cr()
        with pytest.raises(KeyError):
            cr.write_conditions({"GHOST": True})

    def test_bits_roundtrip_through_layout(self):
        chart, cr = self.make_cr()
        cr.sample_events({"E1"}, set())
        events, conditions, states = cr.layout.unpack(cr.bits)
        assert events == {"E1"}
        assert conditions == {"C1"}
        assert states == cr.configuration


class TestConditionCacheBridge:
    """Copy-in walks the chart's declaration order, copy-back the compiled
    map's; both orders are fixed when the bridge is built."""

    def test_copies_move_each_condition_once(self):
        chart = small_chart()
        cr = ConfigurationRegister(cr_layout(chart))
        bridge = ConditionCacheBridge(chart.conditions, {"C2": 5, "C1": 9})
        cache = [False] * 64
        assert bridge.copy_in(cr, cache) == 2
        assert (cache[9], cache[5]) == (True, False)
        cache[5], cache[9] = True, False
        assert bridge.copy_back(cr, cache) == 2
        assert cr.conditions == {"C2"}
        assert (bridge.words_copied_in, bridge.words_copied_back,
                bridge.transfers) == (2, 2, 1)

    def test_an_undeclared_compiled_condition_fails_the_copy_back(self):
        chart = small_chart()
        cr = ConfigurationRegister(cr_layout(chart))
        bridge = ConditionCacheBridge(chart.conditions,
                                      {"C2": 0, "GHOST": 1, "C1": 2})
        cache = [False] * 64
        assert bridge.copy_in(cr, cache) == 2
        cache[0] = True
        with pytest.raises(KeyError, match="unknown condition 'GHOST'"):
            bridge.copy_back(cr, cache)
        # the compiled map's conditions before the undeclared one landed
        assert cr.conditions == {"C1", "C2"}
        assert bridge.words_copied_back == 0


def nested_chart():
    """A 3-child OR (so one selector code is unused) whose third child is
    itself an OR: forcing its inner transition from A is illegal."""
    b = ChartBuilder("nested")
    b.event("GO").event("HOP")
    b.condition("C1", initial=True).condition("C2")
    with b.or_state("Top", default="A"):
        b.basic("A").transition("M", label="GO")
        b.basic("B")
        with b.or_state("M", default="R1"):
            b.basic("R1").transition("R2", label="HOP")
            b.basic("R2")
    return b.build()


def assert_coherent(cr):
    assert cr.bits == cr.layout.pack(cr.events, cr.conditions,
                                     cr.configuration)


class TestPackedWordCoherence:
    """The packed CR word is a cache of the symbolic contents; after every
    way the CR changes it must equal the reference :meth:`CrLayout.pack`.
    Each test reads :attr:`bits` first so the state field is cached."""

    def make_cr(self):
        cr = ConfigurationRegister(cr_layout(nested_chart()))
        assert_coherent(cr)
        return cr

    def test_event_sampling_and_reset(self):
        cr = self.make_cr()
        cr.sample_events({"GO"}, {"HOP"})
        assert_coherent(cr)
        cr.reset_events()
        assert_coherent(cr)

    def test_condition_write(self):
        cr = self.make_cr()
        cr.write_conditions({"C1": False, "C2": True})
        assert_coherent(cr)

    def test_bit_flips(self):
        cr = self.make_cr()
        for _ in range(2):  # set, then clear again
            cr.flip_event("HOP")
            assert_coherent(cr)
            cr.flip_condition("C1")
            assert_coherent(cr)

    def test_state_bit_corruption(self):
        cr = self.make_cr()
        for bit in range(cr.layout.encoding.width):
            cr.corrupt_state_bit(bit)
            assert_coherent(cr)

    def test_state_update(self):
        cr = self.make_cr()
        cr.configuration = (cr.configuration - {"A"}) | {"M", "R1"}
        assert_coherent(cr)

    def test_guard_recovery_assignment(self):
        """A stuck-on t1 (R1->R2) from A enters R2 without M; the guard's
        end-of-cycle recovery assigns the safe state (B, not the cached
        A) directly."""
        system = build_system(nested_chart(), "", MD16_TEP)
        machine = system.make_machine()
        machine.attach_injector(FaultInjector(FaultPlan(
            (Fault("sla-stuck-on", 0, 1),))))
        guard = MachineGuard(safe_state={"Root", "Top", "B"})
        machine.attach_guard(guard)
        step = machine.step(set())
        assert [d.kind for d in step.recoveries] == [ILLEGAL_CONFIGURATION]
        assert machine.cr.configuration == guard.safe_state
        assert_coherent(machine.cr)

    def test_restore(self):
        system = build_system(nested_chart(), "", MD16_TEP)
        moved = system.make_machine()
        moved.step({"GO"})
        fresh = system.make_machine()
        assert_coherent(fresh.cr)
        restore_machine(fresh, snapshot_machine(moved))
        assert "R1" in fresh.cr.configuration
        assert_coherent(fresh.cr)


class TestDispatchPlan:
    def test_empty_dispatch(self):
        plan = round_robin_dispatch([], lambda i: None, ArchConfig())
        assert plan.queues == [[]]
        assert plan.makespan(lambda i: 0) == 0

    def test_tep_of_lookup(self):
        arch = ArchConfig(n_teps=2)
        plan = round_robin_dispatch([3, 5, 7], lambda i: f"r{i}", arch)
        assert plan.tep_of(3) == 0
        assert plan.tep_of(5) == 1
        assert plan.tep_of(7) == 0
        with pytest.raises(KeyError):
            plan.tep_of(99)

    def test_makespan_includes_dispatch_overhead_per_transition(self):
        plan = round_robin_dispatch([0, 1], lambda i: None, ArchConfig())
        costs = {0: 10, 1: 20}
        assert plan.makespan(lambda i: costs[i]) == \
            30 + 2 * DISPATCH_OVERHEAD_CYCLES

    def test_order_is_index_sorted(self):
        arch = ArchConfig(n_teps=3)
        plan = round_robin_dispatch([9, 1, 5], lambda i: None, arch)
        assert plan.order == [1, 5, 9]

    def test_actionless_transitions_never_excluded(self):
        arch = ArchConfig(n_teps=2, mutual_exclusions=frozenset(
            {frozenset({"X", "Y"})}))
        plan = round_robin_dispatch([0, 1], lambda i: None, arch)
        assert plan.queues == [[0], [1]]
