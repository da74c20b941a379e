"""Tests for the reference interpreter (configuration-cycle semantics)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.fault import configuration_problems
from repro.statechart import ChartBuilder, Interpreter


def blinker():
    b = ChartBuilder("blinker")
    b.event("TICK")
    with b.or_state("Top", default="Off"):
        b.basic("Off").transition("On", label="TICK/LightOn()")
        b.basic("On").transition("Off", label="TICK/LightOff()")
    return b.build()


def parallel_chart():
    """AND composition with independent regions plus an escape transition."""
    b = ChartBuilder("par")
    b.event("GO").event("E1").event("E2").event("ABORT")
    b.condition("OK", initial=True)
    with b.or_state("Main", default="Idle"):
        b.basic("Idle").transition("Work", label="GO")
        with b.and_state("Work") as work:
            with b.or_state("RegA", default="A1"):
                b.basic("A1").transition("A2", label="E1")
                b.basic("A2")
            with b.or_state("RegB", default="B1"):
                b.basic("B1").transition("B2", label="E2")
                b.basic("B2")
        work.transition("Idle", label="ABORT")
        b.basic("Dead")
    return b.build()


class TestBasicStepping:
    def test_initial_configuration(self):
        interp = Interpreter(blinker())
        assert "Off" in interp.configuration

    def test_event_fires_transition(self):
        interp = Interpreter(blinker())
        result = interp.step({"TICK"})
        assert len(result.fired) == 1
        assert "On" in interp.configuration and "Off" not in interp.configuration

    def test_no_event_is_quiescent(self):
        interp = Interpreter(blinker())
        result = interp.step()
        assert result.quiescent
        assert "Off" in interp.configuration

    def test_events_last_one_cycle(self):
        interp = Interpreter(blinker())
        interp.step({"TICK"})    # Off -> On
        result = interp.step()   # TICK is gone; nothing fires
        assert result.quiescent

    def test_toggles_repeatedly(self):
        interp = Interpreter(blinker())
        for i in range(6):
            interp.step({"TICK"})
            expected = "On" if i % 2 == 0 else "Off"
            assert expected in interp.configuration

    def test_unknown_event_rejected(self):
        interp = Interpreter(blinker())
        with pytest.raises(KeyError):
            interp.step({"NOPE"})

    def test_action_log_records_routines(self):
        interp = Interpreter(blinker())
        interp.step({"TICK"})
        interp.step({"TICK"})
        assert interp.action_log == ["LightOn()", "LightOff()"]

    def test_reset(self):
        interp = Interpreter(blinker())
        interp.step({"TICK"})
        interp.reset()
        assert "Off" in interp.configuration
        assert interp.cycle == 0


class TestParallelism:
    def test_entering_and_state_enters_all_regions(self):
        interp = Interpreter(parallel_chart())
        interp.step({"GO"})
        assert {"Work", "RegA", "A1", "RegB", "B1"} <= set(interp.configuration)

    def test_parallel_regions_fire_same_cycle(self):
        interp = Interpreter(parallel_chart())
        interp.step({"GO"})
        result = interp.step({"E1", "E2"})
        assert len(result.fired) == 2
        assert {"A2", "B2"} <= set(interp.configuration)

    def test_regions_are_independent(self):
        interp = Interpreter(parallel_chart())
        interp.step({"GO"})
        interp.step({"E1"})
        assert "A2" in interp.configuration and "B1" in interp.configuration

    def test_outer_transition_wins_conflict(self):
        """ABORT (scope at Main) beats the inner E1 transition."""
        interp = Interpreter(parallel_chart())
        interp.step({"GO"})
        result = interp.step({"E1", "ABORT"})
        assert len(result.fired) == 1
        assert result.fired[0].target == "Idle"
        assert "Idle" in interp.configuration
        assert "A2" not in interp.configuration

    def test_exit_of_and_state_clears_all_regions(self):
        interp = Interpreter(parallel_chart())
        interp.step({"GO"})
        interp.step({"ABORT"})
        for gone in ["Work", "RegA", "A1", "RegB", "B1"]:
            assert gone not in interp.configuration


class TestInternalEventsAndConditions:
    def test_raised_event_visible_next_cycle(self):
        b = ChartBuilder("chain")
        b.event("START").event("INTERNAL")
        with b.or_state("Top", default="S0"):
            b.basic("S0").transition("S1", label="START/Fire()")
            b.basic("S1").transition("S2", label="INTERNAL")
            b.basic("S2")
        chart = b.build()

        def fire(interp, transition):
            interp.raise_event("INTERNAL")

        interp = Interpreter(chart, actions={"Fire": fire})
        interp.step({"START"})
        assert "S1" in interp.configuration
        result = interp.step()  # INTERNAL becomes visible now
        assert not result.quiescent
        assert "S2" in interp.configuration

    def test_condition_gates_transition(self):
        b = ChartBuilder("gate")
        b.event("E").condition("OPEN")
        with b.or_state("Top", default="A"):
            b.basic("A").transition("B", label="E [OPEN]")
            b.basic("B")
        interp = Interpreter(b.build())
        interp.step({"E"})
        assert "A" in interp.configuration  # OPEN false: no firing
        interp.set_condition("OPEN", True)
        interp.step({"E"})
        assert "B" in interp.configuration

    def test_condition_persists_across_cycles(self):
        interp = Interpreter(parallel_chart())
        assert interp.condition("OK") is True
        interp.step()
        interp.step()
        assert interp.condition("OK") is True

    def test_set_unknown_condition_rejected(self):
        interp = Interpreter(blinker())
        with pytest.raises(KeyError):
            interp.set_condition("NOPE", True)

    def test_raise_unknown_event_rejected(self):
        interp = Interpreter(blinker())
        with pytest.raises(KeyError):
            interp.raise_event("NOPE")


class TestConfigurationConsistency:
    """Property: every reachable configuration is structurally consistent."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sets(st.sampled_from(["GO", "E1", "E2", "ABORT"])),
                    max_size=12))
    def test_random_traces_keep_consistency(self, trace):
        chart = parallel_chart()
        interp = Interpreter(chart)
        for events in trace:
            interp.step(events)
            problems = configuration_problems(chart, interp.configuration)
            assert problems == [], problems

    def test_check_flags_missing_root(self):
        chart = blinker()
        problems = configuration_problems(chart, frozenset({"Top", "Off"}))
        assert any("root" in p for p in problems)

    def test_check_flags_two_or_children(self):
        chart = blinker()
        bad = frozenset({"Root", "Top", "Off", "On"})
        problems = configuration_problems(chart, bad)
        assert any("active children" in p for p in problems)

    def test_check_flags_orphan(self):
        chart = blinker()
        bad = frozenset({"Root", "Off"})
        problems = configuration_problems(chart, bad)
        assert any("parent" in p for p in problems)


class TestStepResult:
    def test_events_consumed_reported(self):
        interp = Interpreter(blinker())
        result = interp.step({"TICK"})
        assert result.events_consumed == frozenset({"TICK"})

    def test_entered_and_exited_sets(self):
        interp = Interpreter(parallel_chart())
        result = interp.step({"GO"})
        assert "Idle" in result.exited
        assert {"Work", "RegA", "A1"} <= set(result.entered)

    def test_run_over_trace(self):
        interp = Interpreter(blinker())
        results = interp.run([{"TICK"}, set(), {"TICK"}])
        assert [r.quiescent for r in results] == [False, True, False]
