"""Tests for SLA synthesis: encoding, PLA, BLIF, and — crucially — the
functional equivalence of the synthesized logic with the reference
statechart interpreter."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.fault import configuration_problems
from repro.sla import (
    TransitionAddressTable,
    TatError,
    binary_encoding,
    cr_layout,
    emit_blif,
    evaluate_pla_via_blif,
    onehot_encoding,
    parse_blif,
    synthesize,
)
from repro.statechart import ChartBuilder, Interpreter, StateKind
from repro.workloads import smd_chart
from repro.workloads.elevator import elevator_chart


def blinker():
    b = ChartBuilder("blinker")
    b.event("TICK")
    with b.or_state("Top", default="Off"):
        b.basic("Off").transition("On", label="TICK")
        b.basic("On").transition("Off", label="TICK")
    return b.build()


def rich_chart():
    """An AND composition with guards, triggers and an escape transition."""
    b = ChartBuilder("rich")
    b.event("GO").event("E1").event("E2").event("ABORT")
    b.condition("OK").condition("ARMED")
    with b.or_state("Main", default="Idle"):
        b.basic("Idle").transition("Work", label="GO [OK]")
        with b.and_state("Work") as work:
            with b.or_state("RegA", default="A1"):
                b.basic("A1").transition("A2", label="E1")
                b.basic("A2").transition("A1", label="E2 [ARMED]")
            with b.or_state("RegB", default="B1"):
                b.basic("B1").transition("B2", label="not (E1 or E2)")
                b.basic("B2")
        work.transition("Idle", label="ABORT")
    return b.build()


class TestBinaryEncoding:
    def test_blinker_needs_one_state_bit(self):
        enc = binary_encoding(blinker())
        assert enc.width == 1

    def test_and_regions_sum_bits(self):
        enc = binary_encoding(rich_chart())
        # Main selector (2 children -> 1 bit) + max(Idle=0, Work=RegA(1)+RegB(1))
        assert enc.width == 3

    def test_encode_decode_roundtrip_initial(self):
        chart = rich_chart()
        enc = binary_encoding(chart)
        config = chart.initial_configuration()
        assert enc.active_states(enc.encode(config)) == config

    def test_encode_decode_roundtrip_deep(self):
        chart = rich_chart()
        enc = binary_encoding(chart)
        config = frozenset({"Root", "Main", "Work", "RegA", "A2",
                            "RegB", "B1"})
        assert enc.active_states(enc.encode(config)) == config

    def test_exclusive_states_share_bits(self):
        """The OR children overlay: encoding width << one-hot width."""
        chart = rich_chart()
        assert binary_encoding(chart).width < onehot_encoding(chart).width

    def test_onehot_roundtrip(self):
        chart = rich_chart()
        enc = onehot_encoding(chart)
        config = chart.initial_configuration()
        assert enc.active_states(enc.encode(config)) == config

    def test_term_literals_assert_activity(self):
        chart = rich_chart()
        enc = binary_encoding(chart)
        bits = enc.encode(frozenset({"Root", "Main", "Idle"}))
        for bit, value in enc.term_literals("Idle"):
            assert bool((bits >> bit) & 1) == value


class TestCrLayout:
    def test_layout_order_events_conditions_states(self):
        layout = cr_layout(rich_chart())
        assert layout.event_bits["GO"] == 0
        assert layout.condition_bits["OK"] == 4
        assert layout.state_offset == 6
        assert layout.width == 6 + layout.encoding.width

    def test_pack_unpack_roundtrip(self):
        chart = rich_chart()
        layout = cr_layout(chart)
        config = chart.initial_configuration()
        bits = layout.pack({"GO"}, {"OK"}, config)
        events, conditions, states = layout.unpack(bits)
        assert events == {"GO"}
        assert conditions == {"OK"}
        assert states == config

    def test_input_names_cover_every_bit(self):
        layout = cr_layout(rich_chart())
        names = layout.input_names()
        assert len(names) == layout.width
        assert all(names)
        assert names[0] == "ev_GO"


class TestSynthesis:
    def test_product_term_count_positive(self):
        pla = synthesize(rich_chart())
        assert pla.product_terms >= len(rich_chart().transitions)

    def test_disjunctive_trigger_multiplies_terms(self):
        b = ChartBuilder("disj")
        b.event("A").event("B")
        with b.or_state("Top", default="S"):
            b.basic("S").transition("T", label="A or B")
            b.basic("T")
        pla = synthesize(b.build())
        assert len(pla.transition_terms[0]) == 2

    def test_contradictory_guard_yields_no_terms(self):
        b = ChartBuilder("contra")
        b.event("E").condition("C")
        with b.or_state("Top", default="S"):
            b.basic("S").transition("T", label="E [C and not C]")
            b.basic("T")
        pla = synthesize(b.build())
        assert pla.transition_terms[0] == []

    def test_unresolved_ref_rejected(self):
        from repro.sla import SynthesisError
        b = ChartBuilder("withref")
        with b.or_state("Top", default="R"):
            b.ref("R", "Other")
        chart = b.build(validate=False)
        with pytest.raises(SynthesisError, match="unresolved"):
            synthesize(chart)

    def test_enabled_matches_interpreter_simple(self):
        chart = blinker()
        pla = synthesize(chart)
        interp = Interpreter(chart)
        bits = pla.layout.pack({"TICK"}, set(), interp.configuration)
        assert pla.enabled(bits) == [0]

    def test_guard_network_suppresses_inner_transition(self):
        chart = rich_chart()
        pla = synthesize(chart)
        config = frozenset({"Root", "Main", "Work", "RegA", "A1",
                            "RegB", "B2"})
        bits = pla.layout.pack({"E1", "ABORT"}, set(), config)
        enabled = pla.enabled(bits)
        fired = [chart.transitions[i] for i in enabled]
        assert [t.label for t in fired] == ["ABORT"]


class TestEquivalenceWithInterpreter:
    """Property: PLA-enabled transitions == interpreter-selected transitions
    for every reachable configuration and random event/condition input."""

    EVENTS = ["GO", "E1", "E2", "ABORT"]
    CONDITIONS = ["OK", "ARMED"]

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(
        st.sets(st.sampled_from(EVENTS)),
        st.sets(st.sampled_from(CONDITIONS))), max_size=8))
    def test_pla_equals_interpreter(self, trace):
        chart = rich_chart()
        pla = synthesize(chart)
        interp = Interpreter(chart)
        for events, true_conditions in trace:
            for name in self.CONDITIONS:
                interp.set_condition(name, name in true_conditions)
            bits = pla.layout.pack(events, true_conditions,
                                   interp.configuration)
            expected = interp.select(interp.enabled(events))
            assert pla.enabled(bits) == [t.index for t in expected]
            interp.step(events)

    @settings(max_examples=40, deadline=None)
    @given(st.sets(st.sampled_from(EVENTS)),
           st.sets(st.sampled_from(CONDITIONS)))
    def test_onehot_and_binary_encodings_agree(self, events, conditions):
        chart = rich_chart()
        binary_pla = synthesize(chart, onehot=False)
        onehot_pla = synthesize(chart, onehot=True)
        interp = Interpreter(chart)
        interp.step({"GO"})  # move somewhere interesting if OK held... may not fire
        config = interp.configuration
        b_bits = binary_pla.layout.pack(events, conditions, config)
        o_bits = onehot_pla.layout.pack(events, conditions, config)
        assert binary_pla.enabled(b_bits) == onehot_pla.enabled(o_bits)


def reached_configurations(chart, steps=500, seed=1):
    """Every configuration the reference interpreter reaches under a seeded
    random event/condition trace, plus every configuration reached from
    those by forcing one transition on (an SLA output stuck at 1)."""
    rng = random.Random(seed)
    interp = Interpreter(chart)
    events = sorted(chart.events)
    conditions = sorted(chart.conditions)
    reached = {interp.configuration}
    for _ in range(steps):
        for name in conditions:
            interp.set_condition(name, rng.random() < 0.5)
        interp.step({name for name in events if rng.random() < 0.3})
        reached.add(interp.configuration)
    forced = {(c - chart.exit_set(t, c)) | chart.entry_set(t)
              for c in reached for t in chart.transitions}
    return reached | forced


class TestNextStatePlane:
    """The next-state plane against the interpreter's set-level update, on
    reachable configurations and on the illegal ones a stuck-on fault
    produces."""

    @pytest.mark.parametrize("make_chart", [smd_chart, elevator_chart,
                                            rich_chart])
    def test_plane_equals_exit_entry_update(self, make_chart):
        chart = make_chart()
        pla = synthesize(chart)
        configurations = reached_configurations(chart)
        # the stuck-on case is covered: some configurations are illegal
        assert any(configuration_problems(chart, c) for c in configurations)
        for configuration in configurations:
            for transition in chart.transitions:
                expected = ((configuration
                             - chart.exit_set(transition, configuration))
                            | chart.entry_set(transition))
                assert pla.next_configuration(
                    configuration, [transition.index]) == expected

    def test_forced_transition_yields_unencodable_configuration(self):
        """Why the plane updates the symbolic configuration: forcing the
        inner RegA transition from Idle enters A2 without its parents, a
        configuration no state code represents."""
        chart = rich_chart()
        pla = synthesize(chart)
        encoding = pla.layout.encoding
        inner = next(t for t in chart.transitions
                     if (t.source, t.target) == ("A1", "A2"))
        forced = pla.next_configuration(chart.initial_configuration(),
                                        [inner.index])
        assert "A2" in forced and "Work" not in forced
        assert encoding.active_states(encoding.encode(forced)) != forced


class TestOpenEvents:
    """``Pla.open_events`` is the model checker's input alphabet: an event
    it leaves out must not change any output, whatever else is asserted."""

    def test_live_rows_at_idle(self):
        chart = rich_chart()
        pla = synthesize(chart)
        layout = pla.layout
        idle = chart.initial_configuration()
        names = {bit: name for name, bit in layout.event_bits.items()}

        def open_names(conditions, pending=()):
            word = layout.pack(pending, conditions, idle)
            return {names[bit] for bit in pla.open_events(word)}

        assert open_names({"OK"}) == {"GO"}
        assert open_names(set()) == set()  # GO [OK]: the row is dead
        assert open_names({"OK"}, pending={"GO"}) == set()  # asserted

    @pytest.mark.parametrize("make_chart", [smd_chart, elevator_chart,
                                            rich_chart])
    def test_other_events_never_change_the_outputs(self, make_chart):
        chart = make_chart()
        pla = synthesize(chart)
        layout = pla.layout
        rng = random.Random(3)
        events = sorted(chart.events)
        for configuration in reached_configurations(chart, steps=100):
            pending = {e for e in events if rng.random() < 0.2}
            conditions = {c for c in chart.conditions if rng.random() < 0.5}
            word = layout.pack(pending, conditions, configuration)
            open_bits = pla.open_events(word)
            assert not any(word >> bit & 1 for bit in open_bits)
            word |= sum(1 << bit for bit in open_bits if rng.random() < 0.5)
            outputs = pla.raw_enabled(word)
            for event in events:
                bit = layout.event_bits[event]
                if bit not in open_bits:
                    assert pla.raw_enabled(word | 1 << bit) == outputs


class TestBlif:
    def test_emit_contains_model_sections(self):
        text = emit_blif(synthesize(rich_chart()))
        assert ".model sla" in text
        assert ".inputs" in text and ".outputs" in text and ".end" in text

    def test_parse_roundtrip_evaluates_identically(self):
        chart = rich_chart()
        pla = synthesize(chart)
        interp = Interpreter(chart)
        bits = pla.layout.pack({"GO"}, {"OK"}, interp.configuration)
        assert evaluate_pla_via_blif(pla, bits) == pla.raw_enabled(bits)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0,
                       max_value=(1 << cr_layout(rich_chart()).width) - 1))
    def test_blif_equivalence_random_inputs(self, bits):
        """Random full-width CR words: any state code, including the
        unused OR-selector codes no legal configuration encodes to."""
        pla = synthesize(rich_chart())
        assert evaluate_pla_via_blif(pla, bits) == pla.raw_enabled(bits)

    def test_compiled_planes_match_blif_on_every_cr_word(self):
        """Exhaustive: the AND/OR planes against the BLIF evaluator, and the
        guard suppress masks against the symbolic guard network."""
        pla = synthesize(rich_chart())
        model = parse_blif(emit_blif(pla))
        names = pla.layout.input_names()
        for bits in range(1 << pla.layout.width):
            outputs = model.evaluate({name: bool((bits >> bit) & 1)
                                      for bit, name in enumerate(names)})
            raw = sorted(int(name[1:]) for name, value in outputs.items()
                         if value)
            assert pla.raw_enabled(bits) == raw
            assert pla.enabled(bits) == [
                index for index in raw if not pla.guards[index] & set(raw)]

    def test_parse_rejects_garbage(self):
        from repro.sla import BlifError
        with pytest.raises(BlifError):
            parse_blif(".model x\n.latch a b\n.end")

    def test_missing_input_rejected_at_eval(self):
        from repro.sla import BlifError
        model = parse_blif(".model m\n.inputs a b\n.outputs o\n"
                           ".names a b o\n11 1\n.end")
        with pytest.raises(BlifError, match="unassigned"):
            model.evaluate({"a": True})

    def test_vhdl_emission_from_pla(self):
        from repro.hw import emit_sla_vhdl
        pla = synthesize(rich_chart())
        text = emit_sla_vhdl("sla", pla.layout.input_names(),
                             pla.output_names(),
                             pla.as_products_by_output())
        assert "entity sla" in text
        assert "ev_GO" in text


class TestTransitionAddressTable:
    def test_entry_lookup(self):
        tat = TransitionAddressTable({0: "stub0"})
        assert tat.entry(0) == "stub0"

    def test_unbound_lookup_rejected(self):
        with pytest.raises(TatError):
            TransitionAddressTable({}).entry(3)

    def test_fifo_order(self):
        tat = TransitionAddressTable({index: f"s{index}" for index in range(3)})
        tat.post([2, 0, 1])
        assert [tat.pop(), tat.pop(), tat.pop()] == [2, 0, 1]
        assert tat.pop() is None
        assert tat.empty

    def test_post_unbound_rejected(self):
        tat = TransitionAddressTable({})
        with pytest.raises(TatError, match="unbound"):
            tat.post([7])
