"""Assorted edge cases: one-hot machine, DFS depth guard, ports, encodings."""

import pytest

from repro.action.check import Externals
from repro.flow.timing import TimingValidator
from repro.isa import CodeGenerator, MD16_TEP, NameMaps, prepare_program
from repro.pscp import MachineImage, PscpMachine
from repro.sla import synthesize
from repro.statechart import ChartBuilder, Interpreter


class TestOneHotMachine:
    def test_machine_with_onehot_sla_behaves_identically(self):
        b = ChartBuilder("onehot")
        b.event("GO").event("BACK")
        with b.or_state("Top", default="A"):
            b.basic("A").transition("B", label="GO/Mark()")
            b.basic("B").transition("A", label="BACK/Mark()")
        chart = b.build()
        source = "int:16 marks; void Mark() { marks = marks + 1; }"
        externals = Externals.from_chart(chart)
        checked = prepare_program(source, MD16_TEP, externals)
        compiled = CodeGenerator(checked, MD16_TEP,
                                 maps=NameMaps.from_chart(chart)).compile()
        params = {f.name: [] for f in checked.program.functions}

        image = MachineImage.link(chart, compiled, params)
        binary = PscpMachine(image, pla=synthesize(chart, onehot=False))
        onehot = PscpMachine(image, pla=synthesize(chart, onehot=True))
        for events in [{"GO"}, set(), {"BACK"}, {"GO"}, {"GO", "BACK"}]:
            binary.step(events)
            onehot.step(events)
            assert binary.cr.configuration == onehot.cr.configuration

    def test_onehot_cr_wider_than_binary(self):
        b = ChartBuilder("width")
        b.event("E")
        with b.or_state("Top", default="S0"):
            for index in range(6):
                b.basic(f"S{index}")
        chart = b.build()
        assert synthesize(chart, onehot=True).layout.width > \
            synthesize(chart, onehot=False).layout.width


class TestDfsDepthGuard:
    def test_long_chain_respects_max_depth(self):
        """A consumer ring longer than max_depth is cut, not infinite."""
        b = ChartBuilder("longchain")
        b.event("T", period=10_000)
        n = 40
        with b.or_state("Top", default="S0"):
            for index in range(n):
                b.basic(f"S{index}")
        chart = b.build()
        from repro.statechart.expr import Name
        for index in range(n):
            chart.add_transition(f"S{index}", f"S{(index + 1) % n}",
                                 trigger=Name("T"))
        validator = TimingValidator(chart, lambda t: 1, max_depth=8)
        cycles = validator.event_cycles("T")
        assert cycles  # adjacent consumers found
        assert all(len(c.states) <= 9 for c in cycles)


class TestBuilderEdges:
    def test_duplicate_event_rejected(self):
        b = ChartBuilder("dup")
        b.event("E")
        with pytest.raises(Exception):
            b.event("E")

    def test_or_state_auto_default(self):
        b = ChartBuilder("auto")
        with b.or_state("Top"):
            b.basic("First")
            b.basic("Second")
        chart = b.build()
        assert chart.states["Top"].default == "First"

    def test_empty_or_state_allowed_as_leaf_composite(self):
        b = ChartBuilder("emptyor")
        with b.or_state("Top"):
            with b.or_state("Inner"):
                b.basic("Leaf")
        chart = b.build()
        assert chart.initial_configuration() == frozenset(
            {"Root", "Top", "Inner", "Leaf"})

    def test_interpreter_on_deeply_nested(self):
        b = ChartBuilder("deep")
        b.event("E")
        with b.or_state("L0"):
            with b.or_state("L1"):
                with b.or_state("L2"):
                    b.basic("Leaf").transition("Leaf", label="E")
        interp = Interpreter(b.build())
        result = interp.step({"E"})
        assert len(result.fired) == 1
