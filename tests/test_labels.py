"""Tests for transition-label parsing (every label style of Figs. 5/6)."""

import pytest

from repro.analysis.effects import transition_effects
from repro.analysis.races import and_region_races
from repro.flow import Frontend
from repro.isa import MD16_TEP, Imm
from repro.statechart import parse_chart
from repro.statechart.expr import Name, Not, Or
from repro.statechart.labels import (
    ActionCall,
    LabelError,
    constant_argument,
    parse_label,
)


class TestPaperLabels:
    """Each label form that actually appears in the paper's figures."""

    def test_trigger_and_action(self):
        label = parse_label("INIT or ALLRESET/InitializeAll()")
        assert label.trigger == Or(Name("INIT"), Name("ALLRESET"))
        assert label.guard is None
        assert label.action == "InitializeAll()"

    def test_guard_and_action(self):
        label = parse_label("[DATA_VALID]/GetByte()")
        assert label.trigger is None
        assert label.guard == Name("DATA_VALID")
        assert label.action == "GetByte()"

    def test_event_with_argument_action(self):
        label = parse_label("X_PULSE/DeltaT(MX)")
        assert label.trigger == Name("X_PULSE")
        assert label.action == "DeltaT(MX)"

    def test_guard_only(self):
        label = parse_label("[MOVEMENT]")
        assert label.trigger is None
        assert label.guard == Name("MOVEMENT")
        assert label.action is None

    def test_trigger_only(self):
        label = parse_label("END_MOVE")
        assert label.trigger == Name("END_MOVE")
        assert label.guard is None and label.action is None

    def test_action_only_completion(self):
        label = parse_label("/StartMotor(MX, XParams)")
        assert label.trigger is None and label.guard is None
        assert label.action == "StartMotor(MX, XParams)"

    def test_negated_trigger_with_action(self):
        label = parse_label(
            "not (X_PULSE or Y_PULSE)/PhiParameters(PhiParams, NewPhi, OldPhi)")
        assert label.trigger == Not(Or(Name("X_PULSE"), Name("Y_PULSE")))
        assert label.action == "PhiParameters(PhiParams, NewPhi, OldPhi)"

    def test_conjunction_guard(self):
        label = parse_label("[XFINISH and YFINISH and PHIFINISH]")
        assert label.guard is not None
        assert label.guard.names() == {"XFINISH", "YFINISH", "PHIFINISH"}

    def test_error_stop(self):
        label = parse_label("ERROR/Stop()")
        assert label.trigger == Name("ERROR")
        assert label.action == "Stop()"


class TestEdgeCases:
    def test_empty_label(self):
        label = parse_label("")
        assert label.trigger is None and label.guard is None and label.action is None

    def test_whitespace_only(self):
        label = parse_label("   ")
        assert label.trigger is None

    def test_trigger_and_guard_and_action(self):
        label = parse_label("E [C1 and C2] /Handle(x)")
        assert label.trigger == Name("E")
        assert label.guard is not None
        assert label.action == "Handle(x)"

    def test_str_roundtrip(self):
        for text in ["E [C]/F(a, b)", "[MOVEMENT]", "A or B/Go()", "/Done()"]:
            label = parse_label(text)
            again = parse_label(str(label))
            assert again == label

    def test_unbalanced_brackets_rejected(self):
        with pytest.raises(LabelError):
            parse_label("E [C/F()")  # '[' never closed before action split

    def test_slash_inside_parens_not_a_split(self):
        # A '/' inside parentheses must not be taken as the action separator.
        label = parse_label("/Scale(a/b)")
        assert label.action == "Scale(a/b)"


class TestActionHelpers:
    """The action is parsed with the label, once, into its call."""

    def test_routine_name(self):
        assert parse_label("X_PULSE/DeltaT(MX)").call.routine == "DeltaT"
        assert parse_label("/Stop()").call.routine == "Stop"
        assert parse_label("E/Bare").call == ActionCall("Bare", "Bare", ())

    def test_arguments(self):
        assert parse_label("/StartMotor(MX, XParams)").call.arguments == (
            "MX", "XParams")
        assert parse_label("/Stop()").call.arguments == ()
        assert parse_label("/Stop( )").call.arguments == ()
        assert parse_label("E/Bare").call.arguments == ()

    def test_nested_call_arguments(self):
        call = parse_label("/F(g(a, b), c)").call
        assert call.arguments == ("g(a, b)", "c")
        assert call.text == str(call) == "F(g(a, b), c)"
        scale = parse_label("/Scale(a/b)").call
        assert (scale.routine, scale.arguments) == ("Scale", ("a/b",))

    def test_bad_call_rejected(self):
        for text in ("E/F(a", "/Be gin(", "/Begin() x", "/(a)"):
            with pytest.raises(LabelError, match="bad action call"):
                parse_label(text)


FORMS_CHART = """
chart forms;
event GO;
andstate Par { contains Left, Right; }
orstate Left { contains L0; default L0; }
basicstate L0 { transition { target L0; label "GO/Work(1)"; } }
orstate Right { contains R0; default R0; }
basicstate R0 { transition { target R0; label "GO/Work(%s)"; } }
"""

FORMS_ROUTINES = """
enum Slot {S0, S1, S2, S3};
int:16 a[4];
void Work(int:16 i) { a[i] = 1; }
"""


class TestConstantArguments:
    """The machine's stub, the specializer and the effect analysis read a
    label's constant argument the same way, in each form."""

    @pytest.mark.parametrize("form", ["3", "0x3", "B:11", "S3"])
    def test_every_reader_takes_every_form(self, form):
        assert constant_argument(form, {"S3": 3}) == 3
        chart = parse_chart(FORMS_CHART % form)
        frontend = Frontend(chart, FORMS_ROUTINES)
        image = frontend.build(MD16_TEP).image
        stub = image.program.labels[image.entries[1]]
        assert image.program.instructions[stub].operand == Imm(3)
        specialized = frontend.build(MD16_TEP, specialize=True).chart
        assert specialized.transitions[1].action == "Work_3()"
        effects = transition_effects(chart, frontend.typed)
        assert effects[1].writes == frozenset({"a[3]"})
        assert and_region_races(chart, effects) == []

    def test_non_constant_is_none(self):
        assert constant_argument("someVariable", {"S3": 3}) is None
        assert constant_argument("B:12", {}) is None


class TestOneParse:
    """A label's action is parsed with the chart and never again: every
    later layer reads the parsed or the linked call."""

    @pytest.fixture
    def parses(self, monkeypatch):
        """Counts calls through every module binding of the parser."""
        import sys

        from repro.statechart import labels

        counted = {"calls": 0}
        raw = labels.parse_action

        def counting(text):
            counted["calls"] += 1
            return raw(text)

        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(
                    module, "parse_action", None) is raw:
                monkeypatch.setattr(module, "parse_action", counting)
        return counted

    def test_no_layer_parses_after_the_chart(self, parses):
        from repro.analysis import lint_system
        from repro.analysis.bmc import check_system
        from repro.flow import build_system
        from repro.obs import Tracer
        from repro.workloads import SMD_ROUTINES, smd_chart
        from repro.workloads.elevator import (ELEVATOR_PROPERTIES,
                                              ELEVATOR_ROUTINES,
                                              elevator_chart)

        smd, elevator = smd_chart(), elevator_chart()
        assert parses["calls"] == sum(
            t.call is not None
            for t in smd.transitions + elevator.transitions)
        parses["calls"] = 0

        build_system(smd, SMD_ROUTINES, MD16_TEP, specialize=True)
        frontend = Frontend(elevator, ELEVATOR_ROUTINES)
        codes = {d.code for d in lint_system(frontend, MD16_TEP).diagnostics}
        assert "PSC402" in codes  # the last pass ran; no call was unlinked
        system = frontend.build(MD16_TEP)
        check_system(elevator, ELEVATOR_ROUTINES, system,
                     properties_text=ELEVATOR_PROPERTIES)
        machine = system.make_machine()
        tracer = Tracer()
        machine.attach(tracer)
        events = sorted(elevator.events)
        machine.run([{events[cycle % len(events)]} for cycle in range(100)])
        assert tracer.events
        assert parses["calls"] == 0
