"""Tests for transition-label parsing (every label style of Figs. 5/6)."""

import pytest

from repro.analysis.effects import transition_effects
from repro.analysis.races import and_region_races
from repro.flow import Frontend
from repro.isa import MD16_TEP, Imm
from repro.statechart import parse_chart
from repro.statechart.expr import Name, Not, Or
from repro.statechart.labels import (
    LabelError,
    action_arguments,
    action_routine_name,
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
    def test_routine_name(self):
        assert action_routine_name("DeltaT(MX)") == "DeltaT"
        assert action_routine_name("Stop()") == "Stop"
        assert action_routine_name("Bare") == "Bare"

    def test_arguments(self):
        assert action_arguments("StartMotor(MX, XParams)") == ("MX", "XParams")
        assert action_arguments("Stop()") == ()
        assert action_arguments("Bare") == ()

    def test_nested_call_arguments(self):
        assert action_arguments("F(g(a, b), c)") == ("g(a, b)", "c")

    def test_bad_call_rejected(self):
        with pytest.raises(LabelError):
            action_arguments("F(a")


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
