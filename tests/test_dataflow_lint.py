"""Tests for the action-language dataflow pass (PSC310-313)."""

from repro.action.check import check_program
from repro.action.parser import parse_program
from repro.analysis.dataflow import action_dataflow


def lint(source):
    return action_dataflow(check_program(parse_program(source)))


def codes(source):
    return [d.code for d in lint(source)]


class TestUseBeforeInit:
    def test_plain_read_of_uninitialized_local(self):
        assert codes("""
int:16 g;
void F() { int:16 x; g = x; }
""") == ["PSC310"]

    def test_initialized_local_is_clean(self):
        assert codes("""
int:16 g;
void F() { int:16 x; x = 1; g = x; }
""") == []

    def test_decl_initializer_counts(self):
        assert codes("""
int:16 g;
void F() { int:16 x = 2; g = x; }
""") == []

    def test_then_only_assignment_flags(self):
        assert "PSC310" in codes("""
int:16 g;
void F(int:1 c) {
  int:16 x;
  if (c) { x = 1; }
  g = x;
}
""")

    def test_both_branches_assign_is_clean(self):
        assert codes("""
int:16 g;
void F(int:1 c) {
  int:16 x;
  if (c) { x = 1; } else { x = 2; }
  g = x;
}
""") == []

    def test_while_body_assignment_does_not_count(self):
        assert "PSC310" in codes("""
int:16 g;
void F(int:1 c) {
  int:16 x;
  @bound(4) while (c) { x = 1; }
  g = x;
}
""")

    def test_compound_assign_reads_target(self):
        assert "PSC310" in codes("""
int:16 g;
void F() { int:16 x; x += 1; g = x; }
""")

    def test_globals_are_assumed_initialized(self):
        assert codes("""
int:16 g;
int:16 h;
void F() { h = g; }
""") == []

    def test_parameters_are_initialized(self):
        assert codes("""
int:16 g;
void F(int:16 p) { g = p; }
""") == []

    def test_reported_once_per_name(self):
        assert codes("""
int:16 g;
void F() { int:16 x; g = x + x; g = x; }
""") == ["PSC310"]


class TestDeadStores:
    def test_store_overwritten_before_read(self):
        diagnostics = lint("""
int:16 g;
void F() { int:16 x; x = 1; x = 2; g = x; }
""")
        assert [d.code for d in diagnostics] == ["PSC311"]
        assert "overwritten" in diagnostics[0].message

    def test_store_never_read(self):
        diagnostics = lint("""
void F() { int:16 x; x = 1; }
""")
        assert [d.code for d in diagnostics] == ["PSC311"]
        assert "never read" in diagnostics[0].message

    def test_control_flow_clears_pending(self):
        assert codes("""
int:16 g;
void F(int:1 c) {
  int:16 x;
  x = 1;
  if (c) { g = x; }
  x = 2;
  g = x;
}
""") == []

    def test_global_stores_are_not_dead(self):
        # Globals outlive the routine, so back-to-back global writes
        # are not flagged.
        assert codes("""
int:16 g;
void F() { g = 1; g = 2; }
""") == []


class TestDeadBranches:
    def test_constant_false_if(self):
        diagnostics = lint("""
int:16 g;
void F() { if (1 > 2) { g = 1; } }
""")
        assert [d.code for d in diagnostics] == ["PSC312"]

    def test_constant_true_if_flags_else(self):
        assert codes("""
int:16 g;
void F() { if (2 > 1) { g = 1; } else { g = 2; } }
""") == ["PSC312"]

    def test_constant_false_while(self):
        assert codes("""
int:16 g;
void F() { @bound(4) while (0) { g = 1; } }
""") == ["PSC312"]

    def test_short_circuit_folding(self):
        assert codes("""
int:16 g;
void F(int:1 c) { if (0 && c) { g = 1; } }
""") == ["PSC312"]

    def test_non_constant_condition_is_clean(self):
        assert codes("""
int:16 g;
void F(int:1 c) { if (c) { g = 1; } }
""") == []

    def test_undefined_constants_do_not_fold(self):
        # a negative shift count or a division by zero has no C value:
        # the condition is not constant (and the lint does not raise)
        for cond in ("1 << (0 - 1)", "1 >> (0 - 1)", "4 / (1 - 1)",
                     "4 % 0"):
            assert codes(f"""
int:16 g;
void F() {{ if ({cond}) {{ g = 1; }} }}
""") == [], cond

    def test_every_operator_folds_with_c_semantics(self):
        # truncating division: -7 / 2 is -3 and -7 % 2 is -1 in C
        for cond, value in (("(0 - 7) / 2 == (0 - 3)", "true"),
                            ("(0 - 7) % 2 == (0 - 1)", "true"),
                            ("~0 == (0 - 1)", "true"),
                            ("!3", "false"), ("1 || g", "true")):
            diagnostics = lint(f"""
int:16 g;
void F() {{ if ({cond}) {{ g = 1; }} }}
""")
            assert [d.code for d in diagnostics] == ["PSC312"], cond
            assert f"is always {value}" in diagnostics[0].message


class TestTruncation:
    def test_narrowing_assignment_flags(self):
        diagnostics = lint("""
int:16 wide;
int:8 narrow;
void F() { narrow = wide; }
""")
        assert [d.code for d in diagnostics] == ["PSC313"]
        assert diagnostics[0].severity.value == "warning"

    def test_widening_is_clean(self):
        assert codes("""
int:16 wide;
int:8 narrow;
void F() { wide = narrow; }
""") == []

    def test_literals_do_not_flag(self):
        assert codes("""
int:8 narrow;
void F() { narrow = 3; }
""") == []

    def test_narrowing_expression_flags(self):
        assert codes("""
int:16 wide;
int:8 narrow;
void F() { narrow = wide + 1; }
""") == ["PSC313"]


class TestLocations:
    def test_line_offset_is_applied(self):
        checked = check_program(parse_program(
            "int:16 g;\nvoid F() { int:16 x; g = x; }\n"))
        shifted = action_dataflow(checked, path="r.c", line_offset=0)
        assert shifted[0].location.file == "r.c"
        assert shifted[0].location.line is not None
