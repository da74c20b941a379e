"""Tests for the statechart analyses: determinism, races, quiescence, SLA."""

import pytest

from repro.action.check import Externals, check_program
from repro.action.parser import parse_program
from repro.analysis.chart_lint import (
    covers,
    determinism,
    enable_products,
    jointly_satisfiable,
    orthogonal,
    quiescence,
    union_covers,
    wellformedness,
)
from repro.analysis.effects import (
    EffectAnalyzer,
    transition_effects,
    write_conflicts,
)
from repro.analysis.races import and_region_races
from repro.analysis.sla_lint import sla_lint
from repro.sla.encode import StateEncoding
from repro.statechart import parse_chart
from repro.statechart.labels import parse_action
from repro.statechart.validate import chart_problems


def product(*positive, neg=()):
    return (frozenset(positive), frozenset(neg))


class TestEnableAlgebra:
    def test_identical_products_cover(self):
        a = [product("GO")]
        assert covers(a, a)
        assert jointly_satisfiable(a, a)

    def test_weaker_covers_stronger(self):
        weaker = [product("GO")]
        stronger = [product("GO", "X")]
        assert covers(weaker, stronger)
        assert not covers(stronger, weaker)

    def test_contradictory_literals_not_satisfiable(self):
        a = [product("GO")]
        b = [product(neg=("GO",))]
        assert not jointly_satisfiable(a, b)

    def test_unsatisfiable_loser_is_covered(self):
        assert covers([product("GO")], [])

    def test_empty_product_lists(self):
        # an empty SOP is FALSE: nothing satisfies it, everything covers it
        assert not jointly_satisfiable([], [product("GO")])
        assert not jointly_satisfiable([product("GO")], [])
        assert not jointly_satisfiable([], [])
        assert covers([], [])
        assert not covers([], [product("GO")])

    def test_negated_condition_products(self):
        chart = parse_chart("""
chart neg;
event GO;
condition X;
condition Y;
orstate Main { contains A, B; default A; }
basicstate A {
  transition { target B; label "GO [not (X and Y)]"; }
}
basicstate B { }
""")
        products = enable_products(chart.transitions[0])
        # De Morgan: GO and (not X or not Y)
        assert set(products) == {
            (frozenset({"GO"}), frozenset({"X"})),
            (frozenset({"GO"}), frozenset({"Y"})),
        }

    def test_contradictory_product_dropped(self):
        chart = parse_chart("""
chart contra;
event GO;
condition X;
orstate Main { contains A, B; default A; }
basicstate A {
  transition { target B; label "GO [X and not X]"; }
}
basicstate B { }
""")
        assert enable_products(chart.transitions[0]) == []


class TestUnionCovers:
    def test_split_on_one_literal(self):
        winners = [[product("GO", "X")], [product("GO", neg=("X",))]]
        assert union_covers(winners, [product("GO")])

    def test_no_single_winner_covers(self):
        winners = [[product("GO", "X")], [product("GO", neg=("X",))]]
        for winner in winners:
            assert not covers(winner, [product("GO")])

    def test_gap_in_union_is_not_covered(self):
        # GO[X] + GO[Y] leave GO[not X and not Y] enabled
        winners = [[product("GO", "X")], [product("GO", "Y")]]
        assert not union_covers(winners, [product("GO")])

    def test_single_winner_still_covers(self):
        assert union_covers([[product("GO")]], [product("GO", "X")])

    def test_empty_loser_is_covered(self):
        assert union_covers([[product("GO")]], [])

    def test_disjoint_winner_removes_nothing(self):
        winners = [[product("HALT")]]
        assert not union_covers(winners, [product("GO", neg=("HALT",))])


class TestDeterminism:
    def chart(self, body):
        return parse_chart("chart t;\nevent GO;\nevent HALT;\n"
                           "condition X;\n" + body)

    def test_identical_enables_shadow(self):
        chart = self.chart("""
orstate Main { contains A, B, C; default A; }
basicstate A {
  transition { target B; label "GO"; }
  transition { target C; label "GO"; }
}
basicstate B { transition { target A; label "HALT"; } }
basicstate C { transition { target A; label "HALT"; } }
""")
        codes = [d.code for d in determinism(chart)]
        assert codes == ["PSC201"]

    def test_partial_overlap_is_note_not_error(self):
        chart = self.chart("""
orstate Main { contains A, B, C; default A; }
basicstate A {
  transition { target B; label "GO [X]"; }
  transition { target C; label "GO"; }
}
basicstate B { transition { target A; label "HALT"; } }
basicstate C { transition { target A; label "HALT"; } }
""")
        codes = [d.code for d in determinism(chart)]
        assert codes == ["PSC202"]

    def test_contradictory_enables_are_clean(self):
        chart = self.chart("""
orstate Main { contains A, B, C; default A; }
basicstate A {
  transition { target B; label "GO"; }
  transition { target C; label "not GO"; }
}
basicstate B { }
basicstate C { }
""")
        assert determinism(chart) == []

    def test_co_firable_triggers_are_only_a_note(self):
        # Distinct events can still co-occur in one cycle, so this is a
        # PSC202 note (suppressed by default), never a PSC201 error.
        chart = self.chart("""
orstate Main { contains A, B, C; default A; }
basicstate A {
  transition { target B; label "GO"; }
  transition { target C; label "HALT"; }
}
basicstate B { }
basicstate C { }
""")
        assert {d.code for d in determinism(chart)} == {"PSC202"}

    def test_exclusive_sources_do_not_conflict(self):
        chart = self.chart("""
orstate Main { contains A, B; default A; }
basicstate A { transition { target B; label "GO"; } }
basicstate B { transition { target A; label "GO"; } }
""")
        assert determinism(chart) == []

    def test_union_shadowing_is_psc205(self):
        # neither GO[X] nor GO[not X] covers bare GO, but together they do
        chart = self.chart("""
orstate Main { contains A, B, C, D; default A; }
basicstate A {
  transition { target B; label "GO [X]"; }
  transition { target C; label "GO [not X]"; }
  transition { target D; label "GO"; }
}
basicstate B { }
basicstate C { }
basicstate D { }
""")
        codes = [d.code for d in determinism(chart)]
        assert codes.count("PSC205") == 1
        assert "PSC201" not in codes
        message = next(d for d in determinism(chart)
                       if d.code == "PSC205").message
        assert "A --GO--> D" in message and "union" in message

    def test_union_with_gap_is_not_psc205(self):
        # GO[X] + HALT[not X] leave GO[not X and not HALT] enabled
        chart = self.chart("""
orstate Main { contains A, B, C, D; default A; }
basicstate A {
  transition { target B; label "GO [X]"; }
  transition { target C; label "HALT [not X]"; }
  transition { target D; label "GO"; }
}
basicstate B { }
basicstate C { }
basicstate D { }
""")
        codes = [d.code for d in determinism(chart)]
        assert "PSC205" not in codes and "PSC201" not in codes

    def test_single_cover_stays_psc201_not_psc205(self):
        chart = self.chart("""
orstate Main { contains A, B, C, D; default A; }
basicstate A {
  transition { target B; label "GO [X]"; }
  transition { target C; label "GO"; }
  transition { target D; label "GO [not X]"; }
}
basicstate B { }
basicstate C { }
basicstate D { }
""")
        codes = [d.code for d in determinism(chart)]
        assert "PSC201" in codes
        assert "PSC205" not in codes

    def test_scope_priority_union_shadows_inner_transition(self):
        # the two outer-scope transitions beat the inner one jointly
        chart = self.chart("""
orstate Main { contains Outer, E; default Outer; }
orstate Outer {
  contains A, B;
  default A;
  transition { target E; label "GO [X]"; }
  transition { target E; label "GO [not X]"; }
}
basicstate A { transition { target B; label "GO"; } }
basicstate B { }
basicstate E { }
""")
        codes = [d.code for d in determinism(chart)]
        assert codes.count("PSC205") == 1


RACE_CHART = """
chart lint_race;
event TICK period 1000;
event TOCK period 1000;
andstate Par { contains Left, Right; }
orstate Left { contains L0; default L0; }
basicstate L0 { transition { target L0; label "TICK/IncLeft()"; } }
orstate Right { contains R0; default R0; }
basicstate R0 { transition { target R0; label "TOCK/IncRight()"; } }
"""

RACE_ROUTINES = """
int:16 shared;
void IncLeft() { shared = shared + 1; }
void IncRight() { shared = shared + 2; }
"""


def checked_for(chart, source):
    return check_program(parse_program(source), Externals.from_chart(chart))


class TestRaces:
    def test_shared_write_races(self):
        chart = parse_chart(RACE_CHART)
        effects = transition_effects(chart, checked_for(chart, RACE_ROUTINES))
        diagnostics = and_region_races(chart, effects)
        assert [d.code for d in diagnostics] == ["PSC203"]
        assert "shared" in diagnostics[0].message

    def test_mutual_exclusion_suppresses(self):
        chart = parse_chart(RACE_CHART)
        effects = transition_effects(chart, checked_for(chart, RACE_ROUTINES))
        exclusions = frozenset({frozenset({"IncLeft", "IncRight"})})
        assert and_region_races(chart, effects, exclusions) == []

    def test_contradictory_triggers_do_not_race(self):
        chart = parse_chart("""
chart t;
event TICK;
andstate Par { contains Left, Right; }
orstate Left { contains L0; default L0; }
basicstate L0 { transition { target L0; label "TICK/IncLeft()"; } }
orstate Right { contains R0; default R0; }
basicstate R0 { transition { target R0; label "not TICK/IncRight()"; } }
""")
        effects = transition_effects(chart, checked_for(chart, RACE_ROUTINES))
        assert and_region_races(chart, effects) == []

    def test_orthogonality_predicate(self):
        chart = parse_chart(RACE_CHART)
        assert orthogonal(chart, "L0", "R0")
        assert not orthogonal(chart, "L0", "Left")


CONSTANT_ARG_ROUTINES = """
int:16 arr[4];
void Bump(int:8 m) { arr[m] = arr[m] + 1; }
"""


class TestEffects:
    def two_region_chart(self, left_action, right_action):
        return parse_chart(f"""
chart t;
event TICK;
event TOCK;
andstate Par {{ contains Left, Right; }}
orstate Left {{ contains L0; default L0; }}
basicstate L0 {{ transition {{ target L0; label "TICK/{left_action}"; }} }}
orstate Right {{ contains R0; default R0; }}
basicstate R0 {{ transition {{ target R0; label "TOCK/{right_action}"; }} }}
""")

    def test_constant_binding_separates_elements(self):
        chart = self.two_region_chart("Bump(0)", "Bump(1)")
        checked = checked_for(chart, CONSTANT_ARG_ROUTINES)
        effects = transition_effects(chart, checked)
        assert effects[0].writes == frozenset({"arr[0]"})
        assert effects[1].writes == frozenset({"arr[1]"})
        assert and_region_races(chart, effects) == []

    def test_same_constant_element_races(self):
        chart = self.two_region_chart("Bump(2)", "Bump(2)")
        checked = checked_for(chart, CONSTANT_ARG_ROUTINES)
        effects = transition_effects(chart, checked)
        assert [d.code for d in and_region_races(chart, effects)] == \
            ["PSC203"]

    def test_unknown_index_overlaps_everything(self):
        assert write_conflicts.__module__ == "repro.analysis.effects"
        from repro.analysis.effects import Effects
        unknown = Effects(writes=frozenset({"arr[*]"}))
        known = Effects(writes=frozenset({"arr[3]"}))
        other = Effects(writes=frozenset({"other"}))
        assert write_conflicts(unknown, known) == ["arr[*]"]
        assert write_conflicts(unknown, other) == []

    def test_condition_writes_conflict_only_on_different_values(self):
        from repro.analysis.effects import Effects
        set_true = Effects(cond_writes=frozenset({("C", True)}))
        set_false = Effects(cond_writes=frozenset({("C", False)}))
        assert write_conflicts(set_true, set_true) == []
        assert write_conflicts(set_true, set_false) == ["condition C"]

    def test_builtin_effects_from_action_text(self):
        chart = self.two_region_chart("Bump(0)", "Bump(1)")
        analyzer = EffectAnalyzer(checked_for(chart, CONSTANT_ARG_ROUTINES))
        assert analyzer.action_effects(parse_action("Raise(DONE)")).raises \
            == frozenset({"DONE"})
        assert analyzer.action_effects(
            parse_action("SetTrue(C)")).cond_writes == \
            frozenset({("C", True)})


class TestQuiescence:
    def test_mutual_raise_cycle(self):
        chart = parse_chart("""
chart t;
event E1;
event E2;
orstate Main { contains A, B; default A; }
basicstate A { transition { target B; label "E1/RaiseE2()"; } }
basicstate B { transition { target A; label "E2/RaiseE1()"; } }
""")
        raised = {0: frozenset({"E2"}), 1: frozenset({"E1"})}
        diagnostics = quiescence(chart, raised)
        assert [d.code for d in diagnostics] == ["PSC204"]
        assert "E1" in diagnostics[0].message
        assert "E2" in diagnostics[0].message

    def test_acyclic_raises_are_clean(self):
        chart = parse_chart("""
chart t;
event E1;
event E2;
orstate Main { contains A, B; default A; }
basicstate A { transition { target B; label "E1/RaiseE2()"; } }
basicstate B { transition { target A; label "E2"; } }
""")
        assert quiescence(chart, {0: frozenset({"E2"})}) == []


class TestSla:
    def test_duplicate_tat_entry(self):
        chart = parse_chart("""
chart t;
event GO;
orstate Main { contains A, B; default A; }
basicstate A {
  transition { target B; label "GO/Ping()"; }
  transition { target B; label "GO/Ping()"; }
}
basicstate B { transition { target A; label "GO"; } }
""")
        codes = [d.code for d in sla_lint(chart)]
        assert codes.count("PSC501") == 1

    def test_binary_encoding_has_no_collisions(self):
        chart = parse_chart(RACE_CHART)
        assert [d for d in sla_lint(chart) if d.code == "PSC502"] == []

    def test_degenerate_encoding_collides(self):
        chart = parse_chart("""
chart t;
event GO;
orstate Main { contains A, B; default A; }
basicstate A { transition { target B; label "GO"; } }
basicstate B { }
""")
        broken = StateEncoding(chart, 1,
                               {name: () for name in chart.states})
        codes = [d.code for d in sla_lint(chart, encoding=broken)]
        assert "PSC502" in codes


class TestLegacyWrappers:
    def test_chart_problems_matches_wellformedness_messages(self):
        chart = parse_chart("""
chart t;
event GO;
orstate Main { contains A, B; default A; }
basicstate A { transition { target B; label "GO or MISSING"; } }
basicstate B { }
""")
        assert chart_problems(chart) == \
            [d.message for d in wellformedness(chart)]
        assert any("MISSING" in p for p in chart_problems(chart))
