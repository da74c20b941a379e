"""Tests for the intermediate-C semantic checker."""

import pytest

from repro.action import (
    BoolType,
    CheckError,
    Externals,
    IntType,
    check_program,
    parse_program,
    parse_with_preamble,
)


def check(src, **externals):
    return check_program(parse_program(src), Externals(**externals))


class TestTypeAnnotation:
    def test_expression_types_annotated(self):
        checked = check("int:8 g; void f(int:8 a) { a = a + g; }")
        assign = checked.function("f").body[0]
        assert isinstance(assign.value.typ, IntType)
        assert assign.value.typ.width == 8

    def test_width_widens_to_max(self):
        checked = check("void f(int:8 a, int:16 b) { int:16 c; c = a + b; }")
        assign = checked.function("f").body[1]
        assert assign.value.typ.width == 16

    def test_comparison_is_bool(self):
        checked = check("void f(int:8 a) { bool t; t = a == 3; }")
        assign = checked.function("f").body[1]
        assert isinstance(assign.value.typ, BoolType)

    def test_condition_name_is_bool(self):
        checked = check("void f() { bool t; t = READY; }",
                        conditions={"READY"})
        assign = checked.function("f").body[1]
        assert isinstance(assign.value.typ, BoolType)

    def test_enum_member_resolves(self):
        checked = check_program(parse_with_preamble(
            "void f() { int:4 t; t = Data; }"))
        assert checked is not None

    def test_struct_field_type(self):
        checked = check("""
        typedef struct pair { int:8 lo; int:16 hi; } Pair;
        Pair p;
        void f() { int:16 t; t = p.hi; }
        """)
        assign = checked.function("f").body[1]
        assert assign.value.typ.width == 16


class TestRecursionBan:
    def test_direct_recursion_rejected(self):
        with pytest.raises(CheckError, match="recursion"):
            check("void f() { f(); }")

    def test_mutual_recursion_rejected(self):
        with pytest.raises(CheckError, match="recursion"):
            check("void a() { b(); } void b() { a(); }")

    def test_call_chain_allowed_and_ordered(self):
        checked = check("""
        void leaf() { }
        void mid() { leaf(); }
        void top() { mid(); leaf(); }
        """)
        order = checked.call_order
        assert order.index("leaf") < order.index("mid") < order.index("top")


class TestBuiltins:
    def test_raise_requires_declared_event(self):
        with pytest.raises(CheckError, match="not a declared event"):
            check("void f() { Raise(GHOST); }")

    def test_raise_accepts_declared_event(self):
        check("void f() { Raise(E); }", events={"E"})

    def test_settrue_requires_condition(self):
        with pytest.raises(CheckError, match="not a declared condition"):
            check("void f() { SetTrue(E); }", events={"E"})

    def test_writeport_arity(self):
        with pytest.raises(CheckError, match="argument"):
            check("void f() { WritePort(P); }", ports={"P"})

    def test_readport_returns_value(self):
        checked = check("void f() { int:8 v; v = ReadPort(P); }", ports={"P"})
        assert checked is not None

    def test_builtin_needs_bare_name(self):
        with pytest.raises(CheckError, match="bare"):
            check("void f() { Raise(1 + 2); }", events={"E"})


class TestRestrictions:
    def test_unknown_name_rejected(self):
        with pytest.raises(CheckError, match="unknown name"):
            check("void f() { int:8 a; a = ghost; }")

    def test_unbounded_loop_rejected(self):
        with pytest.raises(CheckError, match="bound"):
            check("void f(int:8 a) { while (a > 0) { a -= 1; } }")

    def test_bounded_loop_accepted(self):
        check("void f(int:8 a) { @bound(9) while (a > 0) { a -= 1; } }")

    def test_wcet_override_excuses_unbounded_loop(self):
        check("void f(int:8 a) @wcet(500) { while (a > 0) { a -= 1; } }")

    def test_undefined_call_rejected(self):
        with pytest.raises(CheckError, match="undefined function"):
            check("void f() { ghost(); }")

    def test_call_arity_checked(self):
        with pytest.raises(CheckError, match="argument"):
            check("void g(int:8 a) { } void f() { g(); }")

    def test_void_return_with_value_rejected(self):
        with pytest.raises(CheckError, match="void"):
            check("void f() { return 3; }")

    def test_missing_return_value_rejected(self):
        with pytest.raises(CheckError, match="missing return value"):
            check("int:8 f() { return; }")

    def test_event_as_value_rejected(self):
        with pytest.raises(CheckError, match="used as a value"):
            check("void f() { int:8 a; a = E; }", events={"E"})

    def test_struct_assignment_rejected(self):
        with pytest.raises(CheckError, match="cannot assign whole"):
            check("""
            typedef struct p { int:8 x; } P;
            P a;
            P b;
            void f() { a = b; }
            """)

    def test_duplicate_local_rejected(self):
        with pytest.raises(CheckError, match="redeclaration"):
            check("void f() { int:8 a; int:8 a; }")

    def test_duplicate_global_rejected(self):
        with pytest.raises(CheckError, match="duplicate global"):
            check("int:8 a; int:8 a;")

    def test_duplicate_function_rejected(self):
        with pytest.raises(CheckError, match="duplicate function"):
            check("void f() { } void f() { }")

    def test_all_problems_reported_at_once(self):
        with pytest.raises(CheckError) as excinfo:
            check("void f() { int:8 a; a = ghost1; a = ghost2; }")
        message = str(excinfo.value)
        assert "ghost1" in message and "ghost2" in message

    def test_externals_from_chart(self):
        from repro.statechart import ChartBuilder, PortKind
        b = ChartBuilder("c")
        b.event("E").condition("C").port("P", PortKind.DATA, width=8)
        with b.or_state("Top", default="S"):
            b.basic("S")
        chart = b.build()
        ext = Externals.from_chart(chart)
        assert ext.events == {"E"}
        assert ext.conditions == {"C"}
        assert ext.ports == {"P"}


class TestEnumMembers:
    """An enum member is one global constant with one value: C forbids
    declaring it in two enums, so the checker does too."""

    @staticmethod
    def diagnostics(src):
        from repro.action.check import Checker

        checker = Checker(parse_with_preamble(src))
        checker.analyze()
        return [(d.code, d.message) for d in checker.diagnostics]

    def test_member_of_two_enums_is_rejected_naming_both(self):
        assert self.diagnostics("enum A {X, Y}; enum B {Y2, X2, X};") == [
            ("PSC302",
             "enum member 'X' is declared in enum A and again in enum B")]

    def test_preamble_member_counts_as_a_declaration(self):
        assert self.diagnostics("enum Mode {Run, Input};") == [
            ("PSC302", "enum member 'Input' is declared in enum PortDir "
                       "and again in enum Mode")]

    def test_typedef_and_struct_field_reuse_the_declaration(self):
        # the preamble's structs already name ECD and PortDir as fields
        assert self.diagnostics("""
        enum A {X, Y};
        typedef A Alias;
        typedef enum A Again;
        struct holder { A first; Alias second; };
        Again g;
        void f() { g = Y; }
        """) == []

    def test_every_reader_takes_the_checked_values(self):
        from repro.isa import CodeGenerator, MD16_TEP

        checked = check_program(parse_with_preamble(
            "enum A {X, Y}; typedef A T; int:8 g; void f() { g = Y; }"))
        values = checked.enum_values()
        assert values["Y"] == 1 and values["Binary"] == 1
        compiled = CodeGenerator(checked, MD16_TEP).compile()
        assert compiled.enum_values == values

    def test_plain_and_specialized_builds_refuse_the_ambiguous_argument(
            self):
        from repro.flow import build_system
        from repro.isa import MD16_TEP
        from repro.statechart import ChartBuilder

        b = ChartBuilder("ambiguous")
        b.event("GO", period=1000)
        with b.or_state("Top", default="S"):
            b.basic("S").transition("S", label="GO/Work(X)")
        chart = b.build()
        routines = """
        enum A {X, Y};
        enum B {Y2, X2, X};
        int:16 last;
        void Work(int:16 i) { last = i; }
        """
        # X would be 0 to the plain build's stubs and 2 to the specializer
        for specialize in (False, True):
            with pytest.raises(CheckError, match="enum member 'X' is "
                               "declared in enum A and again in enum B"):
                build_system(chart, routines, MD16_TEP,
                             specialize=specialize)
