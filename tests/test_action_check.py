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


class TestOneGate:
    """The checker admits only programs the code generator compiles: each
    shape the back end cannot build is a PSC302 at its line."""

    @staticmethod
    def diagnostics(src, **externals):
        from repro.action.check import Checker

        checker = Checker(parse_program(src), Externals(**externals))
        checker.analyze()
        return [(d.code, d.location.line, d.message)
                for d in checker.diagnostics]

    def test_global_initializers_fold_every_operator(self):
        checked = check("enum E {A, B, C};\n"
                        "int:16 a = 8 / 2; int:16 b = ~1; int:16 c = 3 < 4;\n"
                        "int:16 d = C * 2 - (0 - 7) % 2; bool e = !0 && 1;\n"
                        "int:16 unset;")
        assert checked.initial_values == {"a": 4, "b": -2, "c": 1, "d": 5,
                                          "e": 1, "unset": None}

    def test_global_initializer_must_be_constant(self):
        assert self.diagnostics(
            "int:16 a;\nint:16 b = a + 1;\nint:16 c = nosuch;\n"
            "int:16 d = 1 / 0;") == [
            ("PSC302", 2, "global 'b': initializer (a + 1) is not a "
                          "constant expression"),
            ("PSC302", 3, "global 'c': unknown name 'nosuch'"),
            ("PSC302", 4, "global 'd': initializer (1 / 0) is not a "
                          "constant expression")]

    def test_initializer_list_only_on_directives(self):
        assert self.diagnostics("int:16 a[2] = {5, 6};") == [
            ("PSC302", 1, "global 'a': an initializer list is read only on "
                          "a Port or EventCondition directive, not on data")]
        assert check_program(parse_with_preamble(
            "Port Buffer = {Data, 8, 0717, Bidirectional};")) is not None

    def test_directive_is_no_routine_variable(self):
        source = ("Port Buffer = {Data, 8, 0717, Bidirectional};\n"
                  "int:8 x;\nvoid f() {\n  x = Buffer;\n}\n")
        # with a chart port of that name, the name is the port
        assert check_program(parse_with_preamble(source),
                             Externals(ports={"Buffer"})) is not None
        with pytest.raises(CheckError, match="unknown name 'Buffer'"):
            check_program(parse_with_preamble(source))

    def test_assignment_to_condition_or_enum_member(self):
        assert self.diagnostics(
            "enum Power {OFF, ON};\nvoid f() {\n  BUSY = 1;\n  ON = 1;\n"
            "  P = 1;\n}", conditions={"BUSY"}, ports={"P"}) == [
            ("PSC302", 3, "f: cannot assign to condition 'BUSY' (use "
                          "SetTrue/SetFalse)"),
            ("PSC302", 4, "f: cannot assign to enum member 'ON'")]

    def test_a_local_may_shadow_nothing_assignable(self):
        assert self.diagnostics(
            "enum Power {OFF, ON};\nvoid f() {\n  int:8 ON;\n  ON = 1;\n}"
        ) == []

    def test_index_rules(self):
        assert self.diagnostics(
            "enum E {A, B};\nint:8 a[4];\nint:16 m[2][3];\nint:8 i;\n"
            "void f() {\n"
            "  a[3] = a[B + 1];\n"
            "  a[4] = 1;\n"
            "  a[0 - 1] = 1;\n"
            "  m[i][i] = 1;\n"
            "  m[i][2] = m[1][i];\n"
            "}") == [
            ("PSC302", 7, "f: index 4 is out of range for a (length 4)"),
            ("PSC302", 8, "f: index -1 is out of range for a (length 4)"),
            ("PSC302", 9, "f: m[i][i] has more than one dynamic index (at "
                          "most one per access)")]

    def test_access_starts_at_a_variable(self):
        assert self.diagnostics(
            "typedef struct pt { int:8 x; } Point;\nPoint p;\n"
            "Point get() { return p; }\nint:8 v;\n"
            "void f() {\n  v = get().x;\n}") == [
            ("PSC302", 6, "f: get().x: only a variable's fields and "
                          "elements can be accessed")]

    def test_aggregates_are_no_operands_or_conditions(self):
        assert self.diagnostics(
            "typedef struct pt { int:8 x; } Point;\nPoint p;\nint:8 v;\n"
            "void f() {\n  v = p <= 1;\n  if (p) { v = !p; }\n}") == [
            ("PSC302", 5, "f: operator <= on struct Point"),
            ("PSC302", 6, "f: condition on struct Point"),
            ("PSC302", 6, "f: unary ! on struct Point")]

    def test_check_error_carries_the_diagnostics(self):
        with pytest.raises(CheckError) as excinfo:
            check("void f() {\n  a = 1;\n}")
        assert [(d.code, d.location.line) for d in
                excinfo.value.diagnostics] == [("PSC302", 2)]


class TestFoldConstant:
    """The one constant folder: C semantics, never raising."""

    @staticmethod
    def fold(text):
        from repro.action.check import fold_constant

        program = parse_program(f"int:16 x = {text};")
        return fold_constant(program.globals[0].init, {"ON": 1})

    @pytest.mark.parametrize("text, value", [
        ("7 / 2", 3), ("(0 - 7) / 2", -3), ("7 % (0 - 2)", 1),
        ("(0 - 7) % 2", -1), ("~5", -6), ("!5", 0), ("-ON", -1),
        ("1 << 4", 16), ("256 >> 4", 16), ("3 == 3", 1), ("3 != 3", 0),
        ("2 < 1", 0), ("2 <= 2", 1), ("2 > 1", 1), ("1 >= 2", 0),
        ("6 & 3", 2), ("6 | 3", 7), ("6 ^ 3", 5), ("0 && x", 0),
        ("2 || x", 1), ("1 && 2", 1), ("0 || 0", 0), ("true", 1),
    ])
    def test_values(self, text, value):
        assert self.fold(text) == value

    @pytest.mark.parametrize("text", [
        "x", "1 / 0", "1 % 0", "1 << (0 - 1)", "1 >> (0 - 1)", "1 << 64",
        "1 && x", "0 || x", "f()", "nosuch + 1",
    ])
    def test_not_constant(self, text):
        assert self.fold(text) is None
