"""Tests for the intermediate-C lexer and parser (Fig. 2b dialect)."""

import pytest

from repro.action import (
    ActionParseError,
    ArrayType,
    Assign,
    Binary,
    BinOp,
    BoolType,
    Call,
    EnumType,
    ExprStmt,
    If,
    IntLiteral,
    IntType,
    LexError,
    NameRef,
    Return,
    StructType,
    Unary,
    UnOp,
    VarDecl,
    VoidType,
    While,
    parse_program,
    parse_with_preamble,
    tokenize,
    type_width,
)

FIG_2B = """
enum ECD {Event, Condition, Data};
enum Encoding {Onehot, Binary};
enum PortDir {Input, Output, Bidirectional};
typedef struct port {
  ECD          Type;
  int:8        Width;
  int:8        Address;
  PortDir      Direction;
} Port;
typedef struct ec {
  ECD           Type;
  int:4         Size;
  int:8         Representation;
  int:4         PositionInPort;
  Port          p;
  int:32        TimeConstraint;
} EventCondition;

Port PE0 = {Event, 1, 0700, Output};
Port CE0 = {Condition, 1, 0712, Bidirectional};
Port Buffer = {Data, 8, 0717, Bidirectional};
EventCondition X_PULSE = {Event, 1, B:1, 0, PE0, 400};
"""


class TestLexer:
    def test_binary_literal(self):
        tokens = tokenize("B:001011")
        assert tokens[0].kind == "number"
        assert tokens[0].number == 0b001011
        assert tokens[0].base == 2

    def test_octal_literal(self):
        tokens = tokenize("0717")
        assert tokens[0].number == 0o717
        assert tokens[0].base == 8

    def test_hex_literal(self):
        assert tokenize("0x1F")[0].number == 31

    def test_decimal_zero(self):
        assert tokenize("0")[0].number == 0

    def test_width_type_tokens(self):
        values = [t.value for t in tokenize("int:16 x;")][:-1]
        assert values == ["int", ":", "16", "x", ";"]

    def test_comments_stripped(self):
        tokens = tokenize("a // comment\n/* block\ncomment */ b")
        assert [t.value for t in tokens[:-1]] == ["a", "b"]

    def test_multichar_operators_munch(self):
        values = [t.value for t in tokenize("a <<= b >> c != d")][:-1]
        assert values == ["a", "<<=", "b", ">>", "c", "!=", "d"]

    def test_unknown_char_raises_with_line(self):
        with pytest.raises(LexError) as excinfo:
            tokenize("ok;\n  $bad")
        assert excinfo.value.line == 2

    def test_eof_token_present(self):
        assert tokenize("")[-1].kind == "eof"


class TestFig2bParsing:
    """The exact intermediate-C fragment of Fig. 2b parses."""

    def test_enums(self):
        program = parse_program(FIG_2B)
        names = [e.name for e in program.enums]
        assert names == ["ECD", "Encoding", "PortDir"]
        ecd = program.enums[0]
        assert ecd.members == ("Event", "Condition", "Data")
        assert ecd.value_of("Data") == 2

    def test_typedef_structs(self):
        program = parse_program(FIG_2B)
        port = next(s for s in program.structs if s.name == "Port")
        assert [f[0] for f in port.fields] == [
            "Type", "Width", "Address", "Direction"]
        assert port.field_type("Width") == IntType(8)

    def test_nested_struct_field(self):
        program = parse_program(FIG_2B)
        ec = next(s for s in program.structs if s.name == "EventCondition")
        assert isinstance(ec.field_type("p"), StructType)
        assert ec.field_type("TimeConstraint") == IntType(32)

    def test_port_globals_with_initializer_lists(self):
        program = parse_program(FIG_2B)
        pe0 = program.global_var("PE0")
        assert pe0.init_list is not None
        assert isinstance(pe0.init_list[0], NameRef)
        assert pe0.init_list[0].name == "Event"
        assert pe0.init_list[2].value == 0o700

    def test_event_condition_global(self):
        program = parse_program(FIG_2B)
        xp = program.global_var("X_PULSE")
        assert xp.init_list is not None
        assert xp.init_list[-1].value == 400  # TimeConstraint
        assert xp.init_list[1].value == 1

    def test_preamble_helper(self):
        program = parse_with_preamble("int:8 x;")
        assert program.global_var("x").typ == IntType(8)
        assert any(s.name == "Port" for s in program.structs)


class TestTypeSyntax:
    def test_bare_int_is_16_bits(self):
        program = parse_program("int x;")
        assert program.global_var("x").typ == IntType(16)

    def test_uint(self):
        program = parse_program("uint:4 x;")
        assert program.global_var("x").typ == IntType(4, signed=False)

    def test_array_type(self):
        program = parse_program("int:8 buf[16];")
        typ = program.global_var("buf").typ
        assert typ == ArrayType(IntType(8), 16)
        assert type_width(typ) == 128

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            parse_program("int:0 x;")

    def test_struct_width_is_field_sum(self):
        program = parse_program(FIG_2B)
        port = next(s for s in program.structs if s.name == "Port")
        assert type_width(port) == 2 + 8 + 8 + 2  # enum(3 values)=2 bits etc.


class TestStatements:
    def test_function_with_params(self):
        program = parse_program("int:8 add(int:8 a, int:8 b) { return a + b; }")
        f = program.function("add")
        assert [p.name for p in f.params] == ["a", "b"]
        assert isinstance(f.body[0], Return)

    def test_void_param_list(self):
        program = parse_program("void f(void) { return; }")
        assert program.function("f").params == []

    def test_if_else_chain(self):
        program = parse_program("""
        void f(int:8 a, int:8 b) {
          if (a == b) { a = 1; } else if (a < b) { a = 2; } else a = 3;
        }
        """)
        stmt = program.function("f").body[0]
        assert isinstance(stmt, If)
        assert isinstance(stmt.else_body[0], If)

    def test_while_with_bound(self):
        program = parse_program("""
        void f() { int:8 i; i = 0; @bound(10) while (i < 10) { i += 1; } }
        """)
        loop = program.function("f").body[-1]
        assert isinstance(loop, While)
        assert loop.bound == 10

    def test_wcet_annotation(self):
        program = parse_program("void f() @wcet(99) { }")
        assert program.function("f").wcet_override == 99

    def test_compound_assignment(self):
        program = parse_program("void f(int:8 a) { a <<= 2; }")
        stmt = program.function("f").body[0]
        assert isinstance(stmt, Assign)
        assert stmt.op is BinOp.SHL

    def test_local_declaration_with_init(self):
        program = parse_program("void f() { int:16 t = 5; }")
        decl = program.function("f").body[0]
        assert isinstance(decl, VarDecl)
        assert decl.init.value == 5


class TestExpressions:
    def get_expr(self, text):
        program = parse_program(f"void f(int:8 a, int:8 b, int:8 c) {{ a = {text}; }}")
        return program.function("f").body[0].value

    def test_precedence_mul_over_add(self):
        expr = self.get_expr("a + b * c")
        assert expr.op is BinOp.ADD
        assert expr.right.op is BinOp.MUL

    def test_precedence_shift_below_add(self):
        expr = self.get_expr("a << b + c")
        assert expr.op is BinOp.SHL

    def test_comparison_below_bitand(self):
        # C-style: & binds looser than ==, so a & b == c is a & (b == c)
        expr = self.get_expr("a & b == c")
        assert expr.op is BinOp.AND
        assert expr.right.op is BinOp.EQ

    def test_unary_negate(self):
        expr = self.get_expr("-a")
        assert isinstance(expr, Unary)
        assert expr.op is UnOp.NEG

    def test_call_in_expression(self):
        expr = self.get_expr("g(a, b) + 1")
        assert isinstance(expr.left, Call)
        assert expr.left.name == "g"

    def test_field_and_index_postfix(self):
        program = parse_program("""
        typedef struct p { int:8 x; } P;
        P ps[4];
        void f() { int:8 v; v = ps[2].x; }
        """)
        value = program.function("f").body[-1].value
        assert value.field == "x"

    def test_parenthesized(self):
        expr = self.get_expr("(a + b) * c")
        assert expr.op is BinOp.MUL


class TestParseErrors:
    @pytest.mark.parametrize("bad", [
        "void f( {",
        "void f() { int:8 }",
        "void f() { a = ; }",
        "int x",
        "void f() { @bound(3) a = 1; }",
        "void f() { @frob(3) while (1) {} }",
        "enum E {A, B}",
        "void f() { 1 = a; }",
        "int:8 a[0];",
    ])
    def test_rejects(self, bad):
        with pytest.raises(ActionParseError):
            parse_program(bad)

    def test_array_lengths_read_outermost_first(self):
        # as in C, m[2][3] is two arrays of three
        typ = parse_program("int:16 m[2][3];").globals[0].typ
        assert (typ.length, typ.element.length) == (2, 3)

    def test_error_carries_line(self):
        with pytest.raises(ActionParseError) as excinfo:
            parse_program("int:8 ok;\nvoid f() { !!; }")
        assert excinfo.value.line == 2
