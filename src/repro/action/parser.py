"""Recursive-descent parser for the intermediate C dialect.

Accepts the constructs of Fig. 2b (enum/typedef-struct/port-style globals with
brace initializers) and function definitions with the statement forms used by
transition routines.  Deviations from C, per the paper:

* ``int:16`` / ``uint:4`` exact-width integer types (bare ``int`` = 16 bits);
* ``B:001011`` binary literals;
* ``@bound(N)`` loop annotations in front of ``while`` (the explicit timing
  information the WCET analysis needs when it cannot infer a trip count);
* no pointers, no recursion (rejected later by :mod:`repro.action.check`).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.action.ast import (
    ArrayType,
    Assign,
    Binary,
    BinOp,
    BoolLiteral,
    BoolType,
    Call,
    EnumType,
    Expr,
    ExprStmt,
    FieldAccess,
    Function,
    GlobalVar,
    If,
    Index,
    IntLiteral,
    IntType,
    NameRef,
    Param,
    Program,
    Return,
    Stmt,
    StructType,
    Type,
    Unary,
    UnOp,
    VarDecl,
    VoidType,
    While,
)
from repro.action.lexer import LexError, Token, tokenize
from repro.action.stdlib import PREAMBLE
from repro.analysis.diag import Diagnostic, Severity, SourceLocation


class ActionParseError(Exception):
    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        #: the message without its line, to re-make the error at another line
        self.message = message
        self.line = line

    @property
    def diagnostics(self) -> List[Diagnostic]:
        """This error as its one PSC301 diagnostic, at its line."""
        return [Diagnostic(
            code="PSC301", severity=Severity.ERROR,
            message=f"action program does not parse: {self}",
            location=SourceLocation(line=self.line))]


_ASSIGN_OPS = {
    "=": None,
    "+=": BinOp.ADD, "-=": BinOp.SUB, "*=": BinOp.MUL, "/=": BinOp.DIV,
    "%=": BinOp.MOD, "&=": BinOp.AND, "|=": BinOp.OR, "^=": BinOp.XOR,
    "<<=": BinOp.SHL, ">>=": BinOp.SHR,
}

_BINARY_LEVELS = [
    # lowest to highest precedence
    [("||", BinOp.LOR)],
    [("&&", BinOp.LAND)],
    [("|", BinOp.OR)],
    [("^", BinOp.XOR)],
    [("&", BinOp.AND)],
    [("==", BinOp.EQ), ("!=", BinOp.NE)],
    [("<", BinOp.LT), ("<=", BinOp.LE), (">", BinOp.GT), (">=", BinOp.GE)],
    [("<<", BinOp.SHL), (">>", BinOp.SHR)],
    [("+", BinOp.ADD), ("-", BinOp.SUB)],
    [("*", BinOp.MUL), ("/", BinOp.DIV), ("%", BinOp.MOD)],
]

_UNARY_OPS = {"-": UnOp.NEG, "~": UnOp.BNOT, "!": UnOp.LNOT}


class Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.enums: Dict[str, EnumType] = {}
        self.structs: Dict[str, StructType] = {}
        self.typedefs: Dict[str, Type] = {}
        #: enum member name -> owning enum (members are global constants in C)
        self.enum_members: Dict[str, EnumType] = {}

    # -- token plumbing ----------------------------------------------------
    def peek(self, ahead: int = 0) -> Token:
        index = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[index]

    def take(self) -> Token:
        token = self.peek()
        if token.kind != "eof":
            self.pos += 1
        return token

    def expect(self, value: str) -> Token:
        token = self.peek()
        if token.value != value:
            raise ActionParseError(
                f"expected {value!r}, got {token.value or 'end of input'!r}",
                token.line)
        return self.take()

    def expect_name(self) -> Token:
        token = self.peek()
        if token.kind != "name":
            raise ActionParseError(
                f"expected identifier, got {token.value!r}", token.line)
        return self.take()

    def expect_number(self) -> Token:
        token = self.peek()
        if token.kind != "number":
            raise ActionParseError(
                f"expected number, got {token.value!r}", token.line)
        return self.take()

    def accept(self, value: str) -> bool:
        if self.peek().value == value:
            self.take()
            return True
        return False

    # -- types ---------------------------------------------------------------
    def at_type(self) -> bool:
        token = self.peek()
        if token.kind == "keyword" and token.value in (
                "int", "uint", "bool", "void", "enum", "struct"):
            return True
        return token.kind == "name" and token.value in self.typedefs

    def parse_type(self) -> Type:
        token = self.take()
        base: Type
        if token.value in ("int", "uint"):
            width = 16
            if self.accept(":"):
                width = self.expect_number().number
            base = IntType(width, signed=token.value == "int")
        elif token.value == "bool":
            base = BoolType()
        elif token.value == "void":
            base = VoidType()
        elif token.value == "enum":
            name = self.expect_name().value
            if name not in self.enums:
                raise ActionParseError(f"unknown enum {name!r}", token.line)
            base = self.enums[name]
        elif token.value == "struct":
            name = self.expect_name().value
            if name not in self.structs:
                raise ActionParseError(f"unknown struct {name!r}", token.line)
            base = self.structs[name]
        elif token.kind == "name" and token.value in self.typedefs:
            base = self.typedefs[token.value]
        else:
            raise ActionParseError(f"expected type, got {token.value!r}",
                                   token.line)
        return self.parse_array_suffix(base)

    # -- top level -----------------------------------------------------------
    def parse_program(self) -> Program:
        program = Program()
        while self.peek().kind != "eof":
            token = self.peek()
            if token.value == "enum":
                program.enums.append(self.parse_enum_decl())
            elif token.value == "typedef":
                self.parse_typedef(program)
            elif token.value == "struct" and self.peek(2).value == "{":
                program.structs.append(self.parse_struct_body())
                self.expect(";")
            elif self.at_type():
                self.parse_type_lead(program)
            else:
                raise ActionParseError(
                    f"unexpected {token.value!r} at top level", token.line)
        return program

    def parse_enum_decl(self) -> EnumType:
        self.expect("enum")
        name = self.expect_name().value
        self.expect("{")
        members = [self.expect_name().value]
        while self.accept(","):
            members.append(self.expect_name().value)
        self.expect("}")
        self.expect(";")
        enum_type = EnumType(name, tuple(members))
        self.enums[name] = enum_type
        # Fig. 2b uses bare enum names as types ("ECD Type;"), so the enum
        # name doubles as a typedef.
        self.typedefs[name] = enum_type
        for member in members:
            self.enum_members[member] = enum_type
        return enum_type

    def parse_struct_body(self) -> StructType:
        """``struct NAME { fields }`` — registers and returns the type."""
        self.expect("struct")
        tag = self.expect_name().value if self.peek().kind == "name" else ""
        self.expect("{")
        fields = []
        while not self.accept("}"):
            ftype = self.parse_type()
            fname = self.expect_name().value
            self.expect(";")
            fields.append((fname, ftype))
        struct_type = StructType(tag or "<anon>", tuple(fields))
        if tag:
            self.structs[tag] = struct_type
        return struct_type

    def parse_typedef(self, program: Program) -> None:
        self.expect("typedef")
        if self.peek().value == "struct":
            struct_type = self.parse_struct_body()
            alias = self.expect_name().value
            self.expect(";")
            # the alias names the struct: Fig. 2b's ``typedef struct port
            # {...} Port;``
            named = StructType(alias, struct_type.fields)
            self.structs[alias] = named
            self.typedefs[alias] = named
            program.structs.append(named)
            program.typedefs.append((alias, named))
        else:
            target = self.parse_type()
            alias = self.expect_name().value
            self.expect(";")
            self.typedefs[alias] = target
            program.typedefs.append((alias, target))

    def parse_type_lead(self, program: Program) -> None:
        """A declaration starting with a type: global var or function."""
        line = self.peek().line
        typ = self.parse_type()
        name = self.expect_name().value
        if self.peek().value == "(":
            program.functions.append(self.parse_function(typ, name, line))
        else:
            program.globals.append(self.parse_global(typ, name, line))

    def parse_array_suffix(self, typ: Type) -> Type:
        """Positive array lengths, outermost first as in C (``m[2][3]`` is
        two arrays of three), after a type or the declared name."""
        lengths = []
        while self.peek().value == "[":
            self.take()
            length = self.expect_number()
            if length.number < 1:
                raise ActionParseError("array length must be positive",
                                       length.line)
            self.expect("]")
            lengths.append(length.number)
        for length in reversed(lengths):
            typ = ArrayType(typ, length)
        return typ

    def parse_global(self, typ: Type, name: str, line: int) -> GlobalVar:
        typ = self.parse_array_suffix(typ)
        init: Optional[Expr] = None
        init_list: Optional[List[Expr]] = None
        if self.accept("="):
            if self.peek().value == "{":
                self.take()
                init_list = []
                if self.peek().value != "}":
                    init_list.append(self.parse_expr())
                    while self.accept(","):
                        init_list.append(self.parse_expr())
                self.expect("}")
            else:
                init = self.parse_expr()
        self.expect(";")
        return GlobalVar(name, typ, init=init, init_list=init_list,
                         line=line)

    def parse_function(self, return_type: Type, name: str,
                       line: Optional[int] = None) -> Function:
        self.expect("(")
        params: List[Param] = []
        if self.peek().value != ")":
            if self.peek().value == "void" and self.peek(1).value == ")":
                self.take()
            else:
                while True:
                    ptype = self.parse_type()
                    pname = self.expect_name().value
                    params.append(Param(pname, ptype))
                    if not self.accept(","):
                        break
        self.expect(")")
        wcet: Optional[int] = None
        if self.peek().value == "@":
            # @wcet(N) between signature and body
            self.take()
            keyword = self.expect_name().value
            if keyword != "wcet":
                raise ActionParseError(f"unknown annotation @{keyword}",
                                       self.peek().line)
            self.expect("(")
            wcet = self.expect_number().number
            self.expect(")")
        body = self.parse_block()
        return Function(name, params, return_type, body, wcet_override=wcet,
                        line=line)

    # -- statements ------------------------------------------------------------
    def parse_block(self) -> List[Stmt]:
        self.expect("{")
        stmts: List[Stmt] = []
        while not self.accept("}"):
            stmts.append(self.parse_stmt())
        return stmts

    def parse_stmt(self) -> Stmt:
        token = self.peek()
        if token.value == "@":
            return self.parse_annotated()
        if token.value == "if":
            return self.parse_if()
        if token.value == "while":
            return self.parse_while(bound=None)
        if token.value == "return":
            self.take()
            value = None if self.peek().value == ";" else self.parse_expr()
            self.expect(";")
            return Return(value, line=token.line)
        if self.at_type():
            typ = self.parse_type()
            name = self.expect_name().value
            typ = self.parse_array_suffix(typ)
            init = self.parse_expr() if self.accept("=") else None
            self.expect(";")
            return VarDecl(name, typ, init, line=token.line)
        # expression or assignment
        expr = self.parse_expr()
        op_token = self.peek()
        if op_token.value in _ASSIGN_OPS:
            self.take()
            value = self.parse_expr()
            self.expect(";")
            if not isinstance(expr, (NameRef, FieldAccess, Index)):
                raise ActionParseError("assignment target must be a variable, "
                                       "field or element", op_token.line)
            return Assign(expr, value, _ASSIGN_OPS[op_token.value],
                          line=token.line)
        self.expect(";")
        return ExprStmt(expr, line=token.line)

    def parse_annotated(self) -> Stmt:
        line = self.expect("@").line
        keyword = self.expect_name().value
        if keyword != "bound":
            raise ActionParseError(f"unknown annotation @{keyword}", line)
        self.expect("(")
        bound = self.expect_number().number
        self.expect(")")
        if self.peek().value != "while":
            raise ActionParseError("@bound must precede a while loop", line)
        return self.parse_while(bound=bound)

    def parse_if(self) -> Stmt:
        line = self.peek().line
        self.expect("if")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then_body = (self.parse_block() if self.peek().value == "{"
                     else [self.parse_stmt()])
        else_body: List[Stmt] = []
        if self.accept("else"):
            if self.peek().value == "if":
                else_body = [self.parse_if()]
            else:
                else_body = (self.parse_block() if self.peek().value == "{"
                             else [self.parse_stmt()])
        return If(cond, then_body, else_body, line=line)

    def parse_while(self, bound: Optional[int]) -> Stmt:
        line = self.peek().line
        self.expect("while")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        body = (self.parse_block() if self.peek().value == "{"
                else [self.parse_stmt()])
        return While(cond, body, bound=bound, line=line)

    # -- expressions -----------------------------------------------------------
    def parse_expr(self) -> Expr:
        return self.parse_binary(0)

    def parse_binary(self, level: int) -> Expr:
        if level >= len(_BINARY_LEVELS):
            return self.parse_unary()
        expr = self.parse_binary(level + 1)
        ops = dict(_BINARY_LEVELS[level])
        while self.peek().value in ops:
            op = ops[self.take().value]
            right = self.parse_binary(level + 1)
            expr = Binary(op, expr, right)
        return expr

    def parse_unary(self) -> Expr:
        token = self.peek()
        if token.value in _UNARY_OPS:
            self.take()
            return Unary(_UNARY_OPS[token.value], self.parse_unary())
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        expr = self.parse_primary()
        while True:
            token = self.peek()
            if token.value == ".":
                self.take()
                expr = FieldAccess(expr, self.expect_name().value)
            elif token.value == "[":
                self.take()
                index = self.parse_expr()
                self.expect("]")
                expr = Index(expr, index)
            else:
                return expr

    def parse_primary(self) -> Expr:
        token = self.take()
        if token.kind == "number":
            return IntLiteral(token.number, base=token.base)
        if token.value == "true":
            return BoolLiteral(True)
        if token.value == "false":
            return BoolLiteral(False)
        if token.value == "(":
            expr = self.parse_expr()
            self.expect(")")
            return expr
        if token.kind == "name":
            if self.peek().value == "(":
                self.take()
                args: List[Expr] = []
                if self.peek().value != ")":
                    args.append(self.parse_expr())
                    while self.accept(","):
                        args.append(self.parse_expr())
                self.expect(")")
                return Call(token.value, args)
            return NameRef(token.value)
        raise ActionParseError(f"unexpected token {token.value!r}", token.line)


def parse_program(text: str) -> Program:
    """Parse an intermediate-C translation unit.  A character the lexer
    rejects is a parse error at its line, like any other."""
    try:
        tokens = tokenize(text)
    except LexError as exc:
        raise ActionParseError(exc.message, exc.line) from None
    return Parser(tokens).parse_program()


#: lines :func:`parse_with_preamble` puts in front of line 1 of its text
PREAMBLE_LINES = PREAMBLE.count("\n") + 1


def parse_with_preamble(text: str) -> Program:
    """Parse *text* with the standard preamble of Fig. 2b prepended.

    The preamble defines the ``ECD``/``Encoding``/``PortDir`` enums and the
    ``Port``/``EventCondition`` structs that "are always part of the
    generated C code".  Line *n* of *text* is line ``PREAMBLE_LINES + n``
    of what is parsed.
    """
    return parse_program(PREAMBLE + "\n" + text)
