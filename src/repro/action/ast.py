"""AST for the intermediate C dialect (Fig. 2b).

The paper introduces "C as notation for the action parts of transition
labels" with two deviations from standard C:

* declarations of the form ``int:16`` give the exact bit width of data
  elements — "careful range specification helps the ASIP generator to select
  an optimal architecture";
* binary constants such as ``B:001011``.

Functions may call other functions, *recursion is not permitted* (checked by
:mod:`repro.action.check`).  The dialect supported here covers everything the
paper's figures show (enums, structs, typedefs, port declarations) plus the
statement forms any real transition routine needs: declarations with
initializers, assignment (including compound assignment), ``if``/``else``,
bounded ``while`` loops (``@bound(N)`` annotation drives the WCET analysis),
``return``, and call statements.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntType:
    """``int:N`` — a signed integer of exactly N bits (``int`` = ``int:16``)."""

    width: int
    signed: bool = True

    def __post_init__(self) -> None:
        if not 1 <= self.width <= 64:
            raise ValueError(f"unsupported integer width {self.width}")

    def __str__(self) -> str:
        prefix = "int" if self.signed else "uint"
        return f"{prefix}:{self.width}"


@dataclass(frozen=True)
class BoolType:
    """1-bit truth value (conditions, comparison results)."""

    def __str__(self) -> str:
        return "bool"


@dataclass(frozen=True)
class VoidType:
    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class EnumType:
    """A named enumeration; members carry small integer values."""

    name: str
    members: Tuple[str, ...]

    def value_of(self, member: str) -> int:
        return self.members.index(member)

    @property
    def width(self) -> int:
        return max(1, (len(self.members) - 1).bit_length())

    def __str__(self) -> str:
        return f"enum {self.name}"


@dataclass(frozen=True)
class StructType:
    """A named struct; fields are (name, type) pairs laid out in order."""

    name: str
    fields: Tuple[Tuple[str, "Type"], ...]

    def field_type(self, name: str) -> "Type":
        for fname, ftype in self.fields:
            if fname == name:
                return ftype
        raise KeyError(f"struct {self.name} has no field {name!r}")

    def __str__(self) -> str:
        return f"struct {self.name}"


@dataclass(frozen=True)
class ArrayType:
    element: "Type"
    length: int

    def __str__(self) -> str:
        return f"{self.element}[{self.length}]"


Type = Union[IntType, BoolType, VoidType, EnumType, StructType, ArrayType]


def type_width(t: Type) -> int:
    """Storage width in bits of a value of type *t*."""
    if isinstance(t, IntType):
        return t.width
    if isinstance(t, BoolType):
        return 1
    if isinstance(t, EnumType):
        return t.width
    if isinstance(t, StructType):
        return sum(type_width(ft) for _, ft in t.fields)
    if isinstance(t, ArrayType):
        return type_width(t.element) * t.length
    if isinstance(t, VoidType):
        return 0
    raise TypeError(f"not a type: {t!r}")


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

class Expr:
    """Base class of expression nodes.  ``typ`` is filled by the checker."""

    typ: Optional[Type] = None


@dataclass
class IntLiteral(Expr):
    value: int
    #: textual base for round-tripping: 10, 2 ('B:...'), 16, or 8
    base: int = 10
    typ: Optional[Type] = None

    def __str__(self) -> str:
        if self.base == 2:
            return "B:" + bin(self.value)[2:]
        if self.base == 16:
            return hex(self.value)
        return str(self.value)


@dataclass
class BoolLiteral(Expr):
    value: bool
    typ: Optional[Type] = None

    def __str__(self) -> str:
        return "true" if self.value else "false"


@dataclass
class NameRef(Expr):
    """A variable, parameter, enum member, port or condition reference."""

    name: str
    typ: Optional[Type] = None
    #: the enum member's value when the checker resolved the name to one
    #: (no local or parameter of that name is in scope), else ``None``
    member: Optional[int] = None

    def __str__(self) -> str:
        return self.name


@dataclass
class FieldAccess(Expr):
    base: Expr
    field: str
    typ: Optional[Type] = None

    def __str__(self) -> str:
        return f"{self.base}.{self.field}"


@dataclass
class Index(Expr):
    base: Expr
    index: Expr
    typ: Optional[Type] = None

    def __str__(self) -> str:
        return f"{self.base}[{self.index}]"


class BinOp(enum.Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    MOD = "%"
    AND = "&"
    OR = "|"
    XOR = "^"
    SHL = "<<"
    SHR = ">>"
    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    LAND = "&&"
    LOR = "||"


COMPARISONS = {BinOp.EQ, BinOp.NE, BinOp.LT, BinOp.LE, BinOp.GT, BinOp.GE}
LOGICALS = {BinOp.LAND, BinOp.LOR}


@dataclass
class Binary(Expr):
    op: BinOp
    left: Expr
    right: Expr
    typ: Optional[Type] = None

    def __str__(self) -> str:
        return f"({self.left} {self.op.value} {self.right})"


class UnOp(enum.Enum):
    NEG = "-"
    BNOT = "~"
    LNOT = "!"


@dataclass
class Unary(Expr):
    op: UnOp
    operand: Expr
    typ: Optional[Type] = None

    def __str__(self) -> str:
        return f"{self.op.value}{self.operand}"


@dataclass
class Call(Expr):
    name: str
    args: List[Expr]
    typ: Optional[Type] = None

    def __str__(self) -> str:
        return f"{self.name}({', '.join(map(str, self.args))})"


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------

class Stmt:
    """Base class of statement nodes."""


@dataclass
class VarDecl(Stmt):
    name: str
    typ: Type
    init: Optional[Expr] = None
    #: source line (filled by the parser; None for synthesized nodes)
    line: Optional[int] = None

    def __str__(self) -> str:
        init = f" = {self.init}" if self.init is not None else ""
        return f"{self.typ} {self.name}{init};"


@dataclass
class Assign(Stmt):
    """``target op= value``; plain assignment has ``op is None``."""

    target: Expr
    value: Expr
    op: Optional[BinOp] = None
    line: Optional[int] = None

    def __str__(self) -> str:
        op = (self.op.value if self.op else "") + "="
        return f"{self.target} {op} {self.value};"


@dataclass
class If(Stmt):
    cond: Expr
    then_body: List[Stmt]
    else_body: List[Stmt] = field(default_factory=list)
    line: Optional[int] = None


@dataclass
class While(Stmt):
    cond: Expr
    body: List[Stmt]
    #: maximum iteration count, from an ``@bound(N)`` annotation; required
    #: for WCET analysis ("otherwise explicit timing constraints must be
    #: specified" — section 4).
    bound: Optional[int] = None
    line: Optional[int] = None


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None
    line: Optional[int] = None


@dataclass
class ExprStmt(Stmt):
    expr: Expr
    line: Optional[int] = None


# ---------------------------------------------------------------------------
# top-level declarations
# ---------------------------------------------------------------------------

@dataclass
class Param:
    name: str
    typ: Type


@dataclass
class Function:
    name: str
    params: List[Param]
    return_type: Type
    body: List[Stmt]
    #: explicit WCET override in cycles (used instead of analysis if set)
    wcet_override: Optional[int] = None
    line: Optional[int] = None


@dataclass
class GlobalVar:
    name: str
    typ: Type
    init: Optional[Expr] = None
    #: initializer list for structs/arrays, e.g. ``{Event,1,0700,Output}``
    init_list: Optional[List[Expr]] = None
    line: Optional[int] = None


@dataclass
class Program:
    """A complete intermediate-C translation unit."""

    enums: List[EnumType] = field(default_factory=list)
    structs: List[StructType] = field(default_factory=list)
    typedefs: List[Tuple[str, Type]] = field(default_factory=list)
    globals: List[GlobalVar] = field(default_factory=list)
    functions: List[Function] = field(default_factory=list)

    def function(self, name: str) -> Function:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(f"no function {name!r}")

    def global_var(self, name: str) -> GlobalVar:
        for g in self.globals:
            if g.name == name:
                return g
        raise KeyError(f"no global {name!r}")


def walk_expr(expr: Expr):
    """Yield *expr* and every sub-expression, preorder."""
    yield expr
    if isinstance(expr, Binary):
        yield from walk_expr(expr.left)
        yield from walk_expr(expr.right)
    elif isinstance(expr, Unary):
        yield from walk_expr(expr.operand)
    elif isinstance(expr, Call):
        for arg in expr.args:
            yield from walk_expr(arg)
    elif isinstance(expr, FieldAccess):
        yield from walk_expr(expr.base)
    elif isinstance(expr, Index):
        yield from walk_expr(expr.base)
        yield from walk_expr(expr.index)


def walk_stmts(stmts: Sequence[Stmt]):
    """Yield every statement in *stmts*, recursively, preorder."""
    for stmt in stmts:
        yield stmt
        if isinstance(stmt, If):
            yield from walk_stmts(stmt.then_body)
            yield from walk_stmts(stmt.else_body)
        elif isinstance(stmt, While):
            yield from walk_stmts(stmt.body)


def called_functions(function: Function) -> set:
    """Names of all functions called (directly) by *function*."""
    names = set()
    for stmt in walk_stmts(function.body):
        exprs: List[Expr] = []
        if isinstance(stmt, ExprStmt):
            exprs.append(stmt.expr)
        elif isinstance(stmt, Assign):
            exprs.extend([stmt.target, stmt.value])
        elif isinstance(stmt, VarDecl) and stmt.init is not None:
            exprs.append(stmt.init)
        elif isinstance(stmt, If):
            exprs.append(stmt.cond)
        elif isinstance(stmt, While):
            exprs.append(stmt.cond)
        elif isinstance(stmt, Return) and stmt.value is not None:
            exprs.append(stmt.value)
        for expr in exprs:
            for node in walk_expr(expr):
                if isinstance(node, Call):
                    names.add(node.name)
    return names
