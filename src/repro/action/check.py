"""Semantic checks and type annotation for intermediate-C programs.

Responsibilities:

* build the symbol environment (globals, enum members, functions, plus the
  chart's events/conditions/ports injected as *externals*);
* annotate every expression node with its type (``Expr.typ``);
* enforce the dialect's restrictions:

  - **no recursion** — "functions can call other functions, but recursion is
    not permitted" (section 2); detected as any cycle in the call graph;
  - every called function or builtin exists, with the right argument count;
  - builtins naming events/conditions/ports get names of the right class;
  - assignment targets are scalar lvalues, not conditions or enum members;
  - fields and elements are a variable's, with at most one dynamic index
    per access and every constant index inside its array;
  - a data global's initializer is a constant expression;
  - every ``while`` loop has an ``@bound`` annotation or the enclosing
    function an ``@wcet`` override (otherwise WCET analysis would have no
    bound — the paper requires explicit timing constraints in that case).

The checker returns a :class:`CheckedProgram` carrying the environment that
code generation (:mod:`repro.isa.codegen`) consumes, and which it compiles
on every architecture.  :func:`fold_constant` is the one constant folder.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.action.ast import (
    ArrayType,
    Assign,
    Binary,
    BinOp,
    BoolLiteral,
    BoolType,
    Call,
    COMPARISONS,
    EnumType,
    Expr,
    FieldAccess,
    Function,
    If,
    Index,
    IntLiteral,
    IntType,
    LOGICALS,
    NameRef,
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
    called_functions,
    type_width,
)
from repro.action.stdlib import BUILTINS, is_builtin, is_directive
from repro.analysis.diag import Diagnostic, Severity, SourceLocation


class CheckError(Exception):
    """Every semantic problem found, joined; also as :attr:`diagnostics`."""

    def __init__(self, message: str, diagnostics: List[Diagnostic]) -> None:
        super().__init__(message)
        self.diagnostics = diagnostics


_UNARY = {UnOp.NEG: operator.neg, UnOp.BNOT: operator.invert,
          UnOp.LNOT: operator.not_}
#: C's / and % truncate toward zero
_BINARY = {
    BinOp.ADD: operator.add, BinOp.SUB: operator.sub, BinOp.MUL: operator.mul,
    BinOp.DIV: lambda a, b: abs(a) // abs(b) * (-1 if (a < 0) != (b < 0)
                                                 else 1),
    BinOp.MOD: lambda a, b: abs(a) % abs(b) * (-1 if a < 0 else 1),
    BinOp.AND: operator.and_, BinOp.OR: operator.or_, BinOp.XOR: operator.xor,
    BinOp.SHL: operator.lshift, BinOp.SHR: operator.rshift,
    BinOp.EQ: operator.eq, BinOp.NE: operator.ne, BinOp.LT: operator.lt,
    BinOp.LE: operator.le, BinOp.GT: operator.gt, BinOp.GE: operator.ge,
    BinOp.LAND: lambda a, b: bool(a and b),
    BinOp.LOR: lambda a, b: bool(a or b),
}


def fold_constant(expr: Expr,
                  names: Mapping[str, Optional[int]] = MappingProxyType({})
                  ) -> Optional[int]:
    """*expr*'s value as a C constant over literals, the enum members the
    checker resolved names to (:attr:`NameRef.member`) and any other name's
    value in *names* (bools as 0/1; ``0 && x`` is 0, ``1 || x`` is 1), or
    ``None``; a division by zero or a shift by a negative count or by 64
    bits or more is not constant.  Never raises."""
    if isinstance(expr, (IntLiteral, BoolLiteral)):
        return int(expr.value)
    if isinstance(expr, NameRef):
        return (expr.member if expr.member is not None
                else names.get(expr.name))
    if isinstance(expr, Unary):
        value = fold_constant(expr.operand, names)
        return None if value is None else int(_UNARY[expr.op](value))
    if isinstance(expr, Binary):
        left = fold_constant(expr.left, names)
        if expr.op is BinOp.LAND and left == 0:
            return 0
        if expr.op is BinOp.LOR and left not in (None, 0):
            return 1
        right = fold_constant(expr.right, names)
        if (left is None or right is None
                or expr.op in (BinOp.DIV, BinOp.MOD) and right == 0
                or expr.op in (BinOp.SHL, BinOp.SHR) and not 0 <= right < 64):
            return None
        return int(_BINARY[expr.op](left, right))
    return None


@dataclass
class Externals:
    """Names the chart contributes to the routine environment."""

    events: Set[str] = field(default_factory=set)
    conditions: Set[str] = field(default_factory=set)
    ports: Set[str] = field(default_factory=set)

    @classmethod
    def from_chart(cls, chart) -> "Externals":
        return cls(events=set(chart.events),
                   conditions=set(chart.conditions),
                   ports=set(chart.ports))


@dataclass
class CheckedProgram:
    """A type-annotated program plus its resolved environment."""

    program: Program
    externals: Externals
    global_types: Dict[str, Type]
    #: topological order of the call graph (callees before callers)
    call_order: List[str]
    #: each data global's initializer, folded (None without one)
    initial_values: Dict[str, Optional[int]]

    def function(self, name: str) -> Function:
        return self.program.function(name)

    def enum_values(self) -> Dict[str, int]:
        """Each enum member's value (enum members are global constants)."""
        return {name: typ.value_of(name)
                for name, typ in self.global_types.items()
                if isinstance(typ, EnumType) and name in typ.members}


class _ExprChecker:
    """Types expressions in scopes over the globals."""

    def __init__(self, checker: "Checker", owner: str, obj: str,
                 line: Optional[int]) -> None:
        self.checker = checker
        self.owner = owner  # message prefix
        self.obj = obj
        self.scopes: List[Dict[str, Type]] = [dict()]
        #: line of the statement currently being checked, for diagnostics
        self.current_line = line

    def error(self, message: str) -> None:
        self.checker.error(message, line=self.current_line, obj=self.obj)

    def lookup(self, name: str) -> Optional[Type]:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return self.checker.global_types.get(name)

    # -- expressions ------------------------------------------------------------
    def check_expr(self, expr: Expr) -> Type:
        typ = self._infer(expr)
        expr.typ = typ
        return typ

    def _infer(self, expr: Expr) -> Type:
        fname = self.owner
        error = self.error
        if isinstance(expr, IntLiteral):
            width = max(1, abs(expr.value).bit_length())
            return IntType(max(width, 1), signed=expr.value < 0)
        if isinstance(expr, BoolLiteral):
            return BoolType()
        if isinstance(expr, NameRef):
            expr.member = (None if any(expr.name in s for s in self.scopes)
                           else self.checker.enum_values.get(expr.name))
            typ = self.lookup(expr.name)
            if typ is not None:
                return typ
            externals = self.checker.externals
            if expr.name in externals.conditions:
                return BoolType()
            if expr.name in externals.ports:
                return IntType(8, signed=False)
            if expr.name in externals.events:
                error(f"{fname}: event {expr.name!r} used as a value "
                      "(use Raise(...) to emit it)")
                return BoolType()
            error(f"{fname}: unknown name {expr.name!r}")
            return IntType(16)
        if isinstance(expr, FieldAccess):
            base = self.check_expr(expr.base)
            if isinstance(base, StructType):
                self._check_access_base(expr)
                try:
                    return base.field_type(expr.field)
                except KeyError:
                    error(f"{fname}: {base} has no field {expr.field!r}")
                    return IntType(16)
            error(f"{fname}: field access on non-struct {base}")
            return IntType(16)
        if isinstance(expr, Index):
            base = self.check_expr(expr.base)
            self.check_expr(expr.index)
            if not isinstance(base, ArrayType):
                error(f"{fname}: indexing non-array {base}")
                return IntType(16)
            self._check_access_base(expr)
            index = fold_constant(expr.index)
            if index is None and self._dynamic_index_in(expr.base):
                error(f"{fname}: {expr} has more than one dynamic index "
                      "(at most one per access)")
            elif index is not None and not 0 <= index < base.length:
                error(f"{fname}: index {index} is out of range for "
                      f"{expr.base} (length {base.length})")
            return base.element
        if isinstance(expr, Unary):
            operand = self.scalar(expr.operand, f"unary {expr.op.value}")
            if operand is None:
                return IntType(16)
            return BoolType() if expr.op is UnOp.LNOT else operand
        if isinstance(expr, Binary):
            what = f"operator {expr.op.value}"
            left = self.scalar(expr.left, what)
            right = self.scalar(expr.right, what)
            if left is None or right is None:
                return IntType(16)
            if expr.op in COMPARISONS or expr.op in LOGICALS:
                return BoolType()
            width = max(type_width(left), type_width(right))
            signed = (getattr(left, "signed", False)
                      or getattr(right, "signed", False))
            return IntType(min(width, 64), signed=signed)
        if isinstance(expr, Call):
            return self._infer_call(expr)
        error(f"{fname}: unknown expression {expr!r}")
        return IntType(16)

    def scalar(self, expr: Expr, what: str) -> Optional[Type]:
        """*expr*'s type; None, reported, for a struct, array or void."""
        typ = self.check_expr(expr)
        if not isinstance(typ, (StructType, ArrayType, VoidType)):
            return typ
        self.error(f"{self.owner}: {what} on {typ}")
        return None

    def _check_access_base(self, expr) -> None:
        # fields and elements are read and written in place
        if not isinstance(expr.base, (NameRef, FieldAccess, Index)):
            self.error(f"{self.owner}: {expr}: only a variable's fields and "
                       "elements can be accessed")

    def _dynamic_index_in(self, expr: Expr) -> bool:
        while isinstance(expr, (FieldAccess, Index)):
            if (isinstance(expr, Index)
                    and fold_constant(expr.index) is None):
                return True
            expr = expr.base
        return False

    def _infer_call(self, call: Call) -> Type:
        fname = self.owner
        error = self.error
        externals = self.checker.externals
        if is_builtin(call.name):
            kinds, return_type = BUILTINS[call.name]
            if len(call.args) != len(kinds):
                error(f"{fname}: {call.name} expects {len(kinds)} argument(s),"
                      f" got {len(call.args)}")
                return return_type
            for kind, arg in zip(kinds, call.args):
                if kind == "value":
                    self.check_expr(arg)
                    continue
                if not isinstance(arg, NameRef):
                    error(f"{fname}: {call.name} needs a bare {kind} name")
                    continue
                pool = {"event": externals.events,
                        "condition": externals.conditions,
                        "port": externals.ports}[kind]
                if arg.name not in pool:
                    error(f"{fname}: {call.name}: {arg.name!r} is not a "
                          f"declared {kind}")
                arg.typ = BoolType() if kind != "port" else IntType(8, False)
            return return_type
        try:
            callee = self.checker.program.function(call.name)
        except KeyError:
            error(f"{fname}: call to undefined function {call.name!r}")
            for arg in call.args:
                self.check_expr(arg)
            return IntType(16)
        if len(call.args) != len(callee.params):
            error(f"{fname}: {call.name} expects {len(callee.params)} "
                  f"argument(s), got {len(call.args)}")
        for arg in call.args:
            self.check_expr(arg)
        return callee.return_type


class _FunctionChecker(_ExprChecker):
    def __init__(self, checker: "Checker", function: Function) -> None:
        super().__init__(checker, function.name,
                         f"function {function.name!r}", function.line)
        self.function = function
        for param in function.params:
            self.scopes[0][param.name] = param.typ

    def declare(self, name: str, typ: Type) -> None:
        if name in self.scopes[-1]:
            self.error(f"{self.function.name}: redeclaration of {name!r}")
        self.scopes[-1][name] = typ

    # -- statements -----------------------------------------------------------
    def check_body(self, body: List[Stmt]) -> None:
        self.scopes.append({})
        for stmt in body:
            self.check_stmt(stmt)
        self.scopes.pop()

    def check_stmt(self, stmt: Stmt) -> None:
        fname = self.function.name
        if getattr(stmt, "line", None) is not None:
            self.current_line = stmt.line
        if isinstance(stmt, VarDecl):
            if stmt.init is not None:
                self.check_expr(stmt.init)
            self.declare(stmt.name, stmt.typ)
        elif isinstance(stmt, Assign):
            target_type = self.check_expr(stmt.target)
            self.check_expr(stmt.value)
            if isinstance(target_type, (StructType, ArrayType)):
                self.error(
                    f"{fname}: cannot assign whole {target_type}")
            elif isinstance(stmt.target, NameRef):
                name = stmt.target.name
                if (name in self.checker.enum_values
                        and not any(name in s for s in self.scopes)):
                    self.error(f"{fname}: cannot assign to enum member "
                               f"{name!r}")
                elif (self.lookup(name) is None
                      and name in self.checker.externals.conditions):
                    self.error(f"{fname}: cannot assign to condition "
                               f"{name!r} (use SetTrue/SetFalse)")
        elif isinstance(stmt, If):
            self.scalar(stmt.cond, "condition")
            self.check_body(stmt.then_body)
            self.check_body(stmt.else_body)
        elif isinstance(stmt, While):
            self.scalar(stmt.cond, "condition")
            if stmt.bound is None and self.function.wcet_override is None:
                self.error(
                    f"{fname}: while loop needs @bound(N) (or the function "
                    "an @wcet override) for timing analysis")
            if stmt.bound is not None and stmt.bound <= 0:
                self.error(f"{fname}: @bound must be positive")
            self.check_body(stmt.body)
        elif isinstance(stmt, Return):
            if stmt.value is not None:
                self.check_expr(stmt.value)
                if isinstance(self.function.return_type, VoidType):
                    self.error(
                        f"{fname}: returning a value from a void function")
            elif not isinstance(self.function.return_type, VoidType):
                self.error(f"{fname}: missing return value")
        else:  # ExprStmt, the parser's sixth statement
            self.check_expr(stmt.expr)


class Checker:
    def __init__(self, program: Program,
                 externals: Optional[Externals] = None) -> None:
        self.program = program
        self.externals = externals or Externals()
        #: every problem found, coded and located (line numbers threaded
        #: from the parser)
        self.diagnostics: List[Diagnostic] = []
        self.global_types: Dict[str, Type] = {}
        self.enum_values: Dict[str, int] = {}

    def error(self, message: str, *, line: Optional[int] = None,
              code: str = "PSC302", obj: str = "") -> None:
        self.diagnostics.append(Diagnostic(
            code=code, severity=Severity.ERROR, message=message,
            location=SourceLocation(line=line, obj=obj)))

    def analyze(self) -> CheckedProgram:
        """Check everything, collecting problems instead of raising.

        Every error is accumulated in :attr:`diagnostics` (coded, located)
        so callers can report all of them together.  The returned program
        is only trustworthy when no problems were found.
        """
        # enum members are global constants, and C forbids declaring one
        # in two enums.  Every enum is declared in ``program.enums`` (the
        # preamble's too); typedefs and struct fields only name them.
        for enum_type in self.program.enums:
            for member in enum_type.members:
                first = self.global_types.setdefault(member, enum_type)
                if first is not enum_type:
                    self.error(f"enum member {member!r} is declared in "
                               f"enum {first.name} and again in enum "
                               f"{enum_type.name}")
        # so far global_types holds the enum members only
        self.enum_values = {name: typ.value_of(name)
                            for name, typ in self.global_types.items()}
        declared = set(self.global_types)
        for gvar in self.program.globals:
            if gvar.name in declared:
                self.error(f"duplicate global {gvar.name!r}", line=gvar.line)
            declared.add(gvar.name)
        # a Port/EventCondition global directs the hardware generator: it
        # is not data, so no routine reads or writes it by name
        data = [g for g in self.program.globals if not is_directive(g.typ)]
        self.global_types.update((g.name, g.typ) for g in data)
        initial_values = {g.name: self._initial_value(g) for g in data}

        seen_functions: Set[str] = set()
        for function in self.program.functions:
            if function.name in seen_functions:
                self.error(f"duplicate function {function.name!r}")
            seen_functions.add(function.name)

        for function in self.program.functions:
            checker = _FunctionChecker(self, function)
            checker.check_body(function.body)

        call_order = self._check_recursion()

        return CheckedProgram(self.program, self.externals,
                              self.global_types, call_order, initial_values)

    def _initial_value(self, gvar) -> Optional[int]:
        """A data global's initializer, typed and folded."""
        where = f"global {gvar.name!r}"
        scope = _ExprChecker(self, where, where, gvar.line)
        if gvar.init_list is not None:
            scope.error(f"{where}: an initializer list is read only on a "
                        "Port or EventCondition directive, not on data")
        if gvar.init is None:
            return None
        problems = len(self.diagnostics)
        scope.check_expr(gvar.init)
        value = fold_constant(gvar.init)
        if value is None and len(self.diagnostics) == problems:
            scope.error(f"{where}: initializer {gvar.init} is not a constant "
                        "expression")
        return value

    def run(self) -> CheckedProgram:
        """:meth:`analyze`, raising :class:`CheckError` on any problem."""
        return self._raise_problems(self.analyze())

    def extend(self, base: CheckedProgram) -> CheckedProgram:
        """:meth:`run` for a :attr:`program` whose functions are *base*'s
        followed by new ones, over the same globals: only the new functions
        are checked, and the call order is recomputed.  The result equals
        :meth:`run`'s (the same functions, ``global_types`` and
        ``call_order``) without re-checking *base*."""
        self.global_types = dict(base.global_types)
        self.enum_values = base.enum_values()
        known = len(base.program.functions)
        names = {f.name for f in self.program.functions[:known]}
        for function in self.program.functions[known:]:
            if function.name in names:
                self.error(f"duplicate function {function.name!r}")
            names.add(function.name)
            _FunctionChecker(self, function).check_body(function.body)
        return self._raise_problems(CheckedProgram(
            self.program, self.externals, self.global_types,
            self._check_recursion(), base.initial_values))

    def _raise_problems(self, checked: CheckedProgram) -> CheckedProgram:
        if self.diagnostics:
            raise CheckError(
                "action program is not well-formed:\n  " +
                "\n  ".join(d.message for d in self.diagnostics),
                self.diagnostics)
        return checked

    def _check_recursion(self) -> List[str]:
        """Reject call cycles; return callees-first topological order."""
        graph = {f.name: sorted(called_functions(f) & {
            g.name for g in self.program.functions})
            for f in self.program.functions}
        order: List[str] = []
        state: Dict[str, int] = {}  # 0 = visiting, 1 = done

        def visit(name: str, stack: Tuple[str, ...]) -> None:
            if state.get(name) == 1:
                return
            if state.get(name) == 0:
                cycle = " -> ".join(stack[stack.index(name):] + (name,))
                self.error(f"recursion is not permitted: {cycle}",
                           code="PSC303",
                           line=self.program.function(name).line,
                           obj=f"function {name!r}")
                return
            state[name] = 0
            for callee in graph.get(name, ()):
                visit(callee, stack + (name,))
            state[name] = 1
            order.append(name)

        for name in graph:
            visit(name, ())
        return order


def check_program(program: Program,
                  externals: Optional[Externals] = None) -> CheckedProgram:
    """Check *program*; raises :class:`CheckError` listing every problem."""
    return Checker(program, externals).run()
