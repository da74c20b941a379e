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
  - assignment targets are lvalues of scalar type;
  - every ``while`` loop has an ``@bound`` annotation or the enclosing
    function an ``@wcet`` override (otherwise WCET analysis would have no
    bound — the paper requires explicit timing constraints in that case).

The checker returns a :class:`CheckedProgram` carrying the environment that
code generation (:mod:`repro.isa.codegen`) consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.action.ast import (
    ArrayType,
    Assign,
    Binary,
    BoolLiteral,
    BoolType,
    Call,
    COMPARISONS,
    EnumType,
    Expr,
    ExprStmt,
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
from repro.action.stdlib import BUILTINS, is_builtin
from repro.analysis.diag import Diagnostic, Severity, SourceLocation


class CheckError(Exception):
    """Raised with every semantic problem found, joined together."""


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

    def function(self, name: str) -> Function:
        return self.program.function(name)

    def enum_values(self) -> Dict[str, int]:
        """Each enum member's value (enum members are global constants)."""
        return {name: typ.value_of(name)
                for name, typ in self.global_types.items()
                if isinstance(typ, EnumType) and name in typ.members}


class _FunctionChecker:
    def __init__(self, checker: "Checker", function: Function) -> None:
        self.checker = checker
        self.function = function
        self.scopes: List[Dict[str, Type]] = [dict()]
        #: line of the statement currently being checked, for diagnostics
        self.current_line: Optional[int] = function.line
        for param in function.params:
            self.scopes[0][param.name] = param.typ

    def error(self, message: str) -> None:
        self.checker.error(message, line=self.current_line,
                           obj=f"function {self.function.name!r}")

    # -- scope helpers -------------------------------------------------------
    def lookup(self, name: str) -> Optional[Type]:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return self.checker.global_types.get(name)

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
            if not isinstance(stmt.target, (NameRef, FieldAccess, Index)):
                self.error(f"{fname}: assignment to non-lvalue")
            elif isinstance(target_type, (StructType, ArrayType)):
                self.error(
                    f"{fname}: cannot assign whole {target_type}")
            elif (isinstance(stmt.target, NameRef)
                  and self.lookup(stmt.target.name) is None):
                pass  # already reported by check_expr
        elif isinstance(stmt, If):
            self.check_expr(stmt.cond)
            self.check_body(stmt.then_body)
            self.check_body(stmt.else_body)
        elif isinstance(stmt, While):
            self.check_expr(stmt.cond)
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
        elif isinstance(stmt, ExprStmt):
            self.check_expr(stmt.expr)
        else:  # pragma: no cover - parser produces no other nodes
            self.error(f"{fname}: unknown statement {stmt!r}")

    # -- expressions ------------------------------------------------------------
    def check_expr(self, expr: Expr) -> Type:
        typ = self._infer(expr)
        expr.typ = typ
        return typ

    def _infer(self, expr: Expr) -> Type:
        fname = self.function.name
        error = self.error
        if isinstance(expr, IntLiteral):
            width = max(1, abs(expr.value).bit_length())
            return IntType(max(width, 1), signed=expr.value < 0)
        if isinstance(expr, BoolLiteral):
            return BoolType()
        if isinstance(expr, NameRef):
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
            if isinstance(base, ArrayType):
                return base.element
            error(f"{fname}: indexing non-array {base}")
            return IntType(16)
        if isinstance(expr, Unary):
            operand = self.check_expr(expr.operand)
            if expr.op is UnOp.LNOT:
                return BoolType()
            if isinstance(operand, (StructType, ArrayType, VoidType)):
                error(f"{fname}: unary {expr.op.value} on {operand}")
                return IntType(16)
            return operand
        if isinstance(expr, Binary):
            left = self.check_expr(expr.left)
            right = self.check_expr(expr.right)
            if expr.op in COMPARISONS or expr.op in LOGICALS:
                return BoolType()
            for side in (left, right):
                if isinstance(side, (StructType, ArrayType, VoidType)):
                    error(f"{fname}: operator {expr.op.value} on {side}")
                    return IntType(16)
            width = max(type_width(left), type_width(right))
            signed = (getattr(left, "signed", False)
                      or getattr(right, "signed", False))
            return IntType(min(width, 64), signed=signed)
        if isinstance(expr, Call):
            return self._infer_call(expr)
        error(f"{fname}: unknown expression {expr!r}")
        return IntType(16)

    def _infer_call(self, call: Call) -> Type:
        fname = self.function.name
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


class Checker:
    def __init__(self, program: Program,
                 externals: Optional[Externals] = None) -> None:
        self.program = program
        self.externals = externals or Externals()
        self.problems: List[str] = []
        #: structured form of ``problems``: same messages plus stable codes
        #: and source locations (line numbers threaded from the parser)
        self.diagnostics: List[Diagnostic] = []
        self.global_types: Dict[str, Type] = {}

    def error(self, message: str, *, line: Optional[int] = None,
              code: str = "PSC302", obj: str = "") -> None:
        self.problems.append(message)
        self.diagnostics.append(Diagnostic(
            code=code, severity=Severity.ERROR, message=message,
            location=SourceLocation(line=line, obj=obj)))

    def analyze(self) -> CheckedProgram:
        """Check everything, collecting problems instead of raising.

        Every error is accumulated in :attr:`problems` (message strings)
        and :attr:`diagnostics` (coded, located) so callers can report all
        of them together.  The returned program is only trustworthy when
        no problems were found.
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
        for gvar in self.program.globals:
            if gvar.name in self.global_types:
                self.error(f"duplicate global {gvar.name!r}")
            self.global_types[gvar.name] = gvar.typ

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
                              self.global_types, call_order)

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
        known = len(base.program.functions)
        names = {f.name for f in self.program.functions[:known]}
        for function in self.program.functions[known:]:
            if function.name in names:
                self.error(f"duplicate function {function.name!r}")
            names.add(function.name)
            _FunctionChecker(self, function).check_body(function.body)
        return self._raise_problems(CheckedProgram(
            self.program, self.externals, self.global_types,
            self._check_recursion()))

    def _raise_problems(self, checked: CheckedProgram) -> CheckedProgram:
        if self.problems:
            raise CheckError(
                "action program is not well-formed:\n  " +
                "\n  ".join(self.problems))
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
