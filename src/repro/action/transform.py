"""AST transforms: cloning and constant-argument specialization.

Transition labels call their routines with *constant* arguments — enum
members like ``DeltaT(MX)`` (Fig. 5).  The code generator's improvement step
can therefore clone a routine per distinct constant-argument tuple and fold
the constants in, which turns dynamic array indexing (``velocity[m]``) into
static addressing (``velocity[2]``) — one of the "refinements of the code
generation process" the paper's flow applies when timing violations persist.

The transform is purely at the AST level: :func:`specialize_call` produces a
new parameterless :class:`~repro.action.ast.Function`; the flow rewrites the
transition's action text to call the clone.
"""

from __future__ import annotations

import copy
from typing import Dict, Sequence

from repro.action.ast import (
    Assign,
    Binary,
    BoolLiteral,
    Call,
    Expr,
    ExprStmt,
    FieldAccess,
    Function,
    If,
    Index,
    IntLiteral,
    NameRef,
    Return,
    Stmt,
    Unary,
    VarDecl,
    While,
)


class TransformError(Exception):
    """Raised when a requested specialization is impossible."""


def _clone_expr(expr: Expr, substitution: Dict[str, int]) -> Expr:
    if isinstance(expr, IntLiteral):
        return IntLiteral(expr.value, expr.base)
    if isinstance(expr, BoolLiteral):
        return BoolLiteral(expr.value)
    if isinstance(expr, NameRef):
        if expr.name in substitution:
            return IntLiteral(substitution[expr.name])
        return NameRef(expr.name)
    if isinstance(expr, FieldAccess):
        return FieldAccess(_clone_expr(expr.base, substitution), expr.field)
    if isinstance(expr, Index):
        return Index(_clone_expr(expr.base, substitution),
                     _clone_expr(expr.index, substitution))
    if isinstance(expr, Unary):
        return Unary(expr.op, _clone_expr(expr.operand, substitution))
    if isinstance(expr, Binary):
        return Binary(expr.op, _clone_expr(expr.left, substitution),
                      _clone_expr(expr.right, substitution))
    if isinstance(expr, Call):
        return Call(expr.name,
                    [_clone_expr(a, substitution) for a in expr.args])
    raise TransformError(f"cannot clone expression {expr!r}")


def _clone_stmt(stmt: Stmt, substitution: Dict[str, int]) -> Stmt:
    if isinstance(stmt, VarDecl):
        init = (_clone_expr(stmt.init, substitution)
                if stmt.init is not None else None)
        return VarDecl(stmt.name, stmt.typ, init)
    if isinstance(stmt, Assign):
        target = _clone_expr(stmt.target, substitution)
        if isinstance(stmt.target, NameRef) and stmt.target.name in substitution:
            raise TransformError(
                f"cannot specialize: parameter {stmt.target.name!r} is "
                "assigned inside the routine")
        return Assign(target, _clone_expr(stmt.value, substitution), stmt.op)
    if isinstance(stmt, If):
        return If(_clone_expr(stmt.cond, substitution),
                  [_clone_stmt(s, substitution) for s in stmt.then_body],
                  [_clone_stmt(s, substitution) for s in stmt.else_body])
    if isinstance(stmt, While):
        return While(_clone_expr(stmt.cond, substitution),
                     [_clone_stmt(s, substitution) for s in stmt.body],
                     bound=stmt.bound)
    if isinstance(stmt, Return):
        value = (_clone_expr(stmt.value, substitution)
                 if stmt.value is not None else None)
        return Return(value)
    if isinstance(stmt, ExprStmt):
        return ExprStmt(_clone_expr(stmt.expr, substitution))
    raise TransformError(f"cannot clone statement {stmt!r}")


def parameter_is_assigned(function: Function, name: str) -> bool:
    from repro.action.ast import walk_stmts

    for stmt in walk_stmts(function.body):
        if isinstance(stmt, Assign) and isinstance(stmt.target, NameRef):
            if stmt.target.name == name:
                return True
    return False


def specialize_call(function: Function, argument_values: Sequence[int],
                    clone_name: str) -> Function:
    """A parameterless clone of *function* with arguments folded in.

    Raises :class:`TransformError` when a parameter is reassigned inside the
    body (folding would change semantics).
    """
    if len(argument_values) != len(function.params):
        raise TransformError(
            f"{function.name} takes {len(function.params)} parameter(s), "
            f"got {len(argument_values)} value(s)")
    for param in function.params:
        if parameter_is_assigned(function, param.name):
            raise TransformError(
                f"{function.name}: parameter {param.name!r} is assigned; "
                "cannot fold")
    substitution = {param.name: value
                    for param, value in zip(function.params, argument_values)}
    body = [_clone_stmt(stmt, substitution) for stmt in function.body]
    return Function(clone_name, [], function.return_type, body,
                    wcet_override=function.wcet_override)


def clone_function(function: Function, new_name: str) -> Function:
    """A plain structural copy under a new name."""
    body = [_clone_stmt(stmt, {}) for stmt in function.body]
    return Function(new_name, copy.deepcopy(function.params),
                    function.return_type, body,
                    wcet_override=function.wcet_override)
