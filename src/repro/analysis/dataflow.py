"""Intraprocedural dataflow lint for action routines (PSC310..PSC313).

Runs on a *checked* program, so every expression node carries its inferred
type; the analyses are deliberately conservative — each warning is a claim
that holds on every execution path the analysis can see:

* **PSC310 use-before-init** — definite-assignment analysis: a local read
  on some path before any assignment.  Branches of an ``if`` contribute the
  *intersection* of their assignments; a ``while`` body contributes nothing
  to the code after the loop (it may run zero times).
* **PSC311 dead store** — a store whose value can never be read: either
  overwritten by a later store with no intervening read (straight-line
  only; any branch/loop clears the tracking) or still pending when the
  function returns.  Globals, ports and conditions are never flagged —
  their values outlive the call.
* **PSC312 constant condition** — an ``if`` whose condition folds to a
  compile-time constant (one branch is dead), or a ``while`` whose
  condition folds to false (the body is dead).
* **PSC313 width truncation** — assigning a wider scalar value into a
  narrower target (``int:16`` into ``int:8``): the store silently drops
  high bits on the PSCP datapath.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.action.ast import (
    Assign,
    BoolLiteral,
    BoolType,
    EnumType,
    Expr,
    ExprStmt,
    FieldAccess,
    Function,
    If,
    Index,
    IntLiteral,
    IntType,
    NameRef,
    Return,
    Stmt,
    VarDecl,
    While,
    type_width,
    walk_expr,
)
from repro.action.check import CheckedProgram, fold_constant
from repro.analysis.diag import Collector, Diagnostic, SourceLocation


def action_dataflow(checked: CheckedProgram,
                    path: Optional[str] = None,
                    line_offset: int = 0) -> List[Diagnostic]:
    """All dataflow diagnostics for every function in *checked*."""
    out = Collector()
    for function in checked.program.functions:
        _FunctionDataflow(out, function, path, line_offset).run()
    return out.diagnostics


def _is_scalar(typ) -> bool:
    return isinstance(typ, (IntType, BoolType, EnumType))


class _FunctionDataflow:
    def __init__(self, out: Collector, function: Function,
                 path: Optional[str], line_offset: int) -> None:
        self.out = out
        self.function = function
        self.path = path
        self.line_offset = line_offset
        self.locals: Set[str] = set()
        #: local name -> (line of the store awaiting a read)
        self.pending_stores: Dict[str, Optional[int]] = {}
        self.reported_uninit: Set[str] = set()

    # -- plumbing ----------------------------------------------------------
    def location(self, line: Optional[int]) -> SourceLocation:
        if line is not None and self.line_offset and line > self.line_offset:
            line = line - self.line_offset
        return SourceLocation(file=self.path, line=line,
                              obj=f"function {self.function.name!r}")

    def run(self) -> None:
        assigned = {p.name for p in self.function.params}
        self.walk(self.function.body, assigned)
        for name, line in sorted(self.pending_stores.items(),
                                 key=lambda item: (item[1] or 0, item[0])):
            self.out.emit(
                "PSC311",
                f"value stored to local {name!r} is never read",
                location=self.location(line),
                hint="delete the store or use the value")

    # -- definite assignment + linear dead-store scan ----------------------
    def walk(self, stmts: List[Stmt], assigned: Set[str]) -> Set[str]:
        """Process a block; returns the definitely-assigned set after it."""
        for stmt in stmts:
            assigned = self.stmt(stmt, assigned)
        return assigned

    def stmt(self, stmt: Stmt, assigned: Set[str]) -> Set[str]:
        if isinstance(stmt, VarDecl):
            self.locals.add(stmt.name)
            if stmt.init is not None:
                self.check_reads(stmt.init, assigned, stmt.line)
                self.check_truncation(stmt.typ, stmt.init, stmt.line,
                                      f"initializer of {stmt.name!r}")
                self.note_store(stmt.name, stmt.line)
                return assigned | {stmt.name}
            return assigned
        if isinstance(stmt, Assign):
            if stmt.op is not None:
                # compound assignment reads the target first
                self.check_reads(stmt.target, assigned, stmt.line)
            self.check_reads(stmt.value, assigned, stmt.line)
            target = stmt.target
            if isinstance(target, (Index, FieldAccess)):
                # element store: index expressions are reads, but the base
                # object itself is being (partially) assigned, not read
                base = target
                while isinstance(base, (Index, FieldAccess)):
                    if isinstance(base, Index):
                        self.check_reads(base.index, assigned, stmt.line)
                    base = base.base
                if isinstance(base, NameRef):
                    self.pending_stores.pop(base.name, None)
                    return assigned | {base.name}
                self.check_reads(base, assigned, stmt.line)
                return assigned
            if isinstance(target, NameRef):
                if stmt.op is None and _is_scalar(getattr(target, "typ",
                                                          None)):
                    self.check_truncation(target.typ, stmt.value, stmt.line,
                                          f"assignment to {target.name!r}")
                self.note_store(target.name, stmt.line)
                return assigned | {target.name}
            return assigned
        if isinstance(stmt, If):
            self.check_reads(stmt.cond, assigned, stmt.line)
            value = fold_constant(stmt.cond)
            if value is not None:
                dead = "else" if value else "then"
                self.out.emit(
                    "PSC312",
                    f"condition {stmt.cond} is always "
                    f"{'true' if value else 'false'}; the {dead} branch "
                    "is dead",
                    location=self.location(stmt.line),
                    hint="remove the branch or make the condition depend "
                         "on runtime state")
            self.flush_stores()
            after_then = self.walk(stmt.then_body, set(assigned))
            self.flush_stores()
            after_else = self.walk(stmt.else_body, set(assigned))
            self.flush_stores()
            return after_then & after_else
        if isinstance(stmt, While):
            self.check_reads(stmt.cond, assigned, stmt.line)
            value = fold_constant(stmt.cond)
            if value == 0:
                self.out.emit(
                    "PSC312",
                    f"loop condition {stmt.cond} is always false; the "
                    "body is dead",
                    location=self.location(stmt.line),
                    hint="remove the loop or fix the condition")
            self.flush_stores()
            # the body may execute zero times: analyze it against a copy
            # of the assigned set, then discard its assignments
            body_assigned = self.walk(stmt.body, set(assigned))
            self.check_reads(stmt.cond, body_assigned, stmt.line)
            self.flush_stores()
            return assigned
        if isinstance(stmt, Return):
            if stmt.value is not None:
                self.check_reads(stmt.value, assigned, stmt.line)
            self.flush_stores()
            return assigned
        if isinstance(stmt, ExprStmt):
            self.check_reads(stmt.expr, assigned, stmt.line)
            return assigned
        return assigned

    # -- reads -------------------------------------------------------------
    def check_reads(self, expr: Expr, assigned: Set[str],
                    line: Optional[int]) -> None:
        for node in walk_expr(expr):
            if isinstance(node, NameRef):
                name = node.name
                self.pending_stores.pop(name, None)
                if (name in self.locals and name not in assigned
                        and name not in self.reported_uninit):
                    self.reported_uninit.add(name)
                    self.out.emit(
                        "PSC310",
                        f"local {name!r} may be read before it is "
                        "assigned",
                        location=self.location(line),
                        hint="initialize it at its declaration")

    # -- dead stores -------------------------------------------------------
    def note_store(self, name: str, line: Optional[int]) -> None:
        if name not in self.locals:
            return  # globals/ports outlive the call; never dead
        previous = self.pending_stores.get(name, _ABSENT)
        if previous is not _ABSENT:
            self.out.emit(
                "PSC311",
                f"value stored to local {name!r} is overwritten before "
                "it is read",
                location=self.location(previous),
                hint="delete the first store")
        self.pending_stores[name] = line

    def flush_stores(self) -> None:
        """Forget pending stores at a control-flow boundary — the scan is
        straight-line only, so branches/loops/returns end the region."""
        self.pending_stores.clear()

    def check_truncation(self, target_typ, value: Expr,
                         line: Optional[int], what: str) -> None:
        value_typ = getattr(value, "typ", None)
        if not (_is_scalar(target_typ) and _is_scalar(value_typ)):
            return
        if isinstance(value, (IntLiteral, BoolLiteral)):
            return  # literals get a minimal-width type already
        if type_width(value_typ) > type_width(target_typ):
            self.out.emit(
                "PSC313",
                f"{what}: {value_typ} value truncated to {target_typ}",
                location=self.location(line),
                hint="widen the target or mask the value explicitly")


_ABSENT = object()
