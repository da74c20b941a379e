"""Action effect analysis: what a transition's routine reads and writes.

The race pass (PSC203) needs to know, per transition, which globals, ports
and conditions its action may touch within one configuration cycle.  This
module computes a conservative :class:`Effects` summary from the checked
intermediate-C program, transitively through calls, and — crucially for
precision — *context-sensitively through constant arguments*: the SMD chart
calls ``DeltaT(MX)`` and ``DeltaT(MY)`` from parallel regions, and binding
the constant motor index resolves the writes to ``velocity[0]`` versus
``velocity[1]``, which do not race.

Storage keys
------------

* scalar global ``g`` -> ``"g"``
* array element with a known index -> ``"a[3]"``; unknown index -> ``"a[*]"``
* struct field -> ``"s.f"``; whole-object access -> the bare name
* port ``P`` (assigned directly or via ``WritePort``) -> ``"port:P"``

Conditions and raised events are tracked separately: ``SetTrue``/``SetFalse``
carry the written value, so two parallel ``SetTrue(C)`` calls are idempotent
and do not race, while a ``SetTrue``/``SetFalse`` pair does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.action.ast import (
    Assign,
    Call,
    Expr,
    ExprStmt,
    FieldAccess,
    Function,
    If,
    Index,
    NameRef,
    Return,
    Stmt,
    VarDecl,
    While,
    walk_expr,
)
from repro.action.check import CheckedProgram, fold_constant
from repro.action.stdlib import is_builtin
from repro.statechart.labels import ActionCall, constant_argument
from repro.statechart.model import Chart

#: value a parameter is bound to at a call site: a known int or unknown
Binding = Dict[str, Optional[int]]


@dataclass(frozen=True)
class Effects:
    """Conservative read/write summary of one action invocation."""

    reads: FrozenSet[str] = frozenset()
    writes: FrozenSet[str] = frozenset()
    #: (condition name, value) — value None when not statically known
    cond_writes: FrozenSet[Tuple[str, Optional[bool]]] = frozenset()
    raises: FrozenSet[str] = frozenset()

    def merge(self, other: "Effects") -> "Effects":
        return Effects(self.reads | other.reads,
                       self.writes | other.writes,
                       self.cond_writes | other.cond_writes,
                       self.raises | other.raises)


def _base_name(key: str) -> str:
    return key.split("[", 1)[0].split(".", 1)[0]


def _keys_overlap(a: str, b: str) -> bool:
    """Do two storage keys possibly denote the same storage?"""
    if a == b:
        return True
    if _base_name(a) != _base_name(b):
        return False
    # same base object: distinct constant element/field keys are disjoint,
    # anything involving an unknown index or the whole object overlaps
    if "[*]" in a or "[*]" in b:
        return True
    if a == _base_name(a) or b == _base_name(b):
        return True  # whole-object access vs element access
    return False


def write_conflicts(a: Effects, b: Effects) -> List[str]:
    """Human-readable names of storage both effect sets may write."""
    clashes: Set[str] = set()
    for key_a in a.writes:
        for key_b in b.writes:
            if _keys_overlap(key_a, key_b):
                clashes.add(key_a if len(key_a) >= len(key_b) else key_b)
    for name_a, value_a in a.cond_writes:
        for name_b, value_b in b.cond_writes:
            if name_a != name_b:
                continue
            if value_a is not None and value_a == value_b:
                continue  # both write the same truth value: idempotent
            clashes.add(f"condition {name_a}")
    return sorted(
        key if key.startswith(("port:", "condition "))
        else key for key in clashes)


class EffectAnalyzer:
    """Computes per-function and per-transition effect summaries."""

    def __init__(self, checked: CheckedProgram) -> None:
        self.checked = checked
        self.program = checked.program
        self.globals = set(checked.global_types)
        self.enum_values = checked.enum_values()
        self._memo: Dict[Tuple[str, Tuple[Tuple[str, Optional[int]], ...]],
                         Effects] = {}

    # -- entry points ------------------------------------------------------
    def action_effects(self, call: ActionCall) -> Effects:
        """Effects of a transition's parsed call like ``DeltaT(MX)``."""
        if is_builtin(call.routine):
            return self._builtin_effects(call.routine, list(call.arguments))
        try:
            function = self.program.function(call.routine)
        except KeyError:
            return Effects()
        binding: Binding = {}
        for param, argument in zip(function.params, call.arguments):
            binding[param.name] = constant_argument(argument,
                                                    self.enum_values)
        return self.function_effects(function, binding)

    def function_effects(self, function: Function,
                         binding: Optional[Binding] = None) -> Effects:
        binding = binding or {}
        used = tuple(sorted((k, v) for k, v in binding.items()
                            if v is not None))
        key = (function.name, used)
        if key in self._memo:
            return self._memo[key]
        # seed the memo to cut off (already rejected) recursion safely
        self._memo[key] = Effects()
        collector = _Collector(self, function, binding)
        collector.walk(function.body)
        effects = collector.result()
        self._memo[key] = effects
        return effects

    # -- helpers -----------------------------------------------------------
    def constant_of(self, expr: Expr, binding: Binding) -> Optional[int]:
        return fold_constant(expr, binding)

    def _builtin_effects(self, name: str, arguments: List[str]) -> Effects:
        target = arguments[0].strip() if arguments else "?"
        if name == "Raise":
            return Effects(raises=frozenset({target}))
        if name == "SetTrue":
            return Effects(cond_writes=frozenset({(target, True)}))
        if name == "SetFalse":
            return Effects(cond_writes=frozenset({(target, False)}))
        if name == "WritePort":
            return Effects(writes=frozenset({f"port:{target}"}))
        if name in ("ReadPort", "Test"):
            return Effects(reads=frozenset({target}))
        return Effects()


class _Collector:
    """Walks one function body under a parameter binding."""

    def __init__(self, analyzer: EffectAnalyzer, function: Function,
                 binding: Binding) -> None:
        self.analyzer = analyzer
        self.function = function
        self.binding = binding
        self.locals: Set[str] = {p.name for p in function.params}
        self.reads: Set[str] = set()
        self.writes: Set[str] = set()
        self.cond_writes: Set[Tuple[str, Optional[bool]]] = set()
        self.raises: Set[str] = set()

    def result(self) -> Effects:
        return Effects(frozenset(self.reads), frozenset(self.writes),
                       frozenset(self.cond_writes), frozenset(self.raises))

    # -- statements --------------------------------------------------------
    def walk(self, stmts) -> None:
        for stmt in stmts:
            self.stmt(stmt)

    def stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, VarDecl):
            self.locals.add(stmt.name)
            if stmt.init is not None:
                self.expr(stmt.init)
        elif isinstance(stmt, Assign):
            self.expr(stmt.value)
            self.assign_target(stmt.target)
        elif isinstance(stmt, If):
            self.expr(stmt.cond)
            self.walk(stmt.then_body)
            self.walk(stmt.else_body)
        elif isinstance(stmt, While):
            self.expr(stmt.cond)
            self.walk(stmt.body)
        elif isinstance(stmt, Return):
            if stmt.value is not None:
                self.expr(stmt.value)
        elif isinstance(stmt, ExprStmt):
            self.expr(stmt.expr)

    def assign_target(self, target: Expr) -> None:
        key = self.storage_key(target)
        if key is not None:
            self.writes.add(key)
        # index expressions of the target are reads
        if isinstance(target, Index):
            self.expr(target.index)
            if self.storage_key(target.base) is None:
                self.expr(target.base)
        elif isinstance(target, FieldAccess):
            if self.storage_key(target.base) is None:
                self.expr(target.base)

    def storage_key(self, target: Expr) -> Optional[str]:
        """Canonical write key for an lvalue, or None for locals."""
        if isinstance(target, NameRef):
            if target.name in self.locals:
                return None
            if target.name in self.analyzer.checked.externals.ports:
                return f"port:{target.name}"
            if target.name in self.analyzer.globals:
                return target.name
            return None
        if isinstance(target, Index):
            base = self.storage_key(target.base)
            if base is None:
                return None
            index = self.analyzer.constant_of(target.index, self.binding)
            return f"{base}[{index}]" if index is not None else f"{base}[*]"
        if isinstance(target, FieldAccess):
            base = self.storage_key(target.base)
            return f"{base}.{target.field}" if base is not None else None
        return None

    # -- expressions -------------------------------------------------------
    def expr(self, expr: Expr) -> None:
        for node in walk_expr(expr):
            if isinstance(node, NameRef):
                if (node.name in self.analyzer.globals
                        and node.name not in self.locals):
                    self.reads.add(node.name)
            elif isinstance(node, Call):
                self.call(node)

    def call(self, call: Call) -> None:
        if is_builtin(call.name):
            arguments = [str(a) for a in call.args]
            effects = self.analyzer._builtin_effects(call.name, arguments)
            self.absorb(effects)
            return
        try:
            callee = self.analyzer.program.function(call.name)
        except KeyError:
            return
        binding: Binding = {}
        for param, argument in zip(callee.params, call.args):
            binding[param.name] = self.analyzer.constant_of(
                argument, self.binding)
        self.absorb(self.analyzer.function_effects(callee, binding))

    def absorb(self, effects: Effects) -> None:
        self.reads |= effects.reads
        self.writes |= effects.writes
        self.cond_writes |= effects.cond_writes
        self.raises |= effects.raises


def transition_effects(chart: Chart, checked: CheckedProgram
                       ) -> Dict[int, Effects]:
    """Effect summary for every transition with an action."""
    analyzer = EffectAnalyzer(checked)
    summaries: Dict[int, Effects] = {}
    for transition in chart.transitions:
        if transition.call is not None:
            summaries[transition.index] = analyzer.action_effects(
                transition.call)
    return summaries
