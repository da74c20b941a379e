"""Expression pattern matching for instruction selection (section 4).

"After the simple optimizations, pattern matching is used: If, e.g., a
pattern of the form ``if ( a == b ) ... else ...`` is detected, a calculation
unit with an additional comparator is inserted; if patterns of the form
``x = -x`` are detected, an ALU capable of performing two's complement is
inserted.  Thus, a number of expressions and control structures can be
optimized.  The next level are custom instructions for arithmetic
expressions found in the transition routines.  Complex expressions are
broken up into smaller ones not to introduce long critical paths."

This module provides the *detection* side used by the improvement loop:

* :func:`find_comparator_sites` — equality tests between simple operands;
* :func:`find_negation_sites` — ``x = -x``-shaped assignments;
* :func:`find_custom_candidates` — fusable arithmetic expressions with
  their canonical signatures, ranked by estimated cycle savings.

The *application* side lives in the code generator, which consults the
:class:`~repro.isa.arch.ArchConfig` for the comparator/negator flags and the
selected :class:`~repro.isa.arch.CustomInstruction` signatures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.action.ast import (
    Assign,
    Binary,
    BinOp,
    Expr,
    Function,
    If,
    IntLiteral,
    NameRef,
    Program,
    Unary,
    UnOp,
    VarDecl,
    While,
    walk_expr,
    walk_stmts,
)
from repro.isa.arch import MAX_CUSTOM_DEPTH, CustomInstruction

#: binary operators a fused calculation unit can implement combinationally
FUSABLE_BINOPS = {BinOp.ADD, BinOp.SUB, BinOp.AND, BinOp.OR, BinOp.XOR,
                  BinOp.SHL, BinOp.SHR}
FUSABLE_UNOPS = {UnOp.NEG, UnOp.BNOT}


def is_simple(expr: Expr) -> bool:
    """A leaf the datapath can source directly: variable or constant."""
    return isinstance(expr, (NameRef, IntLiteral))


# ---------------------------------------------------------------------------
# signatures
# ---------------------------------------------------------------------------

def expression_signature(expr: Expr) -> Optional[str]:
    """Canonical serialization of a fusable expression tree, or ``None``.

    Variable leaves become ``v<i>`` numbered by first use (so ``x + x`` and
    ``x + y`` get distinct signatures — they need different fused hardware);
    constants become ``c<value>`` (shift amounts and masks are baked into the
    fused unit).  Two expressions with the same signature can share one
    custom instruction.
    """
    env: Dict[str, int] = {}

    def serialize(node: Expr) -> Optional[str]:
        if isinstance(node, NameRef):
            index = env.setdefault(node.name, len(env))
            return f"v{index}"
        if isinstance(node, IntLiteral):
            return f"c{node.value}"
        if isinstance(node, Unary) and node.op in FUSABLE_UNOPS:
            inner = serialize(node.operand)
            return None if inner is None else f"({node.op.value}{inner})"
        if isinstance(node, Binary) and node.op in FUSABLE_BINOPS:
            left = serialize(node.left)
            right = serialize(node.right)
            if left is None or right is None:
                return None
            return f"({left}{node.op.value}{right})"
        return None

    return serialize(expr)


def evaluate_signature(signature: str, operands: List[int], mask: int) -> int:
    """Execute a fused expression's semantics (used by the TEP simulator).

    ``operands[i]`` is the value loaded for variable leaf ``v<i>``; the
    result is truncated to *mask* (the data-bus width).
    """
    pos = 0

    def parse() -> int:
        nonlocal pos
        ch = signature[pos]
        if ch == "v":
            pos += 1
            start = pos
            while pos < len(signature) and signature[pos].isdigit():
                pos += 1
            return operands[int(signature[start:pos])] & mask
        if ch == "c":
            pos += 1
            start = pos
            if pos < len(signature) and signature[pos] == "-":
                pos += 1
            while pos < len(signature) and signature[pos].isdigit():
                pos += 1
            return int(signature[start:pos]) & mask
        if ch != "(":
            raise ValueError(f"bad signature {signature!r} at {pos}")
        pos += 1  # '('
        if signature[pos] in "-~" and signature[pos + 1] in "v(c":
            unary = signature[pos]
            pos += 1
            value = parse()
            pos += 1  # ')'
            return ((-value) if unary == "-" else ~value) & mask
        left = parse()
        # operators: << and >> are two characters
        if signature[pos:pos + 2] in ("<<", ">>"):
            operator = signature[pos:pos + 2]
            pos += 2
        else:
            operator = signature[pos]
            pos += 1
        right = parse()
        pos += 1  # ')'
        ops = {"+": lambda: left + right, "-": lambda: left - right,
               "&": lambda: left & right, "|": lambda: left | right,
               "^": lambda: left ^ right,
               "<<": lambda: left << right, ">>": lambda: left >> right}
        return ops[operator]() & mask

    return parse()


def expression_depth(expr: Expr) -> int:
    """Operator depth of the tree (leaves are depth 0)."""
    if isinstance(expr, Unary):
        return 1 + expression_depth(expr.operand)
    if isinstance(expr, Binary):
        return 1 + max(expression_depth(expr.left),
                       expression_depth(expr.right))
    return 0


def leaf_variables(expr: Expr) -> List[str]:
    """Distinct variable leaves, in first-use order."""
    seen: List[str] = []
    for node in walk_expr(expr):
        if isinstance(node, NameRef) and node.name not in seen:
            seen.append(node.name)
    return seen


def operator_count(expr: Expr) -> int:
    return sum(1 for node in walk_expr(expr)
               if isinstance(node, (Binary, Unary)))


def is_fusable(expr: Expr, max_operands: int) -> bool:
    """Can *expr* become a single-cycle custom instruction?

    Requirements: every operator combinational (:data:`FUSABLE_BINOPS`),
    depth within the critical-path limit, at least two operators (otherwise
    the base ISA is just as fast), and no more leaf variables than the
    datapath can source at once.
    """
    signature = expression_signature(expr)
    if signature is None:
        return False
    if not 2 <= operator_count(expr):
        return False
    if expression_depth(expr) > MAX_CUSTOM_DEPTH:
        return False
    if len(leaf_variables(expr)) > max_operands:
        return False
    return True


# ---------------------------------------------------------------------------
# site discovery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PatternSite:
    """One occurrence of an optimizable pattern."""

    routine: str
    kind: str          # 'comparator', 'negator', 'custom'
    detail: str        # human-readable description / signature


def _function_exprs(function: Function):
    for stmt in walk_stmts(function.body):
        if isinstance(stmt, Assign):
            yield stmt.value
        elif isinstance(stmt, VarDecl) and stmt.init is not None:
            yield stmt.init
        elif isinstance(stmt, If):
            yield stmt.cond
        elif isinstance(stmt, While):
            yield stmt.cond


def find_comparator_sites(program: Program) -> List[PatternSite]:
    """``if (a == b)``-style tests between simple operands."""
    sites = []
    for function in program.functions:
        for stmt in walk_stmts(function.body):
            if isinstance(stmt, (If, While)):
                cond = stmt.cond
                if (isinstance(cond, Binary)
                        and cond.op in (BinOp.EQ, BinOp.NE)
                        and is_simple(cond.left) and is_simple(cond.right)):
                    sites.append(PatternSite(
                        function.name, "comparator",
                        f"{cond.left} {cond.op.value} {cond.right}"))
    return sites


def find_negation_sites(program: Program) -> List[PatternSite]:
    """``x = -x`` assignments (and ``x = -y`` more generally)."""
    sites = []
    for function in program.functions:
        for stmt in walk_stmts(function.body):
            if (isinstance(stmt, Assign) and stmt.op is None
                    and isinstance(stmt.value, Unary)
                    and stmt.value.op is UnOp.NEG
                    and is_simple(stmt.value.operand)):
                sites.append(PatternSite(
                    function.name, "negator",
                    f"{stmt.target} = {stmt.value}"))
    return sites


@dataclass(frozen=True)
class CustomCandidate:
    """A fusable expression with its estimated per-execution saving."""

    signature: str
    routine: str
    text: str
    operators: int
    operands: int
    depth: int
    occurrences: int = 1

    @property
    def estimated_saving(self) -> int:
        """Rough cycles saved per execution: each fused operator would have
        been a separate instruction (~4 cycles); the fused version costs one
        instruction (~3 cycles) after operand loads, which both need."""
        return max(0, self.operators * 4 - 3) * self.occurrences

    def to_instruction(self, index: int) -> CustomInstruction:
        return CustomInstruction(
            name=f"cust{index}_{self.routine}",
            signature=self.signature,
            operands=max(1, self.operands),
            depth=self.depth,
        )


def find_custom_candidates(program: Program,
                           max_operands: int = 2) -> List[CustomCandidate]:
    """All fusable expressions, deduplicated by signature, ranked by saving.

    ``max_operands`` reflects the datapath: ACC + the operand register give
    two source operands; a register file adds more.
    """
    by_signature: Dict[str, CustomCandidate] = {}
    for function in program.functions:
        for expr in _function_exprs(function):
            for node in walk_expr(expr):
                if not is_fusable(node, max_operands):
                    continue
                signature = expression_signature(node)
                assert signature is not None
                if signature in by_signature:
                    existing = by_signature[signature]
                    by_signature[signature] = CustomCandidate(
                        signature, existing.routine, existing.text,
                        existing.operators, existing.operands, existing.depth,
                        existing.occurrences + 1)
                else:
                    by_signature[signature] = CustomCandidate(
                        signature, function.name, str(node),
                        operator_count(node), len(leaf_variables(node)),
                        expression_depth(node))
                break  # fuse outermost node only; inner nodes are covered
    return sorted(by_signature.values(),
                  key=lambda c: c.estimated_saving, reverse=True)
