"""Parsing of transition label strings.

The figures of the paper use the classic statechart label syntax::

    trigger [guard] / action

with every part optional:

* ``INIT or ALLRESET/InitializeAll()``       trigger + action
* ``[DATA_VALID]/GetByte()``                 guard + action
* ``X_PULSE/DeltaT(MX)``                     trigger + action
* ``[MOVEMENT]``                             guard only
* ``END_MOVE``                               trigger only
* ``/StartMotor(MX, XParams)``               action only (completion)

The trigger and guard parts are boolean expressions over event/condition
names (:mod:`repro.statechart.expr`).  The action part is parsed once, here,
into an :class:`ActionCall`; :func:`repro.pscp.machine.link_call` binds it to
the routine library written in the intermediate C dialect.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

from repro.statechart.expr import Expr, ExprError, parse_expr


class LabelError(Exception):
    """Raised for malformed transition labels."""


@dataclass(frozen=True)
class ActionCall:
    """A label's action: the routine (or label builtin) it calls and the
    texts of its arguments, with the call text as written."""

    text: str
    routine: str
    arguments: Tuple[str, ...] = ()

    def __str__(self) -> str:
        return self.text

    def __deepcopy__(self, memo) -> "ActionCall":
        return self  # immutable, so a copied chart shares it


@dataclass(frozen=True)
class Label:
    """The three parsed parts of a transition label."""

    trigger: Optional[Expr]
    guard: Optional[Expr]
    call: Optional[ActionCall]

    @property
    def action(self) -> Optional[str]:
        """The action's call text, or ``None``."""
        return None if self.call is None else self.call.text

    def __str__(self) -> str:
        parts = []
        if self.trigger is not None:
            parts.append(str(self.trigger))
        if self.guard is not None:
            parts.append(f"[{self.guard}]")
        if self.action:
            parts.append(f"/{self.action}")
        return " ".join(parts)


def _split_action(text: str) -> Tuple[str, Optional[str]]:
    """Split at the first '/' that is outside brackets and parentheses."""
    depth = 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "/" and depth == 0:
            return text[:i], text[i + 1:].strip()
    return text, None


def _split_guard(text: str) -> Tuple[str, Optional[str]]:
    """Split ``trigger [guard]`` into its two pieces.

    The guard is the last top-level ``[...]`` group; everything before it is
    the trigger expression.
    """
    text = text.strip()
    if not text.endswith("]"):
        return text, None
    depth = 0
    for i in range(len(text) - 1, -1, -1):
        ch = text[i]
        if ch == "]":
            depth += 1
        elif ch == "[":
            depth -= 1
            if depth == 0:
                return text[:i].strip(), text[i + 1:-1].strip()
    raise LabelError(f"unbalanced brackets in label {text!r}")


#: a routine name, then optionally its parenthesized argument text
_CALL = re.compile(r"(\w+)\s*(?:\((.*)\))?", re.DOTALL)


def parse_label(text: str) -> Label:
    """Parse a transition label into (trigger, guard, action)."""
    text = text.strip()
    if not text:
        return Label(None, None, None)
    head, action = _split_action(text)
    trigger_text, guard_text = _split_guard(head.strip())
    try:
        trigger = parse_expr(trigger_text) if trigger_text else None
        guard = parse_expr(guard_text) if guard_text else None
    except ExprError as exc:
        raise LabelError(f"bad label {text!r}: {exc}") from exc
    return Label(trigger, guard, parse_action(action) if action else None)


def parse_action(text: str) -> ActionCall:
    """Parse action call text like ``DeltaT(MX)`` (or a bare routine name)
    into an :class:`ActionCall`: the one parser of a label's action."""
    match = _CALL.fullmatch(text.strip())
    if match is None:
        raise LabelError(f"bad action call {text.strip()!r}")
    routine, inner = match.group(1), (match.group(2) or "").strip()
    arguments = []
    depth = start = 0
    for i, ch in enumerate(inner):
        depth += (ch == "(") - (ch == ")")
        if ch == "," and depth == 0:
            arguments.append(inner[start:i].strip())
            start = i + 1
    if inner:
        arguments.append(inner[start:].strip())
    return ActionCall(text, routine, tuple(arguments))


def constant_argument(argument: str,
                      enum_values: Mapping[str, int]) -> Optional[int]:
    """The integer a constant label argument denotes, or ``None``.

    An argument is an enum member of *enum_values*, a decimal, a ``0x``
    hexadecimal or a ``B:`` binary literal (``MX``, ``3``, ``0x3``,
    ``B:11``)."""
    argument = argument.strip()
    if argument in enum_values:
        return enum_values[argument]
    try:
        if argument.lower().startswith("0x"):
            return int(argument, 16)
        if argument.lower().startswith("b:"):
            return int(argument[2:], 2)
        return int(argument)
    except ValueError:
        return None
