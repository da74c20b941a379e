"""Fluent programmatic construction of charts.

The textual format (:mod:`repro.statechart.parser`) is the paper's exchange
format; tests, examples and the SMD workload also want a concise Python API::

    b = ChartBuilder("blinker")
    b.event("TICK", period=100)
    with b.or_state("Top", default="Off"):
        b.basic("Off").transition("On", label="TICK/LightOn()")
        b.basic("On").transition("Off", label="TICK/LightOff()")
    chart = b.build()

The builder validates the finished chart before returning it.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, List, Optional

from repro.statechart.labels import parse_label
from repro.statechart.model import (
    Chart,
    PortDirection,
    PortKind,
    StateKind,
)
from repro.statechart.validate import validate_chart


class StateHandle:
    """Handle returned for each declared state; adds transitions fluently."""

    def __init__(self, builder: "ChartBuilder", name: str) -> None:
        self._builder = builder
        self.name = name

    def transition(self, target: str, label: str = "",
                   wcet: Optional[int] = None) -> "StateHandle":
        """Add a transition from this state.  Returns self for chaining."""
        self._builder._pending.append((self.name, target, label, wcet))
        return self


class ChartBuilder:
    """Builds a :class:`Chart` with ``with``-scoped composite states."""

    def __init__(self, name: str) -> None:
        self._chart = Chart(name)
        self._stack: List[str] = [self._chart.root]
        self._pending: List[tuple] = []
        self._first_toplevel: Optional[str] = None

    # -- declarations ----------------------------------------------------
    def event(self, name: str, period: Optional[int] = None,
              port: Optional[str] = None, width: int = 1) -> "ChartBuilder":
        self._chart.add_event(name, width=width, port=port, period=period)
        return self

    def condition(self, name: str, initial: bool = False,
                  port: Optional[str] = None, width: int = 1) -> "ChartBuilder":
        self._chart.add_condition(name, width=width, port=port, initial=initial)
        return self

    def port(self, name: str, kind: PortKind, width: int = 1,
             address: Optional[int] = None,
             direction: PortDirection = PortDirection.INPUT) -> "ChartBuilder":
        self._chart.add_port(name, kind, width=width, address=address,
                             direction=direction)
        return self

    # -- states ------------------------------------------------------------
    def _add(self, name: str, kind: StateKind, default: Optional[str] = None,
             ref: Optional[str] = None) -> StateHandle:
        parent = self._stack[-1]
        self._chart.add_state(name, kind, parent=parent, default=default, ref=ref)
        if parent == self._chart.root and self._first_toplevel is None:
            self._first_toplevel = name
        return StateHandle(self, name)

    def basic(self, name: str) -> StateHandle:
        """Declare a basic (leaf) state in the current scope."""
        return self._add(name, StateKind.BASIC)

    def ref(self, name: str, chart_name: str) -> StateHandle:
        """Declare an ``@Name``-style reference to another chart."""
        return self._add(name, StateKind.REF, ref=chart_name)

    @contextlib.contextmanager
    def or_state(self, name: str, default: Optional[str] = None) -> Iterator[StateHandle]:
        """Open an OR (exclusive) composite; children declared inside."""
        handle = self._add(name, StateKind.OR, default=default)
        self._stack.append(name)
        try:
            yield handle
        finally:
            self._stack.pop()
        state = self._chart.states[name]
        if state.default is None and state.children:
            state.default = state.children[0]

    @contextlib.contextmanager
    def and_state(self, name: str) -> Iterator[StateHandle]:
        """Open an AND (parallel) composite; regions declared inside."""
        handle = self._add(name, StateKind.AND)
        self._stack.append(name)
        try:
            yield handle
        finally:
            self._stack.pop()

    # -- finish -------------------------------------------------------------
    def build(self, validate: bool = True) -> Chart:
        """Resolve pending transitions, validate and return the chart."""
        if self._first_toplevel is not None:
            self._chart.states[self._chart.root].default = self._first_toplevel
        for source, target, label_text, wcet in self._pending:
            label = parse_label(label_text)
            self._chart.add_transition(
                source, target,
                trigger=label.trigger, guard=label.guard, call=label.call,
                label=label_text, wcet_override=wcet)
        self._pending = []
        if validate:
            validate_chart(self._chart)
        return self._chart
