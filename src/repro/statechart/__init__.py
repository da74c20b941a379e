"""Extended statecharts: model, textual format, semantics and graph views.

Public API re-exports::

    from repro.statechart import (
        Chart, ChartBuilder, Interpreter, parse_chart, parse_label,
    )
"""

from repro.statechart.builder import ChartBuilder, StateHandle
from repro.statechart.expr import (
    And,
    Expr,
    ExprError,
    Name,
    Not,
    Or,
    conjunction,
    disjunction,
    parse_expr,
)
from repro.statechart.graph import ParallelContext, TransitionGraph, reachable_states
from repro.statechart.labels import Label, LabelError, parse_label
from repro.statechart.model import (
    Chart,
    ChartError,
    Condition,
    Event,
    Port,
    PortDirection,
    PortKind,
    State,
    StateKind,
    Transition,
)
from repro.statechart.parser import ParseError, emit_chart, parse_chart
from repro.statechart.semantics import Interpreter, StepResult
from repro.statechart.validate import (
    chart_problems,
    chart_warnings,
    resolve_references,
    validate_chart,
)

__all__ = [
    "And", "Chart", "ChartBuilder", "ChartError", "Condition", "Event",
    "Expr", "ExprError", "Interpreter", "Label", "LabelError", "Name",
    "Not", "Or", "ParallelContext", "ParseError", "Port", "PortDirection",
    "PortKind", "State", "StateHandle", "StateKind", "StepResult",
    "Transition", "TransitionGraph", "chart_problems", "chart_warnings",
    "conjunction", "disjunction", "emit_chart", "parse_chart", "parse_expr",
    "parse_label", "reachable_states", "resolve_references", "validate_chart",
]
