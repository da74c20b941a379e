"""The declarative property language of the bounded model checker.

Four property forms (grammar in docs/CHECKING.md), one per line::

    never <State> while <State>
    never <cond-expr> in <State>
    always reach <State> within <N> cycles of <Event>
    deadline <Event> [<N>]

Properties come from two places and are concatenated in order:

* ``property "..."`` declarations in the textual chart
  (:attr:`repro.statechart.model.Chart.properties`);
* a sidecar file (``--properties``), ``#``/``//`` comments and blank lines
  ignored, one property per line (a trailing ``;`` is tolerated).

Parsing is deliberately total: malformed text becomes a PSC600 diagnostic,
names that the chart does not declare become PSC601 — the checker never
throws on user property input.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional

from repro.analysis.diag import Collector, Diagnostic, SourceLocation
from repro.statechart.expr import Expr, ExprError, parse_expr
from repro.statechart.model import Chart

_ALWAYS_RE = re.compile(
    r"^always\s+reach\s+(?P<state>@?\w+)\s+within\s+(?P<k>\d+)\s+"
    r"cycles?\s+of\s+(?P<event>\w+)$")
_DEADLINE_RE = re.compile(r"^deadline\s+(?P<event>\w+)(?:\s+(?P<n>\d+))?$")


@dataclass(frozen=True)
class Property:
    """Base class: the verbatim source text plus its origin."""

    text: str
    origin: Optional[str] = None  # file the property came from
    line: Optional[int] = None

    def location(self) -> SourceLocation:
        return SourceLocation(file=self.origin, line=self.line,
                              obj=f"property {self.text!r}")


@dataclass(frozen=True)
class NeverWhile(Property):
    """``never A while B``: no reachable configuration holds both states."""

    state_a: str = ""
    state_b: str = ""


@dataclass(frozen=True)
class NeverIn(Property):
    """``never <cond-expr> in S``: the condition expression is false
    whenever S is part of the configuration."""

    state: str = ""
    expr_text: str = ""
    expr: Optional[Expr] = None


@dataclass(frozen=True)
class AlwaysReach(Property):
    """``always reach S within k cycles of E``: every run entered by an
    arrival of E is in a configuration containing S within k cycles."""

    state: str = ""
    cycles: int = 0
    event: str = ""


@dataclass(frozen=True)
class Deadline(Property):
    """``deadline E [n]``: the worst *realizable* event cycle of E fits in
    n reference-clock cycles (default: E's declared arrival period)."""

    event: str = ""
    budget: Optional[int] = None  # None -> declared period


@dataclass
class ParsedProperties:
    """Outcome of parsing one property source: properties + diagnostics."""

    properties: List[Property] = field(default_factory=list)
    diagnostics: List[Diagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diagnostics


def _parse_one(text: str, chart: Chart, out: Collector,
               origin: Optional[str], line: Optional[int]
               ) -> Optional[Property]:
    location = SourceLocation(file=origin, line=line,
                              obj=f"property {text!r}")

    def unknown(kind: str, name: str) -> None:
        out.emit("PSC601",
                 f"property {text!r}: unknown {kind} {name!r}",
                 location=location,
                 hint=f"declare {name!r} in the chart or fix the spelling")

    def check_state(name: str) -> bool:
        if name not in chart.states:
            unknown("state", name)
            return False
        return True

    def check_event(name: str) -> bool:
        if name not in chart.events:
            unknown("event", name)
            return False
        return True

    words = text.split()
    if words and words[0] == "never" and " while " in text:
        parts = text[len("never"):].split(" while ")
        if len(parts) == 2:
            a, b = parts[0].strip(), parts[1].strip()
            if re.fullmatch(r"@?\w+", a) and re.fullmatch(r"@?\w+", b):
                if check_state(a) & check_state(b):
                    return NeverWhile(text, origin, line,
                                      state_a=a, state_b=b)
                return None
    if words and words[0] == "never" and " in " in text:
        expr_text, _, state = text[len("never"):].rpartition(" in ")
        expr_text, state = expr_text.strip(), state.strip()
        if re.fullmatch(r"@?\w+", state):
            try:
                expr = parse_expr(expr_text)
            except ExprError as exc:
                out.emit("PSC600",
                         f"property {text!r}: bad condition expression: "
                         f"{exc}", location=location)
                return None
            ok = check_state(state)
            for name in sorted(expr.names()):
                if name not in chart.conditions:
                    unknown("condition", name)
                    ok = False
            return NeverIn(text, origin, line, state=state,
                           expr_text=expr_text, expr=expr) if ok else None
    match = _ALWAYS_RE.match(text)
    if match is not None:
        if check_state(match.group("state")) & check_event(
                match.group("event")):
            return AlwaysReach(text, origin, line,
                               state=match.group("state"),
                               cycles=int(match.group("k")),
                               event=match.group("event"))
        return None
    match = _DEADLINE_RE.match(text)
    if match is not None:
        event = match.group("event")
        if not check_event(event):
            return None
        budget = int(match.group("n")) if match.group("n") else None
        if budget is None and chart.events[event].period is None:
            out.emit("PSC600",
                     f"property {text!r}: event {event!r} declares no "
                     "period and the property gives no budget",
                     location=location,
                     hint="write 'deadline EVENT N' or declare a period")
            return None
        return Deadline(text, origin, line, event=event, budget=budget)
    out.emit("PSC600",
             f"property does not parse: {text!r}",
             location=location,
             hint="forms: 'never A while B', 'never <expr> in S', "
                  "'always reach S within N cycles of E', "
                  "'deadline E [N]'")
    return None


def parse_properties(chart: Chart, *,
                     sidecar_text: Optional[str] = None,
                     sidecar_path: Optional[str] = None,
                     chart_path: Optional[str] = None) -> ParsedProperties:
    """All properties of a chart: embedded declarations, then the sidecar."""
    result = ParsedProperties()
    out = Collector()
    for decl in chart.properties:
        prop = _parse_one(decl.text.strip(), chart, out,
                          chart_path, decl.line)
        if prop is not None:
            result.properties.append(prop)
    if sidecar_text is not None:
        for number, raw in enumerate(sidecar_text.splitlines(), start=1):
            line = raw.split("#", 1)[0].split("//", 1)[0].strip()
            line = line.rstrip(";").strip()
            if not line:
                continue
            prop = _parse_one(line, chart, out, sidecar_path, number)
            if prop is not None:
                result.properties.append(prop)
    result.diagnostics = out.diagnostics
    return result
