"""Parser for the textual statechart format (Fig. 2a).

The paper introduces a textual representation that is "straightforward to
generate from statechart pictures" and is the starting point of the hardware
and software generation process.  The fragment shown in Fig. 2a::

    basicstate Errstate {
      transition {
        target Idle1;
        label "INIT or ALLRESET/InitializeAll()"
      }
    }
    andstate Operation {
      contains DataPreparation, ReachPosition;
      ...
    }
    orstate DataPreparation {
      contains OpcodeReady, EmptyBuf, Bounds, NoData;
      default OpcodeReady;
    }

defines the grammar we implement.  Beyond the constructs visible in the
figure, the format here adds the declarations the rest of the flow needs and
that the paper keeps on the C side (Fig. 2b):

* ``chart NAME;`` — names the chart (optional; defaults to the file stem).
* ``event NAME [period N] [port P];`` — declares an event, optionally with an
  arrival-period timing constraint in reference-clock cycles (Table 2) and a
  binding to an external port.
* ``condition NAME [initial true|false] [port P];``
* ``port NAME : event|condition|data width N [address N] [in|out|inout];``
* ``refstate @NAME { refers CHART; }`` — the ``@Name`` chart references of
  Figs. 5/6.
* inside ``transition { ... }``: an optional ``wcet N;`` giving the explicit
  timing constraint used when a routine length cannot be derived (section 4).

States not contained by any other state become children of an implicit root
OR-state; the first such state is the root's default.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.statechart.expr import ExprError
from repro.statechart.labels import Label, LabelError, parse_label
from repro.statechart.model import (
    Chart,
    ChartError,
    PortDirection,
    PortKind,
    StateKind,
)


class ParseError(Exception):
    """Raised with a line number on malformed textual statecharts."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*|\#[^\n]*)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<number>\d+)
  | (?P<name>@?[A-Za-z_][A-Za-z_0-9]*)
  | (?P<punct>[{};:,])
    """,
    re.VERBOSE,
)


@dataclass
class _Token:
    kind: str
    value: str
    line: int


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    pos = 0
    line = 1
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line)
        kind = match.lastgroup or ""
        value = match.group()
        line += value.count("\n")
        pos = match.end()
        if kind in ("ws", "comment"):
            continue
        tokens.append(_Token(kind, value, line))
    return tokens


_STATE_KEYWORDS = {
    "basicstate": StateKind.BASIC,
    "orstate": StateKind.OR,
    "andstate": StateKind.AND,
    "refstate": StateKind.REF,
}

_PORT_KINDS = {
    "event": PortKind.EVENT,
    "condition": PortKind.CONDITION,
    "data": PortKind.DATA,
}

_PORT_DIRECTIONS = {
    "in": PortDirection.INPUT,
    "out": PortDirection.OUTPUT,
    "inout": PortDirection.BIDIRECTIONAL,
}


@dataclass
class _StateDecl:
    name: str
    kind: StateKind
    line: int
    contains: List[str] = field(default_factory=list)
    default: Optional[str] = None
    refers: Optional[str] = None
    transitions: List[Tuple[str, str, Optional[int], int]] = field(default_factory=list)
    # transitions: (target, label text, wcet override, line)


class _ChartParser:
    def __init__(self, tokens: List[_Token], name: str) -> None:
        self.tokens = tokens
        self.pos = 0
        self.chart_name = name
        self.state_decls: Dict[str, _StateDecl] = {}
        self.order: List[str] = []
        self.events: List[Tuple[str, Optional[int], Optional[str]]] = []
        self.conditions: List[Tuple[str, bool, Optional[str]]] = []
        self.ports: List[Tuple[str, PortKind, int, Optional[int], PortDirection]] = []
        self.properties: List[Tuple[str, int]] = []

    # -- token helpers -------------------------------------------------
    def peek(self) -> Optional[_Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, kind: Optional[str] = None, value: Optional[str] = None) -> _Token:
        token = self.peek()
        if token is None:
            last_line = self.tokens[-1].line if self.tokens else 1
            raise ParseError("unexpected end of input", last_line)
        if kind is not None and token.kind != kind:
            raise ParseError(f"expected {kind}, got {token.value!r}", token.line)
        if value is not None and token.value != value:
            raise ParseError(f"expected {value!r}, got {token.value!r}", token.line)
        self.pos += 1
        return token

    def accept(self, value: str) -> bool:
        token = self.peek()
        if token is not None and token.value == value:
            self.pos += 1
            return True
        return False

    # -- grammar productions -------------------------------------------
    def parse(self) -> Chart:
        while self.peek() is not None:
            token = self.peek()
            assert token is not None
            if token.value in _STATE_KEYWORDS:
                self.parse_state()
            elif token.value == "chart":
                self.take()
                self.chart_name = self.take("name").value
                self.accept(";")
            elif token.value == "event":
                self.parse_event()
            elif token.value == "condition":
                self.parse_condition()
            elif token.value == "port":
                self.parse_port()
            elif token.value == "property":
                self.parse_property()
            else:
                raise ParseError(f"unexpected token {token.value!r}", token.line)
        return self.build()

    def parse_state(self) -> None:
        keyword = self.take("name")
        kind = _STATE_KEYWORDS[keyword.value]
        name_token = self.take("name")
        name = name_token.value
        if name in self.state_decls:
            raise ParseError(f"duplicate state {name!r}", name_token.line)
        decl = _StateDecl(name, kind, name_token.line)
        self.state_decls[name] = decl
        self.order.append(name)
        self.take("punct", "{")
        while not self.accept("}"):
            item = self.take("name")
            if item.value == "contains":
                decl.contains.append(self.take("name").value)
                while self.accept(","):
                    decl.contains.append(self.take("name").value)
                self.take("punct", ";")
            elif item.value == "default":
                decl.default = self.take("name").value
                self.take("punct", ";")
            elif item.value == "refers":
                decl.refers = self.take("name").value
                self.take("punct", ";")
            elif item.value == "transition":
                self.parse_transition(decl)
            else:
                raise ParseError(f"unexpected {item.value!r} in state body", item.line)

    def parse_transition(self, decl: _StateDecl) -> None:
        self.take("punct", "{")
        target: Optional[str] = None
        label = ""
        wcet: Optional[int] = None
        line = self.tokens[self.pos - 1].line
        while not self.accept("}"):
            item = self.take("name")
            if item.value == "target":
                target = self.take("name").value
                self.accept(";")
            elif item.value == "label":
                raw = self.take("string").value
                label = raw[1:-1].replace('\\"', '"')
                self.accept(";")
            elif item.value == "wcet":
                wcet = int(self.take("number").value)
                self.accept(";")
            else:
                raise ParseError(
                    f"unexpected {item.value!r} in transition body", item.line)
        if target is None:
            raise ParseError("transition without target", line)
        decl.transitions.append((target, label, wcet, line))

    def parse_event(self) -> None:
        self.take()  # 'event'
        name = self.take("name").value
        period: Optional[int] = None
        port: Optional[str] = None
        while not self.accept(";"):
            item = self.take("name")
            if item.value == "period":
                period = int(self.take("number").value)
            elif item.value == "port":
                port = self.take("name").value
            else:
                raise ParseError(f"unexpected {item.value!r} in event", item.line)
        self.events.append((name, period, port))

    def parse_condition(self) -> None:
        self.take()  # 'condition'
        name = self.take("name").value
        initial = False
        port: Optional[str] = None
        while not self.accept(";"):
            item = self.take("name")
            if item.value == "initial":
                initial = self.take("name").value == "true"
            elif item.value == "port":
                port = self.take("name").value
            else:
                raise ParseError(f"unexpected {item.value!r} in condition", item.line)
        self.conditions.append((name, initial, port))

    def parse_property(self) -> None:
        """``property "never A while B";`` — a model-checking property.

        The chart stores the quoted text verbatim; the checking grammar is
        owned by :mod:`repro.analysis.bmc` (docs/CHECKING.md).
        """
        self.take()  # 'property'
        token = self.take("string")
        text = token.value[1:-1].replace('\\"', '"')
        self.accept(";")
        self.properties.append((text, token.line))

    def parse_port(self) -> None:
        self.take()  # 'port'
        name = self.take("name").value
        self.take("punct", ":")
        kind_token = self.take("name")
        if kind_token.value not in _PORT_KINDS:
            raise ParseError(f"bad port kind {kind_token.value!r}", kind_token.line)
        kind = _PORT_KINDS[kind_token.value]
        width = 1
        address: Optional[int] = None
        direction = PortDirection.INPUT
        while not self.accept(";"):
            item = self.take("name")
            if item.value == "width":
                width = int(self.take("number").value)
            elif item.value == "address":
                address = int(self.take("number").value)
            elif item.value in _PORT_DIRECTIONS:
                direction = _PORT_DIRECTIONS[item.value]
            else:
                raise ParseError(f"unexpected {item.value!r} in port", item.line)
        self.ports.append((name, kind, width, address, direction))

    # -- chart construction ---------------------------------------------
    def build(self) -> Chart:
        contained = {child
                     for decl in self.state_decls.values()
                     for child in decl.contains}
        for child in contained:
            if child not in self.state_decls:
                line = next(d.line for d in self.state_decls.values()
                            if child in d.contains)
                raise ParseError(f"contained state {child!r} is not declared", line)
        roots = [name for name in self.order if name not in contained]
        if not roots:
            raise ParseError("no root state (containment cycle?)", 1)

        chart = Chart(self.chart_name)
        chart.states[chart.root].default = roots[0]

        added: Dict[str, bool] = {}

        def add(name: str, parent: str) -> None:
            if added.get(name):
                raise ParseError(
                    f"state {name!r} contained more than once",
                    self.state_decls[name].line)
            decl = self.state_decls[name]
            chart.add_state(name, decl.kind, parent=parent,
                            default=decl.default, ref=decl.refers,
                            line=decl.line)
            added[name] = True
            for child in decl.contains:
                add(child, name)

        for root in roots:
            add(root, chart.root)

        for name, period, port in self.events:
            chart.add_event(name, port=port, period=period)
        for name, initial, port in self.conditions:
            chart.add_condition(name, port=port, initial=initial)
        for name, kind, width, address, direction in self.ports:
            chart.add_port(name, kind, width=width, address=address,
                           direction=direction)
        for text, line in self.properties:
            chart.add_property(text, line=line)

        for name in self.order:
            decl = self.state_decls[name]
            for target, label_text, wcet, line in decl.transitions:
                if target not in self.state_decls:
                    raise ParseError(f"unknown target state {target!r}", line)
                try:
                    label = parse_label(label_text)
                except (LabelError, ExprError) as exc:
                    raise ParseError(
                        f"bad transition label {label_text!r}: {exc}",
                        line) from exc
                try:
                    chart.add_transition(
                        name, target,
                        trigger=label.trigger, guard=label.guard,
                        call=label.call, label=label_text,
                        wcet_override=wcet, line=line)
                except ChartError as exc:
                    raise ParseError(
                        f"bad transition {name!r} -> {target!r}: {exc}",
                        line) from exc
        return chart


def parse_chart(text: str, name: str = "chart") -> Chart:
    """Parse textual-statechart *text* into a :class:`Chart`."""
    tokens = _tokenize(text)
    return _ChartParser(tokens, name).parse()


def emit_chart(chart: Chart) -> str:
    """Render *chart* back to the textual format (round-trip of Fig. 2a)."""
    lines: List[str] = [f"chart {chart.name};", ""]
    for event in chart.events.values():
        parts = [f"event {event.name}"]
        if event.period is not None:
            parts.append(f"period {event.period}")
        if event.port is not None:
            parts.append(f"port {event.port}")
        lines.append(" ".join(parts) + ";")
    for condition in chart.conditions.values():
        parts = [f"condition {condition.name}"]
        if condition.initial:
            parts.append("initial true")
        if condition.port is not None:
            parts.append(f"port {condition.port}")
        lines.append(" ".join(parts) + ";")
    for port in chart.ports.values():
        direction = {v: k for k, v in _PORT_DIRECTIONS.items()}[port.direction]
        kind = {v: k for k, v in _PORT_KINDS.items()}[port.kind]
        address = f" address {port.address}" if port.address is not None else ""
        lines.append(
            f"port {port.name} : {kind} width {port.width}{address} {direction};")
    for decl in chart.properties:
        escaped_text = decl.text.replace('"', '\\"')
        lines.append(f'property "{escaped_text}";')
    lines.append("")

    keyword = {v: k for k, v in _STATE_KEYWORDS.items()}

    def emit_state(name: str) -> None:
        state = chart.states[name]
        lines.append(f"{keyword[state.kind]} {name} {{")
        if state.children:
            lines.append("  contains " + ", ".join(state.children) + ";")
        if state.default is not None:
            lines.append(f"  default {state.default};")
        if state.ref is not None:
            lines.append(f"  refers {state.ref};")
        for transition in state.transitions:
            lines.append("  transition {")
            lines.append(f"    target {transition.target};")
            label = transition.label or str(Label(
                transition.trigger, transition.guard, transition.call))
            escaped = label.replace('"', '\\"')
            lines.append(f'    label "{escaped}";')
            if transition.wcet_override is not None:
                lines.append(f"    wcet {transition.wcet_override};")
            lines.append("  }")
        lines.append("}")

    for name in chart.states[chart.root].children:
        for member in chart.subtree(name):
            emit_state(member)
    return "\n".join(lines) + "\n"
