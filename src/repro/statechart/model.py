"""Core data model for extended statecharts.

This module defines the in-memory representation of the paper's specification
language: hierarchical statecharts extended with external ports for events,
conditions and data (section 2 of the paper).  A chart is a tree of states of
three kinds:

* **BASIC** states — leaves.
* **OR** states — exclusive composites: when active, exactly one child is
  active.  They carry a ``default`` child entered on default completion.
* **AND** states — parallel composites: when active, *all* children are
  active.  Their children are the parallel regions.

A fourth kind, **REF**, models the ``@Name`` notation of Figs. 5/6: a leaf
that stands for another named chart, resolved (inlined) before synthesis.

Transitions are attached to their *source* state and carry a parsed label
``trigger [guard] / action`` (see :mod:`repro.statechart.labels`).

The model is deliberately plain — behaviour lives in
:mod:`repro.statechart.semantics` (execution), :mod:`repro.sla` (hardware
synthesis) and :mod:`repro.flow.timing` (static analysis).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from repro.statechart.expr import Expr
from repro.statechart.labels import ActionCall, Label


class StateKind(enum.Enum):
    """The three statechart composition operators, plus chart references."""

    BASIC = "basic"
    OR = "or"
    AND = "and"
    REF = "ref"


class PortKind(enum.Enum):
    """What travels over an external port (enum ``ECD`` of Fig. 2b)."""

    EVENT = "Event"
    CONDITION = "Condition"
    DATA = "Data"


class PortDirection(enum.Enum):
    """Port direction (enum ``PortDir`` of Fig. 2b)."""

    INPUT = "Input"
    OUTPUT = "Output"
    BIDIRECTIONAL = "Bidirectional"


@dataclass
class Port:
    """An external port of the chart (``Port`` struct of Fig. 2b).

    Ports are how a hardware/software statechart implementation reaches the
    outside world; every event, condition or data element that crosses the
    chart boundary is bound to one.  ``address`` is assigned by the port
    architecture generator (:mod:`repro.pscp.ports`) and is what the final
    TEP code uses to touch the port.
    """

    name: str
    kind: PortKind
    width: int = 1
    address: Optional[int] = None
    direction: PortDirection = PortDirection.INPUT

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError(f"port {self.name!r}: width must be positive")


@dataclass
class Event:
    """A (possibly external) event.

    Events are sampled into the Configuration Register at the start of a
    configuration cycle and live for exactly one cycle.  ``period`` is the
    arrival-period timing constraint in reference-clock cycles
    (``TimeConstraint`` of Fig. 2b, Table 2); ``None`` means unconstrained.
    """

    name: str
    width: int = 1
    port: Optional[str] = None
    period: Optional[int] = None

    @property
    def external(self) -> bool:
        return self.port is not None


@dataclass
class Condition:
    """A (possibly external) condition.  Conditions persist across cycles."""

    name: str
    width: int = 1
    port: Optional[str] = None
    initial: bool = False

    @property
    def external(self) -> bool:
        return self.port is not None


@dataclass
class Transition:
    """A transition of the chart.

    ``trigger`` is the event expression before the brackets, ``guard`` the
    condition expression inside ``[...]``; either may be ``None`` (Fig. 5/6
    use all combinations).  ``call`` is the parsed call after ``/`` — into
    a routine written in the intermediate C dialect, compiled to a TEP
    program whose address ends up in the Transition Address Table — and
    ``action`` its text.
    """

    source: str
    target: str
    trigger: Optional[Expr] = None
    guard: Optional[Expr] = None
    call: Optional[ActionCall] = None
    label: str = ""
    #: Explicit WCET override in cycles ("explicit timing constraints must be
    #: specified" when a routine's length cannot be derived — section 4).
    wcet_override: Optional[int] = None
    #: Index in chart declaration order; doubles as the Transition Address
    #: Table slot and as the conflict tie-breaker.
    index: int = -1
    #: Source line in the textual chart, when parsed from one.
    line: Optional[int] = None

    @property
    def action(self) -> Optional[str]:
        """The action's call text as written, or ``None``."""
        return None if self.call is None else self.call.text

    def names_consumed(self) -> frozenset:
        """Every event/condition name this transition is sensitive to."""
        names = set()
        if self.trigger is not None:
            names |= self.trigger.names()
        if self.guard is not None:
            names |= self.guard.names()
        return frozenset(names)

    def consumes(self, name: str) -> bool:
        """True if *name* occurs *positively* in the trigger or guard.

        The timing validator's notion of "a state consumes event E" (section
        4) reduces to this predicate on the state's outgoing transitions.
        Negative occurrences (``not (X_PULSE or Y_PULSE)``) react to the
        event's absence and do not consume it.
        """
        for expression in (self.trigger, self.guard):
            if expression is not None:
                positive, _ = expression.polarity_names()
                if name in positive:
                    return True
        return False

    def describe(self) -> str:
        body = str(Label(self.trigger, self.guard, self.call))
        return f"{self.source} --{body or '(completion)'}--> {self.target}"


@dataclass
class State:
    """One node of the state hierarchy."""

    name: str
    kind: StateKind = StateKind.BASIC
    children: List[str] = field(default_factory=list)
    default: Optional[str] = None
    parent: Optional[str] = None
    transitions: List[Transition] = field(default_factory=list)
    #: For REF states: the name of the chart being referenced.
    ref: Optional[str] = None
    #: Source line in the textual chart, when parsed from one.
    line: Optional[int] = None


@dataclass(frozen=True)
class PropertyDecl:
    """A declared safety/deadline property, carried verbatim on the chart.

    The text is the model checker's input language (see docs/CHECKING.md);
    the chart itself only stores and round-trips it — parsing and checking
    live in :mod:`repro.analysis.bmc`.
    """

    text: str
    line: Optional[int] = None


class ChartError(Exception):
    """Raised for structurally invalid charts or invalid queries on them."""


class Chart:
    """An extended statechart: a state tree plus its event/condition/port
    declarations and the transitions connecting the states.

    The class offers the structural queries every downstream phase needs:
    ancestor chains, least common ancestors, default completion, scopes and
    exit/entry sets.  It does not execute anything by itself.
    """

    def __init__(self, name: str, root: str = "Root") -> None:
        self.name = name
        self.root = root
        self.states: Dict[str, State] = {root: State(root, StateKind.OR)}
        self.events: Dict[str, Event] = {}
        self.conditions: Dict[str, Condition] = {}
        self.ports: Dict[str, Port] = {}
        self.transitions: List[Transition] = []
        #: declared model-checking properties (docs/CHECKING.md), verbatim
        self.properties: List[PropertyDecl] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_state(
        self,
        name: str,
        kind: StateKind = StateKind.BASIC,
        parent: Optional[str] = None,
        default: Optional[str] = None,
        ref: Optional[str] = None,
        line: Optional[int] = None,
    ) -> State:
        """Add a state under *parent* (default: the root)."""
        if name in self.states:
            raise ChartError(f"duplicate state {name!r}")
        parent = parent if parent is not None else self.root
        if parent not in self.states:
            raise ChartError(f"unknown parent state {parent!r}")
        state = State(name, kind, default=default, parent=parent, ref=ref,
                      line=line)
        self.states[name] = state
        self.states[parent].children.append(name)
        return state

    def add_transition(
        self,
        source: str,
        target: str,
        trigger: Optional[Expr] = None,
        guard: Optional[Expr] = None,
        call: Optional[ActionCall] = None,
        label: str = "",
        wcet_override: Optional[int] = None,
        line: Optional[int] = None,
    ) -> Transition:
        for endpoint in (source, target):
            if endpoint not in self.states:
                raise ChartError(f"transition endpoint {endpoint!r} is not a state")
        transition = Transition(
            source=source,
            target=target,
            trigger=trigger,
            guard=guard,
            call=call,
            label=label,
            wcet_override=wcet_override,
            index=len(self.transitions),
            line=line,
        )
        self.states[source].transitions.append(transition)
        self.transitions.append(transition)
        return transition

    def add_event(self, name: str, width: int = 1, port: Optional[str] = None,
                  period: Optional[int] = None) -> Event:
        if name in self.events or name in self.conditions:
            raise ChartError(f"duplicate event/condition {name!r}")
        event = Event(name, width=width, port=port, period=period)
        self.events[name] = event
        return event

    def add_condition(self, name: str, width: int = 1, port: Optional[str] = None,
                      initial: bool = False) -> Condition:
        if name in self.events or name in self.conditions:
            raise ChartError(f"duplicate event/condition {name!r}")
        condition = Condition(name, width=width, port=port, initial=initial)
        self.conditions[name] = condition
        return condition

    def add_port(self, name: str, kind: PortKind, width: int = 1,
                 address: Optional[int] = None,
                 direction: PortDirection = PortDirection.INPUT) -> Port:
        if name in self.ports:
            raise ChartError(f"duplicate port {name!r}")
        port = Port(name, kind, width=width, address=address, direction=direction)
        self.ports[name] = port
        return port

    def add_property(self, text: str,
                     line: Optional[int] = None) -> PropertyDecl:
        decl = PropertyDecl(text=text, line=line)
        self.properties.append(decl)
        return decl

    # ------------------------------------------------------------------
    # structural queries
    # ------------------------------------------------------------------
    def state(self, name: str) -> State:
        try:
            return self.states[name]
        except KeyError:
            raise ChartError(f"unknown state {name!r}") from None

    def ancestors(self, name: str) -> List[str]:
        """Proper ancestors of *name*, innermost first, ending at the root."""
        chain = []
        current = self.state(name).parent
        while current is not None:
            chain.append(current)
            current = self.states[current].parent
        return chain

    def ancestors_and_self(self, name: str) -> List[str]:
        return [name] + self.ancestors(name)

    def is_ancestor(self, ancestor: str, descendant: str) -> bool:
        """True if *ancestor* is a (non-strict) ancestor of *descendant*."""
        return ancestor in self.ancestors_and_self(descendant)

    def depth(self, name: str) -> int:
        return len(self.ancestors(name))

    def lca(self, a: str, b: str) -> str:
        """Least common ancestor of two states (may be one of them)."""
        chain_a = self.ancestors_and_self(a)
        chain_b = set(self.ancestors_and_self(b))
        for candidate in chain_a:
            if candidate in chain_b:
                return candidate
        raise ChartError(f"states {a!r} and {b!r} share no ancestor")

    def descendants(self, name: str) -> Iterator[str]:
        """All strict descendants of *name*, preorder."""
        for child in self.state(name).children:
            yield child
            yield from self.descendants(child)

    def subtree(self, name: str) -> Iterator[str]:
        yield name
        yield from self.descendants(name)

    def leaves(self) -> List[str]:
        return [s.name for s in self.states.values() if not s.children]

    def preorder(self) -> Iterator[State]:
        """All states in preorder starting at the root."""
        for name in self.subtree(self.root):
            yield self.states[name]

    # ------------------------------------------------------------------
    # configuration helpers (shared by semantics and SLA synthesis)
    # ------------------------------------------------------------------
    def default_completion(self, name: str) -> List[str]:
        """The set of states entered when *name* is entered by default.

        Entering an OR state enters its default child recursively; entering an
        AND state enters every region.  Returns *name* plus everything below
        it that becomes active.
        """
        state = self.state(name)
        entered = [name]
        if state.kind is StateKind.OR and state.children:
            default = state.default or state.children[0]
            if default not in state.children:
                raise ChartError(
                    f"default {default!r} of {name!r} is not one of its children")
            entered.extend(self.default_completion(default))
        elif state.kind is StateKind.AND:
            for child in state.children:
                entered.extend(self.default_completion(child))
        return entered

    def initial_configuration(self) -> frozenset:
        return frozenset(self.default_completion(self.root))

    def transition_scope(self, transition: Transition) -> str:
        """The state whose sub-configuration the transition rearranges.

        This is the lowest OR-state ancestor of the LCA of source and target;
        two transitions conflict iff their scopes are ancestrally related.
        """
        lca = self.lca(transition.source, transition.target)
        # A self-loop or child-to-sibling transition has its LCA at the
        # parent; if the LCA is the source or target itself, or an AND state,
        # climb to the nearest OR ancestor so the exit set is well-defined.
        node = lca
        if node in (transition.source, transition.target):
            node = self.states[node].parent or self.root
        while self.states[node].kind is not StateKind.OR:
            parent = self.states[node].parent
            if parent is None:
                break
            node = parent
        return node

    def exit_set(self, transition: Transition, configuration: frozenset) -> frozenset:
        """States left when *transition* fires from *configuration*."""
        scope = self.transition_scope(transition)
        return frozenset(s for s in configuration
                         if s != scope and self.is_ancestor(scope, s))

    def entry_set(self, transition: Transition) -> frozenset:
        """States entered when *transition* fires (default completion of the
        target, plus the chain from the scope down to the target, plus the
        default completion of any AND-siblings entered along the way)."""
        scope = self.transition_scope(transition)
        entered = set(self.default_completion(transition.target))
        # Walk up from target to scope, entering intermediate states; any AND
        # state crossed pulls in default completion of its other regions.
        current = transition.target
        while True:
            parent = self.states[current].parent
            if parent is None or current == scope:
                break
            if parent != scope:
                entered.add(parent)
            parent_state = self.states[parent]
            if parent_state.kind is StateKind.AND:
                for region in parent_state.children:
                    if region != current:
                        entered.update(self.default_completion(region))
            current = parent
        entered.discard(scope)
        return frozenset(entered)

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def outgoing(self, name: str) -> Sequence[Transition]:
        return tuple(self.state(name).transitions)

    def signals(self) -> List[str]:
        """All event and condition names, events first, declaration order."""
        return list(self.events) + list(self.conditions)

    def constrained_events(self) -> List[Event]:
        """Events carrying an arrival-period constraint (Table 2 inputs)."""
        return [e for e in self.events.values() if e.period is not None]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Chart({self.name!r}, states={len(self.states)}, "
                f"transitions={len(self.transitions)})")
