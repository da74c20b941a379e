"""The bounded step-relation explorer, evaluated on the machine's own SLA.

A symbolic state (:data:`BmcNode`) is the triple the hardware actually
latches between configuration cycles::

    (active configuration, true conditions, pending raised events)

Exploration is breadth-first from the chart's initial node.  Each expanded
node is packed once into a Configuration Register word, and every cycle is
computed by the built system's :class:`~repro.sla.synth.Pla` — the compiled
planes :class:`~repro.pscp.machine.PscpMachine` runs:

* **the input alphabet** comes from the AND plane (:meth:`Pla.open_events`).
  A row is live when its state, condition and pending-event bits agree with
  the node's word; the event bits the live rows still test are the
  **decision events**.  Every other event is sampled and dropped by the CR,
  so one representative suffices: conditions are part of the node (no
  valuation enumeration at all), and the environment's ``2^|events|``
  choices collapse to the subsets of the decision events;
* **enabledness and conflict resolution** are :meth:`Pla.enabled` (the
  AND/OR planes plus the guard-signal network) on the word with the subset's
  event bits ORed in;
* **the state update** is :meth:`Pla.next_configuration`, the next-state
  plane.

So a path through this graph is a candidate execution of the real machine,
by construction rather than by a second implementation of the step.  Action
routines are abstracted by their effect summaries
(:mod:`repro.analysis.effects`), split into

* **must** effects — top-level, unconditional ``SetTrue``/``SetFalse``/
  ``Raise`` calls, applied exactly; and
* **may** effects — writes/raises under a branch or loop, which fork the
  successor state (the routine's data decides concretely; we keep both).

The may-fork makes the explored space a *superset* of the concrete
reachable space: "never" proofs over it are sound, while counterexamples
are only reported after they replay on the real machine
(:mod:`repro.analysis.bmc.witness`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.action.ast import Call, ExprStmt, Function
from repro.action.check import CheckedProgram
from repro.action.stdlib import is_builtin
from repro.analysis.effects import EffectAnalyzer, Effects
from repro.sla.synth import Pla
from repro.statechart.model import Chart

#: (configuration, true conditions, pending raised events)
BmcNode = Tuple[FrozenSet[str], FrozenSet[str], FrozenSet[str]]

#: most decision events branched on at one node (``2^n`` abstract steps);
#: beyond it the rest are dropped and the space is marked incomplete
MAX_DECISION_EVENTS = 14
#: most may-effect forks of one step; beyond it the step keeps only its
#: must effects and the space is marked incomplete
MAX_FORKS_PER_STEP = 16


# ---------------------------------------------------------------------------
# must/may action abstraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ActionAbstraction:
    """One transition's action, split into exact and forking effects."""

    #: condition writes that always happen, in program order (last wins)
    must_cond: Tuple[Tuple[str, bool], ...] = ()
    #: events that are always raised
    must_raise: FrozenSet[str] = frozenset()
    #: condition writes that may or may not happen (value None: either way)
    may_cond: Tuple[Tuple[str, Optional[bool]], ...] = ()
    #: events that may or may not be raised
    may_raise: Tuple[str, ...] = ()

    @property
    def fork_count(self) -> int:
        forks = 1
        for _, value in self.may_cond:
            forks *= 3 if value is None else 2
        forks *= 2 ** len(self.may_raise)
        return forks


def _top_level_builtins(program, calls, chart: Chart, seen: FrozenSet[str]
                        ) -> Tuple[List[Tuple[str, bool]], Set[str]]:
    """Unconditional builtin effects of *calls*, in order: each a
    (routine, argument texts) pair, a builtin's applied, a routine's body
    walked for its top-level calls."""
    cond: List[Tuple[str, bool]] = []
    raised: Set[str] = set()
    for name, arguments in calls:
        if is_builtin(name):
            target = arguments[0] if arguments else ""
            if name == "SetTrue" and target in chart.conditions:
                cond.append((target, True))
            elif name == "SetFalse" and target in chart.conditions:
                cond.append((target, False))
            elif name == "Raise" and target in chart.events:
                raised.add(target)
            continue
        if name in seen:
            continue
        try:
            callee = program.function(name)
        except KeyError:
            continue
        sub_cond, sub_raised = _top_level_builtins(
            program, _body_calls(callee), chart, seen | {name})
        cond.extend(sub_cond)
        raised |= sub_raised
    return cond, raised


def _body_calls(function: Function):
    """The calls a function body makes as statements of its own."""
    return [(stmt.expr.name, [str(a).strip() for a in stmt.expr.args])
            for stmt in function.body
            if isinstance(stmt, ExprStmt) and isinstance(stmt.expr, Call)]


def abstract_actions(chart: Chart, checked: CheckedProgram
                     ) -> Dict[int, ActionAbstraction]:
    """Per-transition must/may abstraction of every action."""
    analyzer = EffectAnalyzer(checked)
    out: Dict[int, ActionAbstraction] = {}
    for transition in chart.transitions:
        call = transition.call
        if call is None:
            continue
        full: Effects = analyzer.action_effects(call)
        must_cond, must_raise = _top_level_builtins(
            checked.program, [(call.routine, call.arguments)], chart,
            frozenset())
        must_keys = {(c, v) for c, v in must_cond}
        may_cond = tuple(sorted(
            (c, v) for c, v in full.cond_writes
            if c in chart.conditions and (c, v) not in must_keys))
        may_raise = tuple(sorted(
            e for e in full.raises
            if e in chart.events and e not in must_raise))
        out[transition.index] = ActionAbstraction(
            must_cond=tuple(must_cond),
            must_raise=frozenset(must_raise),
            may_cond=may_cond,
            may_raise=may_raise)
    return out


# ---------------------------------------------------------------------------
# the explored space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Edge:
    """One abstract step: external inputs -> successor, with what fired."""

    inputs: FrozenSet[str]
    target: BmcNode
    fired: Tuple[int, ...]


@dataclass
class ExploredSpace:
    """The reachable graph up to the bound, with provenance for witnesses."""

    chart: Chart
    initial: BmcNode
    nodes: Dict[BmcNode, int] = field(default_factory=dict)  # node -> depth
    edges: Dict[BmcNode, Tuple[Edge, ...]] = field(default_factory=dict)
    #: per expanded node, the input alphabet that was branched on; events
    #: outside it provably cannot change the node's step (no live AND-plane
    #: row tests them), so an arrival of one reuses the existing edges
    decisions: Dict[BmcNode, Tuple[str, ...]] = field(default_factory=dict)
    parent: Dict[BmcNode, Tuple[BmcNode, FrozenSet[str]]] = \
        field(default_factory=dict)
    expanded: Set[BmcNode] = field(default_factory=set)
    #: True when every reachable node was expanded within the bound — only
    #: then do "not found" results count as proofs
    complete: bool = True
    truncation: Optional[str] = None
    abstraction_forks: int = 0

    def trace_to(self, node: BmcNode) -> List[FrozenSet[str]]:
        """External-event inputs driving the machine from reset to *node*."""
        steps: List[FrozenSet[str]] = []
        current = node
        while current != self.initial:
            previous, inputs = self.parent[current]
            steps.append(inputs)
            current = previous
        steps.reverse()
        return steps

    def mark_incomplete(self, reason: str) -> None:
        self.complete = False
        if self.truncation is None:
            self.truncation = reason


class Explorer:
    """Breadth-first bounded exploration of one chart's step relation,
    evaluated on the built system's SLA planes."""

    def __init__(self, pla: Pla, actions: Dict[int, ActionAbstraction], *,
                 depth: int = 40, max_states: int = 20000) -> None:
        self.pla = pla
        self.chart = pla.layout.chart
        self.actions = actions
        self.depth = depth
        self.max_states = max_states
        self._event_names = {bit: name for name, bit
                             in pla.layout.event_bits.items()}

    # -- the input alphabet ------------------------------------------------
    def decision_events(self, word: int, space: ExploredSpace) -> List[str]:
        """Events whose presence can change what fires from the node packed
        in *word*: the clear event bits of the AND plane's live rows."""
        ordered = sorted(self._event_names[bit]
                         for bit in self.pla.open_events(word))
        if len(ordered) > MAX_DECISION_EVENTS:
            space.mark_incomplete(
                f"{len(ordered)} decision events at one node exceed the "
                f"cap of {MAX_DECISION_EVENTS}")
            ordered = ordered[:MAX_DECISION_EVENTS]
        return ordered

    # -- one abstract step -------------------------------------------------
    def successors(self, node: BmcNode, space: ExploredSpace) -> List[Edge]:
        config, conds, pending = node
        word = self.pla.layout.pack(pending, conds, config)
        edges: List[Edge] = []
        seen: Set[Tuple[FrozenSet[str], BmcNode, Tuple[int, ...]]] = set()
        decisions = self.decision_events(word, space)
        space.decisions[node] = tuple(decisions)
        event_bits = self.pla.layout.event_bits
        for mask in range(1 << len(decisions)):
            chosen = [name for i, name in enumerate(decisions)
                      if mask & (1 << i)]
            cr_bits = word
            for name in chosen:
                cr_bits |= 1 << event_bits[name]
            for edge in self._step(node, frozenset(chosen), cr_bits, space):
                key = (edge.inputs, edge.target, edge.fired)
                if key not in seen:
                    seen.add(key)
                    edges.append(edge)
        return edges

    def _step(self, node: BmcNode, external: FrozenSet[str], cr_bits: int,
              space: ExploredSpace) -> List[Edge]:
        """All abstract outcomes of one cycle on the CR word *cr_bits*
        (the node plus the *external* inputs)."""
        config, conds, _ = node
        fired = self.pla.enabled(cr_bits)
        frozen_config = self.pla.next_configuration(config, fired)
        fired_indices = tuple(fired)

        # must effects, in firing order; collect may choices
        base_conds = dict.fromkeys(conds, True)
        base_raised: Set[str] = set()
        may_cond: List[Tuple[str, Optional[bool]]] = []
        may_raise: List[str] = []
        forks = 1
        for index in fired:
            abstraction = self.actions.get(index)
            if abstraction is None:
                continue
            for name, value in abstraction.must_cond:
                if value:
                    base_conds[name] = True
                else:
                    base_conds.pop(name, None)
            base_raised |= abstraction.must_raise
            may_cond.extend(abstraction.may_cond)
            may_raise.extend(abstraction.may_raise)
            forks *= abstraction.fork_count
        may_cond = sorted(set(may_cond))
        may_raise = sorted(set(may_raise) - base_raised)

        if forks > MAX_FORKS_PER_STEP:
            space.mark_incomplete(
                f"{forks} abstraction forks at one step exceed the cap of "
                f"{MAX_FORKS_PER_STEP}")
            may_cond, may_raise = [], []

        edges: List[Edge] = []
        choices = self._fork_choices(may_cond, may_raise)
        space.abstraction_forks += len(choices) - 1
        for cond_choice, raise_choice in choices:
            out_conds = dict(base_conds)
            for name, value in cond_choice:
                if value:
                    out_conds[name] = True
                else:
                    out_conds.pop(name, None)
            out_raised = frozenset(base_raised | set(raise_choice))
            target: BmcNode = (frozen_config,
                               frozenset(out_conds),
                               out_raised)
            edges.append(Edge(inputs=external, target=target,
                              fired=fired_indices))
        return edges

    @staticmethod
    def _fork_choices(may_cond: Sequence[Tuple[str, Optional[bool]]],
                      may_raise: Sequence[str]
                      ) -> List[Tuple[Tuple[Tuple[str, bool], ...],
                                      Tuple[str, ...]]]:
        cond_alternatives: List[List[Tuple[Tuple[str, bool], ...]]] = []
        for name, value in may_cond:
            if value is None:
                cond_alternatives.append([(), ((name, True),),
                                          ((name, False),)])
            else:
                cond_alternatives.append([(), ((name, bool(value)),)])
        cond_choices: List[Tuple[Tuple[str, bool], ...]] = [()]
        for alternatives in cond_alternatives:
            cond_choices = [existing + alt
                            for existing in cond_choices
                            for alt in alternatives]
        raise_choices: List[Tuple[str, ...]] = [()]
        for name in may_raise:
            raise_choices = [existing + extra
                             for existing in raise_choices
                             for extra in ((), (name,))]
        return [(c, r) for c in cond_choices for r in raise_choices]

    # -- the search --------------------------------------------------------
    def initial_node(self) -> BmcNode:
        conds = frozenset(name for name, condition
                          in self.chart.conditions.items()
                          if condition.initial)
        return (self.chart.initial_configuration(), conds, frozenset())

    def explore(self) -> ExploredSpace:
        initial = self.initial_node()
        space = ExploredSpace(chart=self.chart, initial=initial)
        space.nodes[initial] = 0
        queue: List[BmcNode] = [initial]
        head = 0
        while head < len(queue):
            node = queue[head]
            head += 1
            node_depth = space.nodes[node]
            if node_depth >= self.depth:
                space.mark_incomplete(
                    f"depth bound {self.depth} reached")
                continue
            edges = tuple(self.successors(node, space))
            space.edges[node] = edges
            space.expanded.add(node)
            for edge in edges:
                if edge.target in space.nodes:
                    continue
                if len(space.nodes) >= self.max_states:
                    space.mark_incomplete(
                        f"state budget {self.max_states} exhausted")
                    continue
                space.nodes[edge.target] = node_depth + 1
                space.parent[edge.target] = (node, edge.inputs)
                queue.append(edge.target)
        return space
