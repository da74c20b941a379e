"""The transition graph used by the static timing validator.

Section 4 of the paper works on "the tree … augmented by the chart's
transitions, resulting in a directed graph" (Fig. 4).  This module builds
that view:

* nodes are the chart's states;
* tree edges connect parents to children (with the OR/AND kind on the
  parent);
* transition edges connect source to target states and carry the transition.

It also provides the sibling machinery the heuristic needs: for a state
``s``, which AND-regions run in parallel with the region containing ``s``,
and the subtree roots to bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.statechart.model import Chart, StateKind, Transition


@dataclass(frozen=True)
class ParallelContext:
    """For a state: the AND-ancestor and the sibling regions to bound."""

    and_state: str
    own_region: str
    sibling_regions: Tuple[str, ...]


class TransitionGraph:
    """Graph view of a chart for path search."""

    def __init__(self, chart: Chart) -> None:
        self.chart = chart
        #: transition edges grouped by source state
        self.out_edges: Dict[str, List[Transition]] = {
            name: list(state.transitions) for name, state in chart.states.items()}

    def successors(self, name: str) -> Iterator[Tuple[str, Transition]]:
        """(target, transition) pairs leaving *name* (directly)."""
        for transition in self.out_edges.get(name, ()):
            yield transition.target, transition

    def effective_successors(self, name: str) -> Iterator[Tuple[str, Transition]]:
        """Successors including inherited transitions from ancestors.

        In statecharts a transition leaving a composite state also leaves
        every active descendant — Fig. 6's ``ERROR/Stop()`` leaving
        ``Operation`` applies while the chart sits in any substate.  The DFS
        must see those edges from substates too.
        """
        seen: Set[int] = set()
        for ancestor in self.chart.ancestors_and_self(name):
            for transition in self.out_edges.get(ancestor, ()):
                if transition.index not in seen:
                    seen.add(transition.index)
                    yield transition.target, transition

    def consuming_states(self, signal: str) -> List[str]:
        """All states with an outgoing transition sensitive to *signal*.

        This is the "first searching for every state that consumes the
        desired event" step of the paper's heuristic.
        """
        result = []
        for state in self.chart.preorder():
            if any(t.consumes(signal) for t in state.transitions):
                result.append(state.name)
        return result

    def parallel_contexts(self, name: str) -> List[ParallelContext]:
        """Every AND composition *name* sits inside, innermost first.

        For each AND-ancestor ``A`` of *name*, identifies the region of ``A``
        containing *name* and the sibling regions whose worst-case work must
        be added as an upper bound while stepping inside the own region
        (section 4, Fig. 4).
        """
        contexts = []
        chain = self.chart.ancestors_and_self(name)
        for child, parent in zip(chain, chain[1:]):
            if self.chart.states[parent].kind is StateKind.AND:
                siblings = tuple(c for c in self.chart.states[parent].children
                                 if c != child)
                contexts.append(ParallelContext(parent, child, siblings))
        return contexts

    def to_dot(self, highlight: Optional[Set[int]] = None) -> str:
        """Render the graph in Graphviz DOT (used to draw Fig. 4)."""
        highlight = highlight or set()
        lines = [f'digraph "{self.chart.name}" {{', "  rankdir=TB;"]

        def emit(name: str, indent: str) -> None:
            state = self.chart.states[name]
            if state.children:
                shape = "AND" if state.kind is StateKind.AND else "OR"
                lines.append(f'{indent}subgraph "cluster_{name}" {{')
                lines.append(f'{indent}  label="{name} [{shape}]";')
                for child in state.children:
                    emit(child, indent + "  ")
                lines.append(f"{indent}}}")
            else:
                lines.append(f'{indent}"{name}" [shape=box];')

        for child in self.chart.states[self.chart.root].children:
            emit(child, "  ")
        for transition in self.chart.transitions:
            style = ' color=red penwidth=2' if transition.index in highlight else ""
            label = (transition.label or "").replace('"', r'\"')
            lines.append(
                f'  "{transition.source}" -> "{transition.target}"'
                f' [label="{label}"{style}];')
        lines.append("}")
        return "\n".join(lines)


def reachable_states(chart: Chart) -> Set[str]:
    """States reachable from the initial configuration through transitions.

    This is a cheap structural over-approximation (ignores triggers/guards):
    a state is reachable if it is in the initial configuration or is entered
    by some transition whose source is reachable.  Used by validation to warn
    about dead states.
    """
    graph = TransitionGraph(chart)
    frontier = list(chart.initial_configuration())
    reached: Set[str] = set(frontier)
    while frontier:
        state = frontier.pop()
        for target, transition in graph.effective_successors(state):
            entered = set(chart.default_completion(target))
            entered.update(chart.ancestors_and_self(target))
            new = entered - reached
            reached |= new
            frontier.extend(new)
    return reached
