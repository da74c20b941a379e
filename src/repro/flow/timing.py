"""Heuristic static timing validation for extended statecharts (section 4).

Full validation of statecharts amounts to reachability analysis and is
NP-complete, so the paper "localizes the problem":

1. for a constrained event E, find every state that *consumes* E (has an
   outgoing transition whose trigger/guard mentions E);
2. from each such state, run a depth-first search over the transition graph
   for **event cycles** — paths between two states whose trigger sets both
   contain E (the result may be a simple path or a cycle);
3. the length of an event cycle is the combined length of its transitions;
4. "whenever a parallel substate must be explored, an upper bound is
   computed for its parallel siblings" and added for every step taken inside
   the parallel region.  The bound is computed recursively: at an OR-state
   the maximum-length transition of its children, at an AND-state the sum of
   the children;
5. cycles longer than E's arrival period are violations.

Architecture awareness (how Table 4's two-TEP rows fall out): with k TEPs,
one step's work and its parallel siblings' bounded work are jobs scheduled
on k machines; the step's contribution is the LPT makespan instead of the
serial sum.  With one TEP this reduces exactly to the paper's "add the upper
bound of the sibling".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.isa.arch import ArchConfig
from repro.statechart.graph import TransitionGraph
from repro.statechart.model import Chart, Transition

#: transition-cost oracle: cycles to execute one transition (stub + routine
#: + dispatch overhead)
CostFn = Callable[[Transition], int]


@dataclass(frozen=True)
class EventCycle:
    """One discovered event cycle (Table 3 row)."""

    event: str
    states: Tuple[str, ...]
    transition_indices: Tuple[int, ...]
    length: int

    def describe(self) -> str:
        inner = ", ".join(self.states)
        return f"{{{inner}}}  {self.length}"


@dataclass(frozen=True)
class TimingViolation:
    """An event cycle exceeding its event's arrival period."""

    cycle: EventCycle
    period: int

    @property
    def excess(self) -> int:
        return self.cycle.length - self.period

    def describe(self) -> str:
        return (f"{self.cycle.event}: cycle {self.cycle.describe()} exceeds "
                f"period {self.period} by {self.excess}")


def lpt_makespan(jobs: Sequence[int], machines: int) -> int:
    """Longest-processing-time-first makespan bound for *jobs* on
    *machines* identical machines (exact for machines == 1)."""
    if not jobs:
        return 0
    if machines <= 1:
        return sum(jobs)
    loads = [0] * machines
    for job in sorted(jobs, reverse=True):
        loads[loads.index(min(loads))] += job
    return max(loads)


class TimingValidator:
    """The heuristic of section 4, parameterized by transition costs."""

    def __init__(
        self,
        chart: Chart,
        cost_fn: CostFn,
        arch: Optional[ArchConfig] = None,
        max_depth: int = 24,
    ) -> None:
        self.chart = chart
        self.cost_fn = cost_fn
        self.n_teps = arch.n_teps if arch is not None else 1
        self.max_depth = max_depth
        self.graph = TransitionGraph(chart)
        self._region_jobs_cache: Dict[str, Tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    # parallel-sibling upper bounds
    # ------------------------------------------------------------------
    def region_jobs(self, state_name: str) -> Tuple[int, ...]:
        """The sibling region's worst-case work as independent jobs.

        The paper's recursion ("at an OR-state, the maximum length
        transition of this node's children; at an AND-state, the sum of the
        children") gives the serial bound; we keep the AND-state summands as
        *separate jobs* so that on a k-TEP machine they can overlap.  The
        serial bound of the region is exactly ``sum(region_jobs(...))``.
        """
        cached = self._region_jobs_cache.get(state_name)
        if cached is not None:
            return cached
        state = self.chart.states[state_name]
        own = max((self.cost_fn(t) for t in state.transitions), default=0)
        from repro.statechart.model import StateKind
        if not state.children:
            jobs: Tuple[int, ...] = (own,) if own else ()
        elif state.kind is StateKind.AND:
            combined: List[int] = []
            for child in state.children:
                combined.extend(self.region_jobs(child))
            if own > sum(combined):
                combined = [own]
            jobs = tuple(combined)
        else:
            best: Tuple[int, ...] = (own,) if own else ()
            for child in state.children:
                candidate = self.region_jobs(child)
                if sum(candidate) > sum(best):
                    best = candidate
            jobs = best
        self._region_jobs_cache[state_name] = jobs
        return jobs

    def region_upper_bound(self, state_name: str) -> int:
        """The serial upper bound of one configuration step inside *state*
        (the quantity annotated in Fig. 4)."""
        return sum(self.region_jobs(state_name))

    def _step_cost(self, transition: Transition, position: str) -> int:
        """Cost of one DFS step: the transition itself plus the parallel
        siblings active alongside it, scheduled on the available TEPs.

        A transition whose scope *leaves* the parallel composite exits the
        sibling regions too, so their bound is not added for that step.
        """
        own = self.cost_fn(transition)
        scope = self.chart.transition_scope(transition)
        sibling_jobs: List[int] = []
        for context in self.graph.parallel_contexts(position):
            if not (self.chart.is_ancestor(context.and_state, scope)
                    and scope != context.and_state):
                continue  # the transition exits this parallel composition
            for sibling in context.sibling_regions:
                sibling_jobs.extend(self.region_jobs(sibling))
        if not sibling_jobs:
            return own
        return lpt_makespan([own] + sibling_jobs, self.n_teps)

    # ------------------------------------------------------------------
    # event-cycle search
    # ------------------------------------------------------------------
    def consuming_states(self, event: str) -> List[str]:
        return self.graph.consuming_states(event)

    def _is_event_step(self, transition: Transition) -> bool:
        """Which transitions the DFS may traverse as event-cycle steps.

        Pure completion transitions (no trigger, no guard) fire within the
        configuration window that entered their source; condition-only
        transitions are level-triggered and complete within the window of
        whichever routine set the condition.  Neither begins a new wait for
        an external event, so neither is an event-cycle step — their costs
        still count inside the parallel-sibling bounds.  A step must involve
        at least one *event* (any polarity) in its trigger or guard.
        """
        chart_events = set(self.chart.events)
        for expression in (transition.trigger, transition.guard):
            if expression is not None and expression.names() & chart_events:
                return True
        return False

    def event_cycles(self, event: str) -> List[EventCycle]:
        """All event cycles for *event*, deduplicated, longest first.

        Cycles reached through identical transition sequences (only the
        intermediate default-completion branch differs) are reported once,
        with the shallowest representative path.
        """
        consumers = set(self.consuming_states(event))
        cycles: Dict[Tuple[int, ...], EventCycle] = {}
        for start in sorted(consumers):
            self._dfs(event, start, consumers, cycles)
        return sorted(cycles.values(), key=lambda c: (-c.length, c.states))

    def _dfs(self, event: str, start: str, consumers: Set[str],
             cycles: Dict[Tuple[int, ...], EventCycle]) -> None:
        def record(states: List[str], transitions: List[int],
                   length: int) -> None:
            key = tuple(transitions)
            candidate = EventCycle(event, tuple(states), key, length)
            existing = cycles.get(key)
            if existing is None or candidate.length > existing.length:
                cycles[key] = candidate

        def recurse(position: str, path_states: List[str],
                    path_transitions: List[int], length: int,
                    visited: Set[str]) -> None:
            if len(path_states) > self.max_depth:
                return
            for target, transition in self.graph.effective_successors(position):
                if not self._is_event_step(transition):
                    continue
                step = self._step_cost(transition, position)
                for next_position in self.chart.default_completion(target):
                    new_states = path_states + [next_position]
                    new_transitions = path_transitions + [transition.index]
                    if next_position in consumers:
                        record(new_states, new_transitions, length + step)
                        continue
                    if next_position in visited:
                        continue
                    recurse(next_position, new_states, new_transitions,
                            length + step, visited | {next_position})

        recurse(start, [start], [], 0, {start})

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def critical_path(self, event: str) -> int:
        """The longest event cycle for *event* (Table 4's columns)."""
        cycles = self.event_cycles(event)
        return cycles[0].length if cycles else 0

    def validate(self) -> List[TimingViolation]:
        """Check every constrained event; returns all violations."""
        violations: List[TimingViolation] = []
        for event in self.chart.constrained_events():
            assert event.period is not None
            for cycle in self.event_cycles(event.name):
                if cycle.length > event.period:
                    violations.append(TimingViolation(cycle, event.period))
        return violations

    def all_cycles(self) -> List[EventCycle]:
        """Event cycles of every constrained event (the Table 3 content)."""
        result: List[EventCycle] = []
        for event in self.chart.constrained_events():
            result.extend(self.event_cycles(event.name))
        return result

    def annotated_dot(self, event: str) -> str:
        """Fig. 4: the transition graph with the event's cycles highlighted
        and parallel upper bounds annotated."""
        cycles = self.event_cycles(event)
        highlight = {index for cycle in cycles
                     for index in cycle.transition_indices}
        dot = self.graph.to_dot(highlight=highlight)
        annotations = []
        from repro.statechart.model import StateKind
        for state in self.chart.preorder():
            if state.kind is StateKind.AND:
                for child in state.children:
                    annotations.append(
                        f'// upper bound {child}: '
                        f'{self.region_upper_bound(child)}')
        period = self.chart.events[event].period
        header = f'// event {event} (period {period})\n'
        return header + dot + "\n" + "\n".join(annotations)
