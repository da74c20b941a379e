"""Execution semantics for extended statecharts.

The paper defers the precise semantics to its reference [1] (the EURO-DAC'96
SLA mapping); what it fixes is the *hardware contract* of section 3.1:

* external events are sampled into the Configuration Register (CR) at the
  beginning of a configuration cycle and reset at the end — an event lives
  exactly one cycle;
* conditions persist until rewritten;
* the SLA selects the enabled transitions from the CR contents;
* the selected transitions execute (possibly in parallel on several TEPs),
  may raise new events and rewrite conditions, and their state updates are
  committed under guard-signal control;
* then the next configuration cycle begins.

We implement the conventional STATEMATE-like synchronous step on top of that
contract:

* a transition is enabled when its source state is in the active
  configuration and its trigger and guard evaluate true against the CR;
* two enabled transitions *conflict* when their scopes are ancestrally
  related (they would rearrange overlapping parts of the configuration);
  conflicts are resolved in favour of the transition with the **outermost
  scope** (structural priority), ties by declaration order — this mirrors the
  exclusivity the SLA's guard signals G0..Gm enforce;
* non-conflicting transitions (parallel regions) fire in the same cycle.

The interpreter is the executable reference model: the SLA synthesizer's PLA
and the full PSCP machine are both tested for equivalence against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set

from repro.statechart.model import Chart, Transition

#: Signature of an action handler: it receives the interpreter and the
#: transition being executed, and may call :meth:`Interpreter.raise_event`
#: and :meth:`Interpreter.set_condition`.
ActionHandler = Callable[["Interpreter", Transition], None]


@dataclass
class StepResult:
    """Everything that happened in one configuration cycle."""

    fired: List[Transition]
    entered: FrozenSet[str]
    exited: FrozenSet[str]
    configuration: FrozenSet[str]
    events_consumed: FrozenSet[str]
    events_raised: FrozenSet[str]

    @property
    def quiescent(self) -> bool:
        """True if nothing fired this cycle."""
        return not self.fired


def select_transitions(chart: Chart,
                       enabled: List[Transition]) -> List[Transition]:
    """Resolve conflicts among *enabled* transitions: outermost scope wins,
    ties by declaration order.

    The reference interpreter (the oracle) is its only caller.  The
    machine and the bounded model checker apply the same rule through the
    SLA's guard-signal network (:meth:`repro.sla.synth.Pla.enabled`), which
    the fuzz oracle and the SLA tests check against this one.
    """
    ranked = sorted(
        enabled,
        key=lambda t: (chart.depth(chart.transition_scope(t)), t.index))
    chosen: List[Transition] = []
    scopes: List[str] = []
    for transition in ranked:
        scope = chart.transition_scope(transition)
        if any(chart.is_ancestor(s, scope) or chart.is_ancestor(scope, s)
               for s in scopes):
            continue
        chosen.append(transition)
        scopes.append(scope)
    chosen.sort(key=lambda t: t.index)
    return chosen


class Interpreter:
    """Reference interpreter for a chart.

    Parameters
    ----------
    chart:
        The chart to execute (must be well-formed; REF states resolved).
    actions:
        Optional mapping from routine name (e.g. ``"GetByte"``) to a Python
        handler executed when a transition with that action fires.  Unmapped
        actions are recorded but have no effect — exactly like a TEP routine
        that touches only local data.
    """

    def __init__(self, chart: Chart,
                 actions: Optional[Dict[str, ActionHandler]] = None) -> None:
        self.chart = chart
        self.actions = dict(actions or {})
        self.configuration: FrozenSet[str] = chart.initial_configuration()
        self.condition_values: Dict[str, bool] = {
            name: condition.initial
            for name, condition in chart.conditions.items()}
        #: events raised internally during the current step; they become
        #: visible in the *next* configuration cycle (CR write port).
        self._raised: Set[str] = set()
        self.cycle = 0
        self.action_log: List[str] = []

    # -- CR access used by action handlers --------------------------------
    def raise_event(self, name: str) -> None:
        """Raise an internal event; visible next configuration cycle."""
        if name not in self.chart.events:
            raise KeyError(f"unknown event {name!r}")
        self._raised.add(name)

    def set_condition(self, name: str, value: bool) -> None:
        """Write a condition (TEPs do this through their condition caches)."""
        if name not in self.chart.conditions:
            raise KeyError(f"unknown condition {name!r}")
        self.condition_values[name] = bool(value)

    def condition(self, name: str) -> bool:
        return self.condition_values[name]

    def in_state(self, name: str) -> bool:
        return name in self.configuration

    # -- stepping -----------------------------------------------------------
    def asserted_signals(self, events: Iterable[str]) -> Set[str]:
        """The set of names true in the CR for a given external event set."""
        asserted = set(events) | self._raised
        asserted.update(n for n, v in self.condition_values.items() if v)
        return asserted

    def enabled(self, events: Iterable[str]) -> List[Transition]:
        """All transitions enabled in the current configuration."""
        asserted = self.asserted_signals(events)
        result = []
        for transition in self.chart.transitions:
            if transition.source not in self.configuration:
                continue
            if transition.trigger is not None and not transition.trigger.evaluate(asserted):
                continue
            if transition.guard is not None and not transition.guard.evaluate(asserted):
                continue
            result.append(transition)
        return result

    def select(self, enabled: List[Transition]) -> List[Transition]:
        """Resolve conflicts: outermost scope wins, then declaration order."""
        return select_transitions(self.chart, enabled)

    def step(self, events: Iterable[str] = ()) -> StepResult:
        """Run one configuration cycle with the given external events."""
        events = set(events)
        unknown = events - set(self.chart.events)
        if unknown:
            raise KeyError(f"unknown external events {sorted(unknown)!r}")
        # Events raised by the previous cycle's TEPs are sampled together
        # with this cycle's external events.
        visible_events = events | self._raised
        self._raised = set()

        enabled = self.enabled(visible_events)
        fired = self.select(enabled)

        exited: Set[str] = set()
        entered: Set[str] = set()
        configuration = set(self.configuration)
        for transition in fired:
            exit_set = self.chart.exit_set(transition, frozenset(configuration))
            entry_set = self.chart.entry_set(transition)
            configuration -= exit_set
            configuration |= entry_set
            exited |= exit_set
            entered |= entry_set

        self.configuration = frozenset(configuration)

        for transition in fired:
            if transition.call is not None:
                self.action_log.append(transition.action)
                handler = self.actions.get(transition.call.routine)
                if handler is not None:
                    handler(self, transition)

        consumed = frozenset(
            name for transition in fired for name in transition.names_consumed()
            if name in self.chart.events and name in visible_events)
        self.cycle += 1
        return StepResult(
            fired=fired,
            entered=frozenset(entered),
            exited=frozenset(exited),
            configuration=self.configuration,
            events_consumed=consumed,
            events_raised=frozenset(self._raised),
        )

    def run(self, event_trace: Iterable[Iterable[str]]) -> List[StepResult]:
        """Run one step per element of *event_trace*; return all results."""
        return [self.step(events) for events in event_trace]

    def reset(self) -> None:
        """Return to the initial configuration and condition values."""
        self.configuration = self.chart.initial_configuration()
        self.condition_values = {
            name: condition.initial
            for name, condition in self.chart.conditions.items()}
        self._raised = set()
        self.cycle = 0
        self.action_log = []
