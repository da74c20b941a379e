"""SLA synthesis: chart → PLA product terms (Fig. 1).

"The SLA … implements the semantics of the chart, and acts as a scheduler
for the transitions.  The SLA executes transitions based on the contents of
the CR.  The SLA generates four sets of outputs: It resets the event parts
of the CR …, it produces a set of signals for the Transition Address Table,
and updates the state part of the CR under the control of the guard signals
G0..Gm."

We synthesize a two-level (PLA) network over the CR bits:

* one output ``t<i>`` per transition: asserted when the source state is
  active and the trigger/guard expression holds (the expression's
  sum-of-products becomes one AND-plane row per product);
* one output ``evreset_<e>`` per event: events are consumed after each
  configuration cycle;
* the guard outputs ``g<m>``: conflict arbitration (outer scope wins,
  declaration order ties) is emitted as priority terms — output ``t<i>``
  suppressed by any conflicting higher-priority transition is listed in
  :attr:`Pla.guards` so the scheduler (hardware: extra decode logic) can
  apply them;
* the next-state plane: per transition, the states its firing clears (the
  strict descendants of its scope) and the states it sets (its entry set).

The simulator evaluates the PLA the way the hardware does: each
:class:`Pla` compiles its rows once into integer planes — an AND/OR row is
``(care_mask, value, out_bit)``, a guard is a suppress mask over the
transition outputs — so one SLA evaluation is a handful of integer tests on
the packed CR word.  The next-state plane is applied to the *symbolic*
configuration, not to the state code: a stuck-on SLA output can force a
transition whose update yields a configuration the encoding cannot
represent, and that illegal configuration is what the guard's exclusivity
checker must see.

The functional reference for all of this is the statechart interpreter; the
equivalence is property-tested.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.sla.encode import CrLayout, cr_layout
from repro.statechart.model import Chart


@dataclass(frozen=True)
class ProductTerm:
    """One AND-plane row: literals are (CR bit, required value)."""

    literals: Tuple[Tuple[int, bool], ...]

    def masks(self) -> Tuple[int, int]:
        """``(care_mask, value)``: the row matches a CR word *w* iff
        ``w & care_mask == value``."""
        care = value = 0
        for bit, required in self.literals:
            care |= 1 << bit
            if required:
                value |= 1 << bit
        return care, value


@dataclass
class Pla:
    """The synthesized SLA network."""

    layout: CrLayout
    #: per transition index: its product terms (OR-plane row)
    transition_terms: Dict[int, List[ProductTerm]]
    #: per transition index: the higher-priority transition indices that
    #: suppress it (the guard-signal network G0..Gm)
    guards: Dict[int, FrozenSet[int]]
    #: per transition index: ``(clear, entry)`` — the states its firing
    #: clears (its scope's strict descendants) and the states it sets (its
    #: entry set); the next-state plane
    next_state: Dict[int, Tuple[FrozenSet[str], FrozenSet[str]]]

    def __post_init__(self) -> None:
        #: the AND/OR planes: one ``(care_mask, value, out_bit)`` row per
        #: product term, ``out_bit`` the transition's output in the
        #: raw-enabled word
        self._rows: Tuple[Tuple[int, int, int], ...] = tuple(
            term.masks() + (1 << index,)
            for index in sorted(self.transition_terms)
            for term in self.transition_terms[index])
        #: per transition index: the outputs that suppress it
        self._suppress: Dict[int, int] = {
            index: sum(1 << other for other in suppressors)
            for index, suppressors in self.guards.items()}
        self._event_mask = sum(1 << bit
                               for bit in self.layout.event_bits.values())

    @property
    def product_terms(self) -> int:
        return sum(len(terms) for terms in self.transition_terms.values())

    def _raw_word(self, cr_bits: int) -> int:
        """The PLA outputs as a word: bit *i* is transition *i* (pre-guard)."""
        word = 0
        for care, value, out in self._rows:
            if cr_bits & care == value:
                word |= out
        return word

    def raw_enabled(self, cr_bits: int) -> List[int]:
        """Transition indices whose PLA output is asserted (pre-guard)."""
        return _indices(self._raw_word(cr_bits))

    def enabled(self, cr_bits: int) -> List[int]:
        """Transition indices after guard arbitration — what the Transition
        Address Table receives."""
        raw = self._raw_word(cr_bits)
        if not raw:
            return []
        suppress = self._suppress
        return [index for index in _indices(raw)
                if not raw & suppress[index]]

    def open_events(self, cr_bits: int) -> List[int]:
        """The event bits clear in *cr_bits* that can still change the
        outputs.  A row is live when its state, condition and asserted-event
        literals agree with *cr_bits*; the clear event bits a live row tests
        are the only inputs worth asserting — any other event leaves every
        output as it is."""
        free = self._event_mask & ~cr_bits
        fixed = ~free
        open_bits = 0
        for care, value, _ in self._rows:
            if not (cr_bits ^ value) & care & fixed:
                open_bits |= care & free
        return _indices(open_bits)

    def next_configuration(self, configuration: FrozenSet[str],
                           fired: Iterable[int]) -> FrozenSet[str]:
        """The state update of the *fired* transitions, in order: each
        clears its scope's strict descendants and sets its entry set."""
        updated = set(configuration)
        for index in fired:
            clear, entry = self.next_state[index]
            updated -= clear
            updated |= entry
        return frozenset(updated)

    def output_names(self) -> List[str]:
        return [f"t{index}" for index in sorted(self.transition_terms)]

    def as_products_by_output(self):
        """For the VHDL/BLIF emitters: output name -> (pos, neg) name pairs."""
        input_names = self.layout.input_names()
        result = {}
        for index, terms in self.transition_terms.items():
            rendered = []
            for term in terms:
                positive = [input_names[bit] for bit, value in term.literals
                            if value]
                negative = [input_names[bit] for bit, value in term.literals
                            if not value]
                rendered.append((positive, negative))
            result[f"t{index}"] = rendered
        return result


class SynthesisError(Exception):
    """Raised when a chart cannot be synthesized (e.g. unresolved refs)."""


def _expression_terms(expression, layout: CrLayout):
    """Sum-of-products of a trigger/guard over CR bit literals."""
    if expression is None:
        return [tuple()]
    products = expression.to_sop()
    if not products:
        # contradictory expression: transition can never fire
        return []
    rendered = []
    for positive, negative in products:
        literals = [(layout.signal_bit(name), True) for name in sorted(positive)]
        literals += [(layout.signal_bit(name), False) for name in sorted(negative)]
        rendered.append(tuple(literals))
    return rendered


def synthesize(chart: Chart, onehot: bool = False) -> Pla:
    """Build the SLA PLA for *chart*."""
    from repro.statechart.model import StateKind

    for state in chart.states.values():
        if state.kind is StateKind.REF:
            raise SynthesisError(
                f"chart {chart.name!r} still contains unresolved reference "
                f"{state.name!r}; run resolve_references() first")

    layout = cr_layout(chart, onehot=onehot)
    transition_terms: Dict[int, List[ProductTerm]] = {}

    for transition in chart.transitions:
        state_literals = layout.state_literals(transition.source)
        terms: List[ProductTerm] = []
        trigger_products = _expression_terms(transition.trigger, layout)
        guard_products = _expression_terms(transition.guard, layout)
        for trigger_term in trigger_products:
            for guard_term in guard_products:
                combined = dict(state_literals)
                consistent = True
                for bit, value in trigger_term + guard_term:
                    if combined.get(bit, value) != value:
                        consistent = False
                        break
                    combined[bit] = value
                if consistent:
                    terms.append(ProductTerm(tuple(sorted(combined.items()))))
        transition_terms[transition.index] = terms

    scopes = {t.index: chart.transition_scope(t) for t in chart.transitions}
    return Pla(layout, transition_terms, _guard_network(chart, scopes),
               _next_state_plane(chart, scopes))


def _indices(word: int) -> List[int]:
    """The set bit positions of *word*, ascending."""
    indices = []
    while word:
        low = word & -word
        indices.append(low.bit_length() - 1)
        word ^= low
    return indices


def _next_state_plane(chart: Chart, scopes: Dict[int, str]
                      ) -> Dict[int, Tuple[FrozenSet[str], FrozenSet[str]]]:
    """Per transition: ``(clear, entry)``.  Firing *t* from *c* yields
    ``(c - clear) | entry``, which equals the interpreter's
    ``(c - chart.exit_set(t, c)) | chart.entry_set(t)`` because the exit
    set is exactly the active part of the scope's strict descendants."""
    return {t.index: (frozenset(chart.descendants(scopes[t.index])),
                      chart.entry_set(t))
            for t in chart.transitions}


def _guard_network(chart: Chart, scopes: Dict[int, str]
                   ) -> Dict[int, FrozenSet[int]]:
    """Which transitions suppress which (outer scope wins, then index)."""
    guards: Dict[int, Set[int]] = {t.index: set() for t in chart.transitions}
    transitions = chart.transitions
    for a in transitions:
        scope_a = scopes[a.index]
        for b in transitions:
            if a.index == b.index:
                continue
            scope_b = scopes[b.index]
            related = (chart.is_ancestor(scope_a, scope_b)
                       or chart.is_ancestor(scope_b, scope_a))
            if not related:
                continue
            # b beats a if b's scope is strictly outer, or same depth
            # with a smaller index
            depth_a = chart.depth(scope_a)
            depth_b = chart.depth(scope_b)
            if depth_b < depth_a or (depth_b == depth_a and b.index < a.index):
                guards[a.index].add(b.index)
    return {index: frozenset(values) for index, values in guards.items()}
