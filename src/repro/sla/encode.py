"""State encoding with exclusivity sets, and the Configuration Register
layout.

"The efficient state encoding of a chart involves the generation of
exclusivity sets, which was first described in [5]" (Drusinsky's single-block
state assignment).  The idea: children of an OR-state can never be active
simultaneously — they form an exclusivity set and may share encoding bits —
while the regions of an AND-state are concurrently active and need disjoint
bits.  Recursively:

* a basic state needs 0 bits;
* an OR-state needs ``ceil(log2(n))`` selector bits plus the *maximum* of
  its children's widths (children overlay the same suffix field);
* an AND-state needs the *sum* of its regions' widths.

A state's activity is then a conjunction of equality constraints on selector
fields along its root path — exactly the AND-plane terms the SLA needs.

The CR (Fig. 1) holds ``E0..Ek`` (events), ``C0..Cj`` (conditions) and
``S0..Sl`` (the state field): this module assigns every signal and state its
bit position(s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Tuple

from repro.statechart.model import Chart, StateKind


@dataclass(frozen=True)
class FieldConstraint:
    """``value`` must sit in the ``width`` bits starting at ``offset``."""

    offset: int
    width: int
    value: int

    def matches(self, bits: int) -> bool:
        mask = (1 << self.width) - 1
        return (bits >> self.offset) & mask == self.value


@dataclass
class StateEncoding:
    """The exclusivity-set (binary) encoding of a chart's state tree."""

    chart: Chart
    width: int
    #: per state: the selector constraints that make it active
    constraints: Dict[str, Tuple[FieldConstraint, ...]]

    def is_active(self, state: str, bits: int) -> bool:
        return all(c.matches(bits) for c in self.constraints[state])

    def active_states(self, bits: int) -> FrozenSet[str]:
        return frozenset(s for s in self.constraints
                         if self.is_active(s, bits))

    def encode(self, configuration: Iterable[str]) -> int:
        """Bits for a configuration (a consistent set of active states)."""
        bits = 0
        for state in configuration:
            for constraint in self.constraints[state]:
                bits |= constraint.value << constraint.offset
        return bits

    def term_literals(self, state: str) -> List[Tuple[int, bool]]:
        """(bit index, required value) pairs asserting *state* is active —
        the AND-plane literals of the SLA."""
        literals: List[Tuple[int, bool]] = []
        for constraint in self.constraints[state]:
            for bit in range(constraint.width):
                literals.append((constraint.offset + bit,
                                 bool((constraint.value >> bit) & 1)))
        return literals


def _selector_width(n_children: int) -> int:
    return 0 if n_children <= 1 else math.ceil(math.log2(n_children))


def binary_encoding(chart: Chart) -> StateEncoding:
    """Drusinsky-style exclusivity-set encoding of the chart."""
    constraints: Dict[str, List[FieldConstraint]] = {}

    def width_of(name: str) -> int:
        state = chart.states[name]
        if not state.children:
            return 0
        child_widths = [width_of(c) for c in state.children]
        if state.kind is StateKind.AND:
            return sum(child_widths)
        return _selector_width(len(state.children)) + max(child_widths)

    def assign(name: str, offset: int,
               inherited: Tuple[FieldConstraint, ...]) -> None:
        constraints[name] = list(inherited)
        state = chart.states[name]
        if not state.children:
            return
        if state.kind is StateKind.AND:
            cursor = offset
            for child in state.children:
                assign(child, cursor, inherited)
                cursor += width_of(child)
            return
        selector = _selector_width(len(state.children))
        for index, child in enumerate(state.children):
            child_constraints = inherited
            if selector:
                child_constraints = inherited + (
                    FieldConstraint(offset, selector, index),)
            assign(child, offset + selector, child_constraints)

    assign(chart.root, 0, ())
    return StateEncoding(
        chart, width_of(chart.root),
        {name: tuple(cs) for name, cs in constraints.items()})


def onehot_encoding(chart: Chart) -> StateEncoding:
    """One flip-flop per non-root state (the simple alternative)."""
    constraints: Dict[str, Tuple[FieldConstraint, ...]] = {chart.root: ()}
    names = [s.name for s in chart.preorder() if s.name != chart.root]
    for index, name in enumerate(names):
        constraints[name] = (FieldConstraint(index, 1, 1),)
    return StateEncoding(chart, len(names), constraints)


@dataclass
class CrLayout:
    """Bit assignment of the Configuration Register."""

    chart: Chart
    encoding: StateEncoding
    event_bits: Dict[str, int]
    condition_bits: Dict[str, int]
    state_offset: int

    @property
    def width(self) -> int:
        return self.state_offset + self.encoding.width

    def signal_bit(self, name: str) -> int:
        if name in self.event_bits:
            return self.event_bits[name]
        return self.condition_bits[name]

    def state_literals(self, state: str) -> List[Tuple[int, bool]]:
        """State-activity literals shifted into CR bit positions."""
        return [(self.state_offset + bit, value)
                for bit, value in self.encoding.term_literals(state)]

    def pack(self, events: Iterable[str], conditions: Iterable[str],
             configuration: Iterable[str]) -> int:
        """Assemble a CR value from symbolic contents."""
        bits = 0
        for event in events:
            bits |= 1 << self.event_bits[event]
        for condition in conditions:
            bits |= 1 << self.condition_bits[condition]
        bits |= self.encoding.encode(configuration) << self.state_offset
        return bits

    def unpack(self, bits: int):
        """(events, conditions, active states) from a CR value."""
        events = {name for name, bit in self.event_bits.items()
                  if (bits >> bit) & 1}
        conditions = {name for name, bit in self.condition_bits.items()
                      if (bits >> bit) & 1}
        states = self.encoding.active_states(bits >> self.state_offset)
        return events, conditions, states

    def input_names(self) -> List[str]:
        """One name per CR bit, LSB first (for BLIF/VHDL emission)."""
        names = [""] * self.width
        for event, bit in self.event_bits.items():
            names[bit] = f"ev_{event}"
        for condition, bit in self.condition_bits.items():
            names[bit] = f"cond_{condition}"
        for index in range(self.encoding.width):
            names[self.state_offset + index] = f"state_{index}"
        return names


def cr_layout(chart: Chart, onehot: bool = False) -> CrLayout:
    """Lay out the CR: events first, then conditions, then the state field
    (matching the E0:Ek / C0:Cj / S0:Sl split of Fig. 1)."""
    encoding = onehot_encoding(chart) if onehot else binary_encoding(chart)
    event_bits = {name: index for index, name in enumerate(chart.events)}
    condition_bits = {name: len(event_bits) + index
                      for index, name in enumerate(chart.conditions)}
    state_offset = len(event_bits) + len(condition_bits)
    return CrLayout(chart, encoding, event_bits, condition_bits, state_offset)
