"""The Configuration Register at run time.

"The state information, together with the encoded events and conditions,
forms the configuration register (CR) of the chart.  Its content describes
the current state of an application."

The runtime object keeps the symbolic view (event/condition/state sets) and
produces the packed bit vector the SLA's compiled planes evaluate.  The
symbolic view is authoritative and the packed word only a cache of it: the
state field is re-encoded only when :attr:`configuration` is a different
(frozen) object, and the event and condition bits are ORed in from
precomputed masks.  The configuration stays symbolic because a fault can
produce one the state encoding cannot represent (a stuck-on SLA output
forcing a transition whose source is not active); round-tripping it
through the code would hide exactly what the guard's exclusivity checker
exists to catch.  :meth:`~repro.sla.encode.CrLayout.pack` remains the
reference the packed word is tested against.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Set

from repro.sla.encode import CrLayout


class ConfigurationRegister:
    """Events, conditions and the state field, with CR-bit packing."""

    def __init__(self, layout: CrLayout) -> None:
        self.layout = layout
        chart = layout.chart
        self.events: Set[str] = set()
        self.conditions: Set[str] = {
            name for name, condition in chart.conditions.items()
            if condition.initial}
        self.configuration: FrozenSet[str] = chart.initial_configuration()
        self._event_names = frozenset(layout.event_bits)
        #: event/condition name -> its CR bit as a mask
        self._signal_masks: Dict[str, int] = {
            name: 1 << bit for bits in (layout.event_bits,
                                        layout.condition_bits)
            for name, bit in bits.items()}
        #: the configuration the cached state field encodes, and the field
        self._encoded: Optional[FrozenSet[str]] = None
        self._state_word = 0

    # -- event part ---------------------------------------------------------
    def sample_events(self, external: Iterable[str],
                      internal: Iterable[str]) -> None:
        """Start of a configuration cycle: load this cycle's events."""
        events = set(external).union(internal)
        unknown = events - self._event_names
        if unknown:
            raise KeyError(f"unknown events {sorted(unknown)!r}")
        self.events = events

    def reset_events(self) -> None:
        """End of cycle: "events are only available during a single system
        cycle" — the SLA resets the event part of the CR."""
        self.events = set()

    # -- condition part --------------------------------------------------------
    def condition_vector(self) -> Dict[str, bool]:
        return {name: name in self.conditions
                for name in self.layout.chart.conditions}

    def write_conditions(self, values: Dict[str, bool]) -> None:
        for name, value in values.items():
            if name not in self.layout.chart.conditions:
                raise KeyError(f"unknown condition {name!r}")
            if value:
                self.conditions.add(name)
            else:
                self.conditions.discard(name)

    # -- fault-injection hooks ------------------------------------------------
    def flip_event(self, name: str) -> bool:
        """Single-bit upset in the event part; returns the new presence."""
        if name not in self.layout.chart.events:
            raise KeyError(f"unknown event {name!r}")
        if name in self.events:
            self.events.discard(name)
            return False
        self.events.add(name)
        return True

    def flip_condition(self, name: str) -> bool:
        """Single-bit upset in the condition part; returns the new presence."""
        if name not in self.layout.chart.conditions:
            raise KeyError(f"unknown condition {name!r}")
        if name in self.conditions:
            self.conditions.discard(name)
            return False
        self.conditions.add(name)
        return True

    def corrupt_state_bit(self, bit: int) -> FrozenSet[str]:
        """Single-bit upset in the state part.

        Re-decodes the corrupted state word, so the resulting configuration
        may be illegal (an OR-selector pointing at an unused code point) —
        exactly what the guard's exclusivity checker exists to catch.
        Returns the new configuration."""
        encoding = self.layout.encoding
        bits = encoding.encode(self.configuration) ^ (1 << bit)
        self.configuration = frozenset(encoding.active_states(bits))
        return self.configuration

    # -- packed view -----------------------------------------------------------
    def state_field(self, configuration: FrozenSet[str]) -> int:
        """*configuration*'s state code, in place in the packed word."""
        layout = self.layout
        return layout.encoding.encode(configuration) << layout.state_offset

    def load_state(self, configuration: FrozenSet[str],
                   state_field: int) -> None:
        """Make *configuration* the state part, its :meth:`state_field`
        already known to be *state_field*: the next word needs no
        re-encoding."""
        self.configuration = self._encoded = configuration
        self._state_word = state_field

    @property
    def bits(self) -> int:
        """The packed CR word (see the module docstring for the caching)."""
        return self.word(self.events)

    def word(self, events: Iterable[str]) -> int:
        """The packed word with *events* as the event part: what
        :attr:`bits` reads after :meth:`sample_events` of *events* alone."""
        configuration = self.configuration
        if configuration is not self._encoded:
            self._state_word = self.state_field(configuration)
            self._encoded = configuration
        word = self._state_word
        masks = self._signal_masks
        for name in events:
            word |= masks[name]
        for name in self.conditions:
            word |= masks[name]
        return word

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CR(events={sorted(self.events)}, "
                f"conditions={sorted(self.conditions)}, "
                f"states={sorted(self.configuration)})")
