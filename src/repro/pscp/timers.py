"""Timers and interrupt-style events (the paper's "future work", section 6).

"Future work will include … the addition of timers and interrupt
capabilities."  Both are well-defined enough to provide behind explicit
opt-in:

* :class:`Timer` — a hardware counter that raises an event into the CR every
  ``period`` reference-clock cycles (exactly how the SMD example's motor
  counters "issue a pulse on zero");
* :class:`InterruptController` — marks selected events as *preemptive*:
  when one arrives, the scheduler processes its configuration cycle with
  only the interrupt-consuming transitions first (modelled as event
  prioritization, since configuration cycles are atomic).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Set, Tuple


@dataclass
class Timer:
    """A free-running down-counter that fires an event on zero."""

    event: str
    period: int
    #: first firing offset; defaults to one full period
    phase: Optional[int] = None
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("timer period must be positive")
        self._next = self.phase if self.phase is not None else self.period

    def advance(self, now: int, until: int) -> List[int]:
        """Firing times in the half-open interval (now, until]."""
        if not self.enabled:
            return []
        fires = []
        while self._next <= until:
            if self._next > now:
                fires.append(self._next)
            self._next += self.period
        return fires

    def reset(self, at_time: int = 0) -> None:
        self._next = at_time + (self.phase if self.phase is not None
                                else self.period)


class TimerBank:
    """A set of timers stepped together with the machine clock."""

    def __init__(self, timers: Iterable[Timer] = ()) -> None:
        self.timers: List[Timer] = list(timers)

    def add(self, timer: Timer) -> Timer:
        self.timers.append(timer)
        return timer

    def events_between(self, now: int, until: int) -> List[Tuple[int, str]]:
        """(time, event) pairs fired in (now, until], time-ordered."""
        fired = []
        for timer in self.timers:
            for time in timer.advance(now, until):
                fired.append((time, timer.event))
        return sorted(fired)

    def pending_events(self, now: int, until: int) -> Set[str]:
        return {event for _, event in self.events_between(now, until)}


class InterruptController:
    """Priority filter for preemptive events.

    When any registered interrupt event is present in a cycle's sample, the
    controller masks all non-interrupt events for that cycle so the
    interrupt's transitions run with minimum latency; the masked events are
    replayed in the following cycle (the hardware analogue: the interrupt
    logic holds the normal event lines for one configuration cycle).
    """

    def __init__(self, interrupt_events: Iterable[str]) -> None:
        self.interrupt_events = set(interrupt_events)
        self._held: Set[str] = set()

    def filter(self, events: Iterable[str]) -> Set[str]:
        events = set(events) | self._held
        self._held = set()
        arrived_interrupts = events & self.interrupt_events
        if arrived_interrupts and events - self.interrupt_events:
            self._held = events - self.interrupt_events
            return arrived_interrupts
        return events

    @property
    def held_events(self) -> Set[str]:
        return set(self._held)
