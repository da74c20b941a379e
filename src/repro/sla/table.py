"""The Transition Address Table (Fig. 1).

"The SLA generates the addresses of the transitions to be executed according
to the statechart description. […] Transitions are scheduled until the
Transition Address Table is empty."

Statically the TAT maps each transition index to the program-memory address
of its *transition stub* (a CALL into the action routine followed by TRET),
fixed when a build is linked.  At run time it acts as the queue the
scheduler drains into the TEPs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Iterable, List, Mapping, Optional


class TatError(Exception):
    """Raised on malformed table usage."""


@dataclass
class TransitionAddressTable:
    """Static address map + runtime FIFO of pending transitions."""

    #: transition index -> program entry label; a machine's table holds its
    #: image's read-only :attr:`~repro.pscp.machine.MachineImage.entries`
    entries: Mapping[int, str]
    _pending: Deque[int] = field(default_factory=deque)

    # -- static side ------------------------------------------------------
    def entry(self, transition_index: int) -> str:
        try:
            return self.entries[transition_index]
        except KeyError:
            raise TatError(
                f"transition {transition_index} has no bound address") from None

    # -- runtime side ---------------------------------------------------------
    def post(self, transition_indices: Iterable[int]) -> None:
        """The SLA writes the enabled transitions of this configuration."""
        for index in transition_indices:
            if index not in self.entries:
                raise TatError(f"posting unbound transition {index}")
            self._pending.append(index)

    def pop(self) -> Optional[int]:
        """The scheduler hands the next transition to a TEP."""
        return self._pending.popleft() if self._pending else None

    @property
    def empty(self) -> bool:
        return not self._pending

    @property
    def pending(self) -> List[int]:
        return list(self._pending)

    def clear(self) -> None:
        self._pending.clear()
