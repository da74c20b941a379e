"""Transition dispatch: round-robin over TEPs, with mutual exclusions.

"The scheduler copies the contents of the condition part of the CR into the
local condition caches, and assigns the execution of the individual
transitions to the available TEPs employing a round-robin protocol.  Thus,
depending on the number of TEPs, several transitions can be executed in
parallel."  And for multi-TEP versions: "designers must indicate which
transition routines should be mutually exclusive.  Then, additional decode
logic can be generated so that mutually exclusive routines are not scheduled
in parallel."

The simulator executes transitions sequentially (so shared-memory effects
are deterministic); parallelism is a *timing* model: the cycle's length is
the makespan of the per-TEP queues.  Mutually exclusive routines are forced
onto the same TEP queue, which serializes them exactly as the paper's decode
logic would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.isa.arch import ArchConfig

#: scheduler cycles to enable the SLA and latch the Transition Address Table
SLA_OVERHEAD_CYCLES = 2
#: scheduler cycles per dispatched transition: trigger the TEP, transition
#: address pickup, condition-cache copy-in and copy-back
DISPATCH_OVERHEAD_CYCLES = 4


@dataclass
class DispatchPlan:
    """Per-TEP queues for one configuration cycle."""

    queues: List[List[int]]
    #: execution order across the machine (queue-major is NOT the order —
    #: transitions run in index order for deterministic shared state)
    order: List[int]
    #: (transition index, tep) pairs that were pulled off the round-robin
    #: rotation onto an exclusion partner's queue — each one is a
    #: serialization stall the mutual-exclusion decode logic would cause
    diverted: List[Tuple[int, int]] = field(default_factory=list)

    def tep_of(self, transition_index: int) -> int:
        for tep, queue in enumerate(self.queues):
            if transition_index in queue:
                return tep
        raise KeyError(transition_index)

    def makespan(self, cost: Callable[[int], int]) -> int:
        """Cycle count of the parallel phase given per-transition costs."""
        if not self.order:
            return 0
        return max(
            sum(cost(index) + DISPATCH_OVERHEAD_CYCLES for index in queue)
            for queue in self.queues if queue)


def round_robin_dispatch(
    transition_indices: Sequence[int],
    routine_of: Callable[[int], Optional[str]],
    arch: ArchConfig,
    available_teps: Optional[Sequence[int]] = None,
) -> DispatchPlan:
    """Assign this cycle's transitions to TEP queues.

    Round-robin in transition-index order; a transition whose routine is
    declared mutually exclusive with a routine already queued on another TEP
    is appended to *that* TEP's queue instead (serialization through the
    generated decode logic).

    ``available_teps`` restricts the rotation to the given TEP indices (TEP
    failover: survivors absorb the failed TEP's share, degrading timing
    gracefully).  ``None`` means all of ``arch.n_teps`` — the default path is
    bit-identical to the historical scheduler.
    """
    teps = (list(available_teps) if available_teps is not None
            else list(range(arch.n_teps)))
    if not teps:
        raise ValueError("no TEP available for dispatch")
    queues: List[List[int]] = [[] for _ in range(arch.n_teps)]
    order = sorted(transition_indices)
    diverted: List[Tuple[int, int]] = []
    rotation = 0
    for index in order:
        routine = routine_of(index)
        target = None
        if routine is not None and arch.mutual_exclusions:
            for tep in teps:
                for queued in queues[tep]:
                    other = routine_of(queued)
                    if other is not None and arch.mutually_exclusive(routine, other):
                        target = tep
                        break
                if target is not None:
                    break
        if target is None:
            target = teps[rotation % len(teps)]
            rotation += 1
        else:
            diverted.append((index, target))
        queues[target].append(index)
    return DispatchPlan(queues, order, diverted)
