"""Bounded admission queues with backpressure and priority load shedding.

The farm's unit of work is a :class:`WorkItem` — one configuration cycle's
worth of external events plus a priority.  Each
:class:`~repro.resil.supervisor.WorkerCore` owns one
:class:`BoundedQueue`; admission follows the backpressure ladder:

1. queue has room → **accepted** (FIFO; priority never reorders service,
   only shedding — accepted work is processed in arrival order);
2. queue full, some queued item has *strictly lower* priority than the
   arrival → the lowest-priority (oldest among ties) queued item is
   **shed** (``overload``) and the arrival is accepted;
3. queue full, nothing cheaper queued → the arrival is **rejected**
   (``queue-full``) — the caller is told immediately, nothing is dropped
   silently.

Every outcome is reported with a reason so the supervisor's conservation
check (admitted = processed + shed + rejected + in-flight) can be asserted
exactly; no event is ever double-counted or silently lost.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

#: rejection reasons (backpressure — the producer keeps the item)
REJECT_QUEUE_FULL = "queue-full"
REJECT_CIRCUIT_OPEN = "circuit-open"
REJECT_WORKER_FAILED = "worker-failed"
#: shed reasons (the farm accepted the item, then dropped it with a report)
SHED_OVERLOAD = "overload"
SHED_WORKER_FAILED = "worker-failed"


@dataclass(frozen=True)
class WorkItem:
    """One admitted unit of work: a cycle's external events."""

    seq: int
    events: Tuple[str, ...]
    priority: int = 0  # higher = more important; survives shedding longer
    #: trace context: with ``seq`` this names the item's stable lineage
    #: identity ``ev:<origin>:<seq>`` across processes and redispatch
    origin: str = "stream"

    @property
    def trace_id(self) -> str:
        return f"ev:{self.origin}:{self.seq}"

    def describe(self) -> str:
        return (f"item {self.seq} p{self.priority} "
                f"[{', '.join(self.events)}]")


@dataclass
class Admission:
    """The queue's verdict on one offered item."""

    accepted: bool
    reason: Optional[str] = None
    #: the queued item evicted to admit the arrival, if any
    shed: Optional[WorkItem] = None


class BoundedQueue:
    """A FIFO with a hard capacity and priority-based shedding."""

    def __init__(self, capacity: int, shed_enabled: bool = True) -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        self.capacity = capacity
        self.shed_enabled = shed_enabled
        self._items: Deque[WorkItem] = deque()
        self.high_watermark = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    def offer(self, item: WorkItem) -> Admission:
        """Admit *item* if there is room or something cheaper to shed."""
        if not self.full:
            self._push(item)
            return Admission(accepted=True)
        if self.shed_enabled:
            victim_pos = self._cheapest_below(item.priority)
            if victim_pos is not None:
                victim = self._items[victim_pos]
                del self._items[victim_pos]
                self._push(item)
                return Admission(accepted=True, shed=victim)
        return Admission(accepted=False, reason=REJECT_QUEUE_FULL)

    def _push(self, item: WorkItem) -> None:
        self._items.append(item)
        if len(self._items) > self.high_watermark:
            self.high_watermark = len(self._items)

    def _cheapest_below(self, priority: int) -> Optional[int]:
        """Position of the lowest-priority queued item strictly below
        *priority* (oldest among ties), or ``None``."""
        best_pos: Optional[int] = None
        best_priority = priority
        for pos, queued in enumerate(self._items):
            if queued.priority < best_priority:
                best_pos, best_priority = pos, queued.priority
        return best_pos

    def pop(self) -> Optional[WorkItem]:
        return self._items.popleft() if self._items else None

    def push_front(self, item: WorkItem) -> None:
        """Return an in-flight item to the head (retry after a restart)."""
        self._items.appendleft(item)

    def drain(self) -> List[WorkItem]:
        """Remove and return everything (terminal worker shutdown)."""
        items = list(self._items)
        self._items.clear()
        return items


class CircuitBreaker:
    """Per-worker circuit breaker over supervisor ticks.

    ``closed`` admits traffic; ``failure_threshold`` consecutive failures
    open it for ``cooldown_ticks``; after the cooldown it goes ``half-open``
    and admits work again — the first success closes it, the first failure
    re-opens it for a fresh cooldown.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, failure_threshold: int = 3,
                 cooldown_ticks: int = 8) -> None:
        if failure_threshold < 1:
            raise ValueError("failure threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.cooldown_ticks = cooldown_ticks
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.opened_count = 0
        self._reopen_at: Optional[int] = None

    def admits(self, tick: int) -> bool:
        if self.state == self.OPEN and tick >= (self._reopen_at or 0):
            self.state = self.HALF_OPEN
        return self.state != self.OPEN

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self.state = self.CLOSED

    def record_failure(self, tick: int) -> None:
        self.consecutive_failures += 1
        if (self.state == self.HALF_OPEN
                or self.consecutive_failures >= self.failure_threshold):
            self.state = self.OPEN
            self.opened_count += 1
            self._reopen_at = tick + self.cooldown_ticks
