"""Fault models: what can go wrong, where, and when.

The paper targets reactive embedded controllers whose real hazard is not
average speed but behaviour under faults: lost or duplicated bus events,
corrupted CR bits, runaway transition routines.  This module defines the
*static* side of the fault subsystem — a taxonomy of fault kinds, a seeded
generator, and the :class:`FaultPlan` a
:class:`~repro.fault.injector.FaultInjector` executes against a running
:class:`~repro.pscp.machine.PscpMachine`.

Every fault is **cycle-addressed**: it names the configuration cycle at
which it arms.  Faults that need a victim that may not be present at that
exact cycle (an event on the bus, a transition dispatch) stay armed and bite
at the first opportunity at or after their cycle, so a plan's effect is a
deterministic function of (plan, stimulus) — the property the campaign
runner and the CI smoke job assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

# ---------------------------------------------------------------------------
# fault kinds
# ---------------------------------------------------------------------------

#: external-event bus faults (the port/event bus between environment and CR)
EVENT_DROP = "event-drop"
EVENT_DUPLICATE = "event-duplicate"
EVENT_DELAY = "event-delay"
#: single-bit upsets in the Configuration Register
CR_EVENT_FLIP = "cr-event-flip"
CR_CONDITION_FLIP = "cr-condition-flip"
CR_STATE_FLIP = "cr-state-flip"
#: condition-cache corruption around the copy-in / copy-back traffic
CACHE_IN_FLIP = "cache-in-flip"
CACHE_BACK_FLIP = "cache-back-flip"
#: TEP-side faults: RAM bit flip, routine stall, routine runaway, dead TEP
RAM_FLIP = "ram-flip"
TEP_STALL = "tep-stall"
TEP_RUNAWAY = "tep-runaway"
TEP_FAIL = "tep-fail"
#: stuck-at faults on SLA product-term outputs
SLA_STUCK_ON = "sla-stuck-on"
SLA_STUCK_OFF = "sla-stuck-off"
#: a data port that reads a stuck value
PORT_STUCK = "port-stuck"

ALL_FAULT_KINDS: Tuple[str, ...] = (
    EVENT_DROP, EVENT_DUPLICATE, EVENT_DELAY,
    CR_EVENT_FLIP, CR_CONDITION_FLIP, CR_STATE_FLIP,
    CACHE_IN_FLIP, CACHE_BACK_FLIP,
    RAM_FLIP, TEP_STALL, TEP_RUNAWAY, TEP_FAIL,
    SLA_STUCK_ON, SLA_STUCK_OFF, PORT_STUCK,
)

#: kinds the machine's detection machinery can catch, keyed by detector
WATCHDOG_KINDS = frozenset({TEP_STALL, TEP_RUNAWAY})
ILLEGAL_CONFIG_KINDS = frozenset({CR_STATE_FLIP, SLA_STUCK_ON})
FAILOVER_KINDS = frozenset({TEP_FAIL})
DETECTABLE_KINDS = WATCHDOG_KINDS | ILLEGAL_CONFIG_KINDS | FAILOVER_KINDS

#: cycles a runaway routine is charged when no watchdog bounds it
DEFAULT_RUNAWAY_CYCLES = 50_000


class FaultError(Exception):
    """Raised for malformed fault plans."""


@dataclass(frozen=True)
class Fault:
    """One seeded fault.

    ``cycle`` is the configuration-cycle index at which the fault arms.
    ``target`` names the victim (event/condition name, CR state bit, cache
    slot, transition index, TEP index, port address or memory word,
    depending on ``kind``); ``param`` carries the kind-specific magnitude
    (delay in cycles, stall cycles, stuck port value, bit index …).
    """

    kind: str
    cycle: int
    target: object = None
    param: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ALL_FAULT_KINDS:
            raise FaultError(f"unknown fault kind {self.kind!r}")
        if self.cycle < 0:
            raise FaultError(f"fault cycle must be >= 0, got {self.cycle}")

    def describe(self) -> str:
        text = f"{self.kind}@{self.cycle}"
        if self.target is not None:
            text += f" target={self.target}"
        if self.param:
            text += f" param={self.param}"
        return text


#: a farm-level fault: SIGKILL a worker process mid-dispatch.  This is
#: deliberately NOT in :data:`ALL_FAULT_KINDS` — it is injected by the
#: :class:`~repro.resil.shardfarm.ShardSupervisor`, not by the machine's
#: :class:`~repro.fault.injector.FaultInjector`, because a process death
#: is not observable from inside the machine it kills.
PROCESS_KILL = "process-kill"

KILL_TARGET_PRIMARY = "primary"
KILL_TARGET_STANDBY = "standby"


@dataclass(frozen=True)
class ProcessKill:
    """One seeded process kill in a distributed-farm chaos plan.

    ``tick`` is the supervisor tick at which the kill fires; ``shard``
    names the victim shard; ``target`` picks the primary or its standby.
    For a primary the kill rides the tick's dispatch: the worker SIGKILLs
    *itself* after processing ``after_items`` items — a real, uncatchable
    death at a deterministic stream position, so two same-seed runs die at
    identical points and produce byte-identical ledgers.
    """

    tick: int
    shard: int
    target: str = KILL_TARGET_PRIMARY
    after_items: int = 0

    def __post_init__(self) -> None:
        if self.tick < 1:
            raise FaultError(f"kill tick must be >= 1, got {self.tick}")
        if self.shard < 0:
            raise FaultError(f"kill shard must be >= 0, got {self.shard}")
        if self.target not in (KILL_TARGET_PRIMARY, KILL_TARGET_STANDBY):
            raise FaultError(f"unknown kill target {self.target!r}")
        if self.after_items < 0:
            raise FaultError(
                f"after_items must be >= 0, got {self.after_items}")

    def describe(self) -> str:
        return (f"{PROCESS_KILL}@tick{self.tick} shard={self.shard} "
                f"target={self.target} after={self.after_items}")


def generate_kill_plan(n_shards: int, n_kills: int, seed: int = 1,
                       max_tick: int = 40, max_after_items: int = 2,
                       standby_fraction: float = 0.0
                       ) -> List["ProcessKill"]:
    """A seeded chaos plan of :class:`ProcessKill` events.

    Deterministic for identical arguments; at most one kill per
    (tick, shard) so two kills never race for the same dispatch.
    """
    import random

    if n_shards < 1:
        raise FaultError("a kill plan needs >= 1 shard")
    rng = random.Random(seed)
    kills: List[ProcessKill] = []
    used = set()
    attempts = 0
    while len(kills) < n_kills and attempts < n_kills * 20:
        attempts += 1
        tick = rng.randrange(2, max(3, max_tick + 1))
        shard = rng.randrange(n_shards)
        if (tick, shard) in used:
            continue
        used.add((tick, shard))
        target = (KILL_TARGET_STANDBY
                  if rng.random() < standby_fraction
                  else KILL_TARGET_PRIMARY)
        kills.append(ProcessKill(
            tick=tick, shard=shard, target=target,
            after_items=rng.randrange(max_after_items + 1)))
    return sorted(kills, key=lambda k: (k.tick, k.shard))


@dataclass(frozen=True)
class InjectedFault:
    """One fault that actually bit, as logged by the injector."""

    kind: str
    cycle: int
    target: object = None
    detail: str = ""

    def describe(self) -> str:
        text = f"{self.kind}@{self.cycle}"
        if self.target is not None:
            text += f" target={self.target}"
        if self.detail:
            text += f" ({self.detail})"
        return text


# ---------------------------------------------------------------------------
# the fault surface: what a machine exposes to corruption
# ---------------------------------------------------------------------------

@dataclass
class FaultSurface:
    """The addressable victims of one built system.

    The generator draws targets from here; everything is materialized in a
    deterministic order so a seeded plan is identical across runs.
    """

    events: List[str]
    conditions: List[str]
    state_bits: int
    #: state bits belonging to OR-selector fields with unused code points —
    #: flipping one of these *can* decode to no active child, the illegal
    #: configuration the exclusivity checker catches
    fragile_state_bits: List[int]
    n_teps: int
    n_transitions: int
    cache_slots: List[int]
    memory_words: List[object]  # Mem operands, allocation order
    port_addresses: List[int]

    @classmethod
    def from_system(cls, system) -> "FaultSurface":
        """Derive the surface from a :class:`~repro.flow.build.BuiltSystem`."""
        return cls.from_parts(system.chart, system.compiled, system.pla,
                              system.arch)

    @classmethod
    def from_parts(cls, chart, compiled, pla, arch) -> "FaultSurface":
        from repro.isa.isa import Mem

        encoding = pla.layout.encoding
        memory_words = []
        for loc in compiled.allocator.locations.values():
            for operand in loc.words:
                if isinstance(operand, Mem):
                    memory_words.append(operand)
        return cls(
            events=sorted(chart.events),
            conditions=sorted(chart.conditions),
            state_bits=encoding.width,
            fragile_state_bits=_fragile_state_bits(chart, encoding),
            n_teps=arch.n_teps,
            n_transitions=len(chart.transitions),
            cache_slots=sorted(compiled.maps.conditions.values()),
            memory_words=memory_words,
            port_addresses=sorted(compiled.maps.ports.values()),
        )


def _fragile_state_bits(chart, encoding) -> List[int]:
    """Selector bits whose OR-state has unused code points (non-power-of-2
    child counts) — the flips most likely to decode to an illegal
    configuration."""
    fragile = set()
    seen = set()
    for constraints in encoding.constraints.values():
        for constraint in constraints:
            key = (constraint.offset, constraint.width)
            if key in seen or constraint.width == 0:
                continue
            seen.add(key)
            # count the distinct values used for this selector field
            values = {c.value for cs in encoding.constraints.values()
                      for c in cs
                      if (c.offset, c.width) == key}
            if len(values) < (1 << constraint.width):
                fragile.update(range(constraint.offset,
                                     constraint.offset + constraint.width))
    return sorted(fragile)


# ---------------------------------------------------------------------------
# the plan
# ---------------------------------------------------------------------------

@dataclass
class FaultPlan:
    """An ordered, seeded set of faults for one run."""

    faults: Tuple[Fault, ...] = ()
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        self.faults = tuple(sorted(self.faults,
                                   key=lambda f: (f.cycle, f.kind)))

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def by_kind(self) -> Dict[str, List[Fault]]:
        grouped: Dict[str, List[Fault]] = {}
        for fault in self.faults:
            grouped.setdefault(fault.kind, []).append(fault)
        return grouped

    def describe(self) -> List[str]:
        return [fault.describe() for fault in self.faults]

    @classmethod
    def empty(cls) -> "FaultPlan":
        return cls()

    @classmethod
    def generate(cls, rng, surface: FaultSurface, kinds: Sequence[str],
                 n_faults: int = 1, horizon: int = 1000,
                 warmup: int = 2) -> "FaultPlan":
        """Draw *n_faults* faults of the given *kinds* from *surface*.

        ``rng`` is a ``random.Random``; identical (rng state, surface,
        arguments) produce an identical plan.  Cycles are drawn uniformly in
        ``[warmup, horizon)``.
        """
        faults = []
        for index in range(n_faults):
            kind = kinds[index % len(kinds)]
            cycle = rng.randrange(warmup, max(warmup + 1, horizon))
            faults.append(_generate_one(rng, surface, kind, cycle))
        return cls(tuple(faults))


def _generate_one(rng, surface: FaultSurface, kind: str, cycle: int) -> Fault:
    if kind in (EVENT_DROP, EVENT_DUPLICATE, EVENT_DELAY):
        if not surface.events:
            raise FaultError("surface has no events to fault")
        target = rng.choice(surface.events)
        param = rng.randrange(1, 5) if kind != EVENT_DROP else 0
        return Fault(kind, cycle, target, param)
    if kind == CR_EVENT_FLIP:
        return Fault(kind, cycle, rng.choice(surface.events))
    if kind == CR_CONDITION_FLIP:
        if not surface.conditions:
            raise FaultError("surface has no conditions to fault")
        return Fault(kind, cycle, rng.choice(surface.conditions))
    if kind == CR_STATE_FLIP:
        pool = surface.fragile_state_bits or list(range(surface.state_bits))
        if not pool:
            raise FaultError("surface has no state bits to fault")
        return Fault(kind, cycle, rng.choice(pool))
    if kind in (CACHE_IN_FLIP, CACHE_BACK_FLIP):
        if not surface.cache_slots:
            raise FaultError("surface has no condition-cache slots")
        return Fault(kind, cycle, rng.choice(surface.cache_slots))
    if kind == RAM_FLIP:
        if not surface.memory_words:
            raise FaultError("surface has no RAM words to fault")
        word = surface.memory_words[rng.randrange(len(surface.memory_words))]
        return Fault(kind, cycle, word, rng.randrange(0, 8))
    if kind == TEP_STALL:
        return Fault(kind, cycle, None, rng.randrange(500, 5000))
    if kind == TEP_RUNAWAY:
        return Fault(kind, cycle, None, DEFAULT_RUNAWAY_CYCLES)
    if kind == TEP_FAIL:
        if surface.n_teps < 2:
            raise FaultError("TEP failover needs at least two TEPs")
        return Fault(kind, cycle, rng.randrange(surface.n_teps))
    if kind in (SLA_STUCK_ON, SLA_STUCK_OFF):
        return Fault(kind, cycle, rng.randrange(surface.n_transitions))
    if kind == PORT_STUCK:
        if not surface.port_addresses:
            raise FaultError("surface has no ports to fault")
        return Fault(kind, cycle, rng.choice(surface.port_addresses),
                     rng.randrange(0, 256))
    raise FaultError(f"unknown fault kind {kind!r}")
