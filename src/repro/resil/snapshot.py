"""Versioned checkpoint/restore for the PSCP machine.

A :class:`MachineSnapshot` captures the architectural state of a
:class:`~repro.pscp.machine.PscpMachine` at a configuration-cycle boundary
and nothing else: the CR event/condition/state parts, the TEP's registers,
flags, RAM and condition cache, pending Transition Address Table entries,
pending internal events (raised-event traffic waiting for the next cycle's
sample), the port latches, the condition-cache bus counters, the failed-TEP
set and the time and cycle counters.  A restored machine produces the
*exact same* :class:`~repro.pscp.machine.MachineStep` sequence as the
original from the snapshot cycle onward (the round-trip property the tests
assert).

:func:`snapshot_machine` and :func:`restore_machine` are the one way in and
out.  Attachments keep their own state across a restore: a fault
injector's faults that already bit stay consumed, a flight recorder keeps
its ring, and an attached guard drops only its in-flight recovery state,
which belongs to the timeline the restore discards.

Snapshots are JSON documents: :meth:`MachineSnapshot.to_json` /
:meth:`~MachineSnapshot.from_json` round-trip byte-identically through
:meth:`~MachineSnapshot.to_json_str` (canonical key order).  Every document
carries ``SNAPSHOT_VERSION`` plus the chart name and architecture
description; :func:`restore_machine` refuses a snapshot from a different
version, chart or architecture, or one naming an event, condition or state
the chart does not declare, instead of silently corrupting state.

The machine's hot path never sees any of this: snapshotting is a pull-style
read of machine state, so with snapshots unused the per-cycle behaviour is
byte-identical to the pre-snapshot machine (the same zero-overhead
discipline as the tracer and injector hooks).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Any, Dict, List

#: bump when the document layout changes; ``restore`` refuses other versions
SNAPSHOT_VERSION = 1

#: version-1 sections named for attachment state (a timer bank, a fault
#: injector, a guard, a flight recorder), always ``null``: a snapshot is
#: the machine's architectural state only
ATTACHMENT_SECTIONS = ("timers", "injector", "guard", "flight_recorder")


class SnapshotError(Exception):
    """Raised for malformed, incompatible or wrong-version snapshots."""


# ---------------------------------------------------------------------------
# the snapshot document
# ---------------------------------------------------------------------------

@dataclass
class MachineSnapshot:
    """One machine's architectural state at a configuration-cycle boundary.

    Construct with :func:`snapshot_machine`; apply with
    :func:`restore_machine`.
    """

    version: int
    chart: str
    arch: str
    cycle_count: int
    time: int
    cr: Dict[str, List[str]]
    pending_internal_events: List[str]
    executor: Dict[str, Any]
    tat_pending: List[int]
    port_latches: Dict[str, int]
    bridge: Dict[str, int]
    failed_teps: List[int]

    # -- serialization -----------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "chart": self.chart,
            "arch": self.arch,
            "cycle_count": self.cycle_count,
            "time": self.time,
            "cr": self.cr,
            "pending_internal_events": self.pending_internal_events,
            "executor": self.executor,
            "tat_pending": self.tat_pending,
            "port_latches": self.port_latches,
            "bridge": self.bridge,
            "failed_teps": self.failed_teps,
            # the keys stay: dropping them would change every document's
            # bytes, so the delta chain would compact at other checkpoints
            **dict.fromkeys(ATTACHMENT_SECTIONS),
        }

    def to_json_str(self) -> str:
        """Canonical (sorted-key, compact) JSON — byte-comparable."""
        return json.dumps(self.to_json(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, document: Dict[str, Any]) -> "MachineSnapshot":
        try:
            version = document["version"]
        except (TypeError, KeyError):
            raise SnapshotError("not a machine snapshot: no version field")
        if version != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"snapshot version {version} is not supported "
                f"(this build reads version {SNAPSHOT_VERSION})")
        attached = [name for name in ATTACHMENT_SECTIONS
                    if document.get(name) is not None]
        if attached:
            raise SnapshotError(
                f"snapshot carries attachment state {attached!r}; a "
                f"snapshot holds the machine's architectural state only")
        try:
            return cls(**{name: document[name] for name in _FIELDS})
        except KeyError as exc:
            raise SnapshotError(f"snapshot missing field {exc}") from None

    @classmethod
    def from_json_str(cls, text: str) -> "MachineSnapshot":
        return cls.from_json(json.loads(text))


_FIELDS = tuple(f.name for f in fields(MachineSnapshot))


# ---------------------------------------------------------------------------
# capture
# ---------------------------------------------------------------------------

def snapshot_machine(machine) -> MachineSnapshot:
    """Capture *machine*'s architectural state (call between steps)."""
    executor = machine.executor
    return MachineSnapshot(
        version=SNAPSHOT_VERSION,
        chart=machine.chart.name,
        arch=machine.arch.describe(),
        cycle_count=machine.cycle_count,
        time=machine.time,
        cr={
            "events": sorted(machine.cr.events),
            "conditions": sorted(machine.cr.conditions),
            "configuration": sorted(machine.cr.configuration),
        },
        pending_internal_events=sorted(machine._pending_internal_events),
        executor={
            "acc": executor.acc,
            "op": executor.op,
            "z": executor.z,
            "c": executor.c,
            "n": executor.n,
            "registers": list(executor.registers),
            "internal": {str(a): v for a, v in
                         sorted(executor.internal.items())},
            "external": {str(a): v for a, v in
                         sorted(executor.external.items())},
            "condition_cache": list(executor.condition_cache),
            "events_raised": sorted(executor.events_raised),
            "call_stack": list(executor.call_stack),
            "cycles": executor.cycles,
            "instructions_executed": executor.instructions_executed,
        },
        tat_pending=machine.tat.pending,
        port_latches={str(a): v for a, v in
                      sorted(machine.ports._latches.items())},
        bridge={
            "words_copied_in": machine.cond_cache_bridge.words_copied_in,
            "words_copied_back": machine.cond_cache_bridge.words_copied_back,
            "transfers": machine.cond_cache_bridge.transfers,
        },
        failed_teps=sorted(machine.failed_teps),
    )


# ---------------------------------------------------------------------------
# restore
# ---------------------------------------------------------------------------

def _check_names(snapshot: MachineSnapshot, chart) -> None:
    """Refuse CR contents the chart does not declare: an unknown state or
    condition would otherwise surface as a raw ``KeyError`` at the next
    step, and an unknown event would be silently dropped."""
    named = (("cr.events", snapshot.cr["events"], chart.events),
             ("cr.conditions", snapshot.cr["conditions"], chart.conditions),
             ("cr.configuration", snapshot.cr["configuration"],
              chart.states),
             ("pending_internal_events", snapshot.pending_internal_events,
              chart.events))
    for name, values, declared in named:
        unknown = sorted(set(values) - set(declared))
        if unknown:
            raise SnapshotError(
                f"snapshot field {name} names {unknown!r}, unknown to "
                f"chart {chart.name!r}")


def restore_machine(machine, snapshot: MachineSnapshot) -> None:
    """Load *snapshot* into *machine*, replacing its architectural state.

    The machine must have been built from the same chart and architecture
    (checked by name/description).  Attachments keep their own state: an
    injector's faults that already bit stay consumed, so one fault cannot
    wedge a machine in an escalation loop, and a flight recorder keeps its
    ring.  An attached guard drops its in-flight recovery state (scheduled
    retries, open aborts, attempt counts, the illegal-configuration
    streak), which refers to the timeline the restore discards; its
    detection log and counters are history and survive.
    """
    if snapshot.version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot version {snapshot.version} is not supported "
            f"(this build reads version {SNAPSHOT_VERSION})")
    if snapshot.chart != machine.chart.name:
        raise SnapshotError(
            f"snapshot of chart {snapshot.chart!r} cannot restore a "
            f"{machine.chart.name!r} machine")
    if snapshot.arch != machine.arch.describe():
        raise SnapshotError(
            f"snapshot architecture {snapshot.arch!r} does not match "
            f"machine architecture {machine.arch.describe()!r}")
    _check_names(snapshot, machine.chart)

    machine.cycle_count = snapshot.cycle_count
    machine.time = snapshot.time
    machine.cr.events = set(snapshot.cr["events"])
    machine.cr.conditions = set(snapshot.cr["conditions"])
    machine.cr.configuration = frozenset(snapshot.cr["configuration"])
    machine._pending_internal_events = set(snapshot.pending_internal_events)

    executor = machine.executor
    doc = snapshot.executor
    executor.acc = doc["acc"]
    executor.op = doc["op"]
    executor.z = doc["z"]
    executor.c = doc["c"]
    executor.n = doc["n"]
    executor.registers = list(doc["registers"])
    executor.internal = {int(a): v for a, v in doc["internal"].items()}
    executor.external = {int(a): v for a, v in doc["external"].items()}
    executor.condition_cache = list(doc["condition_cache"])
    executor.events_raised = set(doc["events_raised"])
    executor.call_stack = list(doc["call_stack"])
    executor.cycles = doc["cycles"]
    executor.instructions_executed = doc["instructions_executed"]

    machine.tat.clear()
    machine.tat.post(snapshot.tat_pending)
    machine.ports._latches = {int(a): v for a, v in
                              snapshot.port_latches.items()}
    bridge = machine.cond_cache_bridge
    bridge.words_copied_in = snapshot.bridge["words_copied_in"]
    bridge.words_copied_back = snapshot.bridge["words_copied_back"]
    bridge.transfers = snapshot.bridge["transfers"]

    machine.failed_teps = set(snapshot.failed_teps)
    survivors = [i for i in range(machine.arch.n_teps)
                 if i not in machine.failed_teps]
    machine._available_teps = (survivors if machine.failed_teps else None)

    if machine.guard is not None:
        machine.guard.reset_transient()
