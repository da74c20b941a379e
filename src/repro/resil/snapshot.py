"""Versioned checkpoint/restore for the PSCP machine.

A :class:`MachineSnapshot` captures the *complete architectural state* of a
:class:`~repro.pscp.machine.PscpMachine` at a configuration-cycle boundary:
the CR event/condition/state parts, the TEP's registers, flags, RAM and
condition cache, pending Transition Address Table entries, pending internal
events (raised-event traffic waiting for the next cycle's sample), the port
latches, the condition-cache bus counters, the failed-TEP set and the time
and cycle counters.  Optionally it also captures:

* an attached :class:`~repro.fault.injector.FaultInjector`'s remaining
  faults, armed re-deliveries and stuck ports, and
* an attached :class:`~repro.fault.guard.MachineGuard`'s retry heap, open
  aborts, detection log and counters,
* an attached :class:`~repro.obs.FlightRecorder`'s digested ring (so a
  restore-then-escalate still dumps a complete forensics bundle), and
* a :class:`~repro.pscp.timers.TimerBank` passed alongside the machine,

so that a restored machine produces the *exact same*
:class:`~repro.pscp.machine.MachineStep` sequence as the original from the
snapshot cycle onward — even mid fault campaign (the round-trip property the
tests assert).

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
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.obs.flightrec import FlightRecorder

#: bump when the document layout changes; ``restore`` refuses other versions
SNAPSHOT_VERSION = 1


class SnapshotError(Exception):
    """Raised for malformed, incompatible or wrong-version snapshots."""


# ---------------------------------------------------------------------------
# operand / fault (de)serialization
# ---------------------------------------------------------------------------

def _encode_operand(operand) -> Any:
    """JSON-encode a fault target (int, str, None, Mem or Reg operand)."""
    from repro.isa.isa import Mem, Reg

    if operand is None or isinstance(operand, (int, str)):
        return operand
    if isinstance(operand, Mem):
        return {"__op__": "mem", "address": operand.address,
                "space": operand.space.name}
    if isinstance(operand, Reg):
        return {"__op__": "reg", "index": operand.index}
    raise SnapshotError(f"cannot serialize fault target {operand!r}")


def _decode_operand(data) -> Any:
    from repro.isa.arch import StorageClass
    from repro.isa.isa import Mem, Reg

    if not isinstance(data, dict):
        return data
    if data.get("__op__") == "mem":
        return Mem(data["address"], StorageClass[data["space"]])
    if data.get("__op__") == "reg":
        return Reg(data["index"])
    raise SnapshotError(f"unknown operand encoding {data!r}")


def _encode_fault(fault) -> Dict[str, Any]:
    return {"kind": fault.kind, "cycle": fault.cycle,
            "target": _encode_operand(fault.target), "param": fault.param}


def _decode_fault(data: Dict[str, Any]):
    from repro.fault.model import Fault

    return Fault(data["kind"], data["cycle"],
                 _decode_operand(data["target"]), data["param"])


def _encode_injected(record) -> Dict[str, Any]:
    return {"kind": record.kind, "cycle": record.cycle,
            "target": _encode_operand(record.target),
            "detail": record.detail}


def _decode_injected(data: Dict[str, Any]):
    from repro.fault.model import InjectedFault

    return InjectedFault(data["kind"], data["cycle"],
                         _decode_operand(data["target"]), data["detail"])


# ---------------------------------------------------------------------------
# the snapshot document
# ---------------------------------------------------------------------------

@dataclass
class MachineSnapshot:
    """One machine's architectural state at a configuration-cycle boundary.

    Construct with :func:`snapshot_machine` (or
    :meth:`PscpMachine.snapshot`); apply with :func:`restore_machine` (or
    :meth:`PscpMachine.restore`).  The ``guard``/``injector``/``timers``
    sections are optional — ``None`` when the corresponding attachment was
    absent at snapshot time.
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
    timers: Optional[List[Dict[str, Any]]] = None
    injector: Optional[Dict[str, Any]] = None
    guard: Optional[Dict[str, Any]] = None
    #: flight-recorder ring (attachment state); explicitly ``None`` when no
    #: recorder was attached, so a document always states the fact
    flight_recorder: Optional[Dict[str, Any]] = None

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
            "timers": self.timers,
            "injector": self.injector,
            "guard": self.guard,
            "flight_recorder": self.flight_recorder,
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
        try:
            fields = {name: document[name] for name in (
                "version", "chart", "arch", "cycle_count", "time", "cr",
                "pending_internal_events", "executor", "tat_pending",
                "port_latches", "bridge", "failed_teps", "timers",
                "injector", "guard")}
        except KeyError as exc:
            raise SnapshotError(f"snapshot missing field {exc}") from None
        # optional since its introduction: version-1 documents written
        # before the flight recorder existed simply carried no ring
        fields["flight_recorder"] = document.get("flight_recorder")
        return cls(**fields)

    @classmethod
    def from_json_str(cls, text: str) -> "MachineSnapshot":
        return cls.from_json(json.loads(text))


# ---------------------------------------------------------------------------
# capture
# ---------------------------------------------------------------------------

def snapshot_machine(machine, include_attachments: bool = True,
                     timer_bank=None) -> MachineSnapshot:
    """Capture *machine*'s architectural state (call between steps).

    ``include_attachments`` also captures the state of an attached fault
    injector and guard, so a restored machine continues a fault campaign
    exactly where it stood.  Pass a
    :class:`~repro.pscp.timers.TimerBank` to capture its phase alongside.
    """
    executor = machine.executor
    snap = MachineSnapshot(
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
    if timer_bank is not None:
        snap.timers = [timer.snapshot_state() for timer in timer_bank.timers]
    if include_attachments:
        if machine.injector is not None:
            snap.injector = _snapshot_injector(machine.injector)
        if machine.guard is not None:
            snap.guard = _snapshot_guard(machine.guard)
        recorder = machine.observer(FlightRecorder)
        if recorder is not None:
            snap.flight_recorder = recorder.snapshot_state()
    return snap


def _snapshot_injector(injector) -> Dict[str, Any]:
    return {
        "event_faults": [_encode_fault(f) for f in injector._event_faults],
        "cycle_faults": [_encode_fault(f) for f in injector._cycle_faults],
        "dispatch_faults": [_encode_fault(f)
                            for f in injector._dispatch_faults],
        "sla_faults": [_encode_fault(f) for f in injector._sla_faults],
        "reinjections": {str(cycle): sorted(events) for cycle, events in
                         sorted(injector._reinjections.items())},
        "stuck_ports": {str(a): v for a, v in
                        sorted(injector._stuck_ports.items())},
        "injected": [_encode_injected(r) for r in injector.injected],
    }


def _snapshot_guard(guard) -> Dict[str, Any]:
    detections = [
        {"kind": d.kind, "cycle": d.cycle,
         "target": _encode_operand(d.target), "detail": d.detail,
         "recovered": d.recovered}
        for d in guard.detections]
    index_of = {id(d): i for i, d in enumerate(guard.detections)}
    return {
        "detections": detections,
        "open_aborts": {str(t): index_of[id(d)]
                        for t, d in sorted(guard._open_aborts.items())},
        "retry_heap": [list(entry) for entry in sorted(guard._retry_heap)],
        "retry_seq": guard._retry_seq,
        "attempts": {str(t): n for t, n in sorted(guard._attempts.items())},
        "consecutive_illegal": guard._consecutive_illegal,
        "counters": {name: getattr(guard, name) for name in _GUARD_COUNTERS},
    }


_GUARD_COUNTERS = (
    "watchdog_aborts", "retries_scheduled", "retries_succeeded",
    "retries_exhausted", "illegal_configurations", "safe_state_recoveries",
    "tep_failovers", "escalation_count",
)


# ---------------------------------------------------------------------------
# restore
# ---------------------------------------------------------------------------

def _check_names(snapshot: MachineSnapshot, chart) -> None:
    """Refuse CR contents the chart does not declare: an unknown state or
    condition would otherwise surface as a raw ``KeyError`` at the next
    step, and an unknown event would be silently dropped."""
    fields = (("cr.events", snapshot.cr["events"], chart.events),
              ("cr.conditions", snapshot.cr["conditions"], chart.conditions),
              ("cr.configuration", snapshot.cr["configuration"],
               chart.states),
              ("pending_internal_events", snapshot.pending_internal_events,
               chart.events))
    for name, values, declared in fields:
        unknown = sorted(set(values) - set(declared))
        if unknown:
            raise SnapshotError(
                f"snapshot field {name} names {unknown!r}, unknown to "
                f"chart {chart.name!r}")


def restore_machine(machine, snapshot: MachineSnapshot,
                    restore_attachments: bool = True,
                    timer_bank=None) -> None:
    """Load *snapshot* into *machine*, replacing its architectural state.

    The machine must have been built from the same chart and architecture
    (checked by name/description).  ``restore_attachments`` additionally
    loads the snapshot's injector/guard sections into the machine's
    *currently attached* injector/guard — required for byte-identical
    continuation of a fault campaign; the supervised farm restores with
    ``restore_attachments=False`` so a fault that already bit is not
    re-armed after a restart.
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

    if timer_bank is not None and snapshot.timers is not None:
        if len(snapshot.timers) != len(timer_bank.timers):
            raise SnapshotError(
                f"snapshot has {len(snapshot.timers)} timer(s), bank has "
                f"{len(timer_bank.timers)}")
        for timer, state in zip(timer_bank.timers, snapshot.timers):
            timer.restore_state(state)

    if restore_attachments:
        if snapshot.injector is not None:
            if machine.injector is None:
                raise SnapshotError(
                    "snapshot carries injector state but the machine has "
                    "no injector attached")
            _restore_injector(machine.injector, snapshot.injector)
        if snapshot.guard is not None:
            if machine.guard is None:
                raise SnapshotError(
                    "snapshot carries guard state but the machine has no "
                    "guard attached")
            _restore_guard(machine.guard, snapshot.guard)
        if snapshot.flight_recorder is not None:
            recorder = machine.observer(FlightRecorder)
            if recorder is None:
                raise SnapshotError(
                    "snapshot carries flight-recorder state but the "
                    "machine has no recorder attached")
            recorder.restore_state(snapshot.flight_recorder)


def _restore_injector(injector, doc: Dict[str, Any]) -> None:
    injector._event_faults = [_decode_fault(f) for f in doc["event_faults"]]
    injector._cycle_faults = [_decode_fault(f) for f in doc["cycle_faults"]]
    injector._dispatch_faults = [_decode_fault(f)
                                 for f in doc["dispatch_faults"]]
    injector._sla_faults = [_decode_fault(f) for f in doc["sla_faults"]]
    injector._reinjections = {int(cycle): set(events) for cycle, events in
                              doc["reinjections"].items()}
    injector._stuck_ports = {int(a): v for a, v in
                             doc["stuck_ports"].items()}
    injector.injected = [_decode_injected(r) for r in doc["injected"]]
    injector._cycle_log.clear()
    injector.state_touched = False


def _restore_guard(guard, doc: Dict[str, Any]) -> None:
    from repro.fault.guard import Detection

    guard.detections = [
        Detection(d["kind"], d["cycle"], _decode_operand(d["target"]),
                  d["detail"], recovered=d["recovered"])
        for d in doc["detections"]]
    guard._open_aborts = {int(t): guard.detections[i]
                          for t, i in doc["open_aborts"].items()}
    guard._retry_heap = [tuple(entry) for entry in doc["retry_heap"]]
    guard._retry_seq = doc["retry_seq"]
    guard._attempts = {int(t): n for t, n in doc["attempts"].items()}
    guard._consecutive_illegal = doc["consecutive_illegal"]
    for name in _GUARD_COUNTERS:
        setattr(guard, name, doc["counters"][name])
    guard._cycle_log.clear()


def write_snapshot(snapshot: MachineSnapshot, path: str) -> None:
    """Write a snapshot file **atomically** (temp file + ``os.replace``).

    A worker killed mid-checkpoint leaves either the previous snapshot or
    none — never a torn JSON file that poisons the next restore.
    """
    import os

    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as handle:
            handle.write(snapshot.to_json_str())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_snapshot(path: str) -> MachineSnapshot:
    """Load a snapshot file, attributing torn or corrupt files honestly."""
    import json

    with open(path) as handle:
        try:
            document = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SnapshotError(
                f"snapshot file {path!r} is truncated or corrupt (not "
                f"valid JSON at line {exc.lineno} column {exc.colno}): "
                f"{exc.msg}") from None
    return MachineSnapshot.from_json(document)
