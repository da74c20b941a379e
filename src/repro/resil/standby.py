"""Hot-standby replicas: replay one checkpoint behind, promote on death.

A critical shard's failure story without a standby is *rewind and
replay*: respawn a process, restore the last checkpoint, re-run the
in-flight items — a recovery whose latency grows with checkpoint spacing.
A :class:`~repro.resil.shardfarm.ShardSupervisor` started with
``standby=True`` instead pairs every primary with a **hot standby
process** serving this module's op handlers:

* the supervisor **tees** every item the primary *processed* (in
  processed order) to the standby, where it lands in the replay buffer —
  the **delta log**;
* at every primary checkpoint the supervisor sends ``advance``: the
  standby replays buffered items up to the checkpoint watermark, so its
  machine state deliberately trails the primary by **exactly one
  checkpoint**, and then proves itself — its own snapshot fingerprint
  must equal the fingerprint of the snapshot the supervisor
  reconstructed from the primary's (delta-encoded) checkpoint.  Replay
  determinism and delta reconstruction verify each other continuously;
* when the primary dies, escalation becomes **promotion**: the standby
  drains the rest of its delta log (reaching the primary's last
  acknowledged state), replays the in-flight items the supervisor still
  holds, emits a fresh full checkpoint, and takes over as the shard's
  primary — same process, same socket, no rewind.

The standby never talks to the primary directly; the supervisor owns the
stream and the ledger, Harel-style: inter-object coordination lives in
one place and the replicas stay sequential and isolated.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.resil.shardfarm import SHED_MACHINE_ESCALATION, WorkerCore
from repro.resil.snapshot import snapshot_machine
from repro.resil.supervisor import FarmConfig, farm_machine


class StandbyLog:
    """The delta log: teed items buffered between checkpoints.

    ``append`` takes item documents in the primary's processed order;
    ``take_through`` hands back the items needed to reach a watermark
    (a cumulative processed count), and ``drain`` the whole remainder.
    """

    def __init__(self) -> None:
        self._items: List[Dict[str, Any]] = []
        self.teed = 0
        self.replayed = 0

    def __len__(self) -> int:
        return len(self._items)

    def append(self, items: List[Dict[str, Any]]) -> None:
        self._items.extend(items)
        self.teed += len(items)

    def take_through(self, watermark: int) -> List[Dict[str, Any]]:
        """Items to replay so that ``replayed`` reaches *watermark*."""
        need = max(0, watermark - self.replayed)
        batch, self._items = self._items[:need], self._items[need:]
        self.replayed += len(batch)
        return batch

    def drain(self) -> List[Dict[str, Any]]:
        batch, self._items = self._items, []
        self.replayed += len(batch)
        return batch


class StandbyReplica:
    """Process-side state of one hot standby: its op handlers under
    :func:`~repro.resil.shardfarm.serve_worker`.

    It replays on a :func:`~repro.resil.supervisor.farm_machine` of
    *system*; *config* and *lineage* are handed to the :class:`WorkerCore`
    that takes over as the shard's primary on promotion.
    """

    def __init__(self, system, config: FarmConfig,
                 lineage: bool = False) -> None:
        self.machine = farm_machine(system)
        self.config = config
        self.lineage = lineage
        self.log = StandbyLog()
        self.verified = 0
        self.divergences = 0
        #: the primary this standby becomes once promoted
        self.successor: Optional[WorkerCore] = None

    # -- replay ------------------------------------------------------------
    def _replay(self, items: List[Dict[str, Any]]) -> None:
        for item in items:
            self.machine.step(tuple(item["events"]))

    def fingerprint(self) -> str:
        from repro.resil.delta import snapshot_fingerprint

        return snapshot_fingerprint(snapshot_machine(self.machine))

    # -- the op table ------------------------------------------------------
    def ready(self) -> Dict[str, Any]:
        return {"op": "ready", "role": "standby"}

    def ops(self) -> Dict[str, Callable[[Dict[str, Any]], Dict[str, Any]]]:
        return {"tee": self.on_tee, "advance": self.on_advance,
                "promote": self.on_promote}

    def farewell(self) -> Dict[str, Any]:
        """What the ``bye`` reply to ``stop`` carries besides transport."""
        return {"verified": self.verified, "divergences": self.divergences}

    # -- operations --------------------------------------------------------
    def on_tee(self, message: Dict[str, Any]) -> Dict[str, Any]:
        self.log.append(message["items"])
        return {"op": "ok", "buffered": len(self.log)}

    def on_advance(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Replay through the checkpoint watermark, then prove the state."""
        self._replay(self.log.take_through(message["through"]))
        verified: Optional[bool] = None
        expected = message.get("fingerprint")
        if expected is not None:
            verified = self.fingerprint() == expected
            if verified:
                self.verified += 1
            else:
                self.divergences += 1
        return {"op": "advanced", "replayed": self.log.replayed,
                "buffered": len(self.log), "verified": verified}

    def on_promote(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Drain the delta log, replay the in-flight items, take over.

        ``retry`` items were accepted by the dead primary but never
        processed; ``fresh`` items were dispatched but never acknowledged.
        Both are (re)played here — the supervisor sorts out the ledger
        (retry items keep their acceptance, fresh ones gain it).  The
        replica's machine then serves on as the shard's primary.
        """
        from repro.fault.guard import MachineEscalation
        from repro.pscp.machine import MachineError

        self._replay(self.log.drain())
        processed: List[int] = []
        dropped: List[List[Any]] = []
        escalation: Optional[str] = None
        pending = list(message.get("retry", ())) + \
            list(message.get("fresh", ()))
        for item in pending:
            if escalation is not None:
                dropped.append([item["seq"], SHED_MACHINE_ESCALATION])
                continue
            try:
                self.machine.step(tuple(item["events"]))
            except (MachineEscalation, MachineError) as exc:
                escalation = str(exc)
                dropped.append([item["seq"], SHED_MACHINE_ESCALATION])
                continue
            processed.append(item["seq"])
        snapshot = snapshot_machine(self.machine)
        watermark = self.log.replayed + len(processed)
        self.successor = WorkerCore(self.config, self.machine,
                                    lineage=self.lineage,
                                    processed=watermark)
        return {
            "op": "promoted",
            "replayed": self.log.replayed,
            "processed": processed,
            "dropped": dropped,
            "escalation": escalation,
            "checkpoint": {"kind": "full", "doc": snapshot.to_json(),
                           "processed": watermark,
                           "cycle": snapshot.cycle_count},
        }
