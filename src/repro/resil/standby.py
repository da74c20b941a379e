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
* when the primary restores its latest checkpoint after a machine
  escalation, the supervisor sends ``rewind``: the standby already holds
  that checkpoint's state, so it drops the items buffered since, which
  the restore undid, and restores the held state the same way;
* when the primary dies, escalation becomes **promotion**: the standby
  drains the rest of its delta log (reaching the primary's last
  acknowledged state), ships a fresh full checkpoint and takes over as
  the shard's primary — same process, same socket, no rewind.  The
  supervisor then redispatches the in-flight items it still holds, as
  it would to a respawned primary.

The standby never talks to the primary directly; the supervisor owns the
stream and the ledger, Harel-style: inter-object coordination lives in
one place and the replicas stay sequential and isolated.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.resil.delta import snapshot_fingerprint
from repro.resil.snapshot import restore_machine, snapshot_machine
from repro.resil.supervisor import FarmConfig, WorkerCore, farm_machine


class StandbyLog:
    """The delta log: teed items buffered between checkpoints.

    ``append`` takes item documents in the primary's processed order;
    ``take_through`` hands back the items needed to reach a watermark
    (a cumulative processed count), and ``drain`` the whole remainder.
    """

    def __init__(self) -> None:
        self._items: List[Dict[str, Any]] = []
        self.replayed = 0

    def __len__(self) -> int:
        return len(self._items)

    def append(self, items: List[Dict[str, Any]]) -> None:
        self._items.extend(items)

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
        #: the primary this standby becomes once promoted
        self.successor: Optional[WorkerCore] = None

    # -- replay ------------------------------------------------------------
    def _replay(self, items: List[Dict[str, Any]]) -> None:
        for item in items:
            self.machine.step(tuple(item["events"]))

    # -- the op table ------------------------------------------------------
    def ready(self) -> Dict[str, Any]:
        return {"op": "ready", "role": "standby"}

    def ops(self) -> Dict[str, Callable[[Dict[str, Any]], Dict[str, Any]]]:
        return {"tee": self.on_tee, "advance": self.on_advance,
                "rewind": self.on_rewind, "promote": self.on_promote}

    def farewell(self) -> Dict[str, Any]:
        """What the ``bye`` reply to ``stop`` carries besides transport."""
        return {}

    # -- operations --------------------------------------------------------
    def on_tee(self, message: Dict[str, Any]) -> Dict[str, Any]:
        self.log.append(message["items"])
        return {"op": "ok", "buffered": len(self.log)}

    def on_advance(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Replay through the checkpoint watermark, then prove the state:
        its fingerprint must be the one the supervisor's reconstruction of
        the primary's checkpoint proved."""
        self._replay(self.log.take_through(message["through"]))
        verified = snapshot_fingerprint(snapshot_machine(self.machine)) \
            == message["fingerprint"]
        return {"op": "advanced", "replayed": self.log.replayed,
                "buffered": len(self.log), "verified": verified}

    def on_rewind(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """The primary restored its latest checkpoint, which this standby
        already holds: drop what it buffered since, and restore the held
        state the same way, so that the guard drops its in-flight
        recovery state as the primary's did."""
        # the dropped items still count toward the watermark, as the
        # primary's processed count keeps them
        self.log.drain()
        restore_machine(self.machine, snapshot_machine(self.machine))
        return {"op": "rewound", "replayed": self.log.replayed}

    def on_promote(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Drain the delta log and take over as the shard's primary.

        The replica's machine reaches the dead primary's last acknowledged
        state and serves on as the shard's primary, anchored at a fresh
        full checkpoint.
        """
        self._replay(self.log.drain())
        self.successor = WorkerCore(self.config, self.machine,
                                    lineage=self.lineage,
                                    processed=self.log.replayed)
        return {"op": "promoted", "replayed": self.log.replayed,
                "checkpoint": self.successor.anchor()}
