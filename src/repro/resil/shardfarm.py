"""A distributed farm: the one farm engine, carried to OS processes.

The paper scales by adding TEPs inside one PSCP; the farm shards the same
supervised engine (:mod:`repro.resil.supervisor`) across **worker
processes**, ConPro-style — isolated sequential workers exchanging typed
frames over channels (:mod:`repro.resil.transport`).  The
:class:`ShardSupervisor` keeps its base :class:`Supervisor`'s tick loop,
routing, restart ladder and global conservation ledger (Harel-style
inter-object coordination in exactly one place) and adds only what
processes need:

* **fork**: each shard is a forked primary process serving a
  :class:`~repro.resil.supervisor.WorkerCore`; its checkpoints cross the
  wire through a :class:`~repro.resil.delta.DeltaChain` (full snapshot
  first, cheap deltas after) and the supervisor reconstructs each one;
* **heartbeats**: a killed worker leaves **EOF** on its channel, a hung
  one misses heartbeats (``MISS_THRESHOLD`` misses and it is SIGKILLed
  and handled as dead); a dead shard's traffic **reroutes** to the next
  live shard, or is rejected with a reason when nothing is live;
* **failover**: a process death climbs the engine's restart ladder by
  promoting the shard's **hot standby** (:mod:`repro.resil.standby`) or,
  after the ladder's backoff, **respawning** the primary from the latest
  checkpoint; either way its in-flight items are redispatched.  Past the
  restart budget queued work is shed ``shard-lost`` and in-dispatch work
  rejected ``shard-lost``, every item attributed;
* **chaos**: a seeded :class:`~repro.fault.model.ProcessKill` plan rides
  the dispatch as ``kill_after=j``, and the worker SIGKILLs *itself*
  after processing ``j`` items — a real uncatchable death at a
  deterministic stream position, so same-seed runs stay byte-identical.

``submitted = accepted + rejected + in-dispatch`` and ``accepted =
processed + shed + queued`` hold at every sample and at the end.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.resil.delta import DeltaBase, DeltaSnapshot
from repro.resil.queue import WorkItem
from repro.resil.snapshot import MachineSnapshot
from repro.resil.supervisor import (
    BACKOFF,
    FAILED,
    RUNNING,
    FarmConfig,
    RestartPolicy,
    Supervisor,
    Tally,
    Worker,
    WorkerCore,
    decode_item,
    encode_item,
    ledger_violations,
    render_verdict,
)
from repro.resil.transport import (
    Channel,
    DEFAULT_MAX_FRAME,
    TransportClosed,
    TransportError,
    TransportTimeout,
    channel_pair,
)

#: attribution reasons specific to the distributed farm
SHED_SHARD_LOST = "shard-lost"
SHED_RESPAWN_OVERFLOW = "respawn-overflow"

#: the byte ceiling of every frame between the supervisor and a worker
MAX_FRAME = DEFAULT_MAX_FRAME
#: seconds the supervisor waits for a forked worker's ``ready`` frame, and
#: for every other reply
START_TIMEOUT = 60.0
REQUEST_TIMEOUT = 30.0
#: missed heartbeats after which a silent worker is killed as hung
MISS_THRESHOLD = 3


class ShardFarmError(Exception):
    """Raised for unusable farm configurations."""


def serve_worker(child_sock, make_role: Callable[[], Any],
                 close_socks: Tuple = ()) -> None:
    """Entry point and op loop of every forked farm worker process.

    *make_role* builds the process's role once forked: a
    :class:`WorkerCore` (a shard primary) or a
    :class:`~repro.resil.standby.StandbyReplica`, whose ``ops()`` table
    answers its own ops.  ``ping``, ``die``, ``stop``, unknown ops,
    supervisor EOF and crashes are handled here, once.  A handler that
    leaves a ``successor`` hands it the socket: a promoted standby serves
    on as its shard's primary.
    """
    for sock in close_socks:
        try:
            sock.close()
        except OSError:
            pass
    channel = Channel(child_sock, max_frame=MAX_FRAME, name="supervisor")
    role = make_role()
    channel.send(role.ready())
    ops = role.ops()
    try:
        while True:
            try:
                message = channel.recv()
            except TransportClosed:
                os._exit(0)
            op = message.get("op")
            if op == "ping":
                channel.send({"op": "pong", "token": message.get("token")})
            elif op == "die":
                # chaos: an uncatchable, cleanup-free death
                os.kill(os.getpid(), signal.SIGKILL)
            elif op == "stop":
                channel.send(dict(role.farewell(), op="bye",
                                  transport=channel.describe()))
                os._exit(0)
            elif op in ops:
                channel.send(ops[op](message))
                if role.successor is not None:
                    role = role.successor
                    ops = role.ops()
            else:
                channel.send({"op": "error",
                              "detail": f"unknown op {op!r}"})
    except Exception as exc:  # report, then die visibly
        try:
            channel.send({"op": "error",
                          "detail": f"{type(exc).__name__}: {exc}"})
        except Exception:
            pass
        os._exit(1)


class ShardHandle(Worker):
    """The supervisor's side of one shard: its processes and channels,
    its in-flight items and its reconstructed checkpoint."""

    def __init__(self, index: int, name: str) -> None:
        super().__init__(index, name)
        self.process = None
        self.channel: Optional[Channel] = None
        self.standby_process = None
        self.standby_channel: Optional[Channel] = None
        #: accepted-but-unresolved items, seq -> item document
        self.outstanding: Dict[int, Dict[str, Any]] = {}
        #: dispatched item documents with no acknowledgement yet
        self.unacked: List[Dict[str, Any]] = []
        #: seqs whose acceptance must not be re-counted on a retry reply
        self.exempt: set = set()
        self.pending_retry = False
        self.awaiting_reply = False
        #: the next dispatch restores the latest checkpoint in place
        self.restore_pending = False
        #: worker incarnation (respawns + promotions) — namespaces the
        #: lineage digests so replayed cycles never collide across lives
        self.generation = 0
        #: the last FULL snapshot received (every delta names it as base)
        self.base_full: Optional[DeltaBase] = None
        #: the current reconstructed state (base full + latest delta) and
        #: the fingerprint its reconstruction proved
        self.last_full: Optional[MachineSnapshot] = None
        self.fingerprint: Optional[str] = None
        self.queue_depth = 0
        self.missed_heartbeats = 0
        self.respawns = 0
        self.promotions = 0
        #: in-place restarts after machine escalations
        self.worker_restarts = 0
        self.kills = 0
        self.checkpoints = 0
        self.deltas_applied = 0
        self.standby_verified = 0
        self.standby_divergences = 0
        self.standby_lost = False
        self.cycle_count = 0
        self.transport: Optional[Dict[str, Any]] = None
        self.chain_stats: Optional[Dict[str, Any]] = None

    @property
    def routable(self) -> bool:
        return self.state != FAILED and self.channel is not None \
            and not self.awaiting_reply

    @property
    def busy(self) -> bool:
        if self.state == BACKOFF:
            return True
        if self.state == FAILED:
            return False
        return bool(self.outstanding or self.unacked or self.queue_depth
                    or self.pending_retry or self.awaiting_reply)

    def describe(self, tally: Tally) -> Dict[str, Any]:
        return {
            "name": self.name,
            "state": self.state,
            "accepted": tally.accepted,
            "processed": tally.processed,
            "rejected": tally.rejected,
            "shed": tally.shed,
            "queue_depth": self.queue_depth,
            "respawns": self.respawns,
            "promotions": self.promotions,
            "kills": self.kills,
            "checkpoints": self.checkpoints,
            "deltas_applied": self.deltas_applied,
            "standby_verified": self.standby_verified,
            "standby_divergences": self.standby_divergences,
            "standby_lost": self.standby_lost,
            "rerouted_here": tally.rerouted,
            "cycle_count": self.cycle_count,
            "worker_restarts": self.worker_restarts,
            "transport": self.transport,
            "chain": self.chain_stats,
        }


@dataclass
class ShardFarmReport:
    """Outcome of one distributed soak, conservation-checked globally."""

    ticks: int
    n_shards: int
    standby: bool
    shards: List[Dict[str, Any]]
    submitted: int
    accepted: int
    processed: int
    rejected: Dict[str, int]
    shed: Dict[str, int]
    queued: int
    in_dispatch: int
    promotions: int
    respawns: int
    permanent_failures: int
    checkpoints: int
    kills_fired: int
    kills_skipped: int
    rerouted: int
    timeline: List[Dict[str, Any]] = field(default_factory=list)
    timeline_dropped: int = 0

    @property
    def in_flight(self) -> int:
        return self.queued + self.in_dispatch

    def conservation(self) -> List[str]:
        """Global no-silent-loss identities; empty when sound."""
        return ledger_violations({
            "submitted": self.submitted, "accepted": self.accepted,
            "processed": self.processed,
            "rejected": sum(self.rejected.values()),
            "shed": sum(self.shed.values()), "queued": self.queued,
            "in_dispatch": self.in_dispatch})

    def to_json(self) -> Dict[str, Any]:
        return {
            "ticks": self.ticks,
            "n_shards": self.n_shards,
            "standby": self.standby,
            "shards": self.shards,
            "submitted": self.submitted,
            "accepted": self.accepted,
            "processed": self.processed,
            "rejected": dict(sorted(self.rejected.items())),
            "shed": dict(sorted(self.shed.items())),
            "queued": self.queued,
            "in_dispatch": self.in_dispatch,
            "in_flight": self.in_flight,
            "promotions": self.promotions,
            "respawns": self.respawns,
            "permanent_failures": self.permanent_failures,
            "checkpoints": self.checkpoints,
            "kills_fired": self.kills_fired,
            "kills_skipped": self.kills_skipped,
            "rerouted": self.rerouted,
            "timeline": self.timeline,
            "timeline_dropped": self.timeline_dropped,
            "conservation_violations": self.conservation(),
        }

    def render(self) -> str:
        from repro.flow import ascii_table

        rows = [(s["name"], s["state"], s["processed"], s["queue_depth"],
                 s["promotions"], s["respawns"], s["kills"],
                 s["checkpoints"], s["deltas_applied"],
                 s["standby_verified"])
                for s in self.shards]
        table = ascii_table(
            ["Shard", "State", "Processed", "Queue", "Promoted",
             "Respawns", "Kills", "Ckpts", "Deltas", "Verified"],
            rows,
            title=(f"Distributed farm: {self.submitted} submitted, "
                   f"{self.processed} processed, "
                   f"{sum(self.shed.values())} shed, "
                   f"{sum(self.rejected.values())} rejected, "
                   f"{self.kills_fired} kill(s), "
                   f"{self.promotions} promotion(s)"))
        return table + "\n" + render_verdict(self.conservation(),
                                             self.timeline_dropped)


class ShardSupervisor(Supervisor):
    """The farm engine over N worker processes, with failover.

    *lineage* (an optional :class:`repro.obs.causal.FarmLineage`) rides the
    ledger; every worker then traces its machine-level hops, which the
    supervisor stitches in.
    """

    def __init__(self, system, n_shards: int = 2,
                 config: Optional[FarmConfig] = None,
                 policy: Optional[RestartPolicy] = None,
                 standby: bool = False,
                 kill_plan: Optional[Iterable] = None,
                 aggregator=None,
                 lineage=None) -> None:
        if n_shards < 1:
            raise ShardFarmError("a distributed farm needs >= 1 shard")
        super().__init__([ShardHandle(i, f"shard{i}")
                          for i in range(n_shards)],
                         config, policy, lineage=lineage)
        self.system = system
        self.standby = standby
        self.kill_plan = sorted(kill_plan or (),
                                key=lambda k: (k.tick, k.shard))
        self.aggregator = aggregator
        self.kills_fired = 0
        self.kills_skipped = 0
        self._parent_socks: List[Any] = []
        self._pending_kill: Dict[int, int] = {}
        self._ctx = None
        self._started = False

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Fork every primary (and standby), await their ready frames."""
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ShardFarmError(
                "the distributed farm requires the fork start method")
        self._ctx = multiprocessing.get_context("fork")
        for shard in self.workers:
            self._spawn_primary(shard)
            if self.standby:
                self._spawn_standby(shard)
        self._started = True

    def _fork(self, peer: str, make_role: Callable[[], Any]
              ) -> Tuple[Channel, Any]:
        """Fork one worker process serving the role *make_role* builds;
        returns the supervisor's channel to it and the process."""
        channel, child_sock = channel_pair(MAX_FRAME,
                                           names=("supervisor", peer))
        self._parent_socks.append(channel.sock)
        process = self._ctx.Process(
            target=serve_worker,
            args=(child_sock, make_role, tuple(self._parent_socks)),
            daemon=True)
        process.start()
        child_sock.close()
        return channel, process

    def _await_ready(self, channel: Channel, what: str) -> Dict[str, Any]:
        ready = channel.recv(START_TIMEOUT)
        if ready.get("op") != "ready":
            raise ShardFarmError(f"{what} sent {ready!r} instead of ready")
        return ready

    def _spawn_primary(self, shard: ShardHandle,
                       snapshot_doc: Optional[Dict[str, Any]] = None
                       ) -> None:
        shard.channel, shard.process = self._fork(
            shard.name, partial(WorkerCore.spawn, self.system, self.config,
                                self.ledger.lineage is not None,
                                snapshot_doc))
        ready = self._await_ready(shard.channel, f"{shard.name} primary")
        self._apply_checkpoint(shard, ready["checkpoint"])

    def _spawn_standby(self, shard: ShardHandle) -> None:
        from repro.resil.standby import StandbyReplica

        shard.standby_channel, shard.standby_process = self._fork(
            f"{shard.name}-standby",
            partial(StandbyReplica, self.system, self.config,
                    self.ledger.lineage is not None))
        self._await_ready(shard.standby_channel, f"{shard.name} standby")

    def _close_channel(self, channel: Optional[Channel]) -> None:
        if channel is None:
            return
        if channel.sock in self._parent_socks:
            self._parent_socks.remove(channel.sock)
        channel.close()

    def shutdown(self) -> None:
        """Stop every live process, collecting final transport stats."""
        for shard in self.workers:
            for which, channel in (("primary", shard.channel),
                                   ("standby", shard.standby_channel)):
                if channel is None:
                    continue
                try:
                    bye = channel.request({"op": "stop"}, REQUEST_TIMEOUT)
                    if which == "primary":
                        shard.transport = bye.get("transport")
                        shard.chain_stats = bye.get("chain")
                except TransportError:
                    pass
                self._close_channel(channel)
            shard.channel = None
            shard.standby_channel = None
            for process in (shard.process, shard.standby_process):
                if process is not None:
                    process.join(timeout=5)
                    if process.is_alive():
                        process.kill()
                        process.join(timeout=5)
            shard.process = None
            shard.standby_process = None

    # -- the tick ----------------------------------------------------------
    def run(self, stream: Iterable[WorkItem]) -> ShardFarmReport:
        """Drive the farm until the stream drains; returns the report.

        Starts and shuts the worker processes down itself when the farm
        is not already started (one-shot use).
        """
        own = not self._started
        if own:
            self.start()
        try:
            return super().run(stream)
        finally:
            if own:
                self.shutdown()

    def _tick_once(self, burst: List[WorkItem], tick: int) -> None:
        """One distributed tick: fire due kills, resume, route the burst,
        then one dispatch (or heartbeat) per live shard in lockstep."""
        self._fire_kills(tick)
        self._resume_due(tick)
        buckets: Dict[int, List[Dict[str, Any]]] = {}
        for item in burst:
            shard = self._admit(item, tick)
            if shard is not None:
                buckets.setdefault(shard.index, []).append(encode_item(item))

        lineage = self.ledger.lineage
        contacted: List[Tuple[ShardHandle, str]] = []
        for shard in self.workers:
            if shard.state == FAILED or shard.channel is None:
                continue
            if shard.awaiting_reply:
                contacted.append((shard, "late"))
                continue
            bucket = buckets.get(shard.index, [])
            redispatched: set = set()
            if shard.pending_retry:
                retry_docs = sorted(shard.outstanding.values(),
                                    key=lambda d: d["seq"]) + shard.unacked
                redispatched = {doc["seq"] for doc in retry_docs}
                bucket = retry_docs + bucket
                shard.exempt = set(shard.outstanding)
                shard.pending_retry = False
            kill_after = self._pending_kill.pop(shard.index, None)
            running = shard.state == RUNNING
            if bucket or (running and shard.queue_depth) \
                    or kill_after is not None or shard.restore_pending:
                fresh = [doc for doc in bucket
                         if doc["seq"] not in shard.exempt]
                message: Dict[str, Any] = {
                    "op": "dispatch", "items": bucket,
                    # a shard backing off in place admits, but works nothing
                    "batch": self.config.batch if running else 0}
                if shard.restore_pending:
                    message["restore"] = True
                    shard.restore_pending = False
                if kill_after is not None:
                    message["kill_after"] = kill_after
                    shard.kills += 1
                    self.kills_fired += 1
                    self.ledger.note(
                        tick, "process-kill", shard.name,
                        f"SIGKILL after {kill_after} item(s)")
                shard.unacked = fresh
                if lineage is not None:
                    for doc in bucket:
                        lineage.on_dispatch(
                            tick, shard.name, doc,
                            redispatch=doc["seq"] in redispatched)
                try:
                    shard.channel.send(message)
                except TransportClosed as exc:
                    self._on_death(shard, tick, str(exc))
                    continue
                contacted.append((shard, "dispatch"))
            else:
                try:
                    shard.channel.send({"op": "ping", "token": tick})
                except TransportClosed as exc:
                    self._on_death(shard, tick, str(exc))
                    continue
                contacted.append((shard, "ping"))

        for shard, what in contacted:
            if shard.channel is None or shard.state == FAILED:
                continue
            try:
                reply = shard.channel.recv(REQUEST_TIMEOUT)
            except TransportClosed as exc:
                self._on_death(shard, tick, str(exc))
            except TransportTimeout:
                self._on_missed_heartbeat(shard, tick)
            else:
                shard.awaiting_reply = False
                shard.missed_heartbeats = 0
                if reply.get("op") == "result":
                    self._on_result(shard, reply, tick)
                elif reply.get("op") == "error":
                    self._on_death(shard, tick,
                                   f"worker error: {reply.get('detail')}")

    def _sample(self, tick: int) -> None:
        if self.aggregator is not None \
                and tick % self.config.sample_every == 0:
            self.aggregator.on_tick(tick, self._counters(),
                                    self._shard_rows())

    def _drained(self) -> bool:
        return super()._drained() and not self._pending_kill

    # -- reply accounting --------------------------------------------------
    def _on_result(self, shard: ShardHandle, reply: Dict[str, Any],
                   tick: int) -> None:
        ledger = self.ledger
        dispatched = {doc["seq"]: doc for doc in shard.unacked}
        for seq in reply["accepted"]:
            if seq in shard.exempt:
                continue
            self._accepted(shard, seq, tick)
            if seq in dispatched:
                shard.outstanding[seq] = dispatched[seq]
        for seq, reason in reply["rejected"]:
            if seq in shard.exempt:
                # an item the dead primary had accepted no longer fits
                # the respawned worker's queue: attributed shed, not loss
                shard.outstanding.pop(seq, None)
                ledger.drop(tick, shard.name, seq, SHED_RESPAWN_OVERFLOW)
            else:
                ledger.reject(tick, shard.name, seq, reason)
        for seq, _reason in reply["shed"]:
            self._evicted(shard, decode_item(shard.outstanding.pop(seq)),
                          tick)
        processed_docs: List[Dict[str, Any]] = []
        for seq in reply["processed"]:
            processed_docs.append(shard.outstanding.pop(seq))
            self._completed(shard, seq, tick)
        if ledger.lineage is not None and "lineage" in reply:
            ledger.lineage.merge_worker(shard.name, shard.generation,
                                        reply["lineage"])
        shard.unacked = []
        shard.exempt = set()
        shard.queue_depth = reply["queue_depth"]
        shard.cycle_count = reply["sample"]["cycle_count"]
        self._tee(shard, processed_docs, tick)
        for payload in reply["checkpoints"]:
            self._apply_checkpoint(shard, payload)
            self._advance_standby(shard, payload, tick)
        if "escalation" in reply:
            self._escalate(shard, tick, reply["escalation"])

    def _apply_checkpoint(self, shard: ShardHandle,
                          payload: Dict[str, Any]) -> None:
        if payload["kind"] == "full":
            shard.base_full = DeltaBase(
                MachineSnapshot.from_json(payload["doc"]))
            shard.last_full = shard.base_full.snapshot
            shard.fingerprint = shard.base_full.fingerprint
        else:
            # deltas are always encoded against the last full, never
            # chained — each one alone rebuilds the current state, and
            # its target fingerprint is what the rebuild just proved
            delta = DeltaSnapshot.from_json(payload["doc"])
            shard.last_full = shard.base_full.apply(delta)
            shard.fingerprint = delta.target_fingerprint
            shard.deltas_applied += 1
        shard.checkpoints += 1
        self.ledger.checkpoints += 1

    # -- standby coordination ----------------------------------------------
    def _standby_request(self, shard: ShardHandle, message: Dict[str, Any],
                         tick: int, context: str = ""
                         ) -> Optional[Dict[str, Any]]:
        """One request to the shard's standby.  A standby that does not
        answer, or answers that its handler failed (it has then exited),
        is lost at once, its cause prefixed with *context* (``None``)."""
        try:
            reply = shard.standby_channel.request(message, REQUEST_TIMEOUT)
        except TransportError as exc:
            cause = str(exc)
        else:
            if reply.get("op") != "error":
                return reply
            cause = f"worker error: {reply.get('detail')}"
        self._lose_standby(shard, tick, context + cause)
        return None

    def _tee(self, shard: ShardHandle, docs: List[Dict[str, Any]],
             tick: int) -> None:
        if shard.standby_channel is not None and docs:
            self._standby_request(shard, {"op": "tee", "items": docs}, tick)

    def _advance_standby(self, shard: ShardHandle,
                         payload: Dict[str, Any], tick: int) -> None:
        if shard.standby_channel is None:
            return
        reply = self._standby_request(
            shard, {"op": "advance", "through": payload["processed"],
                    "fingerprint": shard.fingerprint}, tick)
        if reply is None:
            return
        if reply["verified"]:
            shard.standby_verified += 1
        else:
            shard.standby_divergences += 1
            self.ledger.note(tick, "standby-divergence", shard.name,
                             f"at {payload['processed']} processed")

    def _lose_standby(self, shard: ShardHandle, tick: int,
                      cause: str) -> None:
        self._close_channel(shard.standby_channel)
        shard.standby_channel = None
        if shard.standby_process is not None:
            shard.standby_process.join(timeout=5)
            shard.standby_process = None
        shard.standby_lost = True
        self.ledger.note(tick, "standby-lost", shard.name, cause)

    # -- failure handling --------------------------------------------------
    def _on_missed_heartbeat(self, shard: ShardHandle, tick: int) -> None:
        shard.missed_heartbeats += 1
        shard.awaiting_reply = True
        self.ledger.note(tick, "missed-heartbeat", shard.name,
                         f"{shard.missed_heartbeats} of "
                         f"{MISS_THRESHOLD}")
        if shard.missed_heartbeats >= MISS_THRESHOLD:
            # hung, not dead: put it down and handle the death uniformly
            if shard.process is not None and shard.process.is_alive():
                os.kill(shard.process.pid, signal.SIGKILL)
            self._on_death(
                shard, tick,
                f"hung: {shard.missed_heartbeats} missed heartbeat(s)")

    def _on_death(self, shard: ShardHandle, tick: int,
                  cause: str) -> None:
        """A shard process died: promote its standby, or climb the restart
        ladder to a respawn.  Either way its in-flight items are
        redispatched once it is live again."""
        self.ledger.escalations += 1
        self.ledger.note(tick, "worker-lost", shard.name, cause)
        if self.ledger.lineage is not None:
            self.ledger.lineage.on_worker_lost(tick, shard.name, cause)
        self._close_channel(shard.channel)
        shard.channel = None
        shard.awaiting_reply = False
        if shard.process is not None:
            shard.process.join(timeout=5)
            shard.process = None
        if shard.standby_channel is not None and self._promote(shard, tick):
            return
        if shard.restarts_used >= self.policy.max_restarts:
            self._fail_permanently(shard, tick, cause, SHED_SHARD_LOST)
            return
        self._back_off(shard, tick)
        shard.pending_retry = True
        self.ledger.note(tick, "backoff", shard.name,
                         f"respawn at tick {shard.resume_at}")

    def _promote(self, shard: ShardHandle, tick: int) -> bool:
        """Promote the standby; True when the shard is live again."""
        reply = self._standby_request(shard, {"op": "promote"}, tick,
                                      "died at promotion: ")
        if reply is None:
            # double kill, or a standby that failed to promote: fall back
            # to respawn or permanent failure, with both losses attributed
            return False
        if self.ledger.lineage is not None:
            self.ledger.lineage.on_promotion(tick, shard.name)
        self._apply_checkpoint(shard, reply["checkpoint"])
        shard.channel = shard.standby_channel
        shard.process = shard.standby_process
        shard.standby_channel = None
        shard.standby_process = None
        shard.queue_depth = 0
        shard.pending_retry = True
        shard.promotions += 1
        shard.generation += 1
        self.ledger.promotions += 1
        self.ledger.restarts += 1
        self.ledger.time_to_recover.append(0)
        self.ledger.note(tick, "promotion", shard.name,
                         f"standby took over at "
                         f"{reply['checkpoint']['processed']} processed")
        return True

    def _restore(self, shard: ShardHandle, tick: int) -> bool:
        if shard.channel is not None:
            # a machine escalation: the process lives on and restores its
            # latest checkpoint with the next dispatch; the standby drops
            # what it buffered since, which the restore undid
            shard.restore_pending = True
            shard.worker_restarts += 1
            if shard.standby_channel is not None:
                self._standby_request(shard, {"op": "rewind"}, tick)
            self.ledger.note(tick, "restart", shard.name,
                             f"restart {shard.restarts_used} from cycle "
                             f"{shard.last_full.cycle_count}")
            return True
        try:
            self._spawn_primary(shard, snapshot_doc=shard.last_full.to_json())
        except (TransportError, OSError) as exc:
            self._fail_permanently(shard, tick, f"respawn failed: {exc}",
                                   SHED_SHARD_LOST)
            return False
        shard.respawns += 1
        shard.generation += 1
        shard.queue_depth = 0
        if self.ledger.lineage is not None:
            self.ledger.lineage.on_respawn(tick, shard.name)
        self.ledger.note(tick, "respawn", shard.name,
                         f"respawn {shard.respawns} from cycle "
                         f"{shard.last_full.cycle_count}")
        return True

    def _abandon(self, shard: ShardHandle, tick: int, reason: str) -> None:
        """Shed the shard's queued items and reject its unacknowledged
        ones, all with *reason*."""
        for seq in sorted(shard.outstanding):
            self.ledger.drop(tick, shard.name, seq, reason)
        shard.outstanding.clear()
        for doc in shard.unacked:
            self.ledger.reject(tick, shard.name, doc["seq"], reason)
        shard.unacked = []
        shard.queue_depth = 0
        shard.pending_retry = False
        if shard.standby_channel is not None:
            self._lose_standby(shard, tick, "shard failed permanently")

    # -- chaos -------------------------------------------------------------
    def _fire_kills(self, tick: int) -> None:
        due = [kill for kill in self.kill_plan if kill.tick == tick]
        for kill in due:
            shard = self.workers[kill.shard % len(self.workers)]
            if kill.target == "standby":
                if shard.standby_channel is None:
                    self.kills_skipped += 1
                    continue
                try:
                    shard.standby_channel.send({"op": "die"})
                except TransportClosed:
                    pass
                shard.kills += 1
                self.kills_fired += 1
                self.ledger.note(tick, "process-kill",
                                 f"{shard.name}-standby", "SIGKILL")
                self._lose_standby(shard, tick, "chaos SIGKILL")
            else:
                if shard.state != RUNNING or shard.channel is None:
                    self.kills_skipped += 1
                    continue
                self._pending_kill[shard.index] = kill.after_items

    # -- reporting ---------------------------------------------------------
    def _counters(self) -> Dict[str, int]:
        return {
            "submitted": self.ledger.submitted,
            "accepted": self.ledger.accepted,
            "processed": self.ledger.processed,
            "rejected": self.ledger.rejected_total,
            "shed": self.ledger.shed_total,
            "queued": sum(len(s.outstanding) for s in self.workers),
            "in_dispatch": sum(len(s.unacked) for s in self.workers
                               if s.state != RUNNING or s.pending_retry
                               or s.awaiting_reply),
        }

    def _shard_rows(self) -> Dict[str, Dict[str, Any]]:
        return {
            shard.name: {
                "state": shard.state,
                "queue_depth": shard.queue_depth,
                "processed": self.ledger.tallies[shard.name].processed,
                "cycle_count": shard.cycle_count,
                "promotions": shard.promotions,
                "respawns": shard.respawns,
            }
            for shard in self.workers
        }

    def report(self, ticks: Optional[int] = None) -> ShardFarmReport:
        ledger = self.ledger
        ticks = ticks if ticks is not None else self.tick
        counters = self._counters()
        return ShardFarmReport(
            ticks=ticks,
            n_shards=len(self.workers),
            standby=self.standby,
            shards=[shard.describe(ledger.tallies[shard.name])
                    for shard in self.workers],
            submitted=ledger.submitted,
            accepted=ledger.accepted,
            processed=ledger.processed,
            rejected=dict(ledger.rejected),
            shed=dict(ledger.shed),
            queued=counters["queued"],
            in_dispatch=counters["in_dispatch"],
            promotions=ledger.promotions,
            respawns=sum(shard.respawns for shard in self.workers),
            permanent_failures=ledger.permanent_failures,
            checkpoints=ledger.checkpoints,
            kills_fired=self.kills_fired,
            # planned kills past the last tick never fired
            kills_skipped=self.kills_skipped + sum(
                1 for kill in self.kill_plan if kill.tick > ticks),
            rerouted=ledger.rerouted,
            timeline=list(ledger.timeline),
            timeline_dropped=ledger.timeline_dropped,
        )
