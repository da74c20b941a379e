"""A distributed farm: the supervisor sharded across OS processes.

The paper scales by adding TEPs inside one PSCP; the ROADMAP's next rung
shards the whole supervised farm across **worker processes**, ConPro-style
— isolated sequential workers exchanging typed frames over channels
(:mod:`repro.resil.transport`), with one :class:`ShardSupervisor` owning
the stream, the routing and the global conservation ledger
(Harel-style inter-object coordination in exactly one place).

Topology and failure story
--------------------------

* ``N`` **shards**, each a forked primary process wrapping the familiar
  worker loop — a :class:`~repro.resil.queue.BoundedQueue`, a machine
  with a guard, and checkpoint-every-K items encoded through a
  :class:`~repro.resil.delta.DeltaChain` (full snapshot first, cheap
  deltas after, compaction when deltas stop paying);
* work routes by **shard key** (``seq % N``); a dead or backing-off
  shard's traffic **reroutes** to the next live shard (counted and
  visible in the report), and when nothing is live the item is rejected
  with a reason — degraded, attributed, never hung;
* the supervisor detects a dead worker by the **EOF** its kill leaves on
  the channel and a hung worker by **missed heartbeats** (bounded
  per-request timeouts; ``MISS_THRESHOLD`` misses and the process is
  SIGKILLed and handled as dead);
* recovery is **promotion** when the shard has a hot standby
  (:mod:`repro.resil.standby`): the standby drains its delta log and
  takes over on its own socket — no rewind.  Without a standby the
  supervisor **respawns** the primary from the last checkpoint it
  reconstructed from the delta stream (bounded restarts with
  seeded-jitter backoff), and past the restart budget the shard fails
  permanently: queued work is shed ``shard-lost``, in-dispatch work is
  rejected ``shard-lost``, every item attributed;
* **chaos** is a seeded :class:`~repro.fault.model.ProcessKill` plan:
  at the planned tick the dispatch carries ``kill_after=j`` and the
  worker SIGKILLs *itself* mid-dispatch after processing ``j`` items —
  a real uncatchable death at a deterministic stream position, so two
  runs with the same seed produce byte-identical per-shard ledgers.

Everything the supervisor counts lands in the same conservation-checked
:class:`~repro.resil.supervisor.FarmLedger` the single-process farm uses:
``submitted = accepted + rejected + in-dispatch`` and ``accepted =
processed + shed + queued`` hold at every sample and at the end.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.resil.delta import (
    DeltaChain,
    DeltaSnapshot,
    apply_delta,
    snapshot_fingerprint,
)
from repro.resil.queue import (
    BoundedQueue,
    REJECT_QUEUE_FULL,
    REJECT_WORKER_FAILED,
    SHED_OVERLOAD,
    WorkItem,
)
from repro.resil.snapshot import MachineSnapshot, snapshot_machine, \
    restore_machine
from repro.resil.supervisor import (
    MAX_TICKS,
    FarmConfig,
    FarmLedger,
    RestartPolicy,
    farm_machine,
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

#: shard lifecycle states (the worker-process analogues of the
#: single-process worker's RUNNING/BACKOFF/FAILED)
RUNNING = "running"
BACKOFF = "backoff"
FAILED = "failed"

#: attribution reasons specific to the distributed farm
SHED_SHARD_LOST = "shard-lost"
SHED_RESPAWN_OVERFLOW = "respawn-overflow"
SHED_MACHINE_ESCALATION = "machine-escalation"


#: a worker's delta chain emits a full snapshot once a delta's encoded
#: size reaches this share of the last full one, or after this many
#: consecutive deltas
COMPACT_RATIO = 0.5
MAX_DELTAS = 16
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


def encode_item(item: WorkItem) -> Dict[str, Any]:
    return {"seq": item.seq, "events": list(item.events),
            "priority": item.priority, "origin": item.origin}


def decode_item(doc: Dict[str, Any]) -> WorkItem:
    return WorkItem(doc["seq"], tuple(doc["events"]),
                    doc.get("priority", 0), doc.get("origin", "stream"))


# ---------------------------------------------------------------------------
# process side: the worker core and serve loop
# ---------------------------------------------------------------------------

class WorkerCore:
    """One shard's machine, queue and checkpoint chain (process side): the
    primary's op handlers under :func:`serve_worker`.

    With *lineage* a :class:`~repro.obs.lineage.LineageTracker` rides the
    machine and every result frame ships its causal-hop digests (the
    supervisor stitches them into one DAG).
    """

    #: a primary keeps its role for the life of its process
    successor = None

    def __init__(self, config: FarmConfig, machine, lineage: bool = False,
                 processed: int = 0) -> None:
        self.config = config
        self.machine = machine
        self.lineage = None
        if lineage:
            from repro.obs.lineage import LineageTracker

            self.lineage = LineageTracker(origin="worker")
            self.machine.attach(self.lineage)
        self.queue = BoundedQueue(config.queue_capacity,
                                  shed_enabled=config.shed_enabled)
        self.chain = DeltaChain(compact_ratio=COMPACT_RATIO,
                                max_deltas=MAX_DELTAS)
        self.processed = processed
        self.restarts = 0
        self.escalations: List[str] = []
        self._since_checkpoint = 0

    @classmethod
    def spawn(cls, system, config: FarmConfig, lineage: bool,
              snapshot_doc: Optional[Dict[str, Any]] = None
              ) -> "WorkerCore":
        """A forked primary's core: a fresh farm machine, restored from
        *snapshot_doc* when the shard is respawned."""
        machine = farm_machine(system)
        if snapshot_doc is not None:
            restore_machine(machine, MachineSnapshot.from_json(snapshot_doc),
                            restore_attachments=False)
        return cls(config, machine, lineage=lineage)

    # -- checkpointing -----------------------------------------------------
    def _checkpoint(self) -> Dict[str, Any]:
        snapshot = snapshot_machine(self.machine,
                                    include_attachments=False)
        kind, doc = self.chain.record(snapshot)
        self._since_checkpoint = 0
        return {"kind": kind, "doc": doc, "processed": self.processed,
                "cycle": snapshot.cycle_count}

    # -- the op table ------------------------------------------------------
    def ready(self) -> Dict[str, Any]:
        """The ``ready`` handshake, shipping the anchor checkpoint."""
        return {"op": "ready", "role": "primary",
                "checkpoint": self._checkpoint()}

    def ops(self) -> Dict[str, Callable[[Dict[str, Any]], Dict[str, Any]]]:
        return {"dispatch": self.on_dispatch, "hang": self.on_hang}

    def farewell(self) -> Dict[str, Any]:
        """What the ``bye`` reply to ``stop`` carries besides transport."""
        return {"chain": self.chain.describe(), "restarts": self.restarts,
                "escalations": self.escalations}

    def on_hang(self, message: Dict[str, Any]) -> Dict[str, Any]:
        # test hook: a worker that stops answering without dying
        time.sleep(message.get("seconds", 60.0))
        return {"op": "hung-done"}

    # -- dispatch ----------------------------------------------------------
    def on_dispatch(self, message: Dict[str, Any]) -> Dict[str, Any]:
        from repro.fault.guard import MachineEscalation
        from repro.pscp.machine import MachineError

        accepted: List[int] = []
        rejected: List[List[Any]] = []
        shed: List[List[Any]] = []
        for doc in message.get("items", ()):
            item = decode_item(doc)
            admission = self.queue.offer(item)
            if admission.accepted:
                accepted.append(item.seq)
                if admission.shed is not None:
                    shed.append([admission.shed.seq, SHED_OVERLOAD])
            else:
                rejected.append([item.seq,
                                 admission.reason or REJECT_QUEUE_FULL])

        kill_after = message.get("kill_after")
        processed: List[int] = []
        checkpoints: List[Dict[str, Any]] = []
        for _ in range(message.get("batch", self.config.batch)):
            if kill_after is not None and kill_after <= 0:
                os.kill(os.getpid(), signal.SIGKILL)
            item = self.queue.pop()
            if item is None:
                break
            if self.lineage is not None:
                # bind each stepped event to the item's wire trace context
                for name in item.events:
                    self.lineage.note_injection(name, item.trace_id)
            try:
                self.machine.step(item.events)
            except (MachineEscalation, MachineError) as exc:
                # rewind to the last full checkpoint, attribute the item;
                # the machine continues from known-good state
                self.escalations.append(str(exc))
                shed.append([item.seq, SHED_MACHINE_ESCALATION])
                if self.chain.last_full is not None:
                    restore_machine(self.machine, self.chain.last_full,
                                    restore_attachments=False)
                    if self.machine.guard is not None:
                        self.machine.guard.reset_transient()
                    self.restarts += 1
                continue
            self.processed += 1
            processed.append(item.seq)
            if kill_after is not None:
                kill_after -= 1
            self._since_checkpoint += 1
            if self._since_checkpoint >= self.config.checkpoint_every:
                checkpoints.append(self._checkpoint())
        if kill_after is not None:
            # the seeded kill always lands at its tick: even when the
            # queue drained first, die before acknowledging — the reply
            # is never sent and the supervisor sees EOF mid-dispatch
            os.kill(os.getpid(), signal.SIGKILL)
        result = {
            "op": "result",
            "accepted": accepted,
            "rejected": rejected,
            "shed": shed,
            "processed": processed,
            "queue_depth": len(self.queue),
            "checkpoints": checkpoints,
            "sample": {
                "queue_depth": len(self.queue),
                "processed": self.processed,
                "cycle_count": self.machine.cycle_count,
                "restarts": self.restarts,
            },
        }
        if self.lineage is not None:
            # only the delta since the last acked reply rides the frame;
            # hops a SIGKILL takes down with the process are re-derived
            # at the item level by the supervisor (death + redispatch)
            result["lineage"] = self.lineage.drain()
        return result


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


# ---------------------------------------------------------------------------
# supervisor side
# ---------------------------------------------------------------------------

class ShardHandle:
    """Supervisor-side bookkeeping for one shard."""

    def __init__(self, index: int, name: str) -> None:
        self.index = index
        self.name = name
        self.process = None
        self.channel: Optional[Channel] = None
        self.standby_process = None
        self.standby_channel: Optional[Channel] = None
        self.state = RUNNING
        #: accepted-but-unresolved items, seq -> item document
        self.outstanding: Dict[int, Dict[str, Any]] = {}
        #: dispatched item documents with no acknowledgement yet
        self.unacked: List[Dict[str, Any]] = []
        #: seqs whose acceptance must not be re-counted on a retry reply
        self.exempt: set = set()
        self.pending_retry = False
        self.awaiting_reply = False
        #: worker incarnation (respawns + promotions) — namespaces the
        #: lineage digests so replayed cycles never collide across lives
        self.generation = 0
        #: the last FULL snapshot received (every delta names it as base)
        self.base_full: Optional[MachineSnapshot] = None
        #: the current reconstructed state (base full + latest delta)
        self.last_full: Optional[MachineSnapshot] = None
        self.checkpoint_processed = 0
        self.queue_depth = 0
        self.missed_heartbeats = 0
        self.resume_at: Optional[int] = None
        self.failed_at: Optional[int] = None
        # per-shard ledger (the distributed analogue of worker.describe())
        self.accepted = 0
        self.processed = 0
        self.rejected = 0
        self.shed = 0
        self.respawns = 0
        self.promotions = 0
        self.kills = 0
        self.checkpoints = 0
        self.deltas_applied = 0
        self.standby_verified = 0
        self.standby_divergences = 0
        self.standby_lost = False
        self.rerouted_here = 0
        self.cycle_count = 0
        self.worker_restarts = 0
        self.transport: Optional[Dict[str, Any]] = None
        self.chain_stats: Optional[Dict[str, Any]] = None

    @property
    def live(self) -> bool:
        return self.state == RUNNING and self.channel is not None \
            and not self.awaiting_reply

    @property
    def busy(self) -> bool:
        if self.state == BACKOFF:
            return True
        if self.state == FAILED:
            return False
        return bool(self.outstanding or self.unacked or self.queue_depth
                    or self.pending_retry or self.awaiting_reply)

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "state": self.state,
            "accepted": self.accepted,
            "processed": self.processed,
            "rejected": self.rejected,
            "shed": self.shed,
            "queue_depth": self.queue_depth,
            "respawns": self.respawns,
            "promotions": self.promotions,
            "kills": self.kills,
            "checkpoints": self.checkpoints,
            "deltas_applied": self.deltas_applied,
            "standby_verified": self.standby_verified,
            "standby_divergences": self.standby_divergences,
            "standby_lost": self.standby_lost,
            "rerouted_here": self.rerouted_here,
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


class ShardSupervisor:
    """Routes a work stream over N worker processes, with failover."""

    def __init__(self, system, n_shards: int = 2,
                 config: Optional[FarmConfig] = None,
                 policy: Optional[RestartPolicy] = None,
                 standby: bool = False,
                 kill_plan: Optional[Iterable] = None,
                 aggregator=None,
                 lineage=None) -> None:
        if n_shards < 1:
            raise ShardFarmError("a distributed farm needs >= 1 shard")
        self.system = system
        self.config = config if config is not None else FarmConfig()
        self.policy = policy if policy is not None else RestartPolicy()
        self.standby = standby
        self.kill_plan = sorted(kill_plan or (),
                                key=lambda k: (k.tick, k.shard))
        self.aggregator = aggregator
        #: optional :class:`repro.obs.causal.FarmLineage` — item-level
        #: provenance stitched with the workers' machine-level digests,
        #: which every worker then traces
        self.lineage = lineage
        self.ledger = FarmLedger()
        self.shards = [ShardHandle(i, f"shard{i}")
                       for i in range(n_shards)]
        self.tick = 0
        self.rerouted = 0
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
        for shard in self.shards:
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
                                self.lineage is not None, snapshot_doc))
        ready = self._await_ready(shard.channel, f"{shard.name} primary")
        self._apply_checkpoint(shard, ready["checkpoint"])

    def _spawn_standby(self, shard: ShardHandle) -> None:
        from repro.resil.standby import StandbyReplica

        shard.standby_channel, shard.standby_process = self._fork(
            f"{shard.name}-standby",
            partial(StandbyReplica, self.system, self.config,
                    self.lineage is not None))
        self._await_ready(shard.standby_channel, f"{shard.name} standby")

    def _close_channel(self, channel: Optional[Channel]) -> None:
        if channel is None:
            return
        if channel.sock in self._parent_socks:
            self._parent_socks.remove(channel.sock)
        channel.close()

    def shutdown(self) -> None:
        """Stop every live process, collecting final transport stats."""
        for shard in self.shards:
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

    # -- routing -----------------------------------------------------------
    def _route(self, seq: int) -> Optional[ShardHandle]:
        n = len(self.shards)
        preferred = seq % n
        for offset in range(n):
            shard = self.shards[(preferred + offset) % n]
            if shard.live:
                if offset:
                    self.rerouted += 1
                    shard.rerouted_here += 1
                    self.ledger.note(self.tick, "reroute", shard.name,
                                     f"item {seq} from shard{preferred}")
                return shard
        return None

    # -- the drive loop ----------------------------------------------------
    def run(self, stream: Iterable[WorkItem]) -> ShardFarmReport:
        """Drive the farm until the stream drains; returns the report.

        Starts and shuts the worker processes down itself when the farm
        is not already started (one-shot use).
        """
        own = not self._started
        if own:
            self.start()
        try:
            items = [encode_item(item) for item in stream]
            arrivals = self.config.arrivals_per_tick
            cursor = 0
            ticks = 0
            while ticks < MAX_TICKS:
                ticks += 1
                self.tick = ticks
                self._fire_kills(ticks)
                self._respawn_due(ticks)
                burst = items[cursor:cursor + arrivals]
                cursor += len(burst)
                self._tick_once(burst, ticks)
                if self.aggregator is not None \
                        and ticks % self.config.sample_every == 0:
                    self.aggregator.on_tick(ticks, self._counters(),
                                            self._shard_rows())
                if cursor >= len(items) and self._drained():
                    break
            self.kills_skipped += len([k for k in self.kill_plan
                                       if k.tick > ticks])
            return self.report(ticks)
        finally:
            if own:
                self.shutdown()

    def _tick_once(self, burst: List[Dict[str, Any]], tick: int) -> None:
        lineage = self.lineage
        buckets: Dict[int, List[Dict[str, Any]]] = {}
        for doc in burst:
            self.ledger.submitted += 1
            if lineage is not None:
                lineage.on_submit(tick, doc)
            shard = self._route(doc["seq"])
            if shard is None:
                self.ledger.reject(REJECT_WORKER_FAILED)
                if lineage is not None:
                    lineage.on_reject(tick, doc["seq"],
                                      REJECT_WORKER_FAILED)
            else:
                buckets.setdefault(shard.index, []).append(doc)

        contacted: List[Tuple[ShardHandle, str]] = []
        for shard in self.shards:
            if shard.state != RUNNING or shard.channel is None:
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
            if bucket or shard.queue_depth or kill_after is not None:
                fresh = [doc for doc in bucket
                         if doc["seq"] not in shard.exempt]
                message: Dict[str, Any] = {"op": "dispatch",
                                           "items": bucket,
                                           "batch": self.config.batch}
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
            if shard.channel is None or shard.state != RUNNING:
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

    # -- reply accounting --------------------------------------------------
    def _on_result(self, shard: ShardHandle, reply: Dict[str, Any],
                   tick: int) -> None:
        ledger = self.ledger
        lineage = self.lineage
        dispatched = {doc["seq"]: doc for doc in shard.unacked}
        for seq in reply.get("accepted", ()):
            if seq in shard.exempt:
                continue
            ledger.accepted += 1
            shard.accepted += 1
            if lineage is not None:
                lineage.on_accept(tick, seq)
            if seq in dispatched:
                shard.outstanding[seq] = dispatched[seq]
        for seq, reason in reply.get("rejected", ()):
            if seq in shard.exempt:
                # an item the dead primary had accepted no longer fits
                # the respawned worker's queue: attributed shed, not loss
                shard.outstanding.pop(seq, None)
                ledger.drop(SHED_RESPAWN_OVERFLOW)
                shard.shed += 1
                if lineage is not None:
                    lineage.on_shed(tick, seq, SHED_RESPAWN_OVERFLOW)
            else:
                ledger.reject(reason)
                shard.rejected += 1
                if lineage is not None:
                    lineage.on_reject(tick, seq, reason)
        for seq, reason in reply.get("shed", ()):
            shard.outstanding.pop(seq, None)
            ledger.drop(reason)
            shard.shed += 1
            if lineage is not None:
                lineage.on_shed(tick, seq, reason)
            ledger.note(tick, "shed", shard.name,
                        f"item {seq}: {reason}")
        processed_docs: List[Dict[str, Any]] = []
        for seq in reply.get("processed", ()):
            doc = shard.outstanding.pop(seq, None)
            if doc is not None:
                processed_docs.append(doc)
            ledger.processed += 1
            shard.processed += 1
            if lineage is not None:
                lineage.on_processed(tick, seq)
        if lineage is not None and "lineage" in reply:
            lineage.merge_worker(shard.name, shard.generation,
                                 reply["lineage"])
        shard.unacked = []
        shard.exempt = set()
        shard.queue_depth = reply.get("queue_depth", 0)
        sample = reply.get("sample") or {}
        shard.cycle_count = sample.get("cycle_count", shard.cycle_count)
        shard.worker_restarts = sample.get("restarts",
                                           shard.worker_restarts)
        self._tee(shard, processed_docs, tick)
        for payload in reply.get("checkpoints", ()):
            self._apply_checkpoint(shard, payload)
            self._advance_standby(shard, payload, tick)

    def _apply_checkpoint(self, shard: ShardHandle,
                          payload: Dict[str, Any]) -> None:
        if payload["kind"] == "full":
            shard.base_full = MachineSnapshot.from_json(payload["doc"])
            shard.last_full = shard.base_full
        else:
            # deltas are always encoded against the last full, never
            # chained — each one alone rebuilds the current state
            delta = DeltaSnapshot.from_json(payload["doc"])
            shard.last_full = apply_delta(shard.base_full, delta)
            shard.deltas_applied += 1
        shard.checkpoint_processed = payload["processed"]
        shard.checkpoints += 1
        self.ledger.checkpoints += 1

    # -- standby coordination ----------------------------------------------
    def _tee(self, shard: ShardHandle, docs: List[Dict[str, Any]],
             tick: int) -> None:
        if shard.standby_channel is None or not docs:
            return
        try:
            shard.standby_channel.request({"op": "tee", "items": docs},
                                          REQUEST_TIMEOUT)
        except TransportError as exc:
            self._lose_standby(shard, tick, str(exc))

    def _advance_standby(self, shard: ShardHandle,
                         payload: Dict[str, Any], tick: int) -> None:
        if shard.standby_channel is None:
            return
        fingerprint = snapshot_fingerprint(shard.last_full)
        try:
            reply = shard.standby_channel.request(
                {"op": "advance", "through": payload["processed"],
                 "fingerprint": fingerprint}, REQUEST_TIMEOUT)
        except TransportError as exc:
            self._lose_standby(shard, tick, str(exc))
            return
        if reply.get("verified"):
            shard.standby_verified += 1
        elif reply.get("verified") is False:
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
        self.ledger.escalations += 1
        self.ledger.note(tick, "worker-lost", shard.name, cause)
        if self.lineage is not None:
            self.lineage.on_worker_lost(tick, shard.name, cause)
        self._close_channel(shard.channel)
        shard.channel = None
        shard.awaiting_reply = False
        if shard.process is not None:
            shard.process.join(timeout=5)
            shard.process = None
        if shard.standby_channel is not None:
            if self._promote(shard, tick):
                return
        if shard.respawns < self.policy.max_restarts \
                and shard.last_full is not None:
            shard.state = BACKOFF
            shard.failed_at = tick
            shard.resume_at = tick + self.policy.backoff(shard.respawns,
                                                         key=shard.name)
            shard.pending_retry = True
            self.ledger.note(tick, "backoff", shard.name,
                             f"respawn at tick {shard.resume_at}")
        else:
            self._fail_shard(shard, tick, cause)

    def _promote(self, shard: ShardHandle, tick: int) -> bool:
        """Promote the standby; True when the shard is live again."""
        retry = sorted(shard.outstanding.values(),
                       key=lambda doc: doc["seq"])
        fresh = list(shard.unacked)
        try:
            reply = shard.standby_channel.request(
                {"op": "promote", "retry": retry, "fresh": fresh},
                REQUEST_TIMEOUT)
        except TransportError as exc:
            # double kill: the standby died too — fall back to respawn
            # or permanent failure, with both losses attributed
            self._lose_standby(shard, tick, f"died at promotion: {exc}")
            return False
        lineage = self.lineage
        if lineage is not None:
            lineage.on_promotion(tick, shard.name)
        fresh_seqs = {doc["seq"] for doc in fresh}
        for seq in reply.get("processed", ()):
            if seq in fresh_seqs:
                self.ledger.accepted += 1
                shard.accepted += 1
                if lineage is not None:
                    lineage.on_accept(tick, seq)
            shard.outstanding.pop(seq, None)
            self.ledger.processed += 1
            shard.processed += 1
            if lineage is not None:
                lineage.on_processed(tick, seq)
        for seq, reason in reply.get("dropped", ()):
            if seq in fresh_seqs:
                self.ledger.reject(reason)
                shard.rejected += 1
                if lineage is not None:
                    lineage.on_reject(tick, seq, reason)
            else:
                shard.outstanding.pop(seq, None)
                self.ledger.drop(reason)
                shard.shed += 1
                if lineage is not None:
                    lineage.on_shed(tick, seq, reason)
        shard.unacked = []
        self._apply_checkpoint(shard, reply["checkpoint"])
        shard.channel = shard.standby_channel
        shard.process = shard.standby_process
        shard.standby_channel = None
        shard.standby_process = None
        shard.queue_depth = 0
        shard.promotions += 1
        shard.generation += 1
        self.ledger.promotions += 1
        self.ledger.restarts += 1
        self.ledger.time_to_recover.append(0)
        self.ledger.note(tick, "promotion", shard.name,
                         f"standby took over at "
                         f"{reply['checkpoint']['processed']} processed")
        return True

    def _fail_shard(self, shard: ShardHandle, tick: int,
                    cause: str) -> None:
        shard.state = FAILED
        self.ledger.permanent_failures += 1
        self.ledger.note(tick, "permanent-failure", shard.name, cause)
        for seq in sorted(shard.outstanding):
            self.ledger.drop(SHED_SHARD_LOST)
            shard.shed += 1
            if self.lineage is not None:
                self.lineage.on_shed(tick, seq, SHED_SHARD_LOST)
        shard.outstanding.clear()
        for _doc in shard.unacked:
            self.ledger.reject(SHED_SHARD_LOST)
            shard.rejected += 1
            if self.lineage is not None:
                self.lineage.on_reject(tick, _doc["seq"], SHED_SHARD_LOST)
        shard.unacked = []
        shard.queue_depth = 0
        shard.pending_retry = False
        if shard.standby_channel is not None:
            self._lose_standby(shard, tick, "shard failed permanently")

    def _respawn_due(self, tick: int) -> None:
        for shard in self.shards:
            if shard.state != BACKOFF or tick < (shard.resume_at or 0):
                continue
            try:
                self._spawn_primary(shard,
                                    snapshot_doc=shard.last_full.to_json())
            except (TransportError, OSError) as exc:
                self._fail_shard(shard, tick, f"respawn failed: {exc}")
                continue
            shard.state = RUNNING
            shard.respawns += 1
            shard.generation += 1
            shard.queue_depth = 0
            self.ledger.restarts += 1
            if self.lineage is not None:
                self.lineage.on_respawn(tick, shard.name)
            if shard.failed_at is not None:
                self.ledger.time_to_recover.append(tick - shard.failed_at)
                shard.failed_at = None
            self.ledger.note(
                tick, "respawn", shard.name,
                f"respawn {shard.respawns} from cycle "
                f"{shard.last_full.cycle_count}")

    # -- chaos -------------------------------------------------------------
    def _fire_kills(self, tick: int) -> None:
        due = [kill for kill in self.kill_plan if kill.tick == tick]
        for kill in due:
            shard = self.shards[kill.shard % len(self.shards)]
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
    def _drained(self) -> bool:
        return not any(shard.busy for shard in self.shards) \
            and not self._pending_kill

    def _counters(self) -> Dict[str, int]:
        return {
            "submitted": self.ledger.submitted,
            "accepted": self.ledger.accepted,
            "processed": self.ledger.processed,
            "rejected": self.ledger.rejected_total,
            "shed": self.ledger.shed_total,
            "queued": sum(len(s.outstanding) for s in self.shards),
            "in_dispatch": sum(len(s.unacked) for s in self.shards
                               if s.state != RUNNING or s.pending_retry
                               or s.awaiting_reply),
        }

    def _shard_rows(self) -> Dict[str, Dict[str, Any]]:
        return {
            shard.name: {
                "state": shard.state,
                "queue_depth": shard.queue_depth,
                "processed": shard.processed,
                "cycle_count": shard.cycle_count,
                "promotions": shard.promotions,
                "respawns": shard.respawns,
            }
            for shard in self.shards
        }

    def report(self, ticks: Optional[int] = None) -> ShardFarmReport:
        ledger = self.ledger
        counters = self._counters()
        return ShardFarmReport(
            ticks=ticks if ticks is not None else self.tick,
            n_shards=len(self.shards),
            standby=self.standby,
            shards=[shard.describe() for shard in self.shards],
            submitted=ledger.submitted,
            accepted=ledger.accepted,
            processed=ledger.processed,
            rejected=dict(ledger.rejected),
            shed=dict(ledger.shed),
            queued=counters["queued"],
            in_dispatch=counters["in_dispatch"],
            promotions=ledger.promotions,
            respawns=sum(shard.respawns for shard in self.shards),
            permanent_failures=ledger.permanent_failures,
            checkpoints=ledger.checkpoints,
            kills_fired=self.kills_fired,
            kills_skipped=self.kills_skipped,
            rerouted=self.rerouted,
            timeline=list(ledger.timeline),
            timeline_dropped=ledger.timeline_dropped,
        )
