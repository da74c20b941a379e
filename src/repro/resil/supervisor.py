"""One farm engine: a supervised farm of PSCP machines, in process or sharded.

The paper's PSCP scales by adding TEPs behind one scheduler; the farm
scales the same way, by adding workers behind one :class:`Supervisor`.
Every farm decision is made here, once, whatever carries the work to the
workers:

* **one tick loop** (:meth:`Supervisor.run`) — each tick offers the next
  ``arrivals_per_tick`` stream items and lets every running worker process
  up to ``batch`` items of its queue;
* **one admission path** — an item prefers worker ``seq % N``; a worker
  that cannot take work is routed past (a reroute), and the chosen
  worker's **circuit breaker** and then its
  :class:`~repro.resil.queue.BoundedQueue` have the final word:
  backpressure (a rejection with a reason) or priority load shedding;
* **one worker core** (:class:`WorkerCore`) — the only code that pops a
  worker's queue, steps its machine and takes its checkpoints.  In-process
  workers call it directly; shard processes
  (:mod:`repro.resil.shardfarm`) serve the same core over a channel;
* **one restart ladder** — when a fault escalates out of the machine
  (:class:`~repro.fault.guard.MachineEscalation`), the worker backs off
  for a bounded exponential number of ticks, restores its latest
  checkpoint and retries the in-flight item.  A restore leaves an
  injector's state alone: a fault that already bit stays consumed, so a
  single fault cannot wedge a worker in an escalation loop.  Past
  ``max_restarts`` the worker fails permanently and every item it held
  is shed (``worker-failed``), never silently lost;
* **one ledger** (:class:`FarmLedger`) — every item outcome is recorded
  once, farm-wide and per worker, and fed to the farm lineage when one is
  attached.

Accounting is conservation-checked: ``submitted = accepted + rejected`` and
``accepted = processed + shed + held`` (:func:`ledger_violations`).  The
whole farm is deterministic — no wall clock, no OS threads; time is the
supervisor's integer tick — so a seeded chaos soak is reproducible bit for
bit.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, \
    NamedTuple, Optional, Sequence, Tuple

from repro.obs.flightrec import FlightRecorder
from repro.obs.metrics import Histogram
from repro.obs.tracer import Tracer
from repro.resil.delta import DeltaChain
from repro.resil.queue import (
    BoundedQueue,
    CircuitBreaker,
    REJECT_CIRCUIT_OPEN,
    REJECT_QUEUE_FULL,
    REJECT_WORKER_FAILED,
    SHED_OVERLOAD,
    SHED_WORKER_FAILED,
    WorkItem,
)
from repro.resil.snapshot import MachineSnapshot, snapshot_machine, \
    restore_machine

#: worker lifecycle states
RUNNING = "running"
BACKOFF = "backoff"
FAILED = "failed"

#: restart backoff: ``BACKOFF_BASE_TICKS * 2^restarts`` ticks, capped
BACKOFF_BASE_TICKS = 2
BACKOFF_CAP_TICKS = 32
#: the farm stops driving after this many ticks
MAX_TICKS = 100000
#: recoverable-fault retries of every farm machine's guard: a tight budget
#: keeps a chaos soak short, two consecutive runaway bites already
#: escalate to the supervisor
GUARD_RETRIES = 1
#: a worker's delta chain emits a full snapshot once a delta's encoded
#: size reaches this share of the last full one, or after this many
#: consecutive deltas
COMPACT_RATIO = 0.5
MAX_DELTAS = 16


@dataclass(frozen=True)
class FarmConfig:
    """What ``repro serve`` sets for the farm, in one place.

    :class:`Supervisor` under either transport, the shard worker processes
    and the hot standbys all read this one object; the defaults are
    ``repro serve``'s.
    """

    #: per-worker (per-shard) admission queue depth
    queue_capacity: int = 8
    #: evict the lowest-priority pending item to admit a higher one
    shed_enabled: bool = True
    #: items each worker processes per tick
    batch: int = 2
    #: stream items offered per tick
    arrivals_per_tick: int = 4
    #: processed items between a worker's checkpoints
    checkpoint_every: int = 16
    #: ticks between farm samples
    sample_every: int = 5


@dataclass(frozen=True)
class RestartPolicy:
    """How a worker restarts after an escalated (unrecoverable) fault."""

    max_restarts: int = 3
    #: maximum extra ticks of seeded jitter added to each backoff, so
    #: simultaneous escalations across workers/shards do not produce a
    #: synchronized restart stampede; 0 (the default) keeps the historical
    #: deterministic schedule byte-identical
    jitter_ticks: int = 0
    jitter_seed: int = 0

    def backoff(self, restarts_used: int, key: str = "") -> int:
        """Bounded exponential backoff: base * 2^restarts, capped.

        With ``jitter_ticks`` set, adds ``[0, jitter_ticks]`` extra ticks
        drawn from a generator seeded by ``(jitter_seed, key,
        restarts_used)`` — derived through :func:`zlib.crc32`, not
        :func:`hash`, so two runs with the same seed desynchronize
        *identically* regardless of ``PYTHONHASHSEED``.
        """
        import random
        import zlib

        base = min(BACKOFF_BASE_TICKS * (1 << restarts_used),
                   BACKOFF_CAP_TICKS)
        if not self.jitter_ticks:
            return base
        token = f"{key}:{restarts_used}".encode("utf-8")
        rng = random.Random(self.jitter_seed * 1000003 + zlib.crc32(token))
        return base + rng.randrange(self.jitter_ticks + 1)


def farm_machine(system):
    """A farm worker's machine: the built system's machine behind a guard
    that escalates unrecoverable faults to the supervisor.  In-process
    workers, shard primaries and hot standbys all start from one."""
    from repro.fault.guard import MachineGuard

    machine = system.make_machine()
    machine.attach_guard(MachineGuard(max_retries=GUARD_RETRIES,
                                      escalate_unrecoverable=True))
    return machine


def ledger_violations(counts: Mapping[str, int],
                      tick: Optional[int] = None) -> List[str]:
    """Violations of the farm ledger's two identities; empty when sound.

    Every submitted item is accepted or rejected, and every accepted item
    is processed, shed or still held: ``in_flight`` in-process, ``queued``
    in the distributed farm, whose ``in_dispatch`` items (not acknowledged
    yet) count against submission.  *tick* prefixes each message.
    """
    prefix = "" if tick is None else f"tick {tick}: "
    problems: List[str] = []
    submitted, accepted = counts["submitted"], counts["accepted"]
    rejected, shed = counts["rejected"], counts["shed"]
    outcomes = accepted + rejected
    terms = f"accepted {accepted} + rejected {rejected}"
    if "in_dispatch" in counts:
        outcomes += counts["in_dispatch"]
        terms += f" + in-dispatch {counts['in_dispatch']}"
        held, held_name = counts["queued"], "queued"
    else:
        held, held_name = counts["in_flight"], "in-flight"
    if submitted != outcomes:
        problems.append(f"{prefix}submitted {submitted} != {terms}")
    if accepted != counts["processed"] + shed + held:
        problems.append(
            f"{prefix}accepted {accepted} != processed "
            f"{counts['processed']} + shed {shed} + {held_name} {held}")
    return problems


def render_verdict(problems: List[str], timeline_dropped: int) -> str:
    """A farm report's closing lines: the conservation verdict, then a note
    when the supervisor timeline's ring aged events out."""
    verdict = ("conservation OK" if not problems
               else "CONSERVATION VIOLATED: " + "; ".join(problems))
    if timeline_dropped:
        verdict += (f"\ntimeline truncated: {timeline_dropped} "
                    f"oldest event(s) aged out of the ring")
    return verdict


@dataclass
class Tally:
    """One worker's share of the ledger's item outcomes."""

    accepted: int = 0
    processed: int = 0
    rejected: int = 0
    shed: int = 0
    #: items routed here past their preferred worker
    rerouted: int = 0


@dataclass
class FarmLedger:
    """The farm's conservation-checked accounting.

    Every item outcome — submitted, accepted, rejected, shed, processed —
    is recorded here once, farm-wide and in the worker's :class:`Tally`,
    and fed to the optional :class:`~repro.obs.causal.FarmLineage`.
    """

    submitted: int = 0
    accepted: int = 0
    processed: int = 0
    rejected: Dict[str, int] = field(default_factory=dict)
    shed: Dict[str, int] = field(default_factory=dict)
    rerouted: int = 0
    escalations: int = 0
    restarts: int = 0
    #: standby promotions (distributed farm only)
    promotions: int = 0
    permanent_failures: int = 0
    checkpoints: int = 0
    time_to_recover: List[int] = field(default_factory=list)
    #: supervisor-level instants (shed, restart, escalation,
    #: permanent-failure) in tick order — the merged Perfetto trace's
    #: dedicated supervisor track and the forensics timeline.  Bounded:
    #: the ring keeps the most recent ``timeline_limit`` events and counts
    #: what aged out in ``timeline_dropped``, so a long soak cannot grow
    #: without limit and consumers can report the truncation honestly.
    timeline: List[Dict[str, Any]] = field(default_factory=list)
    timeline_limit: Optional[int] = 4096
    timeline_dropped: int = 0
    #: worker name -> that worker's outcome tally
    tallies: Dict[str, Tally] = field(default_factory=dict)
    #: item-level provenance, fed every outcome when attached
    lineage: Any = None

    # -- item outcomes -----------------------------------------------------
    def submit(self, tick: int, item: WorkItem) -> None:
        self.submitted += 1
        if self.lineage is not None:
            self.lineage.on_submit(tick, encode_item(item))

    def accept(self, tick: int, worker: str, seq: int) -> None:
        self.accepted += 1
        self.tallies[worker].accepted += 1
        if self.lineage is not None:
            self.lineage.on_accept(tick, seq)

    def reject(self, tick: int, worker: Optional[str], seq: int,
               reason: str) -> None:
        """*seq* refused at admission; *worker* is ``None`` when no worker
        could take it."""
        self.rejected[reason] = self.rejected.get(reason, 0) + 1
        if worker is not None:
            self.tallies[worker].rejected += 1
        if self.lineage is not None:
            self.lineage.on_reject(tick, seq, reason)

    def drop(self, tick: int, worker: str, seq: int, reason: str) -> None:
        """An accepted item leaves unprocessed, shed with *reason*."""
        self.shed[reason] = self.shed.get(reason, 0) + 1
        self.tallies[worker].shed += 1
        if self.lineage is not None:
            self.lineage.on_shed(tick, seq, reason)

    def complete(self, tick: int, worker: str, seq: int) -> None:
        self.processed += 1
        self.tallies[worker].processed += 1
        if self.lineage is not None:
            self.lineage.on_processed(tick, seq)

    # -- the timeline ------------------------------------------------------
    def note(self, tick: int, kind: str, worker: Optional[str] = None,
             detail: Optional[str] = None) -> None:
        """Append one supervisor-level event to the timeline."""
        event: Dict[str, Any] = {"tick": tick, "kind": kind}
        if worker is not None:
            event["worker"] = worker
        if detail is not None:
            event["detail"] = detail
        self.timeline.append(event)
        if self.timeline_limit is not None:
            overflow = len(self.timeline) - self.timeline_limit
            if overflow > 0:
                del self.timeline[:overflow]
                self.timeline_dropped += overflow

    @property
    def rejected_total(self) -> int:
        return sum(self.rejected.values())

    @property
    def shed_total(self) -> int:
        return sum(self.shed.values())


def encode_item(item: WorkItem) -> Dict[str, Any]:
    return {"seq": item.seq, "events": list(item.events),
            "priority": item.priority, "origin": item.origin}


def decode_item(doc: Dict[str, Any]) -> WorkItem:
    return WorkItem(doc["seq"], tuple(doc["events"]),
                    doc.get("priority", 0), doc.get("origin", "stream"))


class Work(NamedTuple):
    """What one :meth:`WorkerCore.work` call did."""

    processed: List[WorkItem]
    #: ``(processed count, snapshot)`` of every checkpoint taken
    checkpoints: List[Tuple[int, MachineSnapshot]]
    #: the escalation that stopped the batch, if one did
    failure: Optional[str]


class WorkerCore:
    """One worker's machine, admission queue and checkpoints.

    The only farm code that pops a worker's queue, steps its machine and
    takes its checkpoints.  In-process workers call :meth:`work` and
    :meth:`restore` and offer :class:`WorkItem`\\ s to :attr:`queue`
    directly.  A shard process serves the same core over a channel
    (:func:`~repro.resil.shardfarm.serve_worker`): items arrive as
    documents in a ``dispatch`` (:meth:`on_dispatch`) and its checkpoints
    leave delta-encoded.

    With *lineage* a :class:`~repro.obs.lineage.LineageTracker` rides the
    machine and every result frame ships its causal-hop digests (the
    supervisor stitches them into one DAG).
    """

    #: a primary keeps its role for the life of its process
    successor = None

    def __init__(self, config: FarmConfig, machine, name: str = "worker",
                 lineage: bool = False, processed: int = 0) -> None:
        self.config = config
        self.machine = machine
        self.name = name
        self.lineage = None
        if lineage:
            from repro.obs.lineage import LineageTracker

            self.lineage = LineageTracker(origin="worker")
            machine.attach(self.lineage)
        self.queue = BoundedQueue(config.queue_capacity,
                                  shed_enabled=config.shed_enabled)
        self.processed = processed
        self.restarts = 0
        #: delta-encodes the checkpoints a shard process ships
        self.chain = DeltaChain(compact_ratio=COMPACT_RATIO,
                                max_deltas=MAX_DELTAS)
        self._since_checkpoint = 0
        self._checkpoints_taken = 0
        #: progress counters at the latest checkpoint (forensics deltas)
        self.progress: Dict[str, int] = {}
        #: the restart anchor: taken now, so a restore is always defined,
        #: and refreshed every ``checkpoint_every`` processed items
        self.checkpoint = self.take_checkpoint()

    @classmethod
    def spawn(cls, system, config: FarmConfig, lineage: bool,
              snapshot_doc: Optional[Dict[str, Any]] = None
              ) -> "WorkerCore":
        """A forked primary's core: a fresh farm machine, restored from
        *snapshot_doc* when the shard is respawned."""
        machine = farm_machine(system)
        if snapshot_doc is not None:
            restore_machine(machine, MachineSnapshot.from_json(snapshot_doc))
        return cls(config, machine, lineage=lineage)

    # -- checkpoints -------------------------------------------------------
    def take_checkpoint(self) -> MachineSnapshot:
        machine = self.machine
        snapshot = snapshot_machine(machine)
        self.checkpoint = snapshot
        self._since_checkpoint = 0
        self._checkpoints_taken += 1
        self.progress = {"processed": self.processed,
                         "cycle_count": machine.cycle_count,
                         "time": machine.time, "restarts": self.restarts}
        recorder = machine.observer(FlightRecorder)
        if recorder is not None:
            recorder.note_checkpoint(
                snapshot.cycle_count,
                f"{self.name}:ckpt{self._checkpoints_taken}"
                f"@cycle{snapshot.cycle_count}")
        return snapshot

    def restore(self) -> MachineSnapshot:
        """Put the machine back to the latest checkpoint: a fresh start
        from known-good architectural state."""
        restore_machine(self.machine, self.checkpoint)
        self.restarts += 1
        return self.checkpoint

    # -- the work loop -----------------------------------------------------
    def work(self, batch: int) -> Work:
        """Step up to *batch* queued items.  An escalation stops the batch
        and leaves its item at the queue head: it stays in flight and is
        retried once the supervisor restores the machine."""
        from repro.fault.guard import MachineEscalation
        from repro.pscp.machine import MachineError

        processed: List[WorkItem] = []
        checkpoints: List[Tuple[int, MachineSnapshot]] = []
        queue, machine, lineage = self.queue, self.machine, self.lineage
        every = self.config.checkpoint_every
        for _ in range(batch):
            item = queue.pop()
            if item is None:
                break
            if lineage is not None:
                # bind each stepped event to the item's wire trace context
                for name in item.events:
                    lineage.note_injection(name, item.trace_id)
            try:
                machine.step(item.events)
            except MachineEscalation as exc:
                queue.push_front(item)
                return Work(processed, checkpoints, exc.describe())
            except MachineError as exc:
                # an un-escalated crash is supervised the same way
                queue.push_front(item)
                return Work(processed, checkpoints, f"crash: {exc}")
            self.processed += 1
            processed.append(item)
            self._since_checkpoint += 1
            if self._since_checkpoint >= every:
                checkpoints.append((self.processed, self.take_checkpoint()))
        return Work(processed, checkpoints, None)

    def forensics_bundle(self, cause: Dict[str, Any]
                         ) -> Optional[Dict[str, Any]]:
        """The machine's flight-recorder ring as a forensics bundle, with
        the progress since the latest checkpoint (``None`` without a
        recorder attached)."""
        machine = self.machine
        recorder = machine.observer(FlightRecorder)
        if recorder is None:
            return None
        progress = self.progress
        delta = {
            "processed": self.processed - progress["processed"],
            "cycle_count": machine.cycle_count - progress["cycle_count"],
            "time": machine.time - progress["time"],
            "restarts": self.restarts - progress["restarts"],
        }
        return recorder.forensics_bundle(cause, worker=self.name,
                                         metrics_delta=delta)

    # -- served over a channel ---------------------------------------------
    def _ship(self, processed: int,
              snapshot: MachineSnapshot) -> Dict[str, Any]:
        kind, doc = self.chain.record(snapshot)
        return {"kind": kind, "doc": doc, "processed": processed,
                "cycle": snapshot.cycle_count}

    def anchor(self) -> Dict[str, Any]:
        """The anchor checkpoint as its first (full) delta-chain link."""
        return self._ship(self.processed, self.checkpoint)

    def ready(self) -> Dict[str, Any]:
        """The ``ready`` handshake, shipping the anchor checkpoint."""
        return {"op": "ready", "role": "primary", "checkpoint": self.anchor()}

    def ops(self) -> Dict[str, Callable[[Dict[str, Any]], Dict[str, Any]]]:
        return {"dispatch": self.on_dispatch, "hang": self.on_hang}

    def farewell(self) -> Dict[str, Any]:
        """What the ``bye`` reply to ``stop`` carries besides transport."""
        return {"chain": self.chain.describe()}

    def on_hang(self, message: Dict[str, Any]) -> Dict[str, Any]:
        # test hook: a worker that stops answering without dying
        time.sleep(message.get("seconds", 60.0))
        return {"op": "hung-done"}

    def on_dispatch(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Admit the dispatched items, then work the batch.  ``restore``
        restores the latest checkpoint first; ``kill_after=j`` SIGKILLs
        this process after ``j`` processed items, before it replies."""
        if message.get("restore"):
            self.restore()
        accepted: List[int] = []
        rejected: List[List[Any]] = []
        shed: List[List[Any]] = []
        for doc in message["items"]:
            item = decode_item(doc)
            admission = self.queue.offer(item)
            if admission.accepted:
                accepted.append(item.seq)
                if admission.shed is not None:
                    shed.append([admission.shed.seq, SHED_OVERLOAD])
            else:
                rejected.append([item.seq,
                                 admission.reason or REJECT_QUEUE_FULL])
        batch = message["batch"]
        kill_after = message.get("kill_after")
        if kill_after is not None:
            batch = min(batch, kill_after)
        done = self.work(batch)
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
            "processed": [item.seq for item in done.processed],
            "queue_depth": len(self.queue),
            "checkpoints": [self._ship(processed, snapshot)
                            for processed, snapshot in done.checkpoints],
            "sample": {
                "queue_depth": len(self.queue),
                "processed": self.processed,
                "cycle_count": self.machine.cycle_count,
                "restarts": self.restarts,
            },
        }
        if done.failure is not None:
            result["escalation"] = done.failure
        if self.lineage is not None:
            # only the delta since the last acked reply rides the frame;
            # hops a SIGKILL takes down with the process are re-derived
            # at the item level by the supervisor (death + redispatch)
            result["lineage"] = self.lineage.drain()
        return result


class Worker:
    """The supervisor's side of one worker, under either transport: its
    place on the restart ladder, its circuit breaker and its dispatch
    latency.  In-process, :attr:`core` is the worker's
    :class:`WorkerCore`; a shard's core lives in its process."""

    def __init__(self, index: int, name: str,
                 core: Optional[WorkerCore] = None) -> None:
        self.index = index
        self.name = name
        self.core = core
        self.state = RUNNING
        self.breaker = CircuitBreaker()
        self.restarts_used = 0
        self.resume_at = 0
        self.failed_at = 0
        self.last_escalation: Optional[str] = None
        #: dispatch latency in supervisor ticks (enqueue -> processed);
        #: restarts and backoff count into the retried item's latency
        self.latency = Histogram(
            f"{name}.dispatch_latency_ticks",
            "ticks from queue admission to completed processing",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512))
        self.enqueued_at: Dict[int, int] = {}
        #: forensics bundles dumped on escalation / permanent failure
        self.forensics: List[Dict[str, Any]] = []

    @property
    def routable(self) -> bool:
        """Whether admission may choose this worker."""
        return self.state != FAILED

    @property
    def busy(self) -> bool:
        """Whether the worker still holds work the farm must wait for."""
        return self.state == BACKOFF or (self.state == RUNNING
                                         and len(self.core.queue) > 0)

    def describe(self, tally: Tally) -> Dict[str, Any]:
        queue = self.core.queue
        return {
            "name": self.name,
            "state": self.state,
            "processed": tally.processed,
            "queue_depth": len(queue),
            "queue_high_watermark": queue.high_watermark,
            "restarts": self.restarts_used,
            "breaker": self.breaker.state,
            "breaker_opened": self.breaker.opened_count,
            "last_escalation": self.last_escalation,
            "dispatch_latency_ticks": self.latency.summary(),
            "forensics_bundles": len(self.forensics),
        }


@dataclass
class FarmReport:
    """Outcome of one in-process run, conservation-checked."""

    ticks: int
    workers: List[Dict[str, Any]]
    submitted: int
    accepted: int
    processed: int
    rejected: Dict[str, int]
    shed: Dict[str, int]
    in_flight: int
    escalations: int
    restarts: int
    permanent_failures: int
    checkpoints: int
    time_to_recover: List[int]
    timeline: List[Dict[str, Any]] = field(default_factory=list)
    timeline_dropped: int = 0
    forensics_bundles: int = 0

    def conservation(self) -> List[str]:
        """Violations of the no-silent-loss ledger; empty when sound.

        Every submitted item is accepted or rejected; every accepted item
        is processed, shed (with a reason) or still in flight.
        """
        return ledger_violations({
            "submitted": self.submitted, "accepted": self.accepted,
            "processed": self.processed,
            "rejected": sum(self.rejected.values()),
            "shed": sum(self.shed.values()), "in_flight": self.in_flight})

    def to_json(self) -> Dict[str, Any]:
        return {
            "ticks": self.ticks,
            "workers": self.workers,
            "submitted": self.submitted,
            "accepted": self.accepted,
            "processed": self.processed,
            "rejected": dict(sorted(self.rejected.items())),
            "shed": dict(sorted(self.shed.items())),
            "in_flight": self.in_flight,
            "escalations": self.escalations,
            "restarts": self.restarts,
            "permanent_failures": self.permanent_failures,
            "checkpoints": self.checkpoints,
            "time_to_recover": self.time_to_recover,
            "timeline": self.timeline,
            "timeline_dropped": self.timeline_dropped,
            "forensics_bundles": self.forensics_bundles,
            "conservation_violations": self.conservation(),
        }

    def render(self) -> str:
        from repro.flow import ascii_table

        rows = [(w["name"], w["state"], w["processed"], w["queue_depth"],
                 w["queue_high_watermark"], w["restarts"], w["breaker"])
                for w in self.workers]
        table = ascii_table(
            ["Worker", "State", "Processed", "Queue", "HWM", "Restarts",
             "Breaker"],
            rows,
            title=(f"Farm: {self.submitted} submitted, "
                   f"{self.processed} processed, "
                   f"{sum(self.shed.values())} shed, "
                   f"{sum(self.rejected.values())} rejected, "
                   f"{self.restarts} restart(s)"))
        return table + "\n" + render_verdict(self.conservation(),
                                             self.timeline_dropped)


class Supervisor:
    """Routes a work stream over N supervised machine workers.

    This class is the farm engine and its in-process transport: the
    workers' cores live in this process and are called directly.
    :class:`~repro.resil.shardfarm.ShardSupervisor` carries the same
    engine to worker processes.
    """

    def __init__(self, workers: Sequence[Worker],
                 config: Optional[FarmConfig] = None,
                 policy: Optional[RestartPolicy] = None, metrics=None,
                 sampler=None, lineage=None) -> None:
        if not workers:
            raise ValueError("a farm needs at least one worker")
        self.workers = list(workers)
        self.config = config if config is not None else FarmConfig()
        self.policy = policy if policy is not None else RestartPolicy()
        self.metrics = metrics
        #: a :class:`~repro.obs.FarmSampler` fed at the end of every tick
        self.sampler = sampler
        self.ledger = FarmLedger(lineage=lineage)
        for worker in self.workers:
            self.ledger.tallies[worker.name] = Tally()
            if worker.core is not None:
                # the core took its anchor checkpoint when it was built
                self.ledger.checkpoints += 1
        self.tick = 0

    @classmethod
    def for_system(cls, system, n_workers: int = 2,
                   config: Optional[FarmConfig] = None,
                   policy: Optional[RestartPolicy] = None,
                   injector_factory: Optional[
                       Callable[[int], Any]] = None,
                   observer_factory: Optional[
                       Callable[[int], Iterable[Any]]] = None,
                   metrics=None, sampler=None) -> "Supervisor":
        """Build a farm of :func:`farm_machine`\\ s over one built system.

        ``injector_factory(worker_index)`` returns a per-worker
        :class:`~repro.fault.injector.FaultInjector` — the chaos hook — or
        ``None``.  ``observer_factory(worker_index)`` returns the observers
        to attach to that worker's machine, such as a
        :class:`~repro.obs.FlightRecorder` (bounded forensics ring) and a
        :class:`~repro.obs.Tracer` (for the merged Perfetto export).
        """
        config = config if config is not None else FarmConfig()
        workers = []
        for index in range(n_workers):
            machine = farm_machine(system)
            if injector_factory is not None:
                machine.attach_injector(injector_factory(index))
            if observer_factory is not None:
                for observer in observer_factory(index):
                    machine.attach(observer)
            name = f"worker{index}"
            workers.append(Worker(index, name,
                                  WorkerCore(config, machine, name=name)))
        return cls(workers, config, policy, metrics=metrics, sampler=sampler)

    # -- the tick loop -----------------------------------------------------
    def run(self, stream: Iterable[WorkItem]):
        """Drive the farm until the stream drains and the queues empty."""
        pending = list(stream)
        arrivals = self.config.arrivals_per_tick
        cursor = 0
        ticks = 0
        while ticks < MAX_TICKS:
            ticks += 1
            self.tick = ticks
            burst = pending[cursor:cursor + arrivals]
            cursor += len(burst)
            self._tick_once(burst, ticks)
            self._sample(ticks)
            if cursor >= len(pending) and self._drained():
                break
        return self.report(ticks)

    def _tick_once(self, burst: List[WorkItem], tick: int) -> None:
        """One in-process tick: resume, admit the burst, then let every
        running worker work its batch."""
        self._resume_due(tick)
        for item in burst:
            worker = self._admit(item, tick)
            if worker is None:
                continue
            admission = worker.core.queue.offer(item)
            if not admission.accepted:
                self.ledger.reject(tick, worker.name, item.seq,
                                   admission.reason or REJECT_QUEUE_FULL)
                continue
            self._accepted(worker, item.seq, tick)
            if admission.shed is not None:
                self._evicted(worker, admission.shed, tick)
        batch = self.config.batch
        for worker in self.workers:
            if worker.state != RUNNING:
                continue
            done = worker.core.work(batch)
            for item in done.processed:
                self._completed(worker, item.seq, tick)
            self.ledger.checkpoints += len(done.checkpoints)
            if done.failure is not None:
                self._escalate(worker, tick, done.failure)

    def _sample(self, tick: int) -> None:
        if self.sampler is not None:
            self.sampler.on_tick(self, tick)

    def _drained(self) -> bool:
        return not any(worker.busy for worker in self.workers)

    # -- admission ---------------------------------------------------------
    def _admit(self, item: WorkItem, tick: int) -> Optional[Worker]:
        """Submit one item and choose its worker, or reject it.

        The preferred worker is ``seq % N``; a worker that cannot take
        work is routed past, but the chosen worker's breaker is final (no
        spillover — the producer is told to slow down), and so is its
        queue's verdict, which the caller asks for.
        """
        ledger = self.ledger
        ledger.submit(tick, item)
        workers = self.workers
        n = len(workers)
        preferred = item.seq % n
        for offset in range(n):
            worker = workers[(preferred + offset) % n]
            if not worker.routable:
                continue
            if offset:
                ledger.rerouted += 1
                ledger.tallies[worker.name].rerouted += 1
                ledger.note(tick, "reroute", worker.name,
                            f"item {item.seq} from {workers[preferred].name}")
            if not worker.breaker.admits(tick):
                ledger.reject(tick, worker.name, item.seq,
                              REJECT_CIRCUIT_OPEN)
                return None
            return worker
        ledger.reject(tick, None, item.seq, REJECT_WORKER_FAILED)
        return None

    def _accepted(self, worker: Worker, seq: int, tick: int) -> None:
        self.ledger.accept(tick, worker.name, seq)
        worker.enqueued_at[seq] = tick

    def _evicted(self, worker: Worker, item: WorkItem, tick: int) -> None:
        """A queued item evicted to admit a higher-priority arrival: it
        was accepted earlier, so it leaves as shed."""
        self.ledger.drop(tick, worker.name, item.seq, SHED_OVERLOAD)
        worker.enqueued_at.pop(item.seq, None)
        self.ledger.note(tick, "shed", worker.name, item.describe())

    def _completed(self, worker: Worker, seq: int, tick: int) -> None:
        self.ledger.complete(tick, worker.name, seq)
        worker.latency.observe(tick - worker.enqueued_at.pop(seq, tick))
        worker.breaker.record_success()

    # -- the restart ladder ------------------------------------------------
    def _escalate(self, worker: Worker, tick: int, detail: str) -> None:
        """A fault escalated out of the worker's machine: back off, or fail
        permanently once the restart budget is spent."""
        self.ledger.escalations += 1
        worker.last_escalation = detail
        worker.breaker.record_failure(tick)
        self.ledger.note(tick, "escalation", worker.name, detail)
        permanent = worker.restarts_used >= self.policy.max_restarts
        if worker.core is not None:
            bundle = worker.core.forensics_bundle({
                "kind": "permanent-failure" if permanent else "escalation",
                "tick": tick, "detail": detail})
            if bundle is not None:
                worker.forensics.append(bundle)
        if permanent:
            self._fail_permanently(worker, tick, detail, SHED_WORKER_FAILED)
        else:
            self._back_off(worker, tick)

    def _back_off(self, worker: Worker, tick: int) -> None:
        worker.state = BACKOFF
        worker.failed_at = tick
        worker.resume_at = tick + self.policy.backoff(worker.restarts_used,
                                                      key=worker.name)

    def _resume_due(self, tick: int) -> None:
        """Every worker whose backoff ran out restores its latest
        checkpoint; its in-flight items are retried from there."""
        for worker in self.workers:
            if worker.state != BACKOFF or tick < worker.resume_at:
                continue
            worker.restarts_used += 1
            if not self._restore(worker, tick):
                continue
            worker.state = RUNNING
            self.ledger.restarts += 1
            self.ledger.time_to_recover.append(tick - worker.failed_at)

    def _restore(self, worker: Worker, tick: int) -> bool:
        """Restore *worker*'s machine; True when it runs again."""
        checkpoint = worker.core.restore()
        self.ledger.note(tick, "restart", worker.name,
                         f"restart {worker.restarts_used} from "
                         f"cycle {checkpoint.cycle_count}")
        return True

    def _fail_permanently(self, worker: Worker, tick: int, detail: str,
                          reason: str) -> None:
        worker.state = FAILED
        self.ledger.permanent_failures += 1
        self.ledger.note(tick, "permanent-failure", worker.name, detail)
        self._abandon(worker, tick, reason)

    def _abandon(self, worker: Worker, tick: int, reason: str) -> None:
        """Shed, with *reason*, every item a failed worker still held."""
        for item in worker.core.queue.drain():
            self.ledger.drop(tick, worker.name, item.seq, reason)
            worker.enqueued_at.pop(item.seq, None)

    # -- reporting ---------------------------------------------------------
    def report(self, ticks: Optional[int] = None) -> FarmReport:
        ledger = self.ledger
        report = FarmReport(
            ticks=ticks if ticks is not None else self.tick,
            workers=[worker.describe(ledger.tallies[worker.name])
                     for worker in self.workers],
            submitted=ledger.submitted,
            accepted=ledger.accepted,
            processed=ledger.processed,
            rejected=dict(ledger.rejected),
            shed=dict(ledger.shed),
            in_flight=sum(len(worker.core.queue)
                          for worker in self.workers),
            escalations=ledger.escalations,
            restarts=ledger.restarts,
            permanent_failures=ledger.permanent_failures,
            checkpoints=ledger.checkpoints,
            time_to_recover=list(ledger.time_to_recover),
            timeline=list(ledger.timeline),
            timeline_dropped=ledger.timeline_dropped,
            forensics_bundles=sum(len(w.forensics) for w in self.workers),
        )
        if self.metrics is not None:
            self.publish(self.metrics, report)
        return report

    # -- farm-wide observability -------------------------------------------
    def machine_tracers(self) -> Dict[str, Any]:
        """``{worker name: tracer}`` for the workers that trace, with any
        buffered idle spans flushed — feed to
        :func:`~repro.obs.merged_chrome_trace` together with
        ``ledger.timeline`` for the whole-farm Perfetto view."""
        tracers: Dict[str, Any] = {}
        for worker in self.workers:
            tracer = worker.core.machine.observer(Tracer)
            if tracer is not None:
                tracer.flush()
                tracers[worker.name] = tracer
        return tracers

    def forensics_bundles(self) -> List[Dict[str, Any]]:
        """Every worker's dumped bundles, in worker order."""
        bundles: List[Dict[str, Any]] = []
        for worker in self.workers:
            bundles.extend(worker.forensics)
        return bundles

    def publish(self, metrics, report: Optional[FarmReport] = None) -> None:
        """Publish supervisor counters into a metrics registry."""
        if report is None:
            report = self.report()
        metrics.counter("farm.submitted",
                        "work items offered to the farm").value = \
            report.submitted
        metrics.counter("farm.accepted").value = report.accepted
        metrics.counter("farm.processed").value = report.processed
        for reason, count in sorted(report.rejected.items()):
            metrics.counter(f"farm.rejected.{reason}").value = count
        for reason, count in sorted(report.shed.items()):
            metrics.counter(f"farm.shed.{reason}").value = count
        metrics.gauge("farm.in_flight",
                      "items queued at report time").set(report.in_flight)
        metrics.counter("farm.escalations",
                        "unrecoverable faults escalated").value = \
            report.escalations
        metrics.counter("farm.restarts",
                        "restarts from snapshot").value = report.restarts
        metrics.counter("farm.permanent_failures").value = \
            report.permanent_failures
        metrics.counter("farm.checkpoints").value = report.checkpoints
        recover = metrics.histogram(
            "farm.time_to_recover_ticks",
            "ticks from escalation to restored worker")
        recover.reset()
        for ticks in report.time_to_recover:
            recover.observe(ticks)
        for worker in self.workers:
            scoped = metrics.scoped(f"farm.{worker.name}")
            queue = worker.core.queue
            scoped.gauge("queue_depth").set(len(queue))
            scoped.gauge("queue_high_watermark").set(queue.high_watermark)
            scoped.counter("processed").value = \
                self.ledger.tallies[worker.name].processed
            scoped.counter("restarts").value = worker.restarts_used
            scoped.counter("forensics_bundles",
                           "post-mortem bundles dumped").value = \
                len(worker.forensics)
            # copy the worker's latency distribution wholesale (assignment,
            # not accumulation, so republishing stays idempotent)
            latency = scoped.histogram(
                "dispatch_latency_ticks",
                "ticks from queue admission to completed processing",
                buckets=worker.latency.buckets)
            latency.counts = list(worker.latency.counts)
            latency.overflow = worker.latency.overflow
            latency.count = worker.latency.count
            latency.sum = worker.latency.sum
            latency.min = worker.latency.min
            latency.max = worker.latency.max


def generate_event_stream(events: Iterable[str], n_items: int,
                          seed: int = 1, max_burst: int = 2,
                          priorities: int = 3) -> List[WorkItem]:
    """A seeded work stream over *events*: each item carries 1..max_burst
    distinct events and a priority in ``[0, priorities)``.

    Deterministic for identical arguments — the farm soak's reproducibility
    rests on it.
    """
    import random

    pool = sorted(set(events))
    if not pool:
        raise ValueError("cannot generate a stream without events")
    rng = random.Random(seed)
    items: List[WorkItem] = []
    for seq in range(n_items):
        count = rng.randrange(1, max(2, max_burst + 1))
        chosen = tuple(sorted(rng.sample(pool, min(count, len(pool)))))
        items.append(WorkItem(seq, chosen, rng.randrange(max(1, priorities))))
    return items
