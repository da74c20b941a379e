"""A supervised farm of PSCP machines: restart-from-snapshot under faults.

The paper's PSCP is *scalable* — an array of reactive processors — and the
ROADMAP's north star is a production-scale service.  This module provides
the supervision layer between the two: a :class:`Supervisor` runs N
:class:`MachineWorker` instances over a shared stream of
:class:`~repro.resil.queue.WorkItem`\\ s with

* **bounded admission queues** — every worker owns a
  :class:`~repro.resil.queue.BoundedQueue`; a full queue rejects with a
  reason (backpressure) or sheds its lowest-priority pending item to admit
  higher-priority traffic (load shedding);
* **per-worker circuit breakers** — consecutive failures open the breaker,
  diverting traffic away during the cooldown, with a half-open probe before
  it closes again;
* **restart-from-snapshot** — each worker checkpoints its machine every
  :attr:`FarmConfig.checkpoint_every` processed items
  (:func:`~repro.resil.snapshot.snapshot_machine`); when an unrecoverable
  fault escalates out of the machine
  (:class:`~repro.fault.guard.MachineEscalation`), the worker restores its
  last checkpoint after a bounded exponential backoff and re-runs the
  in-flight item.  A restore leaves the injector's state alone: a fault
  that already bit stays consumed, so a single fault cannot wedge a
  worker in an escalation loop;
* **a terminal state** — after ``max_restarts`` restarts the worker is
  marked permanently failed; its queue is drained and every pending item
  reported shed (``worker-failed``), never silently lost.

Accounting is conservation-checked: ``submitted = accepted + rejected`` and
``accepted = processed + shed + in-flight``, with each item counted exactly
once (:meth:`FarmReport.conservation`).  The whole farm is deterministic —
no wall clock, no OS threads; time is the supervisor's integer tick — so a
seeded chaos soak is reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, \
    Sequence

from repro.obs.flightrec import FlightRecorder
from repro.obs.metrics import Histogram
from repro.obs.tracer import Tracer
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
#: both farm engines stop driving after this many ticks
MAX_TICKS = 100000
#: recoverable-fault retries of every farm machine's guard: a tight budget
#: keeps a chaos soak short, two consecutive runaway bites already
#: escalate to the supervisor
GUARD_RETRIES = 1


@dataclass(frozen=True)
class FarmConfig:
    """What ``repro serve`` sets for both farm engines, in one place.

    :class:`Supervisor`, :class:`~repro.resil.shardfarm.ShardSupervisor`,
    the shard worker processes and the hot standbys all read this one
    object; the defaults are ``repro serve``'s.
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
class FarmLedger:
    """The farm's conservation-checked accounting, shared by all workers."""

    submitted: int = 0
    accepted: int = 0
    processed: int = 0
    rejected: Dict[str, int] = field(default_factory=dict)
    shed: Dict[str, int] = field(default_factory=dict)
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

    def reject(self, reason: str) -> None:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1

    def drop(self, reason: str, count: int = 1) -> None:
        if count:
            self.shed[reason] = self.shed.get(reason, 0) + count

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


class MachineWorker:
    """One supervised machine instance with its queue and checkpoint."""

    def __init__(self, name: str, machine, ledger: FarmLedger,
                 config: FarmConfig, policy: RestartPolicy) -> None:
        self.name = name
        self.ledger = ledger
        self.config = config
        self.policy = policy
        self.queue = BoundedQueue(config.queue_capacity,
                                  shed_enabled=config.shed_enabled)
        self.breaker = CircuitBreaker()
        self.machine = machine
        self.state = RUNNING
        self.processed = 0
        self.restarts_used = 0
        self.restored_from_snapshot = 0
        self._since_checkpoint = 0
        self._resume_at: Optional[int] = None
        self._failed_at: Optional[int] = None
        self.last_escalation: Optional[str] = None
        #: dispatch latency in supervisor ticks (enqueue -> processed);
        #: restarts and backoff count into the retried item's latency
        self.latency = Histogram(
            f"{name}.dispatch_latency_ticks",
            "ticks from queue admission to completed processing",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512))
        self._enqueued_at: Dict[int, int] = {}
        #: forensics bundles dumped on escalation / permanent failure
        self.forensics: List[Dict[str, Any]] = []
        self._checkpoint_seq = 0
        self._progress_at_checkpoint: Dict[str, int] = {}
        #: restart-from-snapshot anchor; taken at start so a restart is
        #: always defined, refreshed every ``checkpoint_every`` items
        self.checkpoint: MachineSnapshot = self._take_checkpoint()

    # -- checkpointing -----------------------------------------------------
    def _take_checkpoint(self) -> MachineSnapshot:
        snapshot = snapshot_machine(self.machine)
        self.ledger.checkpoints += 1
        self._since_checkpoint = 0
        self._checkpoint_seq += 1
        self._progress_at_checkpoint = {
            "processed": self.processed,
            "cycle_count": self.machine.cycle_count,
            "time": self.machine.time,
            "restarts": self.restarts_used,
        }
        recorder = self.machine.observer(FlightRecorder)
        if recorder is not None:
            recorder.note_checkpoint(
                snapshot.cycle_count,
                f"{self.name}:ckpt{self._checkpoint_seq}"
                f"@cycle{snapshot.cycle_count}")
        return snapshot

    def _dump_forensics(self, tick: int, kind: str, detail: str) -> None:
        """Dump the machine's flight-recorder ring as a forensics bundle
        (no-op without a recorder attached)."""
        recorder = self.machine.observer(FlightRecorder)
        if recorder is None:
            return
        progress = self._progress_at_checkpoint
        delta = {
            "processed": self.processed - progress.get("processed", 0),
            "cycle_count": (self.machine.cycle_count
                            - progress.get("cycle_count", 0)),
            "time": self.machine.time - progress.get("time", 0),
            "restarts": self.restarts_used - progress.get("restarts", 0),
        }
        cause = {"kind": kind, "tick": tick, "detail": detail}
        self.forensics.append(recorder.forensics_bundle(
            cause, worker=self.name, metrics_delta=delta))

    # -- admission ---------------------------------------------------------
    def offer(self, item: WorkItem, tick: int) -> bool:
        """Route one item to this worker; returns True when accepted."""
        if self.state == FAILED:
            self.ledger.reject(REJECT_WORKER_FAILED)
            return False
        if not self.breaker.admits(tick):
            self.ledger.reject(REJECT_CIRCUIT_OPEN)
            return False
        admission = self.queue.offer(item)
        if not admission.accepted:
            self.ledger.reject(admission.reason or REJECT_QUEUE_FULL)
            return False
        self.ledger.accepted += 1
        self._enqueued_at[item.seq] = tick
        if admission.shed is not None:
            # the evicted item was accepted earlier; it leaves as shed
            self.ledger.drop(SHED_OVERLOAD)
            self._enqueued_at.pop(admission.shed.seq, None)
            self.ledger.note(tick, "shed", self.name,
                             admission.shed.describe())
        return True

    # -- the work loop -----------------------------------------------------
    def advance(self, tick: int) -> None:
        """Run this worker for one supervisor tick."""
        if self.state == BACKOFF:
            if tick >= (self._resume_at or 0):
                self._restart(tick)
            else:
                return
        if self.state != RUNNING:
            return
        for _ in range(self.config.batch):
            item = self.queue.pop()
            if item is None:
                return
            if not self._process(item, tick):
                return

    def _process(self, item: WorkItem, tick: int) -> bool:
        from repro.fault.guard import MachineEscalation
        from repro.pscp.machine import MachineError

        try:
            self.machine.step(item.events)
        except MachineEscalation as exc:
            self._on_failure(item, tick, exc.describe())
            return False
        except MachineError as exc:
            # an un-escalated crash is supervised the same way
            self._on_failure(item, tick, f"crash: {exc}")
            return False
        self.processed += 1
        self.ledger.processed += 1
        self.latency.observe(tick - self._enqueued_at.pop(item.seq, tick))
        self.breaker.record_success()
        self._since_checkpoint += 1
        if self._since_checkpoint >= self.config.checkpoint_every:
            self.checkpoint = self._take_checkpoint()
        return True

    def _on_failure(self, item: WorkItem, tick: int, detail: str) -> None:
        self.ledger.escalations += 1
        self.last_escalation = detail
        self.breaker.record_failure(tick)
        self.ledger.note(tick, "escalation", self.name, detail)
        permanent = self.restarts_used >= self.policy.max_restarts
        self._dump_forensics(
            tick, "permanent-failure" if permanent else "escalation",
            detail)
        if permanent:
            self._fail_permanently(item, tick)
            return
        # the in-flight item goes back to the head: it is retried from the
        # restored snapshot, so it stays in-flight, not lost
        self.queue.push_front(item)
        self.state = BACKOFF
        self._failed_at = tick
        self._resume_at = tick + self.policy.backoff(self.restarts_used,
                                                     key=self.name)

    def _restart(self, tick: int) -> None:
        """Restore the machine from the last checkpoint and resume: a
        fresh start from known-good architectural state."""
        restore_machine(self.machine, self.checkpoint)
        self.restarts_used += 1
        self.restored_from_snapshot += 1
        self.ledger.restarts += 1
        if self._failed_at is not None:
            self.ledger.time_to_recover.append(tick - self._failed_at)
            self._failed_at = None
        self.state = RUNNING
        self.ledger.note(tick, "restart", self.name,
                         f"restart {self.restarts_used} from "
                         f"cycle {self.checkpoint.cycle_count}")

    def _fail_permanently(self, in_flight: Optional[WorkItem],
                          tick: int) -> None:
        self.state = FAILED
        self.ledger.permanent_failures += 1
        self.ledger.note(tick, "permanent-failure", self.name,
                         self.last_escalation)
        drained = self.queue.drain()
        count = len(drained) + (1 if in_flight is not None else 0)
        self.ledger.drop(SHED_WORKER_FAILED, count)
        for item in drained:
            self._enqueued_at.pop(item.seq, None)
        if in_flight is not None:
            self._enqueued_at.pop(in_flight.seq, None)

    # -- reporting ---------------------------------------------------------
    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "state": self.state,
            "processed": self.processed,
            "queue_depth": len(self.queue),
            "queue_high_watermark": self.queue.high_watermark,
            "restarts": self.restarts_used,
            "breaker": self.breaker.state,
            "breaker_opened": self.breaker.opened_count,
            "last_escalation": self.last_escalation,
            "dispatch_latency_ticks": self.latency.summary(),
            "forensics_bundles": len(self.forensics),
        }


@dataclass
class FarmReport:
    """Outcome of one supervised run, conservation-checked."""

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
    """Routes a work stream over N supervised machine workers."""

    def __init__(self, workers: Sequence[MachineWorker],
                 ledger: FarmLedger, config: FarmConfig, metrics=None,
                 sampler=None) -> None:
        if not workers:
            raise ValueError("a farm needs at least one worker")
        self.workers = list(workers)
        self.ledger = ledger
        self.config = config
        self.metrics = metrics
        #: a :class:`~repro.obs.FarmSampler` fed at the end of every tick
        self.sampler = sampler
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
        policy = policy if policy is not None else RestartPolicy()
        ledger = FarmLedger()
        workers = []
        for index in range(n_workers):
            machine = farm_machine(system)
            if injector_factory is not None:
                machine.attach_injector(injector_factory(index))
            if observer_factory is not None:
                for observer in observer_factory(index):
                    machine.attach(observer)
            workers.append(MachineWorker(f"worker{index}", machine, ledger,
                                         config, policy))
        return cls(workers, ledger, config, metrics=metrics, sampler=sampler)

    # -- admission ---------------------------------------------------------
    def submit(self, item: WorkItem) -> bool:
        """Admit one item: the preferred worker is ``seq % N``; failed
        workers are probed past, but a live worker's backpressure is final
        (no spillover — the producer is told to slow down)."""
        self.ledger.submitted += 1
        n = len(self.workers)
        preferred = item.seq % n
        for offset in range(n):
            worker = self.workers[(preferred + offset) % n]
            if worker.state == FAILED:
                continue
            return worker.offer(item, self.tick)
        self.ledger.reject(REJECT_WORKER_FAILED)
        return False

    # -- the drive loop ----------------------------------------------------
    def run(self, stream: Iterable[WorkItem]) -> FarmReport:
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
            for item in burst:
                self.submit(item)
            for worker in self.workers:
                worker.advance(ticks)
            if self.sampler is not None:
                self.sampler.on_tick(self, ticks)
            if cursor >= len(pending) and self._drained():
                break
        return self.report(ticks)

    def _drained(self) -> bool:
        for worker in self.workers:
            if worker.state == BACKOFF:
                return False
            if worker.state == RUNNING and len(worker.queue):
                return False
        return True

    # -- reporting ---------------------------------------------------------
    def report(self, ticks: Optional[int] = None) -> FarmReport:
        ledger = self.ledger
        report = FarmReport(
            ticks=ticks if ticks is not None else self.tick,
            workers=[worker.describe() for worker in self.workers],
            submitted=ledger.submitted,
            accepted=ledger.accepted,
            processed=ledger.processed,
            rejected=dict(ledger.rejected),
            shed=dict(ledger.shed),
            in_flight=sum(len(worker.queue) for worker in self.workers),
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
            tracer = worker.machine.observer(Tracer)
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
            scoped.gauge("queue_depth").set(len(worker.queue))
            scoped.gauge("queue_high_watermark").set(
                worker.queue.high_watermark)
            scoped.counter("processed").value = worker.processed
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
