"""Resilience: checkpoint/restore and a supervised PSCP machine farm.

``snapshot``
    Versioned, deterministic, JSON-serializable capture of a machine's
    architectural state, with byte-identical round-trip restore.
``queue``
    Bounded admission queues with backpressure, priority load shedding,
    and per-worker circuit breakers.
``supervisor``
    The one farm engine: a :class:`Supervisor` routing a shared event
    stream over N supervised workers (one :class:`WorkerCore` each) with
    bounded admission, a restart ladder and a conservation-checked
    :class:`FarmLedger`; in-process workers are called directly.
``transport``
    Length-prefixed JSON frames between farm processes: per-request
    timeouts, oversized-frame rejection, attributed close.
``delta``
    Delta-encoded incremental snapshots against the last full
    :class:`MachineSnapshot`, with compaction and byte-identical
    reconstruction.
``standby``
    Hot-standby replicas replaying the stream one checkpoint behind, so
    escalation becomes promotion.
``shardfarm``
    The same engine over N worker *processes*: a :class:`ShardSupervisor`
    adding fork, heartbeats, failover, delta-encoded checkpoints and
    process-kill chaos.
"""

from repro.resil.snapshot import (
    SNAPSHOT_VERSION,
    MachineSnapshot,
    SnapshotError,
    restore_machine,
    snapshot_machine,
)
from repro.resil.queue import (
    Admission,
    BoundedQueue,
    CircuitBreaker,
    WorkItem,
)
from repro.resil.supervisor import (
    FarmConfig,
    FarmLedger,
    FarmReport,
    RestartPolicy,
    Supervisor,
    WorkerCore,
    generate_event_stream,
)
from repro.resil.transport import (
    Channel,
    FrameTooLarge,
    TransportClosed,
    TransportError,
    TransportTimeout,
    channel_pair,
    encode_frame,
)
from repro.resil.delta import (
    DELTA_VERSION,
    DeltaBase,
    DeltaChain,
    DeltaSnapshot,
    apply_delta,
    diff_snapshots,
    snapshot_fingerprint,
)
from repro.resil.standby import StandbyLog, StandbyReplica
from repro.resil.shardfarm import (
    ShardFarmError,
    ShardFarmReport,
    ShardSupervisor,
)

__all__ = [
    "SNAPSHOT_VERSION",
    "MachineSnapshot",
    "SnapshotError",
    "snapshot_machine",
    "restore_machine",
    "WorkItem",
    "Admission",
    "BoundedQueue",
    "CircuitBreaker",
    "FarmConfig",
    "RestartPolicy",
    "FarmLedger",
    "FarmReport",
    "Supervisor",
    "WorkerCore",
    "generate_event_stream",
    "Channel",
    "TransportError",
    "TransportClosed",
    "TransportTimeout",
    "FrameTooLarge",
    "channel_pair",
    "encode_frame",
    "DELTA_VERSION",
    "DeltaSnapshot",
    "DeltaBase",
    "DeltaChain",
    "diff_snapshots",
    "apply_delta",
    "snapshot_fingerprint",
    "StandbyLog",
    "StandbyReplica",
    "ShardFarmError",
    "ShardFarmReport",
    "ShardSupervisor",
]
