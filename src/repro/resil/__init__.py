"""Resilience: checkpoint/restore and a supervised PSCP machine farm.

``snapshot``
    Versioned, deterministic, JSON-serializable capture of a machine's
    complete architectural state, with byte-identical round-trip restore
    and atomic snapshot-file IO.
``queue``
    Bounded admission queues with backpressure, priority load shedding,
    and per-worker circuit breakers.
``supervisor``
    A farm of N supervised machines over a shared event stream with
    restart-from-snapshot and conservation-checked accounting, plus what
    both farm engines share: the :class:`FarmConfig` settings, the farm
    machine and the ledger identities.
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
    The distributed farm: a :class:`ShardSupervisor` over N worker
    *processes* with failover, respawn and process-kill chaos, keeping
    the conservation ledger global.
"""

from repro.resil.snapshot import (
    SNAPSHOT_VERSION,
    MachineSnapshot,
    SnapshotError,
    read_snapshot,
    restore_machine,
    snapshot_machine,
    write_snapshot,
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
    MachineWorker,
    RestartPolicy,
    Supervisor,
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
    "write_snapshot",
    "read_snapshot",
    "WorkItem",
    "Admission",
    "BoundedQueue",
    "CircuitBreaker",
    "FarmConfig",
    "RestartPolicy",
    "FarmLedger",
    "FarmReport",
    "MachineWorker",
    "Supervisor",
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
