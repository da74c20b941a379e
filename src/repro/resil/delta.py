"""Delta-encoded incremental snapshots against a full machine snapshot.

High-frequency checkpointing and hot-standby sync must not cost
O(machine state) per checkpoint: between two nearby configuration cycles
only a handful of snapshot fields change (the CR parts, a few executor
registers, the counters).  A :class:`DeltaSnapshot` records exactly those
changes as **path → value operations** against a named base snapshot, and
:func:`apply_delta` reconstructs the target **byte-identically** — the
reconstruction is verified against the base fingerprint before a single
op is applied, and carries the target fingerprint so the receiver can
prove the rebuild.

Paths address into the snapshot's JSON document: dict keys joined with
``/``, list indices as bare integers (``executor/registers/3``).  Lists of
equal length diff element-wise; lists that changed length are replaced
wholesale (snapshot lists are either fixed-size register files or
append-mostly logs, so this stays compact).

:class:`DeltaChain` is the checkpoint producer's policy: it emits a full
snapshot first, deltas afterwards, and **compacts** (emits a fresh full)
whenever the encoded delta stops being meaningfully smaller than the full
document (``compact_ratio``) — the rule that keeps a long chain cheap to
replay and bounds how much history a restore must walk.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.resil.snapshot import MachineSnapshot, SnapshotError

#: bump when the delta document layout changes
DELTA_VERSION = 1


def snapshot_fingerprint(snapshot: MachineSnapshot) -> str:
    """SHA-256 over the canonical JSON encoding — the identity a delta
    names its base (and target) by."""
    return hashlib.sha256(
        snapshot.to_json_str().encode("utf-8")).hexdigest()


def _document_fingerprint(document: Dict[str, Any]) -> str:
    return hashlib.sha256(
        json.dumps(document, sort_keys=True,
                   separators=(",", ":")).encode("utf-8")).hexdigest()


def _diff(base: Any, target: Any, path: str,
          ops: List[Tuple[str, Any]]) -> None:
    """Append (path, new value) ops turning *base* into *target*."""
    if isinstance(base, dict) and isinstance(target, dict) \
            and set(base) == set(target):
        for key in sorted(target):
            if base[key] != target[key]:
                _diff(base[key], target[key],
                      f"{path}/{key}" if path else key, ops)
        return
    if isinstance(base, list) and isinstance(target, list) \
            and len(base) == len(target):
        changed = [i for i in range(len(base)) if base[i] != target[i]]
        # element-wise only while it is actually sparser than replacement
        if changed and len(changed) <= max(1, len(base) // 2):
            for i in changed:
                _diff(base[i], target[i],
                      f"{path}/{i}" if path else str(i), ops)
            return
        if not changed:
            return
    if base != target:
        ops.append((path, copy.deepcopy(target)))


def _apply_op(document: Dict[str, Any], path: str, value: Any) -> None:
    parts = path.split("/")
    node: Any = document
    for part in parts[:-1]:
        node = node[int(part)] if isinstance(node, list) else node[part]
    leaf = parts[-1]
    if isinstance(node, list):
        node[int(leaf)] = value
    else:
        node[leaf] = value


@dataclass
class DeltaSnapshot:
    """The changes from one :class:`MachineSnapshot` to the next."""

    version: int
    chart: str
    base_cycle: int
    target_cycle: int
    base_fingerprint: str
    target_fingerprint: str
    ops: List[Tuple[str, Any]] = field(default_factory=list)

    def to_json(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "chart": self.chart,
            "base_cycle": self.base_cycle,
            "target_cycle": self.target_cycle,
            "base_fingerprint": self.base_fingerprint,
            "target_fingerprint": self.target_fingerprint,
            "ops": [[path, value] for path, value in self.ops],
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, document: Dict[str, Any]) -> "DeltaSnapshot":
        try:
            version = document["version"]
        except (TypeError, KeyError):
            raise SnapshotError("not a delta snapshot: no version field")
        if version != DELTA_VERSION:
            raise SnapshotError(
                f"delta version {version} is not supported (this build "
                f"reads version {DELTA_VERSION})")
        try:
            return cls(
                version=version,
                chart=document["chart"],
                base_cycle=document["base_cycle"],
                target_cycle=document["target_cycle"],
                base_fingerprint=document["base_fingerprint"],
                target_fingerprint=document["target_fingerprint"],
                ops=[(path, value) for path, value in document["ops"]],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(
                f"malformed delta snapshot: {exc}") from None

    @property
    def encoded_bytes(self) -> int:
        return len(self.to_json_str())


class DeltaBase:
    """A full snapshot that deltas are taken against and applied to.  Its
    canonical document, canonical text, encoded size and fingerprint are
    computed once, however many deltas name it."""

    def __init__(self, snapshot: MachineSnapshot) -> None:
        self.snapshot = snapshot
        self.document = snapshot.to_json()
        #: the canonical encoding: each :meth:`apply` decodes a fresh copy
        #: of the document from it
        self.text = json.dumps(self.document, sort_keys=True,
                               separators=(",", ":"))
        self.encoded_bytes = len(self.text)
        self.fingerprint = hashlib.sha256(
            self.text.encode("utf-8")).hexdigest()

    def diff(self, target: MachineSnapshot) -> DeltaSnapshot:
        """The delta that rebuilds *target* from this base
        byte-identically."""
        base = self.snapshot
        if base.chart != target.chart:
            raise SnapshotError(
                f"cannot delta across charts: base {base.chart!r}, "
                f"target {target.chart!r}")
        ops: List[Tuple[str, Any]] = []
        target_document = target.to_json()
        _diff(self.document, target_document, "", ops)
        return DeltaSnapshot(
            version=DELTA_VERSION,
            chart=target.chart,
            base_cycle=base.cycle_count,
            target_cycle=target.cycle_count,
            base_fingerprint=self.fingerprint,
            target_fingerprint=_document_fingerprint(target_document),
            ops=ops,
        )

    def apply(self, delta: DeltaSnapshot) -> MachineSnapshot:
        """Rebuild the delta's target from this base; refuses the wrong
        base and proves the rebuild against the recorded target
        fingerprint."""
        if self.fingerprint != delta.base_fingerprint:
            raise SnapshotError(
                f"delta targets base {delta.base_fingerprint[:12]}… at "
                f"cycle {delta.base_cycle}; this snapshot is "
                f"{self.fingerprint[:12]}… at cycle "
                f"{self.snapshot.cycle_count}")
        document = json.loads(self.text)
        for path, value in delta.ops:
            try:
                _apply_op(document, path, copy.deepcopy(value))
            except (KeyError, IndexError, ValueError) as exc:
                raise SnapshotError(
                    f"delta op at {path!r} does not fit the base document: "
                    f"{exc}") from None
        rebuilt = _document_fingerprint(document)
        if rebuilt != delta.target_fingerprint:
            raise SnapshotError(
                f"delta reconstruction fingerprint {rebuilt[:12]}… does not "
                f"match the recorded target "
                f"{delta.target_fingerprint[:12]}…")
        return MachineSnapshot.from_json(document)


def diff_snapshots(base: MachineSnapshot,
                   target: MachineSnapshot) -> DeltaSnapshot:
    """The delta that rebuilds *target* from *base* byte-identically."""
    return DeltaBase(base).diff(target)


def apply_delta(base: MachineSnapshot,
                delta: DeltaSnapshot) -> MachineSnapshot:
    """Rebuild the delta's target from *base* (:meth:`DeltaBase.apply`)."""
    return DeltaBase(base).apply(delta)


class DeltaChain:
    """Checkpoint-encoding policy: full first, deltas after, compaction.

    ``record(snapshot)`` returns ``("full", document)`` or
    ``("delta", document)``.  A fresh full is emitted when the previous
    delta's encoded size exceeded ``compact_ratio`` of the full document's
    size, or after ``max_deltas`` consecutive deltas — whichever bites
    first.  The consumer (:class:`ShardHandle` on the supervisor side)
    applies deltas in order to its last full and always holds the current
    state at O(1) history.
    """

    def __init__(self, compact_ratio: float = 0.5,
                 max_deltas: int = 16) -> None:
        if not 0.0 < compact_ratio <= 1.0:
            raise ValueError("compact ratio must be in (0, 1]")
        if max_deltas < 1:
            raise ValueError("max deltas between fulls must be >= 1")
        self.compact_ratio = compact_ratio
        self.max_deltas = max_deltas
        #: the last full emitted, which every later delta names as base
        self._base: Optional[DeltaBase] = None
        self.deltas_since_full = 0
        self.fulls_emitted = 0
        self.deltas_emitted = 0
        self.delta_bytes = 0
        self.full_bytes = 0
        self.compactions = 0

    def record(self, snapshot: MachineSnapshot
               ) -> Tuple[str, Dict[str, Any]]:
        if self._base is None or self.deltas_since_full >= self.max_deltas:
            if self._base is not None:
                self.compactions += 1
            return "full", self._emit_full(snapshot)
        delta = self._base.diff(snapshot)
        encoded = delta.encoded_bytes
        if encoded >= self.compact_ratio * self._base.encoded_bytes:
            self.compactions += 1
            return "full", self._emit_full(snapshot)
        # the delta stays relative to the last *full*, so the consumer
        # never replays a chain: each delta alone rebuilds the current
        # state from the full it names
        self.deltas_since_full += 1
        self.deltas_emitted += 1
        self.delta_bytes += encoded
        return "delta", delta.to_json()

    def _emit_full(self, snapshot: MachineSnapshot) -> Dict[str, Any]:
        self._base = DeltaBase(snapshot)
        self.deltas_since_full = 0
        self.fulls_emitted += 1
        self.full_bytes += self._base.encoded_bytes
        return snapshot.to_json()

    def describe(self) -> Dict[str, Any]:
        return {
            "fulls": self.fulls_emitted,
            "deltas": self.deltas_emitted,
            "compactions": self.compactions,
            "full_bytes": self.full_bytes,
            "delta_bytes": self.delta_bytes,
        }
