"""An always-on flight recorder for post-mortem forensics.

Where the :class:`~repro.obs.tracer.Tracer` records *everything* (and is
therefore attached only when someone is watching), the
:class:`FlightRecorder` is designed to run **always**, even in production
farms: a bounded ring buffer holding the last N configuration-cycle
digests plus checkpoint and escalation marks.  When a machine escalates an
unrecoverable fault, the ring is dumped as a versioned **forensics
bundle** — the reconstructable execution history Harel-style reactive
debugging needs, at near-zero steady-state cost.

Near-zero overhead
------------------

The hot path appends one tuple per configuration cycle, referencing the
:class:`~repro.pscp.machine.MachineStep` the machine built anyway — no
digesting, no string formatting, no dict allocation — and one run-length
tuple per run of repeated cycles (:meth:`PscpMachine.repeat
<repro.pscp.machine.PscpMachine.repeat>`).  Digesting into JSON-ready
form, one entry per cycle, happens only when a bundle is dumped or the
ring is read.  ``scripts/check_overhead.py`` enforces the budget: a
recorder-attached, tracing-off run must stay within the same wall-clock
envelope as an uninstrumented one.

The ring is no part of a machine snapshot: a restore replaces the
machine's architectural state and leaves its attached recorder as it was,
so after a restart the ring holds the pre-restart history followed by the
restored timeline, and a restore-then-escalate still produces a complete
bundle.
"""

from __future__ import annotations

import json
from collections import deque
from typing import (Any, Deque, Dict, FrozenSet, IO, List, NamedTuple,
                    Optional, Union)

from repro.obs.lineage import LineageTracker
from repro.pscp.machine import MachineObserver
from repro.pscp.scheduler import SLA_OVERHEAD_CYCLES

#: bump when the bundle layout changes; the pretty-printer refuses others.
#: v1 (PR 4) had no ``lineage`` key; v2 adds the escalating machine's
#: last-K causal lineage hops.  Loading stays compatible with every
#: version in :data:`SUPPORTED_FORENSICS_VERSIONS`.
FORENSICS_VERSION = 2
SUPPORTED_FORENSICS_VERSIONS = (1, 2)

#: ring entry kinds
STEP = "step"
CHECKPOINT = "checkpoint"
ESCALATION = "escalation"


class _Run(NamedTuple):
    """A ring entry for *n* repeated cycles from *cycle* on, the first
    starting at *start*: each fires nothing and lasts
    ``SLA_OVERHEAD_CYCLES``."""

    cycle: int
    n: int
    start: int
    sampled: FrozenSet[str]


class FlightRecorder(MachineObserver):
    """A bounded ring of configuration-cycle digests.

    Attached with :meth:`PscpMachine.attach`, the machine calls
    :meth:`record_step` once per stepped cycle and :meth:`on_repeat` once
    per run of repeated cycles.  Checkpoint and escalation marks
    arrive from the supervision layer (:meth:`note_checkpoint`,
    :meth:`note_escalation`).  ``capacity`` bounds memory: the ring keeps
    the last *capacity* entries, and the bundle reports how many older
    entries were dropped.  A run entry stands for several cycles, so the
    deque's last *capacity* raw entries always hold the last *capacity*
    cycle entries.
    """

    __slots__ = ("capacity", "_ring", "recorded", "last_checkpoint",
                 "last_escalation", "machine")

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        #: a bounded deque drops its oldest entry on append, so the hot
        #: path is one C-level append
        self._ring: Deque[Any] = deque(maxlen=capacity)
        self.recorded = 0
        self.last_checkpoint: Optional[str] = None
        self.last_escalation: Optional[Dict[str, Any]] = None
        self.machine = None

    # -- wiring ------------------------------------------------------------
    def bind(self, machine) -> None:
        """Called by :meth:`PscpMachine.attach`."""
        self.machine = machine

    # -- the hot path ------------------------------------------------------
    def record_step(self, cycle: int, step) -> None:
        """Append one cycle digest (a reference, digested lazily)."""
        self._ring.append((cycle, step))
        self.recorded += 1

    def on_repeat(self, cycle: int, n: int, sampled) -> None:
        """Append one run-length entry for *n* repeated cycles."""
        self._ring.append(_Run(cycle, n, self.machine.time, sampled))
        self.recorded += n

    # -- marks -------------------------------------------------------------
    def note_checkpoint(self, cycle: int, ref: str) -> None:
        """A checkpoint was taken at *cycle*; *ref* names it."""
        self.last_checkpoint = ref
        self._append_entry({"kind": CHECKPOINT, "cycle": cycle, "ref": ref})

    def note_escalation(self, cycle: int, kind: str, detail: str) -> None:
        """An unrecoverable fault escalated out of the machine."""
        self.last_escalation = {"kind": kind, "cycle": cycle,
                                "detail": detail}
        self._append_entry({"kind": ESCALATION, "cycle": cycle,
                            "escalation": kind, "detail": detail})

    def _append_entry(self, entry: Dict[str, Any]) -> None:
        self._ring.append(entry)
        self.recorded += 1

    # -- reading back ------------------------------------------------------
    def __len__(self) -> int:
        return min(self.capacity, sum(_size(entry) for entry in self._ring))

    @property
    def dropped(self) -> int:
        """Entries that aged out of the ring."""
        return max(0, self.recorded - self.capacity)

    def entries(self) -> List[Dict[str, Any]]:
        """The ring contents, oldest first, as JSON-ready digests."""
        newest_first: List[Dict[str, Any]] = []
        for entry in reversed(self._ring):
            wanted = self.capacity - len(newest_first)
            if wanted <= 0:
                break
            newest_first.extend(reversed(_digests(entry, wanted)))
        newest_first.reverse()
        return newest_first

    # -- the bundle --------------------------------------------------------
    def forensics_bundle(self, cause: Dict[str, Any],
                         worker: Optional[str] = None,
                         metrics_delta: Optional[Dict[str, Any]] = None
                         ) -> Dict[str, Any]:
        """Dump the ring as a versioned post-mortem document.

        *cause* describes why the dump happened (escalation detail,
        permanent failure, an operator's request); *metrics_delta* carries
        whatever progress counters the caller tracked since the last
        checkpoint.  When a :class:`~repro.obs.lineage.LineageTracker` is
        attached to the machine too, the bundle includes its last-K causal
        hops (``lineage``, v2) so the post-mortem shows *why* the
        escalating cycles happened, not just what they did.
        """
        lineage = (None if self.machine is None
                   else self.machine.observer(LineageTracker))
        lineage_tail = None if lineage is None else lineage.tail(16)
        bundle: Dict[str, Any] = {
            "version": FORENSICS_VERSION,
            "worker": worker,
            "cause": cause,
            "ring": self.entries(),
            "recorded": self.recorded,
            "dropped": self.dropped,
            "capacity": self.capacity,
            "last_checkpoint": self.last_checkpoint,
            "last_escalation": self.last_escalation,
            "metrics_delta": metrics_delta,
            "lineage": lineage_tail,
        }
        if self.machine is not None:
            bundle["machine"] = {
                "chart": self.machine.chart.name,
                "arch": self.machine.arch.describe(),
                "cycle_count": self.machine.cycle_count,
                "time": self.machine.time,
            }
        else:
            bundle["machine"] = None
        return bundle


# ---------------------------------------------------------------------------
# digesting
# ---------------------------------------------------------------------------

def _size(entry) -> int:
    """How many cycle entries one ring entry stands for."""
    return entry.n if isinstance(entry, _Run) else 1


def _digests(entry, last: int) -> List[Dict[str, Any]]:
    """The last *last* canonical JSON-ready entries *entry* stands for.

    Hot-path step entries are ``(cycle, MachineStep)`` tuples and runs
    :class:`_Run` tuples, one digest per cycle; marks are already dicts
    and pass through unchanged.
    """
    if isinstance(entry, dict):
        return [entry]
    if isinstance(entry, _Run):
        return [_step_digest(entry.cycle + k,
                             entry.start + k * SLA_OVERHEAD_CYCLES,
                             SLA_OVERHEAD_CYCLES, [], entry.sampled, (),
                             [], [])
                for k in range(max(0, entry.n - last), entry.n)]
    cycle, step = entry
    return [_step_digest(cycle, step.start_time, step.cycle_length,
                         [t.index for t in step.fired], step.events_sampled,
                         step.events_raised,
                         [f.describe() for f in step.faults],
                         [r.describe() for r in step.recoveries])]


def _step_digest(cycle, start, length, fired, sampled, raised, faults,
                 recoveries) -> Dict[str, Any]:
    return {
        "kind": STEP,
        "cycle": cycle,
        "start": start,
        "length": length,
        "fired": fired,
        "sampled": sorted(sampled),
        "raised": sorted(raised),
        "faults": faults,
        "recoveries": recoveries,
    }


# ---------------------------------------------------------------------------
# bundle I/O and rendering
# ---------------------------------------------------------------------------

def write_forensics_bundle(bundle: Dict[str, Any],
                           destination: Union[str, IO[str]]) -> None:
    """Serialize a bundle to a path or file object (canonical key order).

    Path writes are **atomic** (temp file + ``os.replace``): a process
    killed mid-dump leaves either the previous bundle or none, never a
    torn JSON file.
    """
    if hasattr(destination, "write"):
        json.dump(bundle, destination, indent=2, sort_keys=True)
        return
    import os

    tmp = f"{destination}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as handle:
            json.dump(bundle, handle, indent=2, sort_keys=True)
        os.replace(tmp, destination)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_forensics_bundle(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        try:
            bundle = json.load(handle)
        except json.JSONDecodeError as exc:
            # a torn or truncated file gets an attributed error, not a
            # bare JSONDecodeError the caller cannot act on
            raise ValueError(
                f"forensics bundle {path!r} is truncated or corrupt "
                f"(not valid JSON at line {exc.lineno} column {exc.colno}): "
                f"{exc.msg}") from None
    version = bundle.get("version") if isinstance(bundle, dict) else None
    if version not in SUPPORTED_FORENSICS_VERSIONS:
        supported = "/".join(str(v) for v in SUPPORTED_FORENSICS_VERSIONS)
        raise ValueError(
            f"not a version-{supported} forensics bundle "
            f"(found version {version!r})")
    if version < FORENSICS_VERSION:
        # pre-PR9 bundles carry no lineage tail; normalize the shape so
        # every consumer sees one layout
        bundle.setdefault("lineage", None)
    return bundle


def render_forensics(bundle: Dict[str, Any]) -> str:
    """The ``repro forensics`` pretty-printer: cause, context, ring tail."""
    from repro.flow.report import ascii_table  # deferred: avoids a cycle

    parts: List[str] = []
    cause = bundle.get("cause") or {}
    head = ["Forensics bundle"
            + (f" from {bundle['worker']}" if bundle.get("worker") else "")]
    head.append("  cause: " + ", ".join(
        f"{key}={cause[key]}" for key in sorted(cause)))
    machine = bundle.get("machine")
    if machine:
        head.append(f"  machine: chart {machine['chart']!r} on "
                    f"{machine['arch']} at cycle {machine['cycle_count']} "
                    f"(time {machine['time']})")
    head.append(f"  ring: {len(bundle['ring'])} of {bundle['recorded']} "
                f"entries recorded ({bundle['dropped']} dropped, "
                f"capacity {bundle['capacity']})")
    if bundle.get("last_checkpoint"):
        head.append(f"  last checkpoint: {bundle['last_checkpoint']}")
    delta = bundle.get("metrics_delta")
    if delta:
        head.append("  since checkpoint: " + ", ".join(
            f"{key}={delta[key]}" for key in sorted(delta)))
    parts.append("\n".join(head))

    def clip(text: str, width: int = 96) -> str:
        return text if len(text) <= width else text[:width - 3] + "..."

    rows = []
    for entry in bundle["ring"]:
        if entry["kind"] == STEP:
            what = (f"fired {entry['fired']}" if entry["fired"] else "idle")
            extra = []
            if entry["sampled"]:
                extra.append("in " + "+".join(entry["sampled"]))
            if entry["raised"]:
                extra.append("out " + "+".join(entry["raised"]))
            extra.extend(entry["faults"])
            extra.extend(entry["recoveries"])
            rows.append((entry["cycle"], "step", clip(
                what + (": " + "; ".join(extra) if extra else ""))))
        elif entry["kind"] == CHECKPOINT:
            rows.append((entry["cycle"], "checkpoint", entry["ref"]))
        else:
            rows.append((entry["cycle"], "escalation", clip(
                f"{entry['escalation']}: {entry['detail']}")))
    parts.append(ascii_table(["Cycle", "Kind", "What"], rows,
                             title="Flight-recorder ring (oldest first)"))
    lineage = bundle.get("lineage")
    if lineage:
        hop_rows = []
        for hop in lineage:
            if hop.get("kind") == "inject":
                hop_rows.append(("-", "inject",
                                 f"{hop['event']} as {hop['id']}"))
            elif hop.get("kind") == "dispatch":
                what = (f"t{hop['transition']} "
                        + ("ok" if hop.get("completed", True)
                           else "aborted"))
                if hop.get("raised"):
                    what += " raised " + "+".join(hop["raised"])
                if hop.get("writes"):
                    what += f" ({hop['writes']} port write(s))"
                hop_rows.append((hop["cycle"], "dispatch", clip(what)))
            else:
                hop_rows.append((hop.get("cycle", "-"), "cycle", clip(
                    "in " + "+".join(hop.get("sampled", [])) + " fired "
                    + str(hop.get("fired", [])))))
        parts.append(ascii_table(["Cycle", "Hop", "What"], hop_rows,
                                 title="Causal lineage tail (oldest first)"))
    return "\n\n".join(parts)
