"""Farm-wide observability: the time-series sampler and the dashboard.

The supervisor's :class:`~repro.resil.supervisor.FarmReport` is an
end-of-run summary; the :class:`FarmSampler` is its time axis.  Hooked into
the in-process :meth:`Supervisor.run`, it snapshots the farm every
*every* supervisor ticks — farm-level counters, per-worker gauges, and the
dispatch-latency distribution digests — into an in-memory series;
:func:`write_samples` exports either sampler's series as CSV or JSON.
Every sample carries the conservation identities, so the no-silent-loss
ledger can be asserted *at every tick*, not just at the end.

:func:`render_dashboard` turns the series plus the live worker states into
the ``repro serve --dashboard`` text dashboard: sparkline strips for the
farm-level series and a worker table with states, latency digests and the
last escalation.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Union

#: the sparkline ramp, lowest to highest
_SPARK = "▁▂▃▄▅▆▇█"


def _csv(rows: List[List[Any]]) -> str:
    return "".join(",".join(map(str, row)) + "\n" for row in rows)


def _sample_violations(samples: List[Dict[str, Any]]) -> List[str]:
    """The farm ledger's identities, checked on every sample in turn."""
    from repro.resil.supervisor import ledger_violations  # deferred: cycle

    return [problem for sample in samples
            for problem in ledger_violations(sample, tick=sample["tick"])]


class FarmSampler:
    """Per-tick farm time series with bounded memory.

    ``every`` is the sampling period in supervisor ticks; ``limit`` (when
    set) keeps only the most recent samples, ring-buffer style, so an
    unbounded soak cannot grow without bound.
    """

    def __init__(self, every: int = 1, limit: Optional[int] = None) -> None:
        if every < 1:
            raise ValueError("sampling period must be >= 1 tick")
        if limit is not None and limit < 1:
            raise ValueError("sample limit must be >= 1")
        self.every = every
        self.limit = limit
        self.samples: List[Dict[str, Any]] = []
        self.dropped = 0

    # -- sampling ----------------------------------------------------------
    def on_tick(self, supervisor, tick: int) -> None:
        """Called by the supervisor at the end of every tick."""
        if tick % self.every:
            return
        self.samples.append(self.sample(supervisor, tick))
        if self.limit is not None and len(self.samples) > self.limit:
            del self.samples[0]
            self.dropped += 1

    def sample(self, supervisor, tick: int) -> Dict[str, Any]:
        """One snapshot of the farm (does not append; ``on_tick`` does)."""
        ledger = supervisor.ledger
        workers = []
        for worker in supervisor.workers:
            workers.append({
                "name": worker.name,
                "state": worker.state,
                "queue_depth": len(worker.core.queue),
                "processed": ledger.tallies[worker.name].processed,
                "restarts": worker.restarts_used,
                "breaker": worker.breaker.state,
                "latency": worker.latency.summary(),
            })
        return {
            "tick": tick,
            "submitted": ledger.submitted,
            "accepted": ledger.accepted,
            "processed": ledger.processed,
            "rejected": ledger.rejected_total,
            "shed": ledger.shed_total,
            "in_flight": sum(w["queue_depth"] for w in workers),
            "escalations": ledger.escalations,
            "restarts": ledger.restarts,
            "permanent_failures": ledger.permanent_failures,
            "checkpoints": ledger.checkpoints,
            "workers": workers,
        }

    # -- reading back ------------------------------------------------------
    def __len__(self) -> int:
        return len(self.samples)

    def series(self, field: str) -> List[Any]:
        """One farm-level column over time (``queue depth`` etc.)."""
        return [sample[field] for sample in self.samples]

    def worker_series(self, name: str, field: str) -> List[Any]:
        out = []
        for sample in self.samples:
            for worker in sample["workers"]:
                if worker["name"] == name:
                    out.append(worker[field])
                    break
        return out

    def conservation(self) -> List[str]:
        """Ledger-identity violations across **every** sample; empty when
        the farm never lost an item silently at any sampled tick."""
        return _sample_violations(self.samples)

    # -- export ------------------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        return {
            "every": self.every,
            "dropped": self.dropped,
            "samples": self.samples,
        }

    def to_csv(self) -> str:
        """Flat CSV: farm columns plus ``<worker>.queue_depth`` /
        ``.processed`` / ``.latency_p95`` per worker."""
        if not self.samples:
            return ""
        farm_fields = ["tick", "submitted", "accepted", "processed",
                       "rejected", "shed", "in_flight", "escalations",
                       "restarts", "permanent_failures", "checkpoints"]
        worker_names = [w["name"] for w in self.samples[0]["workers"]]
        header = list(farm_fields)
        for name in worker_names:
            header += [f"{name}.queue_depth", f"{name}.processed",
                       f"{name}.restarts", f"{name}.latency_p95"]
        rows = [header]
        for sample in self.samples:
            row = [sample[field] for field in farm_fields]
            by_name = {w["name"]: w for w in sample["workers"]}
            for name in worker_names:
                worker = by_name[name]
                p95 = worker["latency"]["p95"]
                row += [worker["queue_depth"], worker["processed"],
                        worker["restarts"], "" if p95 is None else p95]
            rows.append(row)
        return _csv(rows)


class ShardAggregator:
    """The distributed farm's time series: per-shard rows merged under the
    global ledger counters.

    The :class:`~repro.resil.shardfarm.ShardSupervisor` cannot reach into
    its workers' memory the way the in-process :class:`FarmSampler` does —
    shards live in other OS processes and report through their dispatch
    replies.  The supervisor therefore feeds this aggregator what it
    *knows*: its own conservation counters plus the last-reported row per
    shard.  Every sample still carries both distributed conservation
    identities (``submitted = accepted + rejected + in-dispatch`` and
    ``accepted = processed + shed + queued``), so the no-silent-loss
    ledger is assertable at every sampled tick even while a worker
    process is dead or mid-failover.
    """

    def __init__(self, limit: Optional[int] = None) -> None:
        if limit is not None and limit < 1:
            raise ValueError("sample limit must be >= 1")
        self.limit = limit
        self.samples: List[Dict[str, Any]] = []
        self.dropped = 0

    def on_tick(self, tick: int, counters: Dict[str, int],
                shards: Dict[str, Dict[str, Any]]) -> None:
        sample = dict(counters)
        sample["tick"] = tick
        sample["shards"] = {name: dict(row)
                            for name, row in sorted(shards.items())}
        self.samples.append(sample)
        if self.limit is not None and len(self.samples) > self.limit:
            del self.samples[0]
            self.dropped += 1

    def __len__(self) -> int:
        return len(self.samples)

    def series(self, field: str) -> List[Any]:
        return [sample[field] for sample in self.samples]

    def conservation(self) -> List[str]:
        """Distributed ledger-identity violations across every sample."""
        return _sample_violations(self.samples)

    def to_json(self) -> Dict[str, Any]:
        return {"dropped": self.dropped, "samples": self.samples}

    def to_csv(self) -> str:
        """Flat CSV: the tick, the farm counters, ``<shard>.<field>``."""
        if not self.samples:
            return ""
        first = self.samples[0]
        farm = ["tick"] + [k for k in first if k not in ("tick", "shards")]
        shards = [(s, k) for s, row in first["shards"].items() for k in row]
        return _csv([farm + [f"{s}.{k}" for s, k in shards]] + [
            [sample[k] for k in farm]
            + [sample["shards"].get(s, {}).get(k, "") for s, k in shards]
            for sample in self.samples])


def write_samples(series: Union[FarmSampler, ShardAggregator],
                  path: str) -> None:
    """*series* to *path*: CSV when it ends in ``.csv``, else JSON."""
    with open(path, "w") as handle:
        if path.endswith(".csv"):
            handle.write(series.to_csv())
        else:
            json.dump(series.to_json(), handle, indent=2)


# ---------------------------------------------------------------------------
# the text dashboard
# ---------------------------------------------------------------------------

def sparkline(values: Sequence[float], width: int = 48) -> str:
    """Render *values* as a fixed-width sparkline strip (mean-bucketed
    when longer than *width*; padded when shorter)."""
    values = [0 if v is None else v for v in values]
    if not values:
        return " " * width
    if len(values) > width:
        bucketed = []
        for i in range(width):
            lo = i * len(values) // width
            hi = max(lo + 1, (i + 1) * len(values) // width)
            chunk = values[lo:hi]
            bucketed.append(sum(chunk) / len(chunk))
        values = bucketed
    top = max(values)
    if top <= 0:
        strip = _SPARK[0] * len(values)
    else:
        strip = "".join(
            _SPARK[min(len(_SPARK) - 1,
                       int(v / top * (len(_SPARK) - 1) + 0.5))]
            for v in values)
    return strip.ljust(width)


def _rate(series: Sequence[int]) -> List[int]:
    """Per-sample deltas of a cumulative series."""
    out = []
    previous = 0
    for value in series:
        out.append(value - previous)
        previous = value
    return out


def render_dashboard(supervisor, sampler: FarmSampler) -> str:
    """The ``repro serve --dashboard`` view: farm sparklines + workers."""
    from repro.flow.report import ascii_table  # deferred: avoids a cycle

    ledger = supervisor.ledger
    lines = [
        f"Farm dashboard — tick {supervisor.tick}: "
        f"{ledger.submitted} submitted, {ledger.processed} processed, "
        f"{ledger.rejected_total} rejected, {ledger.shed_total} shed, "
        f"{ledger.restarts} restart(s), "
        f"{ledger.escalations} escalation(s)",
        f"  {len(sampler)} sample(s) every {sampler.every} tick(s)"
        + (f", {sampler.dropped} aged out" if sampler.dropped else ""),
        "",
    ]
    if sampler.samples:
        in_flight = sampler.series("in_flight")
        throughput = _rate(sampler.series("processed"))
        restarts = _rate(sampler.series("restarts"))
        p95 = [max((w["latency"]["p95"] or 0 for w in s["workers"]),
                   default=0) for s in sampler.samples]
        for label, series in (("in-flight", in_flight),
                              ("throughput", throughput),
                              ("restarts", restarts),
                              ("worst p95", p95)):
            peak = max((0 if v is None else v) for v in series)
            lines.append(f"  {label:<11} {sparkline(series)}  peak {peak}")
        lines.append("")
    rows = []
    for worker in supervisor.workers:
        digest = worker.latency.summary()
        latency = ("-" if not digest["count"] else
                   f"p50={digest['p50']} p95={digest['p95']} "
                   f"p99={digest['p99']}")
        rows.append((worker.name, worker.state,
                     ledger.tallies[worker.name].processed,
                     len(worker.core.queue), worker.restarts_used,
                     worker.breaker.state, latency,
                     worker.last_escalation or "-"))
    lines.append(ascii_table(
        ["Worker", "State", "Processed", "Queue", "Restarts", "Breaker",
         "Latency (ticks)", "Last escalation"],
        rows, title="Workers"))
    return "\n".join(lines)
