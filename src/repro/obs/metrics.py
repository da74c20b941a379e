"""A process-local metrics registry: counters, gauges, histograms.

The registry is the aggregation layer above the tracer: where the tracer
records *individual* events on a timeline, the registry keeps *summaries* —
how many transitions fired, how many cache words moved, the distribution of
event-consumption latencies in reference-clock cycles.  The
:class:`~repro.pscp.trace.DeadlineMonitor` and the benchmarks publish into
one, and the ``repro stats`` CLI subcommand renders it.

Instruments are plain mutable objects with ``__slots__``; reading them back
(:meth:`MetricsRegistry.collect`) produces JSON-ready dictionaries.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

#: default histogram bucket upper bounds, in cycles (powers of two so the
#: buckets line up across architectures; the last bucket is open-ended)
DEFAULT_CYCLE_BUCKETS: Tuple[int, ...] = (
    8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A value that can go up and down (last write wins)."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def inc(self, amount=1) -> None:
        self.value += amount

    def dec(self, amount=1) -> None:
        self.value -= amount


class Histogram:
    """A cycle-bucketed latency histogram.

    ``buckets`` are inclusive upper bounds; observations above the last
    bound land in the overflow bucket.  Count, sum, min and max are kept
    exactly, so means are exact even though the distribution is bucketed.
    """

    __slots__ = ("name", "help", "buckets", "counts", "overflow",
                 "count", "sum", "min", "max")

    def __init__(self, name: str, help: str = "",
                 buckets: Optional[Sequence[int]] = None) -> None:
        self.name = name
        self.help = help
        self.buckets = tuple(buckets if buckets is not None
                             else DEFAULT_CYCLE_BUCKETS)
        if list(self.buckets) != sorted(self.buckets):
            raise ValueError("histogram buckets must be sorted")
        self.counts = [0] * len(self.buckets)
        self.overflow = 0
        self.count = 0
        self.sum = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def reset(self) -> None:
        """Forget all observations (publishers that snapshot a whole run
        call this so republishing does not double-count)."""
        self.counts = [0] * len(self.buckets)
        self.overflow = 0
        self.count = 0
        self.sum = 0
        self.min = None
        self.max = None

    def observe(self, value: int) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                return
        self.overflow += 1

    @property
    def mean(self) -> Optional[float]:
        return self.sum / self.count if self.count else None

    def quantile(self, q: float) -> Optional[int]:
        """Upper bound of the bucket containing the q-quantile, clamped to
        the exact observed ``max``.

        **Error bound:** the result *overestimates* the true q-quantile by
        at most :meth:`quantile_error_bound` — the true value lies in
        ``(previous bound, returned value]``.  With the default
        power-of-two buckets that means the estimate is within 2x of the
        true quantile (tight for values just above a bound).  The clamp
        keeps degenerate distributions exact: a single-sample (or
        constant) histogram reports its one value, never a bucket bound
        above anything ever observed, and values beyond the last bucket
        report the exact ``max``.  ``count``/``sum``/``min``/``max``/
        ``mean`` are exact regardless of bucketing.
        """
        if not self.count:
            return None
        if self.min == self.max:
            return self.max  # single sample / constant: exact
        target = q * self.count
        running = 0
        for index, bound in enumerate(self.buckets):
            running += self.counts[index]
            if running >= target:
                return min(bound, self.max)
        return self.max

    def quantile_error_bound(self, q: float) -> Optional[int]:
        """Worst-case overestimate of :meth:`quantile` — the returned
        value minus the largest value provably <= the true q-quantile
        (the previous bucket bound, floored at the observed ``min``).
        ``0`` means the reported quantile is exact.
        """
        if not self.count:
            return None
        estimate = self.quantile(q)
        if self.min == self.max:
            return 0
        target = q * self.count
        running = 0
        previous = self.min
        for index, bound in enumerate(self.buckets):
            running += self.counts[index]
            if running >= target:
                return max(0, estimate - max(previous, self.min))
            previous = bound
        # overflow bucket: the exact max is reported, but the true
        # quantile may sit anywhere above the last bound
        return max(0, estimate - max(previous, self.min))

    def summary(self) -> Dict[str, Any]:
        """The dashboard/summary digest: ``{count, mean, p50, p95, p99,
        quantile_error_bounds}``.

        Percentiles carry :meth:`quantile`'s bucket-upper-bound error;
        ``quantile_error_bounds`` states that error per percentile (``0``
        = exact).  Mean and count are exact.  All values are ``None`` when
        empty except ``count``.
        """
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "quantile_error_bounds": {
                "p50": self.quantile_error_bound(0.50),
                "p95": self.quantile_error_bound(0.95),
                "p99": self.quantile_error_bound(0.99),
            },
        }


class MetricsRegistry:
    """Named instruments, created on first use."""

    def __init__(self) -> None:
        self._instruments: Dict[str, Any] = {}

    def _get(self, name: str, factory, kind):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory()
            self._instruments[name] = instrument
        elif not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}")
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, lambda: Counter(name, help), Counter)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, lambda: Gauge(name, help), Gauge)

    def histogram(self, name: str, help: str = "",
                  buckets: Optional[Sequence[int]] = None) -> Histogram:
        return self._get(name, lambda: Histogram(name, help, buckets),
                         Histogram)

    def scoped(self, prefix: str) -> "ScopedRegistry":
        """A view creating instruments under ``prefix.`` — the idiom for
        per-worker metrics (``farm.worker0.queue_depth``) without every
        publisher hand-formatting names."""
        return ScopedRegistry(self, prefix)

    # -- reading back -----------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __getitem__(self, name: str):
        return self._instruments[name]

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def collect(self) -> Dict[str, Dict[str, Any]]:
        """All instruments as JSON-ready dictionaries."""
        result: Dict[str, Dict[str, Any]] = {}
        for name in self.names():
            instrument = self._instruments[name]
            if isinstance(instrument, Counter):
                result[name] = {"type": "counter", "value": instrument.value}
            elif isinstance(instrument, Gauge):
                result[name] = {"type": "gauge", "value": instrument.value}
            else:
                result[name] = {
                    "type": "histogram",
                    "count": instrument.count,
                    "sum": instrument.sum,
                    "min": instrument.min,
                    "max": instrument.max,
                    "mean": instrument.mean,
                    "buckets": {str(bound): count for bound, count in
                                zip(instrument.buckets, instrument.counts)},
                    "overflow": instrument.overflow,
                }
            if instrument.help:
                result[name]["help"] = instrument.help
        return result

    def summary_rows(self) -> List[Tuple[str, str, str]]:
        """(name, type, rendered value) rows for the ASCII summary table."""
        rows: List[Tuple[str, str, str]] = []
        for name, data in self.collect().items():
            if data["type"] == "histogram":
                if data["count"]:
                    summary = self._instruments[name].summary()
                    rendered = (f"n={data['count']} min={data['min']} "
                                f"mean={data['mean']:.1f} "
                                f"p50={summary['p50']} "
                                f"p95={summary['p95']} "
                                f"p99={summary['p99']} max={data['max']}")
                else:
                    rendered = "n=0"
            else:
                rendered = str(data["value"])
            rows.append((name, data["type"], rendered))
        return rows


class ScopedRegistry:
    """A name-prefixing view over a :class:`MetricsRegistry`.

    Instruments live in (and are collected from) the parent registry; the
    view only joins ``prefix`` onto every name.
    """

    __slots__ = ("_registry", "_prefix")

    def __init__(self, registry: MetricsRegistry, prefix: str) -> None:
        self._registry = registry
        self._prefix = prefix

    def counter(self, name: str, help: str = "") -> Counter:
        return self._registry.counter(f"{self._prefix}.{name}", help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._registry.gauge(f"{self._prefix}.{name}", help)

    def histogram(self, name: str, help: str = "",
                  buckets: Optional[Sequence[int]] = None) -> Histogram:
        return self._registry.histogram(f"{self._prefix}.{name}", help,
                                        buckets)

    def scoped(self, prefix: str) -> "ScopedRegistry":
        return ScopedRegistry(self._registry, f"{self._prefix}.{prefix}")
