"""Metric primitives: counters, gauges, fixed-bucket histograms.

The registry is the numeric layer of observability; per-decision
detail lives in :mod:`repro.obs.provenance`.  Metrics use
hierarchical dotted names (``scheduler.slots_scanned``,
``policy.RC.placements``, ``span.schedule.RC.seconds``) rather than
label sets — the name space is small and flat names keep snapshots
trivially JSON-serializable and mergeable.

Snapshots are plain dicts so they can be written with ``json.dumps``
(see :func:`repro.io.save_metrics`), diffed, and merged across worker
processes with :meth:`MetricsRegistry.merge_snapshot`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Default histogram bucket upper bounds for durations in seconds.
TIME_BUCKETS_S: Tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0)

#: Default buckets for small integer quantities (hop counts, retries).
SMALL_INT_BUCKETS: Tuple[float, ...] = (1, 2, 3, 4, 5, 6, 8, 12, 16)


class Counter:
    """A monotonically increasing count (float increments allowed)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment")
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge with ``value``."""
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram with count / sum / min / max.

    Buckets are upper bounds (inclusive); one overflow bucket catches
    everything above the last bound.  Fixed buckets keep ``observe`` an
    O(log B) bisect and make snapshots mergeable without re-binning.
    """

    __slots__ = ("name", "buckets", "counts", "count", "sum", "min", "max")

    def __init__(self, name: str, buckets: Sequence[float]):
        if not buckets:
            raise ValueError("histogram needs at least one bucket bound")
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(set(bounds)):
            raise ValueError("bucket bounds must be strictly increasing")
        self.name = name
        self.buckets = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one observation."""
        from bisect import bisect_left

        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def mean(self) -> Optional[float]:
        """Arithmetic mean of all observations, or None when empty."""
        return self.sum / self.count if self.count else None

    def quantile(self, q: float) -> Optional[float]:
        """Bucket-resolution quantile estimate (None when empty)."""
        return quantile_from_buckets(self.buckets, self.counts, q)

    def to_dict(self) -> Dict:
        """JSON-serializable form (merged by :meth:`merge_dict`)."""
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    def merge_dict(self, data: Dict) -> None:
        """Fold a snapshot of another histogram with identical buckets.

        Raises:
            ValueError: When the snapshot's bucket bounds differ from
                this histogram's — raised before any bin is touched, so
                a failed merge leaves the histogram unchanged.
        """
        theirs = tuple(float(b) for b in data["buckets"])
        if theirs != self.buckets:
            raise ValueError(
                f"histogram {self.name!r}: bucket bounds mismatch on "
                f"merge — registry has {list(self.buckets)}, snapshot "
                f"has {list(theirs)}")
        if len(data["counts"]) != len(self.counts):
            raise ValueError(
                f"histogram {self.name!r}: snapshot has "
                f"{len(data['counts'])} bins, expected {len(self.counts)}")
        for index, count in enumerate(data["counts"]):
            self.counts[index] += int(count)
        self.count += int(data["count"])
        self.sum += float(data["sum"])
        for bound, pick in (("min", min), ("max", max)):
            other = data.get(bound)
            if other is None:
                continue
            ours = getattr(self, bound)
            setattr(self, bound,
                    other if ours is None else pick(ours, other))


def quantile_from_buckets(bounds: Sequence[float], counts: Sequence[int],
                          q: float) -> Optional[float]:
    """Estimate quantile ``q`` from fixed-bucket histogram bins.

    The estimate is the upper bound of the bucket holding the q-th
    observation — the same rule Prometheus' ``histogram_quantile``
    degenerates to at bucket resolution — so the JSON snapshot and the
    OpenMetrics exposition of one histogram agree exactly.  An
    observation landing in the overflow bin yields the last finite
    bound (there is no ``+Inf`` to return a number for).

    Args:
        bounds: Inclusive bucket upper bounds, strictly increasing.
        counts: Per-bucket counts, one longer than ``bounds`` (overflow
            bin last).
        q: Quantile in [0, 1].

    Returns:
        The estimated quantile, or None when the histogram is empty.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    if len(counts) != len(bounds) + 1:
        raise ValueError(
            f"expected {len(bounds) + 1} bins for {len(bounds)} bounds, "
            f"got {len(counts)}")
    total = sum(counts)
    if total == 0:
        return None
    # Rank of the target observation, 1-based; q=0 maps to the first.
    rank = max(1, int(q * total + 0.5)) if q > 0 else 1
    rank = min(rank, total)
    cumulative = 0
    for index, count in enumerate(counts[:-1]):
        cumulative += count
        if cumulative >= rank:
            return float(bounds[index])
    return float(bounds[-1])


class MetricsRegistry:
    """A named collection of counters, gauges, and histograms.

    All accessors are get-or-create, so instrumentation sites never need
    to pre-register the metrics they write.
    """

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- get-or-create handles ------------------------------------------

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        handle = self._counters.get(name)
        if handle is None:
            handle = self._counters[name] = Counter(name)
        return handle

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        handle = self._gauges.get(name)
        if handle is None:
            handle = self._gauges[name] = Gauge(name)
        return handle

    def histogram(self, name: str,
                  buckets: Sequence[float] = SMALL_INT_BUCKETS) -> Histogram:
        """Get or create the histogram ``name`` (buckets fixed at creation)."""
        handle = self._histograms.get(name)
        if handle is None:
            handle = self._histograms[name] = Histogram(name, buckets)
        return handle

    # -- write conveniences ---------------------------------------------

    def inc(self, name: str, amount: float = 1.0) -> None:
        """Increment counter ``name`` by ``amount``."""
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value``."""
        self.gauge(name).set(value)

    def observe(self, name: str, value: float,
                buckets: Sequence[float] = SMALL_INT_BUCKETS) -> None:
        """Record ``value`` into histogram ``name``."""
        self.histogram(name, buckets).observe(value)

    # -- reads ----------------------------------------------------------

    def counter_value(self, name: str) -> float:
        """Current value of counter ``name`` (0 when absent)."""
        handle = self._counters.get(name)
        return handle.value if handle is not None else 0.0

    def counter_names(self) -> List[str]:
        """Sorted names of all counters."""
        return sorted(self._counters)

    # -- snapshot / merge / reset ---------------------------------------

    def snapshot(self) -> Dict:
        """JSON-serializable snapshot of every metric."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {n: h.to_dict()
                           for n, h in sorted(self._histograms.items())},
        }

    def merge_snapshot(self, snapshot: Dict) -> None:
        """Fold a snapshot into this registry.

        Counters and histogram bins add; gauges take the snapshot's value
        (last write wins).  Histogram bucket bounds must match.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.inc(name, float(value))
        for name, value in snapshot.get("gauges", {}).items():
            self.set_gauge(name, value)
        for name, data in snapshot.get("histograms", {}).items():
            self.histogram(name, data["buckets"]).merge_dict(data)

    @staticmethod
    def merge_snapshots(snapshots: Iterable[Dict]) -> Dict:
        """Merge snapshots (e.g. from worker processes) into one."""
        merged = MetricsRegistry()
        for snapshot in snapshots:
            merged.merge_snapshot(snapshot)
        return merged.snapshot()

    def reset(self) -> None:
        """Drop every metric."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
