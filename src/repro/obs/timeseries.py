"""Windowed time series: the temporal half of the observability layer.

The metrics registry (:mod:`repro.obs.metrics`) answers "how much,
total?"; this module answers "how has it moved?".  A
:class:`TimeSeriesStore` holds named series of ``(t, value)`` samples —
``t`` is whatever discrete clock the producer uses (manager epochs,
ASN windows, sweep points) — with bounded retention per series: when a
series overflows, adjacent samples are pairwise-averaged and the
series' ``stride`` doubles, so old history coarsens instead of
disappearing and memory stays O(retention) no matter how long a run is.

Persistence mirrors the metrics-snapshot conventions: one JSONL record
per series (``{"kind": "series", "name": ..., "stride": ...,
"points": [[t, v], ...]}``) plus a ``ts_meta`` trailer accounting for
retention and downsampling, written via :mod:`repro.io`.  Dumps merge
(:meth:`TimeSeriesStore.merge_records`) like snapshots do, so multiple
runs (or a resumed run) fold into one store.

Producers reach the store through the recorder idiom::

    from repro.obs import recorder as _obs
    ...
    if _obs.ENABLED:
        ts = _obs.RECORDER.timeseries
        if ts is not None:
            ts.record("manager.median_pdr", epoch, median)

Like decision provenance, the store is opt-in on top of an enabled
recorder — and like provenance records, points recorded inside
:func:`repro.experiments.parallel.parallel_map` *worker* processes are
not shipped back to the parent (only metrics snapshots are); record
series from the orchestrating process.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Default per-series retention (samples kept before downsampling).
DEFAULT_RETENTION = 512


class Series:
    """One named series of ``(t, value)`` samples with bounded retention.

    Attributes:
        name: Dotted series name (``slo.flow.3.burn_fast``).
        retention: Maximum samples held; exceeding it triggers a
            pairwise-average downsample.
        stride: How many raw samples each held sample represents
            (1 until the first downsample, then doubles each time).
    """

    __slots__ = ("name", "retention", "stride", "points")

    def __init__(self, name: str, retention: int = DEFAULT_RETENTION,
                 stride: int = 1):
        if retention < 2:
            raise ValueError("retention must be at least 2")
        if stride < 1:
            raise ValueError("stride must be positive")
        self.name = name
        self.retention = retention
        self.stride = stride
        self.points: List[Tuple[float, float]] = []

    def add(self, t: float, value: float) -> None:
        """Append one sample, downsampling when retention overflows."""
        self.points.append((float(t), float(value)))
        if len(self.points) > self.retention:
            self._downsample()

    def _downsample(self) -> None:
        """Pairwise-average the series, doubling its stride.

        Each kept sample takes the mean value of an adjacent pair and
        the *last* pair member's ``t`` (so the series' most recent
        timestamp survives verbatim); a trailing odd sample is kept
        as-is.
        """
        merged: List[Tuple[float, float]] = []
        points = self.points
        for index in range(0, len(points) - 1, 2):
            (_, v0), (t1, v1) = points[index], points[index + 1]
            merged.append((t1, 0.5 * (v0 + v1)))
        if len(points) % 2:
            merged.append(points[-1])
        self.points = merged
        self.stride *= 2

    def last(self) -> Optional[Tuple[float, float]]:
        """The most recent ``(t, value)``, or None when empty."""
        return self.points[-1] if self.points else None

    def values(self) -> List[float]:
        """All held values, oldest first."""
        return [v for _, v in self.points]

    def to_record(self) -> Dict:
        """One JSONL-ready record for this series."""
        return {
            "kind": "series",
            "name": self.name,
            "retention": self.retention,
            "stride": self.stride,
            "points": [[t, v] for t, v in self.points],
        }


class TimeSeriesStore:
    """A named collection of :class:`Series` with JSONL persistence.

    Args:
        retention: Per-series retention for series this store creates.
    """

    def __init__(self, retention: int = DEFAULT_RETENTION):
        if retention < 2:
            raise ValueError("retention must be at least 2")
        self.retention = retention
        self._series: Dict[str, Series] = {}

    def __len__(self) -> int:
        return len(self._series)

    def record(self, name: str, t: float, value: float) -> None:
        """Append one sample to series ``name`` (created on first use)."""
        self.series(name).add(t, value)

    def series(self, name: str) -> Series:
        """Get or create the series ``name``."""
        handle = self._series.get(name)
        if handle is None:
            handle = self._series[name] = Series(name, self.retention)
        return handle

    def get(self, name: str) -> Optional[Series]:
        """The series ``name``, or None when never recorded."""
        return self._series.get(name)

    def names(self) -> List[str]:
        """Sorted names of all series."""
        return sorted(self._series)

    def downsampled_series(self) -> int:
        """How many series have coarsened history (stride > 1)."""
        return sum(1 for s in self._series.values() if s.stride > 1)

    # ------------------------------------------------------------------
    # Persistence (mirrors metrics snapshot save / merge)
    # ------------------------------------------------------------------

    def to_records(self) -> List[Dict]:
        """All series as JSONL-ready records plus a ``ts_meta`` trailer.

        The trailer — ``{"kind": "ts_meta", "series": N, "retention": R,
        "downsampled": D}`` — makes a dump honest about coarsened
        history, the same contract as provenance's ``prov_meta``.
        """
        records = [self._series[name].to_record()
                   for name in sorted(self._series)]
        records.append({
            "kind": "ts_meta",
            "series": len(self._series),
            "retention": self.retention,
            "downsampled": self.downsampled_series(),
        })
        return records

    def export_jsonl(self, path) -> int:
        """Write all series as JSON Lines via :mod:`repro.io`.

        Returns:
            The number of series written (the trailer excluded).
        """
        # Imported lazily: repro.io pulls in the core model, which
        # imports repro.obs for instrumentation.
        from repro.io import save_jsonl

        return save_jsonl(self.to_records(), path) - 1

    def merge_records(self, records: Iterable[Dict]) -> None:
        """Fold a dump's series records into this store.

        Same-name series concatenate by ``t`` (sorted, later record
        wins on an exact ``t`` collision) and keep the coarser stride;
        retention still applies, so merging can itself downsample.
        Non-``series`` records (the trailer) are ignored.
        """
        for record in records:
            if record.get("kind") != "series":
                continue
            series = self.series(record["name"])
            by_t = {t: v for t, v in series.points}
            for t, v in record.get("points", []):
                by_t[float(t)] = float(v)
            series.points = sorted(by_t.items())
            series.stride = max(series.stride,
                                int(record.get("stride", 1)))
            while len(series.points) > series.retention:
                series._downsample()

    @staticmethod
    def from_records(records: Iterable[Dict],
                     retention: int = DEFAULT_RETENTION,
                     ) -> "TimeSeriesStore":
        """Rebuild a store from records written by :meth:`to_records`."""
        store = TimeSeriesStore(retention=retention)
        store.merge_records(records)
        return store

    @staticmethod
    def load_jsonl(path) -> "TimeSeriesStore":
        """Load a dump written by :meth:`export_jsonl`."""
        from repro.io import load_jsonl

        records = load_jsonl(path)
        retention = DEFAULT_RETENTION
        for record in records:
            if record.get("kind") == "ts_meta":
                retention = int(record.get("retention", DEFAULT_RETENTION))
        return TimeSeriesStore.from_records(records, retention=retention)
