"""Metrics over schedules and experiment outcomes.

These back the paper's evaluation plots: schedulable ratio (Figs. 1-3),
the distribution of transmissions per channel (Figs. 4, 9), the channel
reuse hop-count distribution (Fig. 5), and box-plot statistics for PDR
(Fig. 8).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence

from repro.core.schedule import Schedule
from repro.core.scheduler import SchedulingResult
from repro.network.graphs import INFINITE_DISTANCE, ChannelReuseGraph


def schedulable_ratio(results: Iterable[SchedulingResult]) -> float:
    """Fraction of flow sets that were schedulable (any results with a
    ``schedulable`` flag: scheduling results or sweep outcomes)."""
    results = list(results)
    if not results:
        return 0.0
    return sum(1 for r in results if r.schedulable) / len(results)


def tx_per_cell_distribution(schedule: Schedule) -> Dict[int, int]:
    """Histogram: number of occupied cells holding k transmissions.

    ``{1: 640, 2: 80, 3: 4}`` means 640 cells carry a single transmission
    (no reuse), 80 cells carry two concurrent transmissions, etc.  Keys
    ascend.
    """
    return dict(sorted(Counter(schedule.cell_sizes()).items()))


def cell_min_reuse_hops(transmissions, reuse_graph: ChannelReuseGraph,
                        ) -> Optional[int]:
    """Minimum sender→receiver reuse-hop distance within one shared cell.

    For every ordered pair of distinct transmissions (u→v, x→y) in the
    cell, the relevant distances are hop(u, y) and hop(x, v); the cell's
    figure of merit is the smallest of these (the paper's "minimum channel
    reuse hop count among senders and receivers of concurrent
    transmissions").  Returns None for cells without reuse.
    """
    if len(transmissions) < 2:
        return None
    # Unreachable pairs read INFINITE_DISTANCE here: infinitely far,
    # never the minimum, and a cell of only such pairs has none.
    hops = reuse_graph.effective_hop_rows()
    minimum = INFINITE_DISTANCE
    for i, first in enumerate(transmissions):
        u, v = first.request.sender, first.request.receiver
        for second in transmissions[i + 1:]:
            x, y = second.request.sender, second.request.receiver
            minimum = min(minimum, hops[u][y], hops[x][v])
    return None if minimum == INFINITE_DISTANCE else minimum


def reuse_hop_distribution(schedule: Schedule,
                           reuse_graph: ChannelReuseGraph) -> Dict[int, int]:
    """Histogram of per-shared-cell minimum reuse hop counts (Fig. 5)."""
    histogram: Counter = Counter()
    for _, _, transmissions in schedule.reused_cells():
        hops = cell_min_reuse_hops(transmissions, reuse_graph)
        if hops is not None:
            histogram[hops] += 1
    return dict(histogram)


@dataclass(frozen=True)
class BoxStats:
    """Five-number summary used for the paper's PDR box plots."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    n: int

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "BoxStats":
        """Compute the summary from a sample (linear interpolation quartiles)."""
        data = sorted(values)
        if not data:
            raise ValueError("values must be non-empty")

        def quantile(q: float) -> float:
            index = q * (len(data) - 1)
            low = int(index)
            high = min(low + 1, len(data) - 1)
            weight = index - low
            return data[low] * (1 - weight) + data[high] * weight

        return cls(minimum=data[0], q1=quantile(0.25), median=quantile(0.5),
                   q3=quantile(0.75), maximum=data[-1], n=len(data))

    def row(self) -> str:
        """One-line human-readable rendering."""
        return (f"min={self.minimum:.3f} q1={self.q1:.3f} "
                f"med={self.median:.3f} q3={self.q3:.3f} "
                f"max={self.maximum:.3f} (n={self.n})")
