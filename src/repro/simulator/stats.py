"""Statistics collected while executing a schedule.

Two views matter to the paper's evaluation:

* **End-to-end**: per-flow Packet Delivery Ratio (PDR) — the fraction of
  released packets that reached the destination (Fig. 8).
* **Per-link**: PRR of each link, split between transmissions scheduled
  in *shared* cells (channel reuse) and in *contention-free* cells, per
  schedule repetition — the raw material of the K-S detection policy
  (Figs. 10-11).

Both engines hand over one store: per-flow released and delivered
totals, and ``(repetitions × columns)`` count matrices — attempts and
successes per ``(link, shared_cell)`` key, and per physical channel the
attempts that went on the air and their successes.  The batched engine
passes its matrices as they are; the slot oracle folds its
per-repetition tallies into them once (:meth:`SimulationStats.
from_tallies`).  Column order is the engine's own and every reader is
order-insensitive.  A column whose count is 0 counts as absent: the
batched engine keeps a column for every scheduled key, the slot oracle
only for the keys it saw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.obs import recorder as _obs

Link = Tuple[int, int]
#: A link column's key: the link and whether its cell is shared.
LinkKey = Tuple[Link, bool]
#: One repetition's ``{key: (attempts, successes)}`` counts.
Tally = Mapping[Hashable, Sequence[int]]


def _rows(repetition_range: Optional[Tuple[int, int]]) -> slice:
    """Row slice of a ``(start, end)`` repetition window (end exclusive);
    ``None`` covers every repetition."""
    return slice(*repetition_range) if repetition_range else slice(None)


def _fold(tallies: Sequence[Tally]) -> Tuple[tuple, np.ndarray, np.ndarray]:
    """Per-repetition tallies as keys (in order of first appearance) and
    ``(repetitions × keys)`` attempt and success matrices."""
    keys = tuple(dict.fromkeys(key for tally in tallies for key in tally))
    column = {key: j for j, key in enumerate(keys)}
    counts = np.zeros((2, len(tallies), len(keys)), dtype=np.int64)
    for row, tally in enumerate(tallies):
        for key, (attempts, successes) in tally.items():
            counts[:, row, column[key]] = attempts, successes
    return keys, counts[0], counts[1]


@dataclass(frozen=True, eq=False)
class SimulationStats:
    """Aggregated results of repeatedly executing a schedule.

    Attributes:
        flow_released: Released packet instances per flow.
        flow_delivered: Delivered packet instances per flow; a flow that
            delivered nothing is absent.
        link_keys: ``(link, shared_cell)`` of each link column.
        link_attempts, link_successes: ``(repetitions × link_keys)``
            transmission attempts and successes.
        channels: Physical channel of each channel column.
        channel_attempts, channel_successes: ``(repetitions ×
            channels)`` attempts that went on the air (a powered-off
            sender's never do) and their successes — the per-channel
            view the network manager's blacklist policy consumes.
    """

    flow_released: Dict[int, int]
    flow_delivered: Dict[int, int]
    link_keys: Tuple[LinkKey, ...]
    link_attempts: np.ndarray
    link_successes: np.ndarray
    channels: Tuple[int, ...]
    channel_attempts: np.ndarray
    channel_successes: np.ndarray

    @classmethod
    def from_tallies(cls, flow_released: Dict[int, int],
                     flow_delivered: Dict[int, int],
                     link_tallies: Sequence[Tally],
                     channel_tallies: Sequence[Tally] = (),
                     ) -> "SimulationStats":
        """Fold per-repetition tallies into the count matrices.

        Args:
            flow_released, flow_delivered: Per-flow totals.
            link_tallies: One ``{(link, shared_cell): (attempts,
                successes)}`` mapping per repetition.
            channel_tallies: One ``{channel: (attempts, successes)}``
                mapping per repetition; empty for a run without
                channel columns.
        """
        link_keys, link_attempts, link_successes = _fold(link_tallies)
        channels, channel_attempts, channel_successes = _fold(
            channel_tallies or [{}] * len(link_tallies))
        return cls(flow_released, flow_delivered, link_keys, link_attempts,
                   link_successes, channels, channel_attempts,
                   channel_successes)

    @property
    def repetitions(self) -> int:
        """Schedule repetitions the run covered (rows of every matrix)."""
        return len(self.link_attempts)

    # ------------------------------------------------------------------
    # End-to-end metrics
    # ------------------------------------------------------------------

    def pdr_per_flow(self) -> Dict[int, float]:
        """Packet delivery ratio of every flow."""
        result = {}
        for flow_id, released in self.flow_released.items():
            delivered = self.flow_delivered.get(flow_id, 0)
            result[flow_id] = delivered / released if released else 0.0
        return result

    def pdr_values(self) -> List[float]:
        """All per-flow PDRs (the population behind the paper's box plots)."""
        return list(self.pdr_per_flow().values())

    def median_pdr(self) -> float:
        """Median per-flow PDR."""
        values = sorted(self.pdr_values())
        if not values:
            return 0.0
        middle = len(values) // 2
        if len(values) % 2:
            return values[middle]
        return 0.5 * (values[middle - 1] + values[middle])

    def worst_pdr(self) -> float:
        """Worst-case per-flow PDR (the paper's key reliability metric)."""
        values = self.pdr_values()
        return min(values) if values else 0.0

    # ------------------------------------------------------------------
    # Per-link metrics
    # ------------------------------------------------------------------

    def links_seen(self) -> List[Link]:
        """Every link that transmitted at least once, sorted."""
        totals = self.link_attempts.sum(axis=0).tolist()
        return sorted({link for (link, _), total in zip(self.link_keys, totals)
                       if total})

    def _link_counts(self, link: Link, shared_cell: bool,
                     repetition_range: Optional[Tuple[int, int]],
                     ) -> List[Tuple[int, int]]:
        """One column's ``(attempts, successes)`` per repetition of the
        window; empty when the run has no such column."""
        key = (link, shared_cell)
        if key not in self.link_keys:
            return []
        column = self.link_keys.index(key)
        rows = _rows(repetition_range)
        return list(zip(self.link_attempts[rows, column].tolist(),
                        self.link_successes[rows, column].tolist()))

    def overall_link_prr(self, link: Link, shared_cell: bool,
                         repetition_range: Optional[Tuple[int, int]] = None,
                         ) -> Optional[float]:
        """Pooled PRR of a link in one cell category, or None when it
        made no attempt there."""
        counts = self._link_counts(link, shared_cell, repetition_range)
        attempts = sum(attempts for attempts, _ in counts)
        if not attempts:
            return None
        return sum(successes for _, successes in counts) / attempts

    # ------------------------------------------------------------------
    # Per-channel metrics (network-manager view)
    # ------------------------------------------------------------------

    def channel_prr(self, repetition_range: Optional[Tuple[int, int]] = None,
                    ) -> Dict[int, float]:
        """Pooled PRR per physical channel, ascending (channels with
        attempts only).

        This is the view a WirelessHART network manager derives from
        health reports to drive channel blacklisting: a channel whose
        PRR collapses while others hold is suffering channel-specific
        (external) interference.
        """
        rows = _rows(repetition_range)
        pooled = sorted(zip(self.channels,
                            self.channel_attempts[rows].sum(axis=0).tolist(),
                            self.channel_successes[rows].sum(axis=0).tolist()))
        return {channel: successes / attempts
                for channel, attempts, successes in pooled if attempts}


def stats_signature(stats: SimulationStats) -> Tuple:
    """Everything two equivalent simulation runs must agree on.

    End-to-end flow counts plus, per repetition, the reuse,
    contention-free and per-channel ``(key, attempts, successes)``
    triples of every column with attempts, sorted by key — so column
    order and columns that never fired do not matter.  The engine parity
    tests, the differential fuzzer and ``repro bench`` all compare runs
    through this one function.
    """
    def buckets(row) -> Tuple:
        attempts, successes, channel_attempts, channel_successes = row
        reuse, contention_free = [], []
        for (link, shared), count, succeeded in zip(stats.link_keys,
                                                    attempts, successes):
            if count:
                (reuse if shared else contention_free).append(
                    (link, count, succeeded))
        channels = [triple for triple in zip(stats.channels, channel_attempts,
                                             channel_successes) if triple[1]]
        return (tuple(sorted(reuse)), tuple(sorted(contention_free)),
                tuple(sorted(channels)))

    return (
        tuple(sorted(stats.flow_released.items())),
        tuple(sorted(stats.flow_delivered.items())),
        tuple(map(buckets, zip(stats.link_attempts.tolist(),
                               stats.link_successes.tolist(),
                               stats.channel_attempts.tolist(),
                               stats.channel_successes.tolist()))),
    )


def record_counters(stats: SimulationStats) -> None:
    """Count a finished run into the active recorder's ``sim.*``
    counters.  Both engines call it, so the counters are read from the
    same store as every other reader."""
    recorder = _obs.RECORDER
    recorder.count("sim.repetitions", stats.repetitions)
    recorder.count("sim.attempts", int(stats.link_attempts.sum()))
    recorder.count("sim.successes", int(stats.link_successes.sum()))
    recorder.count("sim.deliveries", sum(stats.flow_delivered.values()))
