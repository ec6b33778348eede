"""Statistics collected while executing a schedule.

Two views matter to the paper's evaluation:

* **End-to-end**: per-flow Packet Delivery Ratio (PDR) — the fraction of
  released packets that reached the destination (Fig. 8).
* **Per-link**: PRR of each link, split between transmissions scheduled
  in *shared* cells (channel reuse) and in *contention-free* cells, per
  schedule repetition — the raw material of the K-S detection policy
  (Figs. 10-11).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

Link = Tuple[int, int]


@dataclass
class AttemptCounter:
    """Transmission attempts and successes over some scope."""

    attempts: int = 0
    successes: int = 0

    def record(self, success: bool) -> None:
        """Record one attempt."""
        self.attempts += 1
        if success:
            self.successes += 1

    def merge(self, other: "AttemptCounter") -> None:
        """Accumulate another counter into this one."""
        self.attempts += other.attempts
        self.successes += other.successes

    @property
    def prr(self) -> Optional[float]:
        """Success ratio, or None when no attempts were made."""
        if self.attempts == 0:
            return None
        return self.successes / self.attempts


@dataclass
class RepetitionRecord:
    """Per-link counters for one execution of the schedule."""

    reuse: Dict[Link, AttemptCounter] = field(
        default_factory=lambda: defaultdict(AttemptCounter))
    contention_free: Dict[Link, AttemptCounter] = field(
        default_factory=lambda: defaultdict(AttemptCounter))
    channels: Dict[int, AttemptCounter] = field(
        default_factory=lambda: defaultdict(AttemptCounter))

    def record(self, link: Link, shared_cell: bool, success: bool,
               channel: Optional[int] = None) -> None:
        """Record one attempt on a link.

        Args:
            link: The directed link.
            shared_cell: Whether the cell is shared (channel reuse).
            success: Whether the frame was received.
            channel: Physical channel the attempt used, when it went on
                the air (None for attempts that never radiated, e.g. a
                powered-off sender) — feeds the per-channel view the
                network manager's blacklist policy consumes.
        """
        bucket = self.reuse if shared_cell else self.contention_free
        bucket[link].record(success)
        if channel is not None:
            self.channels[channel].record(success)


class SimulationStats:
    """Aggregated results of repeatedly executing a schedule."""

    def __init__(self):
        self.flow_released: Dict[int, int] = defaultdict(int)
        self.flow_delivered: Dict[int, int] = defaultdict(int)
        self.repetitions: List[RepetitionRecord] = []

    # ------------------------------------------------------------------
    # Recording (engine-facing)
    # ------------------------------------------------------------------

    def start_repetition(self) -> RepetitionRecord:
        """Open a new repetition record and return it."""
        record = RepetitionRecord()
        self.repetitions.append(record)
        return record

    def record_release(self, flow_id: int, count: int = 1) -> None:
        """Count released packet instances for a flow."""
        self.flow_released[flow_id] += count

    def record_delivery(self, flow_id: int, count: int = 1) -> None:
        """Count delivered packet instances for a flow."""
        self.flow_delivered[flow_id] += count

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
        """Every link that transmitted at least once."""
        links = set()
        for record in self.repetitions:
            links.update(record.reuse)
            links.update(record.contention_free)
        return sorted(links)

    def link_prr_samples(self, link: Link, shared_cell: bool,
                         repetition_range: Optional[Tuple[int, int]] = None,
                         ) -> List[float]:
        """Per-repetition PRR samples for a link in one cell category.

        Args:
            link: The directed link.
            shared_cell: True for reuse-slot samples, False for
                contention-free samples.
            repetition_range: Optional ``(start, end)`` slice of
                repetitions (end exclusive) — used to form epochs.

        Returns:
            One PRR value per repetition in which the link transmitted in
            that category.
        """
        start, end = repetition_range or (0, len(self.repetitions))
        samples = []
        for record in self.repetitions[start:end]:
            bucket = record.reuse if shared_cell else record.contention_free
            counter = bucket.get(link)
            if counter is not None and counter.attempts > 0:
                samples.append(counter.successes / counter.attempts)
        return samples

    def overall_link_prr(self, link: Link, shared_cell: bool,
                         repetition_range: Optional[Tuple[int, int]] = None,
                         ) -> Optional[float]:
        """Pooled PRR of a link in one cell category."""
        start, end = repetition_range or (0, len(self.repetitions))
        total = AttemptCounter()
        for record in self.repetitions[start:end]:
            bucket = record.reuse if shared_cell else record.contention_free
            counter = bucket.get(link)
            if counter is not None:
                total.merge(counter)
        return total.prr

    # ------------------------------------------------------------------
    # Per-channel metrics (network-manager view)
    # ------------------------------------------------------------------

    def channel_counters(self, repetition_range: Optional[Tuple[int, int]]
                         = None) -> Dict[int, AttemptCounter]:
        """Pooled attempt counters per physical channel."""
        start, end = repetition_range or (0, len(self.repetitions))
        totals: Dict[int, AttemptCounter] = defaultdict(AttemptCounter)
        for record in self.repetitions[start:end]:
            for channel, counter in record.channels.items():
                totals[channel].merge(counter)
        return dict(totals)

    def channel_prr(self, repetition_range: Optional[Tuple[int, int]] = None,
                    ) -> Dict[int, float]:
        """Pooled PRR per physical channel (channels with attempts only).

        This is the view a WirelessHART network manager derives from
        health reports to drive channel blacklisting: a channel whose
        PRR collapses while others hold is suffering channel-specific
        (external) interference.
        """
        return {channel: counter.prr
                for channel, counter in
                sorted(self.channel_counters(repetition_range).items())
                if counter.attempts > 0}


def stats_signature(stats: SimulationStats) -> Tuple:
    """Everything two equivalent simulation runs must agree on.

    End-to-end flow counts plus every repetition's per-link (reuse and
    contention-free) and per-channel attempt counters, order-insensitive
    within a repetition.  The engine parity tests, the differential
    fuzzer and ``repro bench`` all compare runs through this one
    function.
    """
    def bucket(counters) -> Tuple:
        return tuple(sorted((key, counter.attempts, counter.successes)
                            for key, counter in counters.items()))

    return (
        tuple(sorted(stats.flow_released.items())),
        tuple(sorted(stats.flow_delivered.items())),
        tuple((bucket(record.reuse), bucket(record.contention_free),
               bucket(record.channels))
              for record in stats.repetitions),
    )
