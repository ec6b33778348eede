"""End-to-end latency analysis over a finished schedule.

Besides schedulability (did every instance meet its deadline), operators
care *how early* packets arrive: control loops gain margin from low
latency, and channel reuse's whole point is to compress schedules.  This
module derives per-instance end-to-end latency — release to the last
scheduled slot of the instance — straight from the schedule, with
distribution summaries for comparing NR / RA / RC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.schedule import Schedule
from repro.flows.flow import FlowSet
from repro.mac.tsch import SLOT_DURATION_MS


@dataclass(frozen=True)
class InstanceLatency:
    """Latency of one flow instance.

    Attributes:
        flow_id: The flow.
        instance: Release index.
        release_slot: When the packet became available.
        finish_slot: The last slot occupied by the instance (worst-case
            arrival: the retransmission slot of the final hop).
        latency_slots: ``finish - release + 1`` — the number of slots
            from release until the packet is guaranteed delivered.
        deadline_slots: The flow's relative deadline, for slack.
    """

    flow_id: int
    instance: int
    release_slot: int
    finish_slot: int
    latency_slots: int
    deadline_slots: int

    @property
    def latency_ms(self) -> float:
        """Latency in milliseconds (10 ms WirelessHART slots)."""
        return self.latency_slots * SLOT_DURATION_MS

    @property
    def slack_slots(self) -> int:
        """Slots to spare before the deadline."""
        return self.deadline_slots - self.latency_slots


def instance_latencies(schedule: Schedule,
                       flow_set: FlowSet) -> List[InstanceLatency]:
    """Compute the latency of every flow instance in a schedule.

    Raises:
        ValueError: If the schedule contains no entries for a flow in the
            set (the schedule and flow set do not match).
    """
    finish: Dict[Tuple[int, int], int] = {}
    for entry in schedule.entries:
        key = (entry.request.flow_id, entry.request.instance)
        finish[key] = max(finish.get(key, -1), entry.slot)

    flows = {f.flow_id: f for f in flow_set}
    latencies = []
    for (flow_id, instance), finish_slot in sorted(finish.items()):
        flow = flows.get(flow_id)
        if flow is None:
            raise ValueError(f"schedule references unknown flow {flow_id}")
        release = instance * flow.period_slots
        latencies.append(InstanceLatency(
            flow_id=flow_id, instance=instance, release_slot=release,
            finish_slot=finish_slot,
            latency_slots=finish_slot - release + 1,
            deadline_slots=flow.deadline_slots))
    return latencies


@dataclass(frozen=True)
class LatencySummary:
    """Distribution summary of instance latencies (in slots)."""

    mean: float
    median: float
    p95: float
    maximum: int
    min_slack: int
    n: int

    @classmethod
    def from_latencies(cls, latencies: List[InstanceLatency]
                       ) -> "LatencySummary":
        """Summarize a latency population."""
        if not latencies:
            raise ValueError("no latencies to summarize")
        values = sorted(l.latency_slots for l in latencies)
        n = len(values)

        def quantile(q: float) -> float:
            index = q * (n - 1)
            low = int(index)
            high = min(low + 1, n - 1)
            weight = index - low
            return values[low] * (1 - weight) + values[high] * weight

        return cls(
            mean=sum(values) / n,
            median=quantile(0.5),
            p95=quantile(0.95),
            maximum=values[-1],
            min_slack=min(l.slack_slots for l in latencies),
            n=n,
        )
