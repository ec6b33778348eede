"""Metrics and summaries over schedules and simulation outcomes."""

from repro.analysis.energy import (
    NodeEnergy,
    RadioPowerProfile,
    network_lifetime_days,
    superframe_energy,
)
from repro.analysis.latency import (
    InstanceLatency,
    LatencySummary,
    instance_latencies,
)
from repro.analysis.metrics import (
    BoxStats,
    cell_min_reuse_hops,
    reuse_hop_distribution,
    schedulable_ratio,
    tx_per_cell_distribution,
)

__all__ = [
    "BoxStats",
    "InstanceLatency",
    "LatencySummary",
    "NodeEnergy",
    "RadioPowerProfile",
    "instance_latencies",
    "network_lifetime_days",
    "superframe_energy",
    "cell_min_reuse_hops",
    "reuse_hop_distribution",
    "schedulable_ratio",
    "tx_per_cell_distribution",
]
