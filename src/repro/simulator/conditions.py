"""Environment condition overlays applied to one simulation run.

The network manager (:mod:`repro.manager`) advances the simulator in
health-report epochs and mutates the RF environment between epochs —
external interferer bursts, per-link fading degradation, node churn,
amplified intra-network interference.  A :class:`Conditions` object is
the resolved, simulator-facing form of those mutations for one epoch:
plain per-pair attenuations, a global interference boost, a set of dark
nodes, and extra interferers with their precomputed RSSI rows.

The simulator itself stays fault-agnostic: it consumes a ``Conditions``
overlay without knowing which :class:`~repro.manager.faults.FaultEvent`
produced it, so tests and experiments hand-build overlays directly (the
Figs 10–11 detection experiment passes its WiFi interferers as one).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple

import numpy as np

from repro.simulator.interference import WifiInterferer

Pair = Tuple[int, int]


@dataclass(frozen=True)
class Conditions:
    """Resolved environment mutations for one simulation run.

    Attributes:
        pair_attenuation_db: Extra path loss (dB) applied to signal *and*
            interference travelling between a directed node pair.  Callers
            wanting symmetric degradation list both directions.
        interference_boost_db: Gain (dB) added to every intra-network
            interference contribution (concurrent same-channel
            transmitters).  Models fading drift that couples reuse
            partners more strongly than the topology survey measured —
            degradation that *only* manifests in shared cells.
        dark_nodes: Nodes that are powered off: their transmissions
            deliver nothing and they contribute no interference.
        extra_interferers: External WiFi interferers active for this
            run — the only way interferers reach the simulator.
        extra_interferer_rssi_dbm: ``(len(extra_interferers), num_nodes)``
            received in-band power rows matching ``extra_interferers``
            (see :func:`repro.simulator.interference.interferer_rssi_matrix`);
            the simulator checks the node count against its environment.
    """

    pair_attenuation_db: Dict[Pair, float] = field(default_factory=dict)
    interference_boost_db: float = 0.0
    dark_nodes: FrozenSet[int] = frozenset()
    extra_interferers: Tuple[WifiInterferer, ...] = ()
    extra_interferer_rssi_dbm: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.extra_interferers:
            if self.extra_interferer_rssi_dbm is None:
                raise ValueError("extra_interferer_rssi_dbm is required "
                                 "when extra_interferers are given")
            if (self.extra_interferer_rssi_dbm.shape[0]
                    != len(self.extra_interferers)):
                raise ValueError(
                    "extra_interferer_rssi_dbm has "
                    f"{self.extra_interferer_rssi_dbm.shape[0]} rows for "
                    f"{len(self.extra_interferers)} interferers")

    def describe(self) -> str:
        """Short human-readable summary (for epoch reports)."""
        parts = []
        if self.pair_attenuation_db:
            pairs = len(self.pair_attenuation_db) // 2 or 1
            parts.append(f"degraded_pairs={pairs}")
        if self.interference_boost_db:
            parts.append(f"reuse_boost={self.interference_boost_db:+.1f}dB")
        if self.dark_nodes:
            parts.append(f"dark_nodes={sorted(self.dark_nodes)}")
        if self.extra_interferers:
            parts.append(f"interferers={len(self.extra_interferers)}")
        return ",".join(parts) if parts else "clean"
