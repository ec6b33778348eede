"""Topology: devices plus measured per-channel link qualities.

The WirelessHART network manager maintains, for every directed link and
every channel in use, a Packet Reception Ratio (PRR) — the fraction of
transmission attempts that were acknowledged.  This module stores that
information densely as a numpy array of shape ``(n, n, |M|)`` so that graph
construction (:mod:`repro.network.graphs`) and the testbed generators
(:mod:`repro.testbeds`) can operate on it efficiently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.mac.channels import ChannelMap
from repro.network.node import Node


@dataclass
class Topology:
    """A set of nodes and their per-channel directed PRR measurements.

    Attributes:
        nodes: All devices, where ``nodes[i].node_id == i`` (dense ids).
        channel_map: The physical channels the PRR matrix covers, in
            logical order.
        prr: Array of shape ``(n, n, len(channel_map))``; ``prr[u, v, c]``
            is the PRR of directed link u→v on the c-th channel of the map.
        name: Optional label (e.g. ``"indriya"``).
    """

    nodes: List[Node]
    channel_map: ChannelMap
    prr: np.ndarray
    name: str = ""

    def __post_init__(self) -> None:
        n = len(self.nodes)
        expected = (n, n, len(self.channel_map))
        if self.prr.shape != expected:
            raise ValueError(
                f"prr has shape {self.prr.shape}, expected {expected}")
        for index, node in enumerate(self.nodes):
            if node.node_id != index:
                raise ValueError(
                    f"nodes must have dense ids: nodes[{index}].node_id "
                    f"== {node.node_id}")
        if np.any((self.prr < 0.0) | (self.prr > 1.0)):
            raise ValueError("PRR values must lie in [0, 1]")
        diagonal = self.prr[np.arange(n), np.arange(n), :]
        if np.any(diagonal != 0.0):
            raise ValueError("self-links must have zero PRR")

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of devices in the topology."""
        return len(self.nodes)

    @property
    def num_channels(self) -> int:
        """Number of channels the PRR matrix covers."""
        return len(self.channel_map)

    def node(self, node_id: int) -> Node:
        """Return the node with the given id."""
        return self.nodes[node_id]

    def positions(self) -> Optional[np.ndarray]:
        """Return an ``(n, 3)`` position array, or None if any is missing."""
        if any(n.position is None for n in self.nodes):
            return None
        return np.array([n.position.as_tuple() for n in self.nodes])

    # ------------------------------------------------------------------
    # Channel restriction
    # ------------------------------------------------------------------

    def restrict_channels(self, channels: Sequence[int]) -> "Topology":
        """Return a copy of the topology restricted to the given channels.

        Args:
            channels: Physical channel numbers; must all be present in the
                current channel map.  Order defines the new logical order.
        """
        indices = [self.channel_map.logical(ch) for ch in channels]
        return Topology(
            nodes=list(self.nodes),
            channel_map=ChannelMap(tuple(channels)),
            prr=self.prr[:, :, indices].copy(),
            name=self.name,
        )

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def degrees(self, prr_threshold: float) -> np.ndarray:
        """Each node's count of neighbors reachable bidirectionally at
        the threshold on *all* channels: the communication graph's row
        sums."""
        from repro.network.graphs import communication_adjacency

        return communication_adjacency(self, prr_threshold).sum(axis=1)

    def summary(self, prr_threshold: float = 0.9) -> Dict[str, float]:
        """Return headline statistics about the topology."""
        degs = self.degrees(prr_threshold)
        nonzero = self.prr[self.prr > 0.0]
        return {
            "num_nodes": float(self.num_nodes),
            "num_channels": float(self.num_channels),
            "mean_degree": float(degs.mean()),
            "max_degree": float(degs.max()),
            "min_degree": float(degs.min()),
            "mean_nonzero_prr": float(nonzero.mean()) if nonzero.size else 0.0,
        }
