"""Network model: devices, topology (PRR matrices), derived graphs."""

from repro.network.node import Node, NodeRole, Position
from repro.network.graphs import (
    ChannelReuseGraph,
    CommunicationGraph,
    UNREACHABLE,
    all_pairs_hops,
    communication_adjacency,
    reuse_adjacency,
)
from repro.network.topology import Topology

__all__ = [
    "ChannelReuseGraph",
    "CommunicationGraph",
    "Node",
    "NodeRole",
    "Position",
    "Topology",
    "UNREACHABLE",
    "all_pairs_hops",
    "communication_adjacency",
    "reuse_adjacency",
]
