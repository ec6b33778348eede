"""Network device model for a WirelessHART WSAN.

A WirelessHART network is composed of *field devices* (sensors and
actuators with half-duplex IEEE 802.15.4 radios), *access points* wired to
the *gateway*, and a *network manager* co-located with the gateway.  The
network manager computes routes and the transmission schedule centrally;
the over-the-air participants are the field devices and access points.

In this library a node is a lightweight value object; connectivity lives in
:class:`~repro.network.topology.Topology` as per-channel PRR matrices.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple


class NodeRole(enum.Enum):
    """Role a device plays in the network."""

    FIELD_DEVICE = "field_device"
    ACCESS_POINT = "access_point"
    GATEWAY = "gateway"


@dataclass(frozen=True)
class Position:
    """A 3-D position in meters.

    Testbed layouts place nodes on floors of a building; ``z`` encodes the
    floor height so that the propagation model can account for inter-floor
    attenuation.
    """

    x: float
    y: float
    z: float = 0.0

    def distance_to(self, other: "Position") -> float:
        """Euclidean distance to another position, in meters."""
        return ((self.x - other.x) ** 2
                + (self.y - other.y) ** 2
                + (self.z - other.z) ** 2) ** 0.5

    def as_tuple(self) -> Tuple[float, float, float]:
        """Return the coordinates as an ``(x, y, z)`` tuple."""
        return (self.x, self.y, self.z)


@dataclass(frozen=True)
class Node:
    """A single WSAN device.

    Attributes:
        node_id: Dense integer identifier, unique within a topology.
        role: Whether the node is a field device, access point, or gateway.
        position: Physical placement (used by the propagation substrate and
            the simulator's SINR ground truth).
        name: Optional human-readable label.
    """

    node_id: int
    role: NodeRole = NodeRole.FIELD_DEVICE
    position: Optional[Position] = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise ValueError(f"node_id must be non-negative, got {self.node_id}")

    def __str__(self) -> str:
        label = self.name or f"n{self.node_id}"
        return f"{label}({self.role.value})"

