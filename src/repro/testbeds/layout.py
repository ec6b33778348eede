"""Multi-floor building layouts for synthetic testbeds.

Both testbeds in the paper (Indriya at NUS, WUSTL) span three floors of an
office building, with nodes spread over each floor.  We reproduce that
geometry: nodes are placed on a jittered grid per floor, which yields the
dense-but-multi-hop connectivity characteristic of these deployments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.network.node import Position


@dataclass(frozen=True)
class FloorPlan:
    """Geometry of one building used for node placement.

    Attributes:
        num_floors: Number of floors nodes are deployed on.
        floor_width_m: Floor extent along x, in meters.
        floor_depth_m: Floor extent along y, in meters.
        floor_height_m: Vertical separation between floors, in meters.
    """

    num_floors: int
    floor_width_m: float
    floor_depth_m: float
    floor_height_m: float = 4.0

    def __post_init__(self) -> None:
        if self.num_floors <= 0:
            raise ValueError("num_floors must be positive")
        if self.floor_width_m <= 0 or self.floor_depth_m <= 0:
            raise ValueError("floor dimensions must be positive")
        if self.floor_height_m <= 0:
            raise ValueError("floor height must be positive")

    def floor_of(self, position: Position) -> int:
        """Return the floor index a position lies on."""
        return int(round(position.z / self.floor_height_m))


def grid_positions(num_nodes: int, plan: FloorPlan,
                   rng: np.random.Generator,
                   jitter_m: float = 2.0) -> List[Position]:
    """Place nodes on a jittered grid spread evenly across floors.

    Nodes are distributed round-robin over floors; within each floor they
    occupy a near-square grid covering the floor extent, perturbed by
    uniform jitter to avoid degenerate symmetric geometries.

    Args:
        num_nodes: Total number of nodes to place.
        plan: Building geometry.
        rng: Random generator for the jitter (pass a seeded generator for
            reproducible testbeds).
        jitter_m: Maximum absolute jitter applied to each coordinate.

    Returns:
        A list of ``num_nodes`` positions, floor-major order.
    """
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    per_floor = _split_evenly(num_nodes, plan.num_floors)
    positions: List[Position] = []
    for floor, count in enumerate(per_floor):
        if count == 0:
            continue
        columns = max(1, int(math.ceil(math.sqrt(
            count * plan.floor_width_m / plan.floor_depth_m))))
        rows = int(math.ceil(count / columns))
        x_spacing = plan.floor_width_m / columns
        y_spacing = plan.floor_depth_m / rows
        placed = 0
        for row in range(rows):
            for column in range(columns):
                if placed >= count:
                    break
                x = (column + 0.5) * x_spacing
                y = (row + 0.5) * y_spacing
                jitter_x = float(rng.uniform(-jitter_m, jitter_m))
                jitter_y = float(rng.uniform(-jitter_m, jitter_m))
                x = min(max(x + jitter_x, 0.0), plan.floor_width_m)
                y = min(max(y + jitter_y, 0.0), plan.floor_depth_m)
                positions.append(Position(x, y, floor * plan.floor_height_m))
                placed += 1
    return positions


def _split_evenly(total: int, parts: int) -> List[int]:
    """Split ``total`` into ``parts`` integers differing by at most one."""
    base = total // parts
    remainder = total % parts
    return [base + (1 if i < remainder else 0) for i in range(parts)]
