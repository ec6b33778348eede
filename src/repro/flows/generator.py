"""Random workload generation following the paper's methodology.

Section VII of the paper: flows have randomly chosen, distinct sources and
destinations; each flow set designates two access points — nodes with a
high neighbor count; periods are harmonic, drawn uniformly from
``{2^x, ..., 2^y}`` seconds; a flow with period ``2^j`` gets a deadline
drawn uniformly from ``[2^(j-1), 2^j]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.flows.flow import Flow, FlowSet
from repro.mac.tsch import seconds_to_slots
from repro.network.graphs import CommunicationGraph


@dataclass(frozen=True)
class PeriodRange:
    """Harmonic period range ``[2^min_exp, 2^max_exp]`` seconds.

    ``min_exp`` may be negative: the paper uses ranges such as
    ``[2^-1, 2^3]`` (0.5 s to 8 s).
    """

    min_exp: int
    max_exp: int

    def __post_init__(self) -> None:
        if self.min_exp > self.max_exp:
            raise ValueError("min_exp must be ≤ max_exp")
        # Periods must be whole numbers of 10 ms slots: 2^-3 s = 12.5 slots
        # would not be.  2^-2 s (25 slots) is the finest representable.
        if self.min_exp < -2:
            raise ValueError("periods below 2^-2 s are not slot-aligned")

    def periods_slots(self) -> List[int]:
        """All candidate periods in slots, ascending."""
        return [seconds_to_slots(2.0 ** e)
                for e in range(self.min_exp, self.max_exp + 1)]


def pick_access_points(graph: CommunicationGraph,
                       count: int = 2) -> List[int]:
    """Choose access points: the nodes with the highest neighbor counts.

    Mirrors the paper's flow-set construction ("two access points, which
    are nodes with a high number of neighbors"), read from the
    communication graph's row sums.  Ties break by node id.
    """
    degrees = graph.adjacency.sum(axis=1)
    order = sorted(range(graph.num_nodes),
                   key=lambda i: (-degrees[i], i))
    return order[:count]


def generate_flow_set(graph: CommunicationGraph,
                      num_flows: int, period_range: PeriodRange,
                      rng: np.random.Generator,
                      access_points: Optional[Sequence[int]] = None,
                      ) -> Tuple[FlowSet, List[int]]:
    """Generate one random flow set per the paper's methodology.

    Sources and destinations are drawn (distinct per flow) from the nodes
    of the communication graph's largest connected component, excluding
    the access points.  Routes are *not* assigned here — run
    :func:`repro.routing.assign_routes` afterwards, choosing centralized
    or peer-to-peer traffic.

    Args:
        graph: Communication graph built from the topology.
        num_flows: Number of flows to generate.
        period_range: Harmonic period range.
        rng: Seeded random generator.
        access_points: Node ids to use as access points; defaults to the
            two highest-degree nodes.

    Returns:
        ``(flow_set, access_points)``.  The flow set is in flow-id order;
        apply :meth:`~repro.flows.flow.FlowSet.deadline_monotonic` before
        scheduling.
    """
    if num_flows <= 0:
        raise ValueError("num_flows must be positive")
    if access_points is None:
        access_points = pick_access_points(graph)
    component = graph.largest_component()
    candidates = [n for n in component if n not in set(access_points)]
    if len(candidates) < 2:
        raise ValueError("not enough connected nodes to place flows")

    periods = period_range.periods_slots()
    flows = []
    for flow_id in range(num_flows):
        source, destination = rng.choice(len(candidates), size=2,
                                         replace=False)
        period = int(periods[rng.integers(0, len(periods))])
        # D_i uniform in [P_i / 2, P_i] (paper: [2^(j-1), 2^j] seconds).
        deadline = int(rng.integers(period // 2, period + 1))
        flows.append(Flow(
            flow_id=flow_id,
            source=int(candidates[source]),
            destination=int(candidates[destination]),
            period_slots=period,
            deadline_slots=deadline,
        ))
    return FlowSet(flows), list(access_points)


def generate_fixed_period_flow_set(graph: CommunicationGraph,
                                   counts_per_period: Sequence[Tuple[float, int]],
                                   rng: np.random.Generator,
                                   access_points: Optional[Sequence[int]] = None,
                                   deadline_equals_period: bool = True,
                                   ) -> Tuple[FlowSet, List[int]]:
    """Generate a flow set with an exact period composition.

    Used by the reliability experiments (Fig. 8): "50 flows where 50% of
    flows release their packets every 2^-1 s, and the rest every 2^0 s".

    Args:
        graph: Communication graph.
        counts_per_period: Sequence of ``(period_seconds, count)`` pairs.
        rng: Seeded random generator.
        access_points: Optional fixed access points.
        deadline_equals_period: If True, ``D_i = P_i`` (implicit-deadline);
            otherwise deadlines are drawn from ``[P/2, P]``.

    Returns:
        ``(flow_set, access_points)``.
    """
    if access_points is None:
        access_points = pick_access_points(graph)
    component = graph.largest_component()
    candidates = [n for n in component if n not in set(access_points)]
    if len(candidates) < 2:
        raise ValueError("not enough connected nodes to place flows")

    flows = []
    flow_id = 0
    for period_seconds, count in counts_per_period:
        period = seconds_to_slots(period_seconds)
        for _ in range(count):
            source, destination = rng.choice(len(candidates), size=2,
                                             replace=False)
            if deadline_equals_period:
                deadline = period
            else:
                deadline = int(rng.integers(period // 2, period + 1))
            flows.append(Flow(
                flow_id=flow_id,
                source=int(candidates[source]),
                destination=int(candidates[destination]),
                period_slots=period,
                deadline_slots=deadline,
            ))
            flow_id += 1
    return FlowSet(flows), list(access_points)
