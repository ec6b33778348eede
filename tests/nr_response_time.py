"""Analytic end-to-end delay bounds: an independent oracle for NR.

The paper's scheduling lineage (its reference [24], Saifullah et al.,
"Real-Time Scheduling for WirelessHART Networks", RTSS 2010) bounds the
worst-case end-to-end delay of a flow under fixed-priority, no-reuse
scheduling by accounting two ways a higher-priority flow can postpone a
lower-priority one:

* **transmission conflicts** — a higher-priority transmission sharing a
  node with the flow's route blocks that slot outright; and
* **channel contention** — with ``m`` channels, a slot is unusable when
  ``m`` higher-priority transmissions (conflict-free or not) occupy all
  channels, which is bounded multiprocessor-style by ``1/m`` of the
  higher-priority workload.

This module implements that style of bound as a *sufficient*
schedulability test: a response-time fixed point

    R_i = C_i + Σ_{j<i} Δ_ij(R_i) + ceil( (1/m) Σ_{j<i} W_j(R_i) )

where ``C_i`` is the flow's own slot demand, ``W_j(x)`` the higher-
priority workload released in a window of length ``x``, and ``Δ_ij(x)``
the conflicting portion of that workload.  The bound is deliberately
conservative (both terms may count the same transmission); its value is
an analytic admission test that needs no schedule construction.

Nothing in the library admits flows by it, so it lives beside the tests
as an oracle for the constructive NR scheduler: any flow set the bound
admits, NR must schedule (``tests/test_response_time.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.transmissions import ATTEMPTS_PER_LINK
from repro.flows.flow import Flow, FlowSet


def slot_demand(flow: Flow, attempts_per_link: int = ATTEMPTS_PER_LINK) -> int:
    """``C_i``: dedicated slots one release of the flow needs."""
    if not flow.has_route:
        raise ValueError(f"flow {flow.flow_id} has no route")
    return flow.num_hops * attempts_per_link


def conflicting_demand(flow: Flow, other: Flow,
                       attempts_per_link: int = ATTEMPTS_PER_LINK) -> int:
    """Slots of one release of ``other`` that conflict with ``flow``.

    A transmission conflicts when its link shares a node with any link on
    ``flow``'s route (half-duplex constraint).
    """
    nodes = set()
    for u, v in flow.links:
        nodes.add(u)
        nodes.add(v)
    conflicting = sum(1 for x, y in other.links
                      if x in nodes or y in nodes)
    return conflicting * attempts_per_link


def workload_bound(other: Flow, window: int,
                   attempts_per_link: int = ATTEMPTS_PER_LINK) -> int:
    """``W_j(x)``: slots flow ``j`` can demand within a window of ``x``."""
    releases = math.ceil(window / other.period_slots) + 1
    return releases * slot_demand(other, attempts_per_link)


def conflict_bound(flow: Flow, other: Flow, window: int,
                   attempts_per_link: int = ATTEMPTS_PER_LINK) -> int:
    """``Δ_ij(x)``: conflicting slots ``j`` can impose within ``x``."""
    releases = math.ceil(window / other.period_slots) + 1
    return releases * conflicting_demand(flow, other, attempts_per_link)


@dataclass(frozen=True)
class ResponseTimeResult:
    """Outcome of the response-time analysis for one flow.

    Attributes:
        flow_id: The flow.
        bound_slots: The converged response-time bound, or None when the
            iteration exceeded the deadline (deemed unschedulable).
        deadline_slots: The flow's relative deadline.
    """

    flow_id: int
    bound_slots: Optional[int]
    deadline_slots: int

    @property
    def schedulable(self) -> bool:
        """Whether the bound proves the flow meets its deadline."""
        return (self.bound_slots is not None
                and self.bound_slots <= self.deadline_slots)


def response_time_bound(flow_set: FlowSet, index: int,
                        num_channels: int,
                        attempts_per_link: int = ATTEMPTS_PER_LINK,
                        max_iterations: int = 100) -> ResponseTimeResult:
    """Fixed-point response-time bound for the flow at priority ``index``.

    Args:
        flow_set: Routed flows in priority order (highest first).
        index: Position of the flow under analysis.
        num_channels: ``m``, the number of channels (no channel reuse).
        attempts_per_link: Source-routing attempt count.
        max_iterations: Safety bound on the fixed-point iteration.

    Returns:
        A :class:`ResponseTimeResult`; ``bound_slots`` is None when the
        iteration diverges past the deadline.
    """
    if num_channels <= 0:
        raise ValueError("num_channels must be positive")
    flow = flow_set[index]
    higher = [flow_set[j] for j in range(index)]
    own = slot_demand(flow, attempts_per_link)

    response = own
    for _ in range(max_iterations):
        conflicts = sum(conflict_bound(flow, other, response,
                                       attempts_per_link)
                        for other in higher)
        workload = sum(workload_bound(other, response, attempts_per_link)
                       for other in higher)
        contention = math.ceil(workload / num_channels)
        updated = own + conflicts + contention
        if updated == response:
            return ResponseTimeResult(flow.flow_id, response,
                                      flow.deadline_slots)
        if updated > flow.deadline_slots:
            return ResponseTimeResult(flow.flow_id, None,
                                      flow.deadline_slots)
        response = updated
    return ResponseTimeResult(flow.flow_id, None, flow.deadline_slots)


def analyze_flow_set(flow_set: FlowSet, num_channels: int,
                     attempts_per_link: int = ATTEMPTS_PER_LINK,
                     ) -> Dict[int, ResponseTimeResult]:
    """Run the response-time test on every flow (priority order assumed).

    Returns:
        ``{flow_id: result}``.  The flow set is analytically schedulable
        iff every result is.
    """
    return {flow_set[i].flow_id:
            response_time_bound(flow_set, i, num_channels,
                                attempts_per_link)
            for i in range(len(flow_set))}


def is_schedulable_by_analysis(flow_set: FlowSet, num_channels: int,
                               attempts_per_link: int = ATTEMPTS_PER_LINK,
                               ) -> bool:
    """Sufficient test: True proves the DM/no-reuse scheduler succeeds.

    False is inconclusive — the constructive scheduler may still find a
    schedule; the bound double-counts conflict and contention.
    """
    return all(result.schedulable
               for result in analyze_flow_set(
                   flow_set, num_channels, attempts_per_link).values())
