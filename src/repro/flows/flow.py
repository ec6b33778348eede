"""End-to-end flow model (paper Section IV-A).

A WSAN is shared by periodic end-to-end flows.  Flow ``F_i`` releases a
packet at its source every ``P_i`` slots; the packet must reach the
destination along the flow's route within the relative deadline
``D_i ≤ P_i``.  Time is measured in 10 ms TSCH slots throughout.

Priorities follow Deadline Monotonic (DM) by default: the flow with the
shortest relative deadline has the highest priority.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Flow:
    """One periodic end-to-end flow.

    Attributes:
        flow_id: Unique identifier within a flow set.
        source: Source node id (sensor).
        destination: Destination node id (actuator or access point).
        period_slots: Release period ``P_i`` in slots.
        deadline_slots: Relative deadline ``D_i`` in slots (≤ period).
        route: Node sequence the packet follows, beginning with ``source``
            and ending with ``destination``.  Empty until routing runs.
            For centralized traffic the sequence passes through access
            points.
        wire_after: Index ``i`` marking the hop from ``route[i]`` to
            ``route[i+1]`` as the wired gateway segment between two
            access points (it consumes no time slots).  None when the
            route is purely wireless or when the uplink and downlink use
            the same access point (that hand-off appears as a repeated
            node and is collapsed automatically).
    """

    flow_id: int
    source: int
    destination: int
    period_slots: int
    deadline_slots: int
    route: Tuple[int, ...] = ()
    wire_after: Optional[int] = None

    def __post_init__(self) -> None:
        if self.period_slots <= 0:
            raise ValueError("period must be positive")
        if not 0 < self.deadline_slots <= self.period_slots:
            raise ValueError(
                f"deadline must be in (0, period]; got D={self.deadline_slots} "
                f"P={self.period_slots}")
        if self.source == self.destination:
            raise ValueError("source and destination must differ")
        if self.route:
            if self.route[0] != self.source:
                raise ValueError("route must start at the source")
            if self.route[-1] != self.destination:
                raise ValueError("route must end at the destination")
            if len(self.route) < 2:
                raise ValueError("route must contain at least one link")
        if self.wire_after is not None:
            if not self.route:
                raise ValueError("wire_after requires a route")
            if not 0 <= self.wire_after < len(self.route) - 1:
                raise ValueError("wire_after out of range")

    @property
    def has_route(self) -> bool:
        """Whether routing has been performed for this flow."""
        return bool(self.route)

    @cached_property
    def links(self) -> Tuple[Tuple[int, int], ...]:
        """The route as a sequence of directed links ``(sender, receiver)``.

        The wired gateway segment is excluded: either the hop flagged by
        ``wire_after`` (different up/downlink access points), or a
        consecutive duplicate node (same access point on both segments).

        Computed once per flow: the simulator's per-epoch set-up and
        every instance expansion read it.  ``cached_property`` writes
        the instance ``__dict__`` directly, which the frozen dataclass's
        ``__setattr__`` guard does not cover; :meth:`with_route` builds
        a new flow, so a re-routed flow never sees the old tuple.
        """
        pairs = []
        for index, (u, v) in enumerate(zip(self.route, self.route[1:])):
            if index == self.wire_after:
                continue
            if u != v:
                pairs.append((u, v))
        return tuple(pairs)

    @property
    def num_hops(self) -> int:
        """Number of wireless links on the route."""
        return len(self.links)

    def with_route(self, route: Sequence[int],
                   wire_after: Optional[int] = None) -> "Flow":
        """Return a copy of the flow with the given route.

        Args:
            route: Node sequence from source to destination.
            wire_after: Optional index of the wired hop (see class docs).
        """
        return replace(self, route=tuple(route), wire_after=wire_after)

    def instances(self, hyperperiod: int) -> Iterator["FlowInstance"]:
        """Yield every release instance within one hyperperiod."""
        if hyperperiod % self.period_slots != 0:
            raise ValueError("hyperperiod must be a multiple of the period")
        for index in range(hyperperiod // self.period_slots):
            release = index * self.period_slots
            yield FlowInstance(
                flow=self,
                instance=index,
                release_slot=release,
                deadline_slot=release + self.deadline_slots - 1,
            )


@dataclass(frozen=True)
class FlowInstance:
    """One release of a flow.

    Attributes:
        flow: The owning flow.
        instance: Release index within the hyperperiod (0-based).
        release_slot: First slot in which the packet may be transmitted.
        deadline_slot: Last slot in which a transmission may occur
            (inclusive) — ``d_i`` in the paper's laxity formula.
    """

    flow: Flow
    instance: int
    release_slot: int
    deadline_slot: int


class FlowSet:
    """An ordered collection of flows sharing the network.

    Order encodes priority: ``flows[0]`` has the highest priority.  Use
    :meth:`deadline_monotonic` to apply the DM priority assignment used
    throughout the paper's evaluation.

    A flow set never changes after construction, so it carries the
    memo of :func:`repro.core.transmissions.request_plan`.
    """

    def __init__(self, flows: Sequence[Flow]):
        flows = list(flows)
        ids = [f.flow_id for f in flows]
        if len(set(ids)) != len(ids):
            raise ValueError("flow ids must be unique")
        self._flows: List[Flow] = flows
        # attempts_per_link -> request plan, filled by request_plan().
        self._request_plans: Dict[int, tuple] = {}

    def __len__(self) -> int:
        return len(self._flows)

    def __iter__(self) -> Iterator[Flow]:
        return iter(self._flows)

    def __getitem__(self, index: int) -> Flow:
        return self._flows[index]

    @property
    def flows(self) -> List[Flow]:
        """The flows, in priority order."""
        return list(self._flows)

    def hyperperiod(self) -> int:
        """Least common multiple of all flow periods, in slots."""
        if not self._flows:
            return 0
        result = 1
        for flow in self._flows:
            result = math.lcm(result, flow.period_slots)
        return result

    def deadline_monotonic(self) -> "FlowSet":
        """Return a copy ordered by Deadline Monotonic priority.

        Shorter relative deadline → higher priority; ties broken by flow
        id for determinism.
        """
        ordered = sorted(self._flows,
                         key=lambda f: (f.deadline_slots, f.flow_id))
        return FlowSet(ordered)

    def all_routed(self) -> bool:
        """Whether every flow has a route assigned."""
        return all(f.has_route for f in self._flows)

    def utilization(self, attempts_per_link: int = 2) -> float:
        """Aggregate transmission demand per slot.

        Sum over flows of (slots needed per release / period).  Values
        above the channel count are a strong sign of unschedulability.
        """
        total = 0.0
        for flow in self._flows:
            if not flow.has_route:
                raise ValueError(f"flow {flow.flow_id} has no route")
            total += (flow.num_hops * attempts_per_link) / flow.period_slots
        return total
