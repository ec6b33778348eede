"""Rescheduling links degraded by channel reuse (closing Section VI's loop).

The detection policy's purpose is remediation: "links can be reassigned
to different channels or time slots" once the K-S test attributes their
degradation to channel reuse.  This module implements that reassignment:
given a finished schedule and a set of *victim links*, it rebuilds the
schedule with the same policy but with every victim barred from sharing
a cell — their transmissions are placed under the no-reuse rule while
everything else keeps the original policy's freedom.

Rebuilding (rather than patching cells in place) preserves every
invariant the schedulers guarantee — precedence, releases, deadlines,
conflict-freedom — which an in-place cell swap cannot do in general.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Set, Tuple

from repro.core.constraints import NO_REUSE
from repro.core.schedule import Schedule
from repro.core.scheduler import (
    FixedPriorityScheduler,
    PlacementPolicy,
    SchedulingResult,
    find_slot,
)
from repro.core.transmissions import TransmissionRequest
from repro.flows.flow import Flow, FlowSet
from repro.network.graphs import ChannelReuseGraph

Link = Tuple[int, int]


@dataclass
class ReuseBarrierPolicy:
    """Wraps a placement policy, forcing victim links into exclusive cells.

    Transmissions over a *victim link* (either direction) are placed with
    ρ = ∞ — an unshared channel offset — and their cells are additionally
    protected from later sharing by the inner policy only to the extent
    the inner policy already respects occupied cells' constraints; to
    make the protection airtight, transmissions of non-victim links also
    refuse to join a cell that already contains a victim transmission.

    Attributes:
        inner: The policy used for non-victim transmissions.
        victim_links: Links whose reliability the detection policy
            attributed to channel reuse.
    """

    inner: PlacementPolicy
    victim_links: Set[Link]

    def __post_init__(self) -> None:
        # Bar both directions: the ACK travels the reverse way.
        expanded = set()
        for u, v in self.victim_links:
            expanded.add((u, v))
            expanded.add((v, u))
        self.victim_links = expanded
        self.name = f"{self.inner.name}+barrier"

    def start_flow(self, flow: Flow) -> None:
        """Forward the flow hook to the inner policy."""
        self.inner.start_flow(flow)

    def place(self, schedule: Schedule, reuse_graph: ChannelReuseGraph,
              request: TransmissionRequest, earliest: int,
              remaining: Sequence[TransmissionRequest],
              ) -> Optional[Tuple[int, int]]:
        """Place a request, keeping victim links out of shared cells."""
        if request.link in self.victim_links:
            return self._place_exclusive(schedule, reuse_graph, request,
                                         earliest)
        placement = self.inner.place(schedule, reuse_graph, request,
                                     earliest, remaining)
        while placement is not None:
            slot, offset = placement
            occupants = schedule.cell(slot, offset)
            if not any(e.request.link in self.victim_links
                       for e in occupants):
                return placement
            # The inner policy tried to join a protected cell; retry from
            # the next slot (conservative but correct — protected cells
            # are rare).
            placement = self.inner.place(schedule, reuse_graph, request,
                                         slot + 1, remaining)
        return None

    def _place_exclusive(self, schedule: Schedule,
                         reuse_graph: ChannelReuseGraph,
                         request: TransmissionRequest,
                         earliest: int) -> Optional[Tuple[int, int]]:
        """Earliest slot with a fully unused channel offset."""
        return find_slot(schedule, reuse_graph, request, NO_REUSE, earliest)


def reschedule_without_reuse_on(flow_set: FlowSet, num_nodes: int,
                                num_offsets: int,
                                reuse_graph: ChannelReuseGraph,
                                policy: PlacementPolicy,
                                victim_links: Iterable[Link],
                                ) -> SchedulingResult:
    """Re-schedule from scratch with victim links barred from channel reuse.

    The full rebuild under a :class:`ReuseBarrierPolicy`.
    :func:`repro.manager.loop.remediate` (the manager's and the
    service's remediation) tries warm-start repair
    (:mod:`repro.core.repair`) first and falls back to this.

    Args:
        flow_set: The routed, priority-ordered flows (same input as the
            original scheduling run).
        num_nodes: Topology size.
        num_offsets: Number of channels in use.
        reuse_graph: The channel reuse graph.
        policy: The original placement policy (fresh instance).
        victim_links: Links the detection policy flagged as
            reuse-degraded (direction-insensitive).

    Returns:
        The new scheduling result.  The workload may become
        unschedulable if the victims' slots cannot be found exclusively —
        the operator's signal that more channels (or a looser ρ_t) are
        needed.
    """
    barrier = ReuseBarrierPolicy(inner=policy,
                                 victim_links=set(victim_links))
    scheduler = FixedPriorityScheduler(
        num_nodes=num_nodes, num_offsets=num_offsets,
        reuse_graph=reuse_graph, policy=barrier)
    return scheduler.run(flow_set)

