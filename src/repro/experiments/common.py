"""Shared plumbing for the paper-reproduction experiments.

Every experiment follows the same shape: restrict a testbed to the
channels in use, derive the communication and reuse graphs, generate
workloads, route them, and run one or more of the NR / RA / RC
schedulers.  This module centralizes that pipeline so the per-figure
runners stay small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.nr import NoReusePolicy
from repro.core.ra import AggressiveReusePolicy, DEFAULT_RHO_T
from repro.core.rc import ConservativeReusePolicy
from repro.core.scheduler import (
    FixedPriorityScheduler,
    PlacementPolicy,
    SchedulingResult,
)
from repro.flows.flow import FlowSet
from repro.flows.generator import (
    PeriodRange,
    generate_flow_set,
    pick_access_points,
)
from repro.network.graphs import ChannelReuseGraph, CommunicationGraph
from repro.network.topology import Topology
from repro.obs.spans import stage
from repro.routing.traffic import TrafficType, assign_routes

#: Names of the three schedulers compared throughout the paper.
POLICY_NAMES = ("NR", "RA", "RC")


@dataclass(frozen=True)
class PreparedNetwork:
    """A testbed restricted to its in-use channels, with derived graphs.

    Attributes:
        topology: The channel-restricted topology.
        communication: Communication graph (routes).
        reuse: Channel reuse graph (interference proxy).
        access_points: The two highest-degree nodes (paper's AP choice).
        prr_threshold: Link admission threshold used for the graphs.
    """

    topology: Topology
    communication: CommunicationGraph
    reuse: ChannelReuseGraph
    access_points: List[int]
    prr_threshold: float

    @property
    def num_channels(self) -> int:
        """Number of channels the network hops over."""
        return self.topology.num_channels


def prepare_network(topology: Topology, num_channels: Optional[int] = None,
                    channels: Optional[Sequence[int]] = None,
                    prr_threshold: float = 0.9) -> PreparedNetwork:
    """Restrict a topology to the channels in use and derive its graphs.

    Args:
        topology: Full testbed topology (all measured channels).
        num_channels: Use the first N channels of the topology's map.
        channels: Explicit physical channel list (overrides num_channels).
        prr_threshold: Communication-graph link admission threshold.
    """
    with stage("prepare"):
        if channels is not None:
            restricted = topology.restrict_channels(list(channels))
        elif num_channels is not None:
            restricted = topology.restrict_channels(
                list(topology.channel_map)[:num_channels])
        else:
            restricted = topology
        communication = CommunicationGraph.from_topology(
            restricted, prr_threshold)
        reuse = ChannelReuseGraph.from_topology(restricted)
        access_points = pick_access_points(communication)
        return PreparedNetwork(
            topology=restricted, communication=communication, reuse=reuse,
            access_points=access_points, prr_threshold=prr_threshold)


def make_policy(name: str, rho_t: int = DEFAULT_RHO_T) -> PlacementPolicy:
    """Instantiate a placement policy by its paper name (NR / RA / RC)."""
    if name == "NR":
        return NoReusePolicy()
    if name == "RA":
        return AggressiveReusePolicy(rho_t=rho_t)
    if name == "RC":
        return ConservativeReusePolicy(rho_t=rho_t)
    raise ValueError(f"unknown policy: {name!r} (expected NR, RA, or RC)")


def build_workload(network: PreparedNetwork, num_flows: int,
                   period_range: PeriodRange, traffic: TrafficType,
                   rng: np.random.Generator) -> FlowSet:
    """Generate, prioritize (DM) and route one flow set.

    Raises:
        repro.routing.NoRouteError: If the network cannot route a flow
            (extremely sparse channel-restricted graphs).
    """
    with stage("workload"):
        flow_set, access_points = generate_flow_set(
            network.communication, num_flows, period_range, rng,
            access_points=network.access_points)
        ordered = flow_set.deadline_monotonic()
        return assign_routes(ordered, network.communication, traffic,
                             access_points)


def schedule_workload(network: PreparedNetwork, flow_set: FlowSet,
                      policy_name: str,
                      rho_t: int = DEFAULT_RHO_T) -> SchedulingResult:
    """Schedule a routed flow set with one of the three policies."""
    scheduler = FixedPriorityScheduler(
        num_nodes=network.topology.num_nodes,
        num_offsets=network.num_channels,
        reuse_graph=network.reuse,
        policy=make_policy(policy_name, rho_t))
    # Per policy: the paper's Fig 6 execution-time quantity.
    with stage(f"schedule.{policy_name}"):
        return scheduler.run(flow_set)
