"""Traffic patterns: centralized (via access points) vs peer-to-peer.

The paper evaluates two traffic types (Section VII):

* **Centralized** — the sensor's packet travels source → access point,
  crosses the wire to the controller behind the gateway, and the control
  command travels access point → actuator.  Both segments consume
  wireless slots; the wired hop does not.  Each segment uses the access
  point that minimizes the total wireless path length.

* **Peer-to-peer** — controllers run on field devices, so the packet goes
  directly source → destination.  Paths are roughly half as long, which
  is why channel reuse pays off even more under this pattern.
"""

from __future__ import annotations

import enum
from typing import List, Sequence

from repro.flows.flow import Flow, FlowSet
from repro.network.graphs import UNREACHABLE, CommunicationGraph
from repro.routing.shortest_path import NoRouteError, shortest_path


class TrafficType(enum.Enum):
    """How packets are routed between sensors and actuators."""

    CENTRALIZED = "centralized"
    PEER_TO_PEER = "peer_to_peer"


def route_peer_to_peer(graph: CommunicationGraph, flow: Flow) -> Flow:
    """Assign a direct shortest-path route to a flow."""
    path = shortest_path(graph, flow.source, flow.destination)
    return flow.with_route(path)


def route_centralized(graph: CommunicationGraph, flow: Flow,
                      access_points: Sequence[int]) -> Flow:
    """Assign a centralized route: source → AP —wire→ AP → destination.

    Each segment independently picks the access point giving the shortest
    wireless path (uplink AP and downlink AP may differ).  The stored
    route is the concatenated node sequence; the AP-to-AP wired hand-off
    consumes no time slots and is excluded from
    :attr:`repro.flows.flow.Flow.links`.

    Raises:
        NoRouteError: If either segment cannot reach any access point.
    """
    if not access_points:
        raise ValueError("centralized routing requires access points")

    uplink = _best_segment(graph, flow.source, access_points, toward_ap=True)
    downlink = _best_segment(graph, flow.destination, access_points,
                             toward_ap=False)
    route = uplink + downlink
    # The uplink-AP → downlink-AP hop rides the wire behind the gateway.
    # With the same AP on both segments it appears as a repeated node
    # (collapsed by Flow.links); with different APs it must be flagged so
    # no wireless transmission is scheduled for it.
    wire_after = None
    if uplink[-1] != downlink[0]:
        wire_after = len(uplink) - 1
    return flow.with_route(route, wire_after=wire_after)


def _best_segment(graph: CommunicationGraph, endpoint: int,
                  access_points: Sequence[int],
                  toward_ap: bool) -> List[int]:
    """Shortest path between a node and its nearest access point.

    Nearest: the first in id order with the fewest hops from
    ``endpoint`` in ``graph.hops``; one path is built, to it.
    Returns the path ordered source→AP when ``toward_ap`` else AP→node.
    """
    n = graph.num_nodes
    if not all(0 <= node < n for node in (endpoint, *access_points)):
        raise ValueError("endpoint/access point out of range")
    distances = graph.hops[endpoint]
    reachable = [ap for ap in sorted(access_points)
                 if distances[ap] != UNREACHABLE]
    if not reachable:
        raise NoRouteError(endpoint, access_points[0])
    nearest = min(reachable, key=distances.__getitem__)
    path = shortest_path(graph, endpoint, nearest)
    return path if toward_ap else path[::-1]


def assign_routes(flow_set: FlowSet, graph: CommunicationGraph,
                  traffic: TrafficType,
                  access_points: Sequence[int] = ()) -> FlowSet:
    """Assign routes to every flow in a set.

    Args:
        flow_set: Flows without routes.
        graph: The communication graph.
        traffic: Centralized or peer-to-peer routing.
        access_points: Required for centralized traffic.

    Returns:
        A new FlowSet with the same priority order and routed flows.

    Raises:
        NoRouteError: If any flow cannot be routed.
    """
    routed = []
    for flow in flow_set:
        if traffic is TrafficType.PEER_TO_PEER:
            routed.append(route_peer_to_peer(graph, flow))
        else:
            routed.append(route_centralized(graph, flow, access_points))
    return FlowSet(routed)
