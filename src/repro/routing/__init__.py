"""Routing: shortest paths and traffic patterns."""

from repro.routing.shortest_path import (
    NoRouteError,
    shortest_path,
)
from repro.routing.traffic import (
    TrafficType,
    assign_routes,
    route_centralized,
    route_peer_to_peer,
)

__all__ = [
    "NoRouteError",
    "TrafficType",
    "assign_routes",
    "route_centralized",
    "route_peer_to_peer",
    "shortest_path",
]
