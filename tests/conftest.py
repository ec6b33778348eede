"""Shared fixtures: small hand-built topologies and testbed caches.

The hand-built topologies give tests precise control over graph structure
(which links exist, hop distances, PRR values); the session-scoped
testbeds avoid re-synthesizing 80-node environments in every test.  An
autouse fixture points the CLI's default run ledger into a temporary
directory, so tests that run ``main([...])`` without ``--ledger`` never
append to ``./runs.jsonl``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mac.channels import ChannelMap
from repro.network.node import Node, NodeRole, Position
from repro.network.topology import Topology


def build_topology(num_nodes, good_links, weak_links=(), num_channels=2,
                   good_prr=0.99, weak_prr=0.3, name="test"):
    """Build a topology from explicit link lists.

    Args:
        num_nodes: Node count (dense ids 0..n-1).
        good_links: Iterable of (u, v) pairs given PRR ``good_prr`` in both
            directions on every channel (communication-graph edges at the
            0.9 threshold).
        weak_links: Pairs given PRR ``weak_prr`` (reuse-graph-only edges).
        num_channels: Channels in the map (starting at 11).
        good_prr / weak_prr: PRR values to assign.
        name: Topology label.
    """
    channel_map = ChannelMap.first_n(num_channels)
    prr = np.zeros((num_nodes, num_nodes, num_channels))
    for u, v in good_links:
        prr[u, v, :] = good_prr
        prr[v, u, :] = good_prr
    for u, v in weak_links:
        prr[u, v, :] = weak_prr
        prr[v, u, :] = weak_prr
    nodes = [Node(i, NodeRole.FIELD_DEVICE, Position(float(i), 0.0))
             for i in range(num_nodes)]
    return Topology(nodes=nodes, channel_map=channel_map, prr=prr, name=name)


@pytest.fixture(autouse=True, scope="session")
def isolated_default_ledger(tmp_path_factory):
    """The CLI's default ``--ledger``, moved out of the working tree."""
    from repro.obs import ledger

    saved = ledger.DEFAULT_LEDGER
    ledger.DEFAULT_LEDGER = str(tmp_path_factory.mktemp("ledger")
                                / "runs.jsonl")
    yield ledger.DEFAULT_LEDGER
    ledger.DEFAULT_LEDGER = saved


@pytest.fixture
def line_topology():
    """Six nodes in a line: 0-1-2-3-4-5 (strong links only).

    Communication graph = reuse graph = the line, so hop distances are
    exactly the node-index differences.
    """
    links = [(i, i + 1) for i in range(5)]
    return build_topology(6, links)


@pytest.fixture
def line_with_weak_links():
    """A 6-node line plus weak (reuse-only) shortcuts 0-2, 3-5."""
    links = [(i, i + 1) for i in range(5)]
    return build_topology(6, links, weak_links=[(0, 2), (3, 5)])


@pytest.fixture
def grid_topology():
    """A 3x3 strong grid (node r*3+c), giving route diversity."""
    links = []
    for r in range(3):
        for c in range(3):
            if c < 2:
                links.append((r * 3 + c, r * 3 + c + 1))
            if r < 2:
                links.append((r * 3 + c, (r + 1) * 3 + c))
    return build_topology(9, links)


@pytest.fixture
def ring_topology():
    """Six nodes in a ring: the line plus the wrap edge 5-0, so the
    hop distance is the shorter way round (diameter 3)."""
    return build_topology(6, [(i, (i + 1) % 6) for i in range(6)])


@pytest.fixture
def star_topology():
    """Hub 0 with five leaves 1..5 (diameter 2): every link touches the
    hub, so no two transmissions can share a slot."""
    return build_topology(6, [(0, leaf) for leaf in range(1, 6)])


@pytest.fixture(scope="session")
def indriya():
    """The Indriya-like testbed (session-cached)."""
    from repro.testbeds import make_indriya

    return make_indriya()


@pytest.fixture(scope="session")
def wustl():
    """The WUSTL-like testbed (session-cached)."""
    from repro.testbeds import make_wustl

    return make_wustl()


@pytest.fixture(scope="session")
def topology_builder():
    """The :func:`build_topology` helper, for per-test custom graphs."""
    return build_topology
