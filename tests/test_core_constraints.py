"""Tests for repro.core.constraints (the paper's Section V-A rules) and
for the one-offset-at-a-time oracles in ``core_oracles``."""

import math

import pytest

from repro.core.constraints import NO_REUSE, validate_schedule
from repro.core.schedule import Schedule
from repro.core.scheduler import find_slot
from repro.network.graphs import ChannelReuseGraph

from core_oracles import (
    conflicts_in_slot,
    feasible_offsets_scalar,
    offset_satisfies_channel_constraint,
    placement_is_valid,
)
from test_core_schedule import request


@pytest.fixture
def line_reuse_graph(line_topology):
    """Reuse graph of the 6-node line: hop(u, v) == |u - v|."""
    return ChannelReuseGraph.from_topology(line_topology)


def _sharing_rhos(topology, occupant, candidate):
    """Every ρ from ρ_t = 2 to one past the reuse diameter at which
    ``find_slot`` lets ``candidate`` share the one cell that
    ``occupant`` holds."""
    reuse = ChannelReuseGraph.from_topology(topology)
    schedule = Schedule(topology.num_nodes, 1, 1)
    schedule.add(request(*occupant), 0, 0)
    window = request(*candidate, flow_id=1, deadline=0)
    return [rho for rho in range(2, reuse.diameter() + 2)
            if find_slot(schedule, reuse, window, rho, 0) == (0, 0)]


class TestTransmissionConflict:
    def test_no_conflict_on_empty_slot(self, line_reuse_graph):
        schedule = Schedule(6, 10, 2)
        assert not conflicts_in_slot(schedule, 0, 1, 5)

    def test_shared_sender_conflicts(self, line_reuse_graph):
        schedule = Schedule(6, 10, 2)
        schedule.add(request(0, 1), 5, 0)
        assert conflicts_in_slot(schedule, 0, 2, 5)

    def test_shared_receiver_conflicts(self, line_reuse_graph):
        schedule = Schedule(6, 10, 2)
        schedule.add(request(0, 1), 5, 0)
        assert conflicts_in_slot(schedule, 2, 1, 5)

    def test_cross_roles_conflict(self, line_reuse_graph):
        """Sender of one = receiver of other is still a conflict
        (half-duplex radios, paper Section III-B)."""
        schedule = Schedule(6, 10, 2)
        schedule.add(request(0, 1), 5, 0)
        assert conflicts_in_slot(schedule, 1, 2, 5)

    def test_disjoint_nodes_no_conflict(self, line_reuse_graph):
        schedule = Schedule(6, 10, 2)
        schedule.add(request(0, 1), 5, 0)
        assert not conflicts_in_slot(schedule, 3, 4, 5)


class TestChannelConstraint:
    def test_empty_cell_always_ok(self, line_reuse_graph):
        schedule = Schedule(6, 10, 2)
        assert offset_satisfies_channel_constraint(
            schedule, line_reuse_graph, 0, 1, 5, 0, NO_REUSE)
        assert offset_satisfies_channel_constraint(
            schedule, line_reuse_graph, 0, 1, 5, 0, 2)

    def test_no_reuse_forbids_occupied_cell(self, line_reuse_graph):
        """Rule 2a: with ρ = ∞ the offset must be unassigned."""
        schedule = Schedule(6, 10, 2)
        schedule.add(request(4, 5), 5, 0)
        assert not offset_satisfies_channel_constraint(
            schedule, line_reuse_graph, 0, 1, 5, 0, NO_REUSE)

    def test_reuse_requires_rho_hops_both_ways(self, line_reuse_graph):
        """Rule 2b: new sender ≥ ρ hops from existing receiver AND
        existing sender ≥ ρ hops from new receiver."""
        schedule = Schedule(6, 10, 2)
        schedule.add(request(0, 1), 5, 0)  # occupies offset 0
        # Candidate 4->5: hop(4, 1) = 3 and hop(0, 5) = 5.
        assert offset_satisfies_channel_constraint(
            schedule, line_reuse_graph, 4, 5, 5, 0, 3)
        # rho = 4 fails because hop(new sender 4, existing receiver 1) = 3.
        assert not offset_satisfies_channel_constraint(
            schedule, line_reuse_graph, 4, 5, 5, 0, 4)

    @pytest.mark.parametrize("fixture, occupant, candidate, largest", [
        # Line (λ = 5): hops[4, 1] = 3, hops[0, 5] = 5.
        ("line_topology", (0, 1), (4, 5), 3),
        # Ring (λ = 3): the wrap edge puts 5 one hop from 0.
        ("ring_topology", (0, 1), (4, 5), None),
        ("ring_topology", (0, 1), (4, 3), 3),  # hops[4, 1] = hops[0, 3] = 3
        ("ring_topology", (0, 1), (3, 4), 2),  # hops[3, 1] = hops[0, 4] = 2
        # 3x3 grid (λ = 4), node r*3+c: hops are Manhattan distances.
        ("grid_topology", (0, 1), (7, 8), 2),  # hops[7, 1] = 2
        ("grid_topology", (0, 1), (8, 5), 3),  # hops[8, 1] = hops[0, 5] = 3
        ("grid_topology", (0, 1), (6, 7), 3),  # hops[6, 1] = hops[0, 7] = 3
        # Star (λ = 2): every link touches hub 0, a node conflict.
        ("star_topology", (1, 0), (0, 2), None),
        ("star_topology", (1, 0), (2, 0), None),
    ])
    def test_known_reuse_limits(self, request, fixture, occupant,
                                candidate, largest):
        """Section V-A by hand on canonical topologies: a candidate
        (u, v) may share the cell of occupant (x, y) exactly at
        2 <= ρ <= min(hops[u, y], hops[x, v]), and never when the two
        share a node; ``largest`` is that bound (None: never)."""
        topology = request.getfixturevalue(fixture)
        assert _sharing_rhos(topology, occupant, candidate) == (
            list(range(2, largest + 1)) if largest else [])

    def test_reuse_checks_new_receiver_against_existing_sender(
            self, line_reuse_graph):
        schedule = Schedule(6, 10, 2)
        schedule.add(request(5, 4), 5, 0)
        # Candidate 0->2: hop(0, 4) = 4 ok at rho 3; hop(5, 2) = 3 ok;
        # at rho 4, hop(5, 2) = 3 violates.
        assert offset_satisfies_channel_constraint(
            schedule, line_reuse_graph, 0, 2, 5, 0, 3)
        assert not offset_satisfies_channel_constraint(
            schedule, line_reuse_graph, 0, 2, 5, 0, 4)

    def test_all_occupants_must_satisfy(self, line_reuse_graph):
        schedule = Schedule(6, 20, 1)
        schedule.add(request(0, 1), 5, 0)
        schedule.add(request(4, 5), 5, 0)  # ok at rho 3 vs (0,1)
        # A third transmission 2->3 is within 2 hops of everything.
        assert not offset_satisfies_channel_constraint(
            schedule, line_reuse_graph, 2, 3, 5, 0, 2)

    def test_feasible_offsets_filtering(self, line_reuse_graph):
        schedule = Schedule(6, 10, 3)
        schedule.add(request(0, 1), 5, 0)
        schedule.add(request(2, 3), 5, 1)
        # Candidate 4->5 at rho 2: offset 0 ok (hop(4,1)=3, hop(0,5)=5);
        # offset 1 fails (hop(2,5)=3 ok but hop(4,3)=1 < 2);
        # offset 2 empty -> ok.
        assert feasible_offsets_scalar(
            schedule, line_reuse_graph, 4, 5, 5, 2) == [0, 2]

    def test_placement_is_valid_combines_both(self, line_reuse_graph):
        schedule = Schedule(6, 10, 2)
        schedule.add(request(0, 1), 5, 0)
        assert not placement_is_valid(
            schedule, line_reuse_graph, 1, 2, 5, 1, NO_REUSE)  # conflict
        assert placement_is_valid(
            schedule, line_reuse_graph, 3, 4, 5, 1, NO_REUSE)
        assert not placement_is_valid(
            schedule, line_reuse_graph, 3, 4, 5, 0, NO_REUSE)  # occupied


class TestValidateSchedule:
    def test_valid_schedule_passes(self, line_reuse_graph):
        schedule = Schedule(6, 10, 1)
        schedule.add(request(0, 1), 0, 0)
        schedule.add(request(4, 5), 0, 0)  # hop(4,1)=3, hop(0,5)=5
        assert validate_schedule(schedule, line_reuse_graph, 3) is None

    def test_too_close_reuse_detected(self, line_reuse_graph):
        schedule = Schedule(6, 10, 1)
        schedule.add(request(0, 1), 0, 0)
        schedule.add(request(3, 4), 0, 0)  # hop(3,1)=2 < 3
        error = validate_schedule(schedule, line_reuse_graph, 3)
        assert error is not None and "closer than" in error
