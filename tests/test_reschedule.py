"""Tests for repro.core.reschedule (Section VI's remediation loop)."""

import numpy as np
import pytest

from repro.core.constraints import validate_schedule
from repro.core.ra import AggressiveReusePolicy
from repro.core.rc import ConservativeReusePolicy
from repro.core.reschedule import (
    ReuseBarrierPolicy,
    reschedule_without_reuse_on,
)
from repro.core.scheduler import FixedPriorityScheduler
from repro.experiments.common import (
    build_workload,
    prepare_network,
    schedule_workload,
)
from repro.flows.generator import PeriodRange
from repro.routing.traffic import TrafficType

from core_oracles import validate_basic


@pytest.fixture(scope="module")
def ra_scenario(wustl):
    """A heavy RA schedule on WUSTL with plenty of reuse."""
    topology, environment = wustl
    network = prepare_network(topology, channels=(11, 12, 13, 14))
    rng = np.random.default_rng(2)
    flows = build_workload(network, 60, PeriodRange(-1, 1),
                           TrafficType.PEER_TO_PEER, rng)
    result = schedule_workload(network, flows, "RA")
    assert result.schedulable
    assert result.schedule.num_reused_cells() > 0
    return network, flows, result


class TestReschedule:
    def test_victims_moved_to_exclusive_cells(self, ra_scenario):
        network, flows, original = ra_scenario
        victims = original.schedule.reuse_links()[:3]
        rescheduled = reschedule_without_reuse_on(
            flows, network.topology.num_nodes, 4, network.reuse,
            AggressiveReusePolicy(rho_t=2), victims)
        assert rescheduled.schedulable
        victim_set = set(victims) | {(v, u) for u, v in victims}
        for _, _, transmissions in rescheduled.schedule.reused_cells():
            for entry in transmissions:
                assert entry.request.link not in victim_set, (
                    f"victim {entry.request.link} still shares a cell")

    def test_rescheduled_schedule_still_valid(self, ra_scenario):
        network, flows, original = ra_scenario
        victims = original.schedule.reuse_links()[:3]
        rescheduled = reschedule_without_reuse_on(
            flows, network.topology.num_nodes, 4, network.reuse,
            AggressiveReusePolicy(rho_t=2), victims)
        validate_basic(rescheduled.schedule)
        assert validate_schedule(rescheduled.schedule, network.reuse,
                                 2) is None

    def test_non_victims_may_still_reuse(self, ra_scenario):
        network, flows, original = ra_scenario
        victims = original.schedule.reuse_links()[:1]
        rescheduled = reschedule_without_reuse_on(
            flows, network.topology.num_nodes, 4, network.reuse,
            AggressiveReusePolicy(rho_t=2), victims)
        # Barring one link doesn't force a reuse-free schedule.
        assert rescheduled.schedule.num_reused_cells() > 0

    def test_empty_victim_set_equals_original_policy(self, ra_scenario):
        network, flows, original = ra_scenario
        rescheduled = reschedule_without_reuse_on(
            flows, network.topology.num_nodes, 4, network.reuse,
            AggressiveReusePolicy(rho_t=2), [])
        assert rescheduled.schedulable
        assert (rescheduled.schedule.num_reused_cells()
                == original.schedule.num_reused_cells())

    def test_works_with_rc_policy(self, ra_scenario):
        network, flows, _ = ra_scenario
        result = reschedule_without_reuse_on(
            flows, network.topology.num_nodes, 4, network.reuse,
            ConservativeReusePolicy(rho_t=2), [(0, 1)])
        assert result.schedulable

    def test_barrier_policy_name(self):
        policy = ReuseBarrierPolicy(AggressiveReusePolicy(rho_t=2),
                                    {(0, 1)})
        assert policy.name == "RA+barrier"

    def test_barrier_expands_directions(self):
        policy = ReuseBarrierPolicy(AggressiveReusePolicy(rho_t=2),
                                    {(0, 1)})
        assert (1, 0) in policy.victim_links
