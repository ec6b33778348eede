"""Vectorized kernel vs scalar reference: exact-equivalence tests.

The vector kernel (incremental per-link distance stacks, fused RC
descent) must be bit-for-bit interchangeable with the scalar reference
path — same feasible offsets, same ``find_slot`` answers, same final
schedules, same work counters, RC events and ``rc.fallback_rho``
histogram.  These tests drive both implementations over seeded
randomized schedules and full scheduler runs and demand exact
agreement.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest

from repro import obs
from repro.core import kernel as _kernel
from repro.core.constraints import NO_REUSE, feasible_offsets_scalar
from repro.core.kernel import (
    KERNEL_SCALAR,
    KERNEL_VECTOR,
    kernel_mode,
    min_reuse_distance,
)
from repro.core.rc import RHO_RESET_FLOW, RHO_RESET_TRANSMISSION
from repro.core.repair import (
    ChangeSet,
    ChannelChange,
    repair_schedule,
    smallest_reused_link,
)
from repro.core.reschedule import reschedule_without_reuse_on
from repro.core.schedule import Schedule
from repro.core.scheduler import (
    FixedPriorityScheduler,
    OFFSET_FIRST,
    OFFSET_LEAST_LOADED,
    find_slot,
)
from repro.core.transmissions import TransmissionRequest
from repro.experiments.common import (
    build_workload,
    make_policy,
    prepare_network,
)
from repro.flows.generator import PeriodRange
from repro.network.graphs import ChannelReuseGraph
from repro.routing.traffic import TrafficType
from repro.validate.fuzz import _recorded_work

NUM_SLOTS = 40
NUM_OFFSETS = 3


def _random_schedule(reuse_graph: ChannelReuseGraph, seed: int,
                     density: float = 0.5):
    """A seeded random schedule over the reuse graph's nodes.

    Fills cells with random non-node-conflicting transmissions so the
    occupancy exercises empty cells, single occupants, and reuse stacks.
    """
    num_nodes = reuse_graph.num_nodes
    rng = np.random.default_rng(seed)
    schedule = Schedule(num_nodes, NUM_SLOTS, NUM_OFFSETS)
    counter = 0
    for slot in range(NUM_SLOTS):
        busy = set()
        for offset in range(NUM_OFFSETS):
            occupants = rng.integers(0, 3) if rng.random() < density else 0
            for _ in range(occupants):
                sender, receiver = rng.choice(num_nodes, size=2,
                                              replace=False)
                if sender in busy or receiver in busy:
                    continue
                busy.update((int(sender), int(receiver)))
                schedule.add(
                    TransmissionRequest(
                        flow_id=0, instance=0, hop_index=0, attempt=counter,
                        sender=int(sender), receiver=int(receiver),
                        release_slot=0, deadline_slot=NUM_SLOTS - 1),
                    slot, offset)
                counter += 1
    return schedule


def _links(reuse_graph: ChannelReuseGraph, rng, count: int):
    pairs = []
    for _ in range(count):
        sender, receiver = rng.choice(reuse_graph.num_nodes, size=2,
                                      replace=False)
        pairs.append((int(sender), int(receiver)))
    return pairs


@pytest.fixture(scope="module")
def reuse_graph(topology_builder):
    """A reuse graph with non-trivial hop diversity (weak shortcuts)."""
    links = [(i, i + 1) for i in range(7)]
    topology = topology_builder(8, links, weak_links=[(0, 2), (4, 6)])
    return ChannelReuseGraph.from_topology(topology)


class TestFeasibleOffsets:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_scalar_on_random_schedules(self, reuse_graph, seed):
        """The vector kernel's views (distance row at finite ρ, free
        offsets at ρ = ∞) pick exactly the scalar oracle's offsets."""
        schedule = _random_schedule(reuse_graph, seed)
        rng = np.random.default_rng(100 + seed)
        rhos = [2, 3, reuse_graph.diameter(), NO_REUSE]
        for sender, receiver in _links(reuse_graph, rng, 12):
            for slot in rng.choice(NUM_SLOTS, size=8, replace=False):
                slot = int(slot)
                dist = min_reuse_distance(schedule, reuse_graph, sender,
                                          receiver, slot, slot)[0]
                for rho in rhos:
                    expected = feasible_offsets_scalar(
                        schedule, reuse_graph, sender, receiver, slot, rho)
                    got = (schedule.free_offsets(slot) if rho == NO_REUSE
                           else np.flatnonzero(dist >= rho).tolist())
                    assert got == expected, (
                        f"rho={rho} slot={slot} link=({sender},{receiver})")

    def test_distance_view_tracks_additions(self, reuse_graph):
        schedule = _random_schedule(reuse_graph, seed=9)
        view = min_reuse_distance(schedule, reuse_graph, 0, 7,
                                  0, NUM_SLOTS - 1)
        before = view.copy()
        schedule.add(
            TransmissionRequest(0, 0, 0, 0, sender=3, receiver=4,
                                release_slot=0,
                                deadline_slot=NUM_SLOTS - 1),
            5, 0)
        # The incrementally-maintained view reflects the new occupant.
        assert view[5, 0] <= before[5, 0]
        expected = feasible_offsets_scalar(schedule, reuse_graph, 0, 7, 5, 2)
        assert np.flatnonzero(view[5] >= 2).tolist() == expected


class TestFindSlot:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("offset_rule",
                             [OFFSET_FIRST, OFFSET_LEAST_LOADED])
    def test_matches_scalar(self, reuse_graph, seed, offset_rule):
        rng = np.random.default_rng(200 + seed)
        rhos = [2, 3, reuse_graph.diameter(), NO_REUSE]
        for schedule_seed in range(2):
            results = {}
            for kernel in (KERNEL_SCALAR, KERNEL_VECTOR):
                schedule = _random_schedule(reuse_graph,
                                            1000 + schedule_seed)
                rng_k = np.random.default_rng(300 + seed)
                answers = []
                with kernel_mode(kernel):
                    for sender, receiver in _links(reuse_graph, rng_k, 10):
                        earliest = int(rng_k.integers(0, NUM_SLOTS))
                        deadline = int(rng_k.integers(earliest, NUM_SLOTS))
                        request = TransmissionRequest(
                            0, 0, 0, 0, sender, receiver,
                            release_slot=0, deadline_slot=deadline)
                        for rho in rhos:
                            answers.append(find_slot(
                                schedule, reuse_graph, request, rho,
                                earliest, offset_rule))
                results[kernel] = answers
            assert results[KERNEL_SCALAR] == results[KERNEL_VECTOR]


def _forced(kernel):
    """``kernel_mode(kernel)``, or no override at all for None."""
    return nullcontext() if kernel is None else kernel_mode(kernel)


def _recorded_signature(result, recorder):
    """(schedulable, placements, work counters, ``rc.fallback_rho``,
    placement and RC events) of one recorded scheduler run."""
    placements = None
    if result.schedule is not None:
        placements = [
            (e.request.flow_id, e.request.instance, e.request.hop_index,
             e.request.attempt, e.slot, e.offset)
            for e in result.schedule.entries]
    return (result.schedulable, placements) + _recorded_work(recorder)


def _run_signature(network, flow_set, policy_name, kernel, rho_t=2,
                   **policy_kwargs):
    """:func:`_recorded_signature` of one scheduler run under a kernel
    (None: the policy's own)."""
    policy = make_policy(policy_name, rho_t)
    for key, value in policy_kwargs.items():
        setattr(policy, key, value)
    scheduler = FixedPriorityScheduler(
        num_nodes=network.topology.num_nodes,
        num_offsets=network.num_channels,
        reuse_graph=network.reuse, policy=policy)
    with _forced(kernel), obs.recording() as recorder:
        result = scheduler.run(flow_set)
    return _recorded_signature(result, recorder)


@pytest.fixture(scope="module")
def figure1_workload(indriya):
    topology, _ = indriya
    network = prepare_network(topology, num_channels=4)
    flow_set = build_workload(network, 18, PeriodRange(0, 4),
                              TrafficType.CENTRALIZED,
                              np.random.default_rng(5))
    return network, flow_set


class TestFullRunEquivalence:
    @pytest.mark.parametrize("policy_name", ["NR", "RA", "RC"])
    def test_policies_match_scalar(self, figure1_workload, policy_name):
        network, flow_set = figure1_workload
        scalar = _run_signature(network, flow_set, policy_name,
                                KERNEL_SCALAR)
        vector = _run_signature(network, flow_set, policy_name,
                                KERNEL_VECTOR)
        assert scalar == vector

    @pytest.mark.parametrize("rho_reset",
                             [RHO_RESET_TRANSMISSION, RHO_RESET_FLOW])
    @pytest.mark.parametrize("offset_rule",
                             [OFFSET_FIRST, OFFSET_LEAST_LOADED])
    def test_rc_variants_match_scalar(self, figure1_workload, rho_reset,
                                      offset_rule):
        network, flow_set = figure1_workload
        scalar = _run_signature(network, flow_set, "RC", KERNEL_SCALAR,
                                rho_reset=rho_reset,
                                offset_rule=offset_rule)
        vector = _run_signature(network, flow_set, "RC", KERNEL_VECTOR,
                                rho_reset=rho_reset,
                                offset_rule=offset_rule)
        assert scalar == vector


def _reschedule_signature(network, flow_set, victims, kernel,
                          policy_name="RA", rho_t=2):
    """:func:`_recorded_signature` of a barrier rebuild."""
    policy = make_policy(policy_name, rho_t)
    with _forced(kernel), obs.recording() as recorder:
        result = reschedule_without_reuse_on(
            flow_set, network.topology.num_nodes, network.num_channels,
            network.reuse, policy, victims)
    return _recorded_signature(result, recorder)


class TestRescheduleEquivalence:
    """The manager's rebuild path must match across kernels bit-for-bit."""

    @pytest.fixture(scope="class")
    def victims(self, figure1_workload):
        network, flow_set = figure1_workload
        scheduler = FixedPriorityScheduler(
            num_nodes=network.topology.num_nodes,
            num_offsets=network.num_channels,
            reuse_graph=network.reuse, policy=make_policy("RA", 2))
        with kernel_mode(KERNEL_SCALAR):
            result = scheduler.run(flow_set)
        assert result.schedulable
        reuse_links = result.schedule.reuse_links()
        assert reuse_links, "workload must exercise channel reuse"
        return tuple(reuse_links[:3])

    @pytest.mark.parametrize("policy_name", ["NR", "RA", "RC"])
    def test_barrier_rebuild_matches_scalar(self, figure1_workload,
                                            victims, policy_name):
        network, flow_set = figure1_workload
        scalar = _reschedule_signature(network, flow_set, victims,
                                       KERNEL_SCALAR, policy_name)
        vector = _reschedule_signature(network, flow_set, victims,
                                       KERNEL_VECTOR, policy_name)
        assert scalar == vector

    def test_no_victims_matches_plain_run(self, figure1_workload):
        """An empty barrier is placement-equivalent to the inner policy."""
        network, flow_set = figure1_workload
        plain = _run_signature(network, flow_set, "RA", KERNEL_VECTOR)[1]
        barred = _reschedule_signature(network, flow_set, (),
                                       KERNEL_VECTOR)[1]
        assert barred == plain

    def test_victims_leave_shared_cells(self, figure1_workload, victims):
        network, flow_set = figure1_workload
        policy = make_policy("RA", 2)
        with kernel_mode(KERNEL_VECTOR):
            result = reschedule_without_reuse_on(
                flow_set, network.topology.num_nodes,
                network.num_channels, network.reuse, policy, victims)
        assert result.schedulable
        barred = set(victims) | {(v, u) for u, v in victims}
        assert not barred & set(result.schedule.reuse_links())


# ----------------------------------------------------------------------
# The per-policy kernel
# ----------------------------------------------------------------------

def _lanes(schedule) -> int:
    """Distance lanes the vector kernel maintains on a schedule."""
    state = schedule._link_state
    return 0 if state is None else state.count


class TestResolveKernel:
    def test_concrete_modes_win_unchanged(self, reuse_graph):
        """kernel_mode overrides the schedule's own kernel either way,
        bare schedules included."""
        schedule = _random_schedule(reuse_graph, seed=3)
        assert not _kernel.vectorized(schedule)
        schedule.kernel = KERNEL_VECTOR
        assert _kernel.vectorized(schedule)
        with kernel_mode(KERNEL_SCALAR):
            assert not _kernel.vectorized(schedule)
        schedule.kernel = KERNEL_SCALAR
        with kernel_mode(KERNEL_VECTOR):
            assert _kernel.vectorized(schedule)
        assert not _kernel.vectorized(schedule)

    def test_auto_rc_stays_vector_nr_stays_scalar(self, figure1_workload):
        """Each policy declares its kernel and the barrier forwards the
        inner declaration; the schedule a run builds carries it."""
        from repro.core.reschedule import ReuseBarrierPolicy

        expected = {"NR": KERNEL_SCALAR, "RA": KERNEL_SCALAR,
                    "RC": KERNEL_VECTOR}
        network, flow_set = figure1_workload
        for name, kernel in expected.items():
            policy = make_policy(name, 2)
            assert policy.kernel == kernel
            assert ReuseBarrierPolicy(policy, set()).kernel == kernel
            result = FixedPriorityScheduler(
                num_nodes=network.topology.num_nodes,
                num_offsets=network.num_channels,
                reuse_graph=network.reuse, policy=policy).run(flow_set)
            assert result.schedule.kernel == kernel
            assert result.schedule.clone().kernel == kernel

    def test_kernel_mode_rejects_auto_and_junk(self):
        for mode in ("auto", "quantum"):
            with pytest.raises(ValueError, match="unknown kernel mode"):
                with kernel_mode(mode):
                    pass


class TestAutoRunEquivalence:
    @pytest.mark.parametrize("policy_name", ["NR", "RA", "RC"])
    def test_auto_matches_fixed_kernels(self, figure1_workload,
                                        policy_name):
        """A run on the policy's own kernel is bit-identical, schedule
        and work counters, to both forced kernels."""
        network, flow_set = figure1_workload
        own = _run_signature(network, flow_set, policy_name, None)
        for kernel in (KERNEL_SCALAR, KERNEL_VECTOR):
            assert _run_signature(network, flow_set, policy_name,
                                  kernel) == own

    def test_auto_is_resolved_before_the_run(self, figure1_workload):
        """The kernel is fixed when the schedule is built: an RA run
        leaves no override behind and its schedule no lanes."""
        network, flow_set = figure1_workload
        result = FixedPriorityScheduler(
            num_nodes=network.topology.num_nodes,
            num_offsets=network.num_channels,
            reuse_graph=network.reuse,
            policy=make_policy("RA", 2)).run(flow_set)
        assert result.schedulable
        assert _kernel._OVERRIDE is None
        assert result.schedule.kernel == KERNEL_SCALAR
        assert _lanes(result.schedule) == 0


class TestPerPolicyLanes:
    """Which schedules maintain the vector kernel's distance lanes."""

    @pytest.fixture(scope="class")
    def built(self, figure1_workload):
        network, flow_set = figure1_workload
        return {name: FixedPriorityScheduler(
                    num_nodes=network.topology.num_nodes,
                    num_offsets=network.num_channels,
                    reuse_graph=network.reuse,
                    policy=make_policy(name, 2)).run(flow_set)
                for name in ("NR", "RA", "RC")}

    @pytest.mark.parametrize("policy_name", ["NR", "RA"])
    def test_scalar_policies_carry_no_lanes(self, figure1_workload, built,
                                            policy_name):
        """Plain run, barrier rebuild and victim repair all stay off the
        distance stacks for NR and RA."""
        network, flow_set = figure1_workload
        result = built[policy_name]
        assert result.schedulable
        assert _lanes(result.schedule) == 0
        victim = (smallest_reused_link(built["RA"].schedule)
                  or result.schedule.entries[0].request.link)
        rebuilt = reschedule_without_reuse_on(
            flow_set, network.topology.num_nodes, network.num_channels,
            network.reuse, make_policy(policy_name, 2), {victim})
        assert rebuilt.schedule.kernel == KERNEL_SCALAR
        assert _lanes(rebuilt.schedule) == 0
        repaired = repair_schedule(
            result.schedule, flow_set, network.reuse,
            ChangeSet(victims=(victim,)), rho_t=2,
            policy_name=policy_name)
        assert repaired.schedule.kernel == KERNEL_SCALAR
        assert _lanes(repaired.schedule) == 0

    def test_rc_keeps_lanes_through_clone_and_repairs(
            self, figure1_workload, built, indriya):
        network, flow_set = figure1_workload
        schedule = built["RC"].schedule
        lanes = _lanes(schedule)
        assert lanes > 0
        assert _lanes(schedule.clone()) == lanes
        victim = smallest_reused_link(schedule)
        repaired = repair_schedule(schedule, flow_set, network.reuse,
                                   ChangeSet(victims=(victim,)), rho_t=2)
        assert repaired.evicted > 0
        assert repaired.schedule.kernel == KERNEL_VECTOR
        assert _lanes(repaired.schedule) >= lanes
        topology, _ = indriya
        narrowed = prepare_network(topology, num_channels=3)
        remapped = repair_schedule(
            schedule, flow_set, network.reuse,
            ChangeSet(channel=ChannelChange(
                reuse_graph=narrowed.reuse, num_offsets=3,
                offset_map=(0, 1, 2, None))), rho_t=2)
        assert remapped.evicted > 0
        assert remapped.schedule.kernel == KERNEL_VECTOR
        assert _lanes(remapped.schedule) > 0

    def test_forced_kernels_agree_on_ra_repair(self, figure1_workload,
                                               built):
        """kernel_mode forces either kernel on a scalar policy's repair
        (RC's is covered in tests/test_repair.py)."""
        network, flow_set = figure1_workload
        schedule = built["RA"].schedule
        victim = smallest_reused_link(schedule)
        products = {}
        for kernel in (KERNEL_SCALAR, KERNEL_VECTOR):
            with kernel_mode(kernel):
                products[kernel] = repair_schedule(
                    schedule, flow_set, network.reuse,
                    ChangeSet(victims=(victim,)), rho_t=2,
                    policy_name="RA")
        scalar, vector = products[KERNEL_SCALAR], products[KERNEL_VECTOR]
        assert vector.evicted > 0
        assert _lanes(vector.schedule) > 0
        assert scalar.schedulable == vector.schedulable
        assert scalar.schedule.signature() == vector.schedule.signature()
