"""RC's distance lanes vs the scalar reference: exact-equivalence tests.

The distance lanes (:mod:`repro.core.kernel`) that RC's fused descent
reads must be bit-for-bit interchangeable with the scalar scan — same
feasible offsets, same ``find_slot`` answers — and the fused descent
must match its stepwise oracle (:func:`repro.core.rc.stepwise_descent`)
in final schedules, work counters, decision provenance and the
``rc.fallback_rho`` histogram.  These tests drive both over seeded
randomized schedules and full scheduler runs and demand exact
agreement.  The last class pins which schedules carry lanes: only the
one an RC compile built, never its clones or repair products.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest

from repro import obs
from repro.core import kernel as _kernel
from repro.core.constraints import NO_REUSE, feasible_offsets_scalar
from repro.core.kernel import best_reuse_distance, min_reuse_distance
from repro.core.rc import (
    RHO_RESET_FLOW,
    RHO_RESET_TRANSMISSION,
    _pick_offset,
    stepwise_descent,
)
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
from repro.obs.provenance import ProvenanceRecorder
from repro.routing.traffic import TrafficType
from repro.validate.audit import audit_schedule
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
        """The lane views (distance row at finite ρ, free offsets at
        ρ = ∞) pick exactly the scalar oracle's offsets."""
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


def _lane_answer(schedule, reuse_graph, request, rho, earliest,
                 offset_rule):
    """One finite-ρ ``findSlot`` question answered the fused descent's
    way: the earliest conflict-free slot whose best lane distance
    reaches ρ, then the lane-thresholded offset pick."""
    deadline = request.deadline_slot
    best = best_reuse_distance(schedule, reuse_graph, request.sender,
                               request.receiver, earliest, deadline)
    free = ~schedule.conflict_mask(request.sender, request.receiver,
                                   earliest, deadline)
    feasible = np.flatnonzero((best >= rho) & free)
    if not feasible.size:
        return None
    slot = earliest + int(feasible[0])
    return (slot, _pick_offset(schedule, reuse_graph, request.sender,
                               request.receiver, slot, rho, offset_rule))


class TestFindSlot:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("offset_rule",
                             [OFFSET_FIRST, OFFSET_LEAST_LOADED])
    def test_matches_scalar(self, reuse_graph, seed, offset_rule):
        """The lanes answer every finite-ρ question exactly as the
        scalar ``find_slot`` does, slot and offset."""
        rng = np.random.default_rng(200 + seed)
        rhos = [2, 3, reuse_graph.diameter()]
        for schedule_seed in range(2):
            schedule = _random_schedule(reuse_graph, 1000 + schedule_seed)
            for sender, receiver in _links(reuse_graph, rng, 10):
                earliest = int(rng.integers(0, NUM_SLOTS))
                deadline = int(rng.integers(earliest, NUM_SLOTS))
                request = TransmissionRequest(
                    0, 0, 0, 0, sender, receiver,
                    release_slot=0, deadline_slot=deadline)
                for rho in rhos:
                    assert _lane_answer(
                        schedule, reuse_graph, request, rho, earliest,
                        offset_rule) == find_slot(
                            schedule, reuse_graph, request, rho, earliest,
                            offset_rule)


def _recorded_signature(result, recorder):
    """(schedulable, placements, work counters, ``rc.fallback_rho``,
    provenance records) of one recorded scheduler run."""
    placements = None
    if result.schedule is not None:
        placements = [
            (e.request.flow_id, e.request.instance, e.request.hop_index,
             e.request.attempt, e.slot, e.offset)
            for e in result.schedule.entries]
    return ((result.schedulable, placements) + _recorded_work(recorder)
            + (recorder.provenance.records(),))


def _descent(stepwise: bool):
    """RC's stepwise oracle, or no override (the fused descent)."""
    return stepwise_descent() if stepwise else nullcontext()


def _run_signature(network, flow_set, policy_name, stepwise, rho_t=2,
                   **policy_kwargs):
    """:func:`_recorded_signature` of one scheduler run, RC on its
    stepwise oracle or its fused descent."""
    policy = make_policy(policy_name, rho_t)
    for key, value in policy_kwargs.items():
        setattr(policy, key, value)
    scheduler = FixedPriorityScheduler(
        num_nodes=network.topology.num_nodes,
        num_offsets=network.num_channels,
        reuse_graph=network.reuse, policy=policy)
    recorder = obs.Recorder(provenance=ProvenanceRecorder())
    with _descent(stepwise), obs.recording(recorder):
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
    @pytest.mark.parametrize("policy_name", ["RC"])
    def test_policies_match_scalar(self, figure1_workload, policy_name):
        """The policies with two placement paths: RC's stepwise oracle
        and its fused descent."""
        network, flow_set = figure1_workload
        stepwise = _run_signature(network, flow_set, policy_name, True)
        fused = _run_signature(network, flow_set, policy_name, False)
        assert stepwise == fused

    @pytest.mark.parametrize("rho_reset",
                             [RHO_RESET_TRANSMISSION, RHO_RESET_FLOW])
    @pytest.mark.parametrize("offset_rule",
                             [OFFSET_FIRST, OFFSET_LEAST_LOADED])
    def test_rc_variants_match_scalar(self, figure1_workload, rho_reset,
                                      offset_rule):
        network, flow_set = figure1_workload
        stepwise = _run_signature(network, flow_set, "RC", True,
                                  rho_reset=rho_reset,
                                  offset_rule=offset_rule)
        fused = _run_signature(network, flow_set, "RC", False,
                               rho_reset=rho_reset, offset_rule=offset_rule)
        assert stepwise == fused


def _reschedule_signature(network, flow_set, victims, stepwise,
                          policy_name="RA", rho_t=2):
    """:func:`_recorded_signature` of a barrier rebuild."""
    policy = make_policy(policy_name, rho_t)
    recorder = obs.Recorder(provenance=ProvenanceRecorder())
    with _descent(stepwise), obs.recording(recorder):
        result = reschedule_without_reuse_on(
            flow_set, network.topology.num_nodes, network.num_channels,
            network.reuse, policy, victims)
    return _recorded_signature(result, recorder)


class TestRescheduleEquivalence:
    """RC's barrier rebuild must match across its descents bit-for-bit."""

    @pytest.fixture(scope="class")
    def victims(self, figure1_workload):
        network, flow_set = figure1_workload
        scheduler = FixedPriorityScheduler(
            num_nodes=network.topology.num_nodes,
            num_offsets=network.num_channels,
            reuse_graph=network.reuse, policy=make_policy("RA", 2))
        result = scheduler.run(flow_set)
        assert result.schedulable
        reuse_links = result.schedule.reuse_links()
        assert reuse_links, "workload must exercise channel reuse"
        return tuple(reuse_links[:3])

    @pytest.mark.parametrize("policy_name", ["RC"])
    def test_barrier_rebuild_matches_scalar(self, figure1_workload,
                                            victims, policy_name):
        network, flow_set = figure1_workload
        stepwise = _reschedule_signature(network, flow_set, victims, True,
                                         policy_name)
        fused = _reschedule_signature(network, flow_set, victims, False,
                                      policy_name)
        assert stepwise == fused

    def test_no_victims_matches_plain_run(self, figure1_workload):
        """An empty barrier is placement-equivalent to the inner policy."""
        network, flow_set = figure1_workload
        plain = _run_signature(network, flow_set, "RA", False)[1]
        barred = _reschedule_signature(network, flow_set, (), False)[1]
        assert barred == plain

    def test_victims_leave_shared_cells(self, figure1_workload, victims):
        network, flow_set = figure1_workload
        policy = make_policy("RA", 2)
        result = reschedule_without_reuse_on(
            flow_set, network.topology.num_nodes, network.num_channels,
            network.reuse, policy, victims)
        assert result.schedulable
        barred = set(victims) | {(v, u) for u, v in victims}
        assert not barred & set(result.schedule.reuse_links())


# ----------------------------------------------------------------------
# Which schedules carry lanes
# ----------------------------------------------------------------------

def _lanes(schedule) -> int:
    """Distance lanes a schedule maintains."""
    state = schedule._link_state
    return 0 if state is None else state.count


def _rc_compile(network, flow_set):
    return FixedPriorityScheduler(
        num_nodes=network.topology.num_nodes,
        num_offsets=network.num_channels, reuse_graph=network.reuse,
        policy=make_policy("RC", 2)).run(flow_set)


def _blacklist(indriya):
    """Figure 1's 4 channels narrowed to 3 (the last offset's
    transmissions move) and the narrowed reuse graph."""
    topology, _ = indriya
    narrowed = prepare_network(topology, num_channels=3)
    return (ChangeSet(channel=ChannelChange(
        reuse_graph=narrowed.reuse, num_offsets=3,
        offset_map=(0, 1, 2, None))), narrowed.reuse)


class TestPerPolicyLanes:
    """Lanes belong to the schedule an RC compile built."""

    @pytest.fixture(scope="class")
    def built(self, figure1_workload):
        network, flow_set = figure1_workload
        return {name: FixedPriorityScheduler(
                    num_nodes=network.topology.num_nodes,
                    num_offsets=network.num_channels,
                    reuse_graph=network.reuse,
                    policy=make_policy(name, 2)).run(flow_set)
                for name in ("NR", "RA")}

    @pytest.mark.parametrize("policy_name", ["NR", "RA"])
    def test_scalar_policies_carry_no_lanes(self, figure1_workload, built,
                                            policy_name):
        """Plain run, barrier rebuild and victim repair all stay off the
        distance lanes for NR and RA."""
        network, flow_set = figure1_workload
        result = built[policy_name]
        assert result.schedulable
        assert _lanes(result.schedule) == 0
        victim = (smallest_reused_link(built["RA"].schedule)
                  or result.schedule.entries[0].request.link)
        rebuilt = reschedule_without_reuse_on(
            flow_set, network.topology.num_nodes, network.num_channels,
            network.reuse, make_policy(policy_name, 2), {victim})
        assert _lanes(rebuilt.schedule) == 0
        repaired = repair_schedule(
            result.schedule, flow_set, network.reuse,
            ChangeSet(victims=(victim,)), rho_t=2,
            policy_name=policy_name)
        assert _lanes(repaired.schedule) == 0

    def test_rc_lanes_stay_on_the_compiled_schedule(self, figure1_workload,
                                                    indriya):
        """An RC compile that descends builds lanes; its clone, its
        victim repair product and its channel-blacklist repair product
        carry none, and ``evict`` on the compiled schedule drops them.
        Every one of them audits clean."""
        network, flow_set = figure1_workload
        schedule = _rc_compile(network, flow_set).schedule
        assert _lanes(schedule) > 0
        assert audit_schedule(schedule, network.reuse, 2,
                              flow_set=flow_set).ok
        clone = schedule.clone()
        assert _lanes(clone) == 0
        assert clone.signature() == schedule.signature()
        assert audit_schedule(clone, network.reuse, 2,
                              flow_set=flow_set).ok
        victim = smallest_reused_link(schedule)
        repaired = repair_schedule(schedule, flow_set, network.reuse,
                                   ChangeSet(victims=(victim,)), rho_t=2)
        assert repaired.schedulable and repaired.evicted > 0
        assert _lanes(repaired.schedule) == 0
        assert audit_schedule(repaired.schedule, network.reuse, 2,
                              flow_set=flow_set,
                              barred_links={victim}).ok
        change, narrowed = _blacklist(indriya)
        remapped = repair_schedule(schedule, flow_set, network.reuse,
                                   change, rho_t=2)
        assert remapped.schedulable and remapped.evicted > 0
        assert _lanes(remapped.schedule) == 0
        assert audit_schedule(remapped.schedule, narrowed, 2,
                              flow_set=flow_set).ok
        assert _lanes(schedule) > 0  # repair left the input's lanes alone
        schedule.evict([len(schedule) - 1])
        assert _lanes(schedule) == 0
        assert audit_schedule(schedule, network.reuse, 2,
                              flow_set=flow_set, expect_complete=False).ok

    def test_rc_repair_hashes_pinned(self, figure1_workload, indriya):
        """Golden: the canonical hashes of one RC victim repair and one
        RC channel-blacklist repair on the Figure 1 workload, recorded
        when repair still re-placed through the lanes the compiled
        schedule carried.  The scalar scan places every evicted
        transmission where the lanes did."""
        network, flow_set = figure1_workload
        schedule = _rc_compile(network, flow_set).schedule
        victim = smallest_reused_link(schedule)
        assert victim == (0, 10)
        repaired = repair_schedule(schedule, flow_set, network.reuse,
                                   ChangeSet(victims=(victim,)), rho_t=2)
        assert (repaired.schedulable, repaired.evicted) == (True, 8)
        assert repaired.schedule.canonical_hash() == (
            "b191fe481a86481753d6f1b5e5d54363e77f2acdefc1745d3f70ceb461eb3965")
        change, _ = _blacklist(indriya)
        remapped = repair_schedule(schedule, flow_set, network.reuse,
                                   change, rho_t=2)
        assert (remapped.schedulable, remapped.evicted) == (True, 578)
        assert remapped.schedule.canonical_hash() == (
            "67c653d623208c009f929bc42e1c1e820d71593c298fe99551168d85169a7a35")

    def test_rc_without_reuse_builds_no_lanes(self, figure1_workload,
                                              indriya):
        """An RC run that never leaves ρ = ∞ (9 of the fleet's 32 flow
        sets) ends with no lane state.  The auto victim finds no shared
        cell; a victim repair evicts nothing, and a channel blacklist
        repair re-places at ρ_t on a fresh schedule through the scalar
        scan.  Neither builds lanes, and both audit clean."""
        network, _ = figure1_workload
        flow_set = build_workload(network, 15, PeriodRange(0, 3),
                                  TrafficType.PEER_TO_PEER,
                                  np.random.default_rng(0))
        result = _rc_compile(network, flow_set)
        assert result.schedulable
        assert result.schedule._link_state is None
        assert smallest_reused_link(result.schedule) is None
        blacklist, narrowed = _blacklist(indriya)
        changes = {
            "victim": (ChangeSet(victims=(
                result.schedule.entries[0].request.link,)),
                network.reuse),
            "blacklist": (blacklist, narrowed)}
        for name, (change, graph) in changes.items():
            repaired = repair_schedule(result.schedule, flow_set,
                                       network.reuse, change, rho_t=2)
            assert repaired.schedulable
            assert repaired.schedule._link_state is None
            assert audit_schedule(repaired.schedule, graph, 2,
                                  flow_set=flow_set).ok
            if name == "victim":
                assert repaired.evicted == 0
            else:
                assert repaired.evicted > 0

    def test_rc_builds_lanes_for_the_planned_links(self, figure1_workload,
                                                   monkeypatch):
        """Lanes are built once, at the first finite-ρ query, for the
        links of the flow making it and of every later flow, sized to
        those distinct links; the run registers nothing else and audits
        clean.  A repair on a clone registers nothing at all."""
        network, flow_set = figure1_workload
        calls = []
        register = _kernel._LinkDistanceState.register

        def spy(state, schedule, links):
            calls.append((list(links), state.dist.shape[2]))
            return register(state, schedule, links)

        monkeypatch.setattr(_kernel._LinkDistanceState, "register", spy)
        prov = ProvenanceRecorder()
        with obs.recording(obs.Recorder(provenance=prov)):
            result = _rc_compile(network, flow_set)
        assert result.schedulable
        first = next(decision["flow"] for decision in prov.decisions()
                     if decision["descent"])
        position = [flow.flow_id for flow in flow_set].index(first)
        planned = {link for flow in list(flow_set)[position:]
                   for link in flow.links}
        earlier = {link for flow in list(flow_set)[:position]
                   for link in flow.links}
        assert 0 < position and earlier - planned
        (built, capacity), = calls
        assert set(built) == planned and len(built) == len(planned)
        assert capacity <= len(planned)
        state = result.schedule._link_state
        assert set(state.index) == planned
        assert audit_schedule(result.schedule, network.reuse, 2,
                              flow_set=flow_set).ok
        repaired = repair_schedule(
            result.schedule, flow_set, network.reuse,
            ChangeSet(victims=(smallest_reused_link(result.schedule),)),
            rho_t=2)
        assert repaired.schedulable and repaired.evicted > 0
        assert repaired.schedule._link_state is None
        assert len(calls) == 1
        assert audit_schedule(repaired.schedule, network.reuse, 2,
                              flow_set=flow_set).ok
