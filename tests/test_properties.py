"""Property-based tests (hypothesis) on core data structures and invariants.

The big ones:

* Any schedule the NR / RA / RC engines produce satisfies the paper's
  reuse constraints, precedence, releases, and deadlines — for arbitrary
  random topologies and workloads.
* Our K-S test matches scipy on arbitrary inputs.
"""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings, strategies as st

from repro.core.constraints import validate_schedule
from repro.core.nr import NoReusePolicy
from repro.core.ra import AggressiveReusePolicy
from repro.core.rc import ConservativeReusePolicy
from repro.core.scheduler import FixedPriorityScheduler
from repro.detection.kstest import ks_2samp, ks_statistic
from repro.flows.flow import Flow, FlowSet
from repro.network.graphs import (
    ChannelReuseGraph,
    CommunicationGraph,
    all_pairs_hops,
)
from repro.routing.shortest_path import NoRouteError, shortest_path
from repro.routing.traffic import TrafficType, assign_routes

from conftest import build_topology
from core_oracles import node_busy, validate_basic


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

@st.composite
def random_connected_topology(draw):
    """A random connected topology with strong and weak links."""
    n = draw(st.integers(min_value=4, max_value=10))
    # Spanning chain keeps it connected; extra random edges add structure.
    strong = {(i, i + 1) for i in range(n - 1)}
    extra = draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=8))
    weak = set()
    for u, v in extra:
        if u == v:
            continue
        edge = (min(u, v), max(u, v))
        if edge in strong:
            continue
        if draw(st.booleans()):
            strong.add(edge)
        else:
            weak.add(edge)
    return build_topology(n, sorted(strong), sorted(weak))


@st.composite
def random_workload(draw, topology):
    """Random flows over a topology's communication graph."""
    n = topology.num_nodes
    num_flows = draw(st.integers(min_value=1, max_value=5))
    flows = []
    for flow_id in range(num_flows):
        source = draw(st.integers(0, n - 1))
        destination = draw(st.integers(0, n - 1))
        assume(source != destination)
        period = draw(st.sampled_from([50, 100, 200]))
        deadline = draw(st.integers(period // 2, period))
        flows.append(Flow(flow_id, source, destination, period, deadline))
    return FlowSet(flows)


POLICIES = [
    ("NR", lambda: NoReusePolicy(), math.inf),
    ("RA", lambda: AggressiveReusePolicy(rho_t=2), 2),
    ("RC", lambda: ConservativeReusePolicy(rho_t=2), 2),
]


# ----------------------------------------------------------------------
# Scheduler invariants
# ----------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name,policy_factory,rho_floor", POLICIES)
def test_schedules_satisfy_all_invariants(name, policy_factory, rho_floor,
                                          data):
    """Every produced schedule obeys conflicts, channel constraints,
    precedence, releases, and deadlines."""
    topology = data.draw(random_connected_topology())
    flow_set = data.draw(random_workload(topology))
    comm = CommunicationGraph.from_topology(topology, 0.9)
    reuse = ChannelReuseGraph.from_topology(topology)
    try:
        routed = assign_routes(flow_set.deadline_monotonic(), comm,
                               TrafficType.PEER_TO_PEER)
    except NoRouteError:
        assume(False)
    num_offsets = data.draw(st.integers(1, 3))
    scheduler = FixedPriorityScheduler(topology.num_nodes, num_offsets,
                                       reuse, policy_factory())
    result = scheduler.run(routed)
    if not result.schedulable:
        return
    schedule = result.schedule
    validate_basic(schedule)
    if rho_floor != math.inf:
        assert validate_schedule(schedule, reuse, rho_floor) is None
    else:
        for _, _, txs in schedule.occupied_cells():
            assert len(txs) == 1  # NR never shares

    # Precedence, release, and deadline per flow instance.
    by_instance = {}
    for entry in schedule.entries:
        key = (entry.request.flow_id, entry.request.instance)
        by_instance.setdefault(key, []).append(entry)
    flows = {f.flow_id: f for f in routed}
    for (flow_id, instance), entries in by_instance.items():
        flow = flows[flow_id]
        release = instance * flow.period_slots
        deadline = release + flow.deadline_slots - 1
        ordered = sorted(entries,
                         key=lambda e: (e.request.hop_index,
                                        e.request.attempt))
        slots = [e.slot for e in ordered]
        assert slots == sorted(slots)
        assert len(set(slots)) == len(slots)
        assert slots[0] >= release
        assert slots[-1] <= deadline
        assert len(entries) == flow.num_hops * 2


@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_rc_never_reuses_more_than_ra(data):
    """On any workload both can schedule, RC shares at most as many cells
    as RA — conservatism as an invariant."""
    topology = data.draw(random_connected_topology())
    flow_set = data.draw(random_workload(topology))
    comm = CommunicationGraph.from_topology(topology, 0.9)
    reuse = ChannelReuseGraph.from_topology(topology)
    try:
        routed = assign_routes(flow_set.deadline_monotonic(), comm,
                               TrafficType.PEER_TO_PEER)
    except NoRouteError:
        assume(False)
    ra = FixedPriorityScheduler(topology.num_nodes, 2, reuse,
                                AggressiveReusePolicy(rho_t=2)).run(routed)
    rc = FixedPriorityScheduler(topology.num_nodes, 2, reuse,
                                ConservativeReusePolicy(rho_t=2)).run(routed)
    assume(ra.schedulable and rc.schedulable)
    assert (rc.schedule.num_reused_cells()
            <= ra.schedule.num_reused_cells())


@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_nr_schedulable_implies_reuse_schedulable(data):
    """Reuse only adds options: anything NR schedules, RA and RC do too."""
    topology = data.draw(random_connected_topology())
    flow_set = data.draw(random_workload(topology))
    comm = CommunicationGraph.from_topology(topology, 0.9)
    reuse = ChannelReuseGraph.from_topology(topology)
    try:
        routed = assign_routes(flow_set.deadline_monotonic(), comm,
                               TrafficType.PEER_TO_PEER)
    except NoRouteError:
        assume(False)
    nr = FixedPriorityScheduler(topology.num_nodes, 2, reuse,
                                NoReusePolicy()).run(routed)
    assume(nr.schedulable)
    for policy in (AggressiveReusePolicy(rho_t=2),
                   ConservativeReusePolicy(rho_t=2)):
        result = FixedPriorityScheduler(topology.num_nodes, 2, reuse,
                                        policy).run(routed)
        assert result.schedulable


# ----------------------------------------------------------------------
# Hop counts / graphs
# ----------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_hop_matrix_is_metric(data):
    """All-pairs hops: symmetric, zero diagonal, triangle inequality."""
    topology = data.draw(random_connected_topology())
    reuse = ChannelReuseGraph.from_topology(topology)
    hops = reuse.hops
    n = topology.num_nodes
    assert np.array_equal(hops, hops.T)
    assert all(hops[i, i] == 0 for i in range(n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if hops[i, j] >= 0 and hops[j, k] >= 0:
                    assert hops[i, k] <= hops[i, j] + hops[j, k]


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_shortest_path_is_shortest(data):
    topology = data.draw(random_connected_topology())
    comm = CommunicationGraph.from_topology(topology, 0.9)
    hops = all_pairs_hops(comm.adjacency)
    n = topology.num_nodes
    source = data.draw(st.integers(0, n - 1))
    destination = data.draw(st.integers(0, n - 1))
    assume(hops[source, destination] >= 0)
    path = shortest_path(comm, source, destination)
    assert len(path) - 1 == hops[source, destination]
    for u, v in zip(path, path[1:]):
        assert comm.adjacency[u, v]


# ----------------------------------------------------------------------
# K-S test vs scipy
# ----------------------------------------------------------------------

unit_samples = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=2,
    max_size=60)


@settings(max_examples=100, deadline=None)
@given(unit_samples, unit_samples)
def test_ks_statistic_matches_scipy(a, b):
    ours = ks_statistic(a, b)
    theirs = scipy.stats.ks_2samp(a, b).statistic
    assert ours == pytest.approx(theirs, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=8,
                max_size=60),
       st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=8,
                max_size=60))
def test_ks_pvalue_close_to_scipy_asymptotic(a, b):
    ours = ks_2samp(a, b)
    theirs = scipy.stats.ks_2samp(a, b, method="asymp")
    assert 0.0 <= ours.p_value <= 1.0
    # Small heavily-tied samples (n ~ 8) push both asymptotic
    # approximations outside 0.06 of each other (e.g. ours 0.458 vs
    # scipy 0.520 with the exact p at 0.485 between them).
    assert ours.p_value == pytest.approx(theirs.pvalue, abs=0.08)


@settings(max_examples=60, deadline=None)
@given(unit_samples)
def test_ks_identical_samples_never_reject(a):
    result = ks_2samp(a, a)
    assert result.statistic == 0.0
    assert not result.reject(0.05)


# ----------------------------------------------------------------------
# Laxity
# ----------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_laxity_upper_bound(data):
    """Laxity never exceeds window size minus |T_post| and never increases
    when the schedule gains transmissions."""
    from repro.core.laxity import calculate_laxity
    from repro.core.schedule import Schedule
    from repro.core.transmissions import TransmissionRequest

    schedule = Schedule(6, 100, 2)
    slot = data.draw(st.integers(0, 50))
    deadline = data.draw(st.integers(slot, 99))
    remaining = [
        TransmissionRequest(0, 0, h, 0, h % 5, (h % 5) + 1, 0, deadline)
        for h in range(data.draw(st.integers(0, 4)))]
    empty_laxity = calculate_laxity(schedule, slot, deadline, remaining)
    assert empty_laxity == (deadline - slot) - len(remaining)

    # Add some busy slots; laxity can only drop.
    for busy_slot in data.draw(st.sets(st.integers(0, 99), max_size=10)):
        if not (node_busy(schedule, 0, busy_slot)
                or node_busy(schedule, 1, busy_slot)):
            schedule.add(
                TransmissionRequest(1, 0, 0, 0, 0, 1, 0, 99), busy_slot, 0)
    loaded_laxity = calculate_laxity(schedule, slot, deadline, remaining)
    assert loaded_laxity <= empty_laxity
