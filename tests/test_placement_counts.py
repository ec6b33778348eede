"""Placement work counts on two Fig 1 pool workloads, pinned exactly.

A faster placement path must do the same work: scan the same slots, try
the same placements and take the same ρ steps.  These counts and the
schedules' canonical hashes were recorded before the schedule indexes
became slot bitsets; a speed-up that changes them came from doing less
(or different) work, not from cheaper probes.

The workloads are entries of perfbench's sweep-fig1 pool: Indriya,
centralized traffic, 30 flows, periods in [2^-1, 2^3] s, flow-set seed
``1000 * i``, ρ_t = 2.  (3 channels, seed 0) leaves NR unschedulable and
has RA scan past a slot; (5 channels, seed 1000) schedules under every
policy.

RC's decision records on (3 channels, seed 0) are pinned as well: the
sha256 of ``ProvenanceRecorder.records()`` as canonical JSON, recorded
before RC's descent read Eq. 1 once per distinct probed slot.

Those pins are of recorded runs, and a recorded RC descent probes every
ρ.  An unrecorded one may end at Eq. 1's bound, so RC's schedules on
the whole pool are pinned unrecorded too, recorded before it could.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.experiments.common import (
    build_workload,
    prepare_network,
    schedule_workload,
)
from repro.flows.generator import PeriodRange
from repro.obs import recorder as _obs
from repro.obs.provenance import ProvenanceRecorder
from repro.obs.recorder import Recorder
from repro.routing.traffic import TrafficType

#: ``SchedulingResult.counters`` keys, in the order of the pinned tuples.
COUNTERS = ("slots_scanned", "placements_tried", "placements",
            "reuse_placements", "laxity_triggers", "reuse_fallbacks")

#: ``(channels, seed), policy -> (schedulable, canonical hash, counts)``.
PINNED = {
    ((3, 0), "NR"): (
        False,
        "ed75d6535fc55e1ce8e4d6d91ec4d3639249acf437c41e7f909acae52bc27c22",
        (11778, 2307, 2306, 0, 0, 0)),
    ((3, 0), "RA"): (
        True,
        "cdb525955e97e36040bae12f9d8f6c05e90d4ac158be5d54936287bf057ef27a",
        (2324, 2312, 2312, 1094, 0, 0)),
    ((3, 0), "RC"): (
        True,
        "0755ecb4236d98e85ab352f90be27ef3d02feb7596f7cfd79c84ea27d7187a39",
        (23650, 5648, 2312, 485, 834, 3336)),
    ((5, 1000), "NR"): (
        True,
        "cb42354cd92715fa94bd9d9550a0fd29e588b57c824969b800697aa4750a98b2",
        (9536, 3254, 3254, 0, 0, 0)),
    ((5, 1000), "RA"): (
        True,
        "ab6f00abea4bfd0a1f501f65ba26a42d18c18f2ce18220769d78936e74d8e206",
        (3254, 3254, 3254, 1922, 0, 0)),
    ((5, 1000), "RC"): (
        True,
        "9d7cd42b712cc47f89ee212283233cd2d9187070f9697d44a4385239395ae9f9",
        (23782, 8830, 3254, 478, 1394, 5576)),
}

#: sha256 of RC's provenance records on (3 channels, seed 0) as JSON
#: with sorted keys and no spaces: 2,312 decisions, 834 of them with a
#: negative laxity, and the ``prov_meta`` trailer.
PINNED_RC_RECORDS = (
    "d9cd65a9514e102a10d2b01aeb76ee8399efd7fa0ee8505f6be4bd72975dc843")


#: sha256 of RC's canonical hashes, one per line, on every pool entry
#: (seeds 0, 1000, ..., 9000) at 3, 4, 5 and 8 channels, channels
#: first, scheduled with no recorder live.
PINNED_RC_POOL = (
    "6360c087936432ae34c258e2473ac51d996a762b7b27568dd4c3f5f6dcab6a29")


@pytest.fixture(scope="module")
def pool_workloads(indriya):
    topology, _ = indriya
    workloads = {}
    for channels, seed in sorted({key for key, _ in PINNED}):
        network = prepare_network(topology, num_channels=channels)
        flow_set = build_workload(network, 30, PeriodRange(-1, 3),
                                  TrafficType.CENTRALIZED,
                                  np.random.default_rng(seed))
        workloads[(channels, seed)] = (network, flow_set)
    return workloads


@pytest.mark.parametrize("workload, policy", sorted(PINNED),
                         ids=lambda value: (f"{value[0]}ch-seed{value[1]}"
                                            if isinstance(value, tuple)
                                            else value))
def test_placement_counts_repeat(pool_workloads, workload, policy):
    network, flow_set = pool_workloads[workload]
    with _obs.recording(Recorder()):
        result = schedule_workload(network, flow_set, policy, 2)
    schedulable, digest, counts = PINNED[(workload, policy)]
    assert result.schedulable is schedulable
    assert result.schedule.canonical_hash() == digest
    assert tuple(result.counters[key] for key in COUNTERS) == counts


def test_rc_decision_records_repeat(pool_workloads):
    network, flow_set = pool_workloads[(3, 0)]
    recorder = Recorder(provenance=ProvenanceRecorder())
    with _obs.recording(recorder):
        schedule_workload(network, flow_set, "RC", 2)
    records = recorder.provenance.records()
    assert len(records) == 2313
    canonical = json.dumps(records, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == PINNED_RC_RECORDS


def test_unrecorded_rc_pool_repeats(indriya):
    topology, _ = indriya
    assert not _obs.ENABLED
    digests = []
    for channels in (3, 4, 5, 8):
        network = prepare_network(topology, num_channels=channels)
        for seed in range(0, 10000, 1000):
            flow_set = build_workload(network, 30, PeriodRange(-1, 3),
                                      TrafficType.CENTRALIZED,
                                      np.random.default_rng(seed))
            result = schedule_workload(network, flow_set, "RC", 2)
            digests.append(result.schedule.canonical_hash())
    assert hashlib.sha256("\n".join(digests).encode()).hexdigest() == (
        PINNED_RC_POOL)
