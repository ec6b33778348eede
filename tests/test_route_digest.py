"""Routes pinned to recorded digests.

Every schedule the benchmarks and the service compile is placed on the
routes that ``build_workload`` assigns, so a routing change that kept
every route valid and shortest but picked a different tie would move
every placement downstream.  These digests pin the routes themselves:

* the Fig 1 sweep pool: Indriya, centralized traffic, 30 flows, periods
  2^-1..2^3 s, channels 3/4/5/8, flow-set seeds 0, 1000, ..., 9000;
* the service fleet: Indriya (topology seed 7), peer-to-peer traffic,
  30 flows on 5 channels, workload seeds 1000..1031.

A digest mismatch means some flow's route changed; that is a routing
change and needs its own justification, not a re-recording.
"""

import hashlib
import json

import numpy as np

from repro.experiments.common import build_workload, prepare_network
from repro.flows.generator import PeriodRange
from repro.routing.traffic import TrafficType
from repro.service.executor import build_flow_set
from repro.service.protocol import NetworkConfig

SWEEP_DIGEST = (
    "fd3703cf727a64d700c88f04ec688a7e5d4abd159c2011989875092213d8c07a")
FLEET_DIGEST = (
    "b1991d1d730aad84af59bf5f53b22f3afc1ffefe0f3030539ffd04d165f0dfd6")


def _digest(flow_sets):
    rows = [[[flow.flow_id, list(flow.route), flow.wire_after]
             for flow in flow_set] for flow_set in flow_sets]
    text = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_sweep_pool_routes(indriya):
    topology, _ = indriya
    flow_sets = []
    for channels in (3, 4, 5, 8):
        network = prepare_network(topology, num_channels=channels)
        for seed in range(0, 10_000, 1000):
            flow_sets.append(build_workload(
                network, 30, PeriodRange(-1, 3), TrafficType.CENTRALIZED,
                np.random.default_rng(seed)))
    assert _digest(flow_sets) == SWEEP_DIGEST


def test_fleet_routes(indriya):
    topology, _ = indriya
    network = prepare_network(topology, num_channels=5)
    flow_sets = [build_flow_set(
        NetworkConfig(testbed="indriya", seed=7, channels=5, flows=30,
                      traffic="p2p", workload_seed=1000 + index), network)
        for index in range(32)]
    assert _digest(flow_sets) == FLEET_DIGEST
