"""Simulator output pinned to recorded digests.

The engine parity tests compare the batched engine with the slot oracle,
so a change that moved both engines alike would pass them.  These
digests were recorded before the batched engine's whole-chunk rewrite
and pin the output itself:

* the SHA-256 of the stats signature of an 18-repetition run of one
  fixed WUSTL RA schedule, clean and under three condition overlays;
* the SHA-256 of the canonical JSON of a quick ``repro manage`` report
  (floats rounded to 10 places), one per remediation path: barring
  victims, blacklisting a channel and escalating rho_t.

A digest mismatch means simulated outcomes changed; that is a model
change and needs its own justification, not a re-recording.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.cli import main
from repro.experiments.common import prepare_network, schedule_workload
from repro.experiments.reliability import build_reliability_flow_set
from repro.network.node import Position
from repro.simulator import (
    SimulationConfig,
    TschSimulator,
    WifiInterferer,
    run_event_batched,
    stats_signature,
)
from repro.simulator.conditions import Conditions

#: Stats-signature digests of ``run(18, start_repetition=5)`` at seed 31.
SIGNATURE_DIGESTS = {
    "clean":
        "87feabe367a88b06d4e8fafbaf46b3876f421ff9a08870b7022454140f2b7d17",
    "dark_sender":
        "afd4f473aa715aa14d2203363f3fdf7e6e96301cc79d6510d6a45ca7029a1a0c",
    "attenuation_boost":
        "569a36b389071e550a75bf04cd5ea2b373f8d245ccd316732e4673e4403b1206",
    "interferer":
        "91edbfc23c57c1dd45c43cc74bdce72a6511b2716e5812a3970a73bd0cff693a",
}

#: Digest of ``repro manage --quick --epochs 6 --policy reschedule
#: --seed 3``'s report.
MANAGE_DIGEST = (
    "ee02c44f3bfc0f907b31a81f8e72b34cc6cabdf077d6dad0f9f798b1f46aa105")

#: Digests of the same run under the two other remediation policies,
#: by ``(policy, scenario)``: two applied blacklist repairs under the
#: WiFi burst, two rho-escalation repairs under the reuse storm.
REMEDIATION_DIGESTS = {
    ("blacklist", "wifi-burst"):
        "70c600d5bc93552a89e86b3a2edae598dbace6d91b8e3173a42d269a85f6df41",
    ("escalate", "reuse-storm"):
        "27ba6dae360e9099338d5042b7f5c28b90c4afea7cc054257aac60598f60bb88",
}

SEED = 31
REPETITIONS = 18
START = 5


@pytest.fixture(scope="module")
def ra_setup(wustl):
    """One WUSTL RA schedule (30 flows, channels 11-14) with reuse."""
    topology, environment = wustl
    network = prepare_network(topology, channels=(11, 12, 13, 14))
    flow_set = build_reliability_flow_set(
        network, np.random.default_rng(20), flow_mix=((1.0, 30),))
    result = schedule_workload(network, flow_set, "RA")
    assert result.schedulable
    assert result.schedule.num_reused_cells() > 0
    return network, environment, flow_set, result.schedule


def overlays(network, schedule):
    """The pinned condition overlays, by name."""
    shared = {(slot, offset) for slot, offset, _
              in schedule.reused_cells()}
    victim = next(entry.request for entry in schedule.entries
                  if (entry.slot, entry.offset) in shared)
    num_nodes = network.topology.num_nodes
    return {
        "clean": None,
        "dark_sender": Conditions(
            dark_nodes=frozenset({schedule.entries[0].request.sender})),
        "attenuation_boost": Conditions(
            pair_attenuation_db={(victim.sender, victim.receiver): 6.0,
                                 (victim.receiver, victim.sender): 6.0},
            interference_boost_db=4.0),
        "interferer": Conditions(
            extra_interferers=(WifiInterferer(Position(0.0, 0.0, 0.0),
                                              wifi_channel=1,
                                              duty_cycle=0.5),),
            extra_interferer_rssi_dbm=np.linspace(
                -75.0, -55.0, num_nodes)[np.newaxis, :]),
    }


def simulator(setup, schedule, conditions):
    network, environment, flow_set, _ = setup
    return TschSimulator(schedule, flow_set, environment,
                         network.topology.channel_map,
                         config=SimulationConfig(seed=SEED),
                         conditions=conditions)


def digest(stats):
    return hashlib.sha256(repr(stats_signature(stats)).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SIGNATURE_DIGESTS))
def test_signature_digest(ra_setup, name):
    network, _, _, schedule = ra_setup
    conditions = overlays(network, schedule)[name]
    stats = simulator(ra_setup, schedule, conditions).run(
        REPETITIONS, start_repetition=START)
    assert digest(stats) == SIGNATURE_DIGESTS[name]


def test_tables_carry_no_conditions(ra_setup):
    """One schedule object through fresh simulators, clean -> dark ->
    clean: the per-schedule tables are shared across the three, and each
    batched run still equals the slot oracle under its own conditions."""
    network, _, _, schedule = ra_setup
    named = overlays(network, schedule)
    for name in ("clean", "dark_sender", "clean"):
        batched = run_event_batched(
            simulator(ra_setup, schedule, named[name]), REPETITIONS, START)
        oracle = simulator(ra_setup, schedule, named[name]).run_slot(
            REPETITIONS, START)
        assert stats_signature(batched) == stats_signature(oracle)
        assert digest(batched) == SIGNATURE_DIGESTS[name]


def _canonical(value):
    if isinstance(value, float):
        return round(value, 10)
    if isinstance(value, dict):
        return {key: _canonical(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_canonical(item) for item in value]
    return value


def test_manage_report_digest(tmp_path, capsys):
    out = tmp_path / "manage.json"
    assert main(["manage", "--quick", "--epochs", "6", "--policy",
                 "reschedule", "--seed", "3", "--no-ledger",
                 "--report-out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    text = json.dumps(_canonical(report), sort_keys=True,
                      separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == MANAGE_DIGEST


@pytest.mark.parametrize("policy,scenario", sorted(REMEDIATION_DIGESTS))
def test_remediation_report_digest(tmp_path, capsys, policy, scenario):
    out = tmp_path / "manage.json"
    assert main(["manage", "--quick", "--epochs", "6", "--policy", policy,
                 "--scenario", scenario, "--seed", "3", "--no-ledger",
                 "--report-out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    text = json.dumps(_canonical(report), sort_keys=True,
                      separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        REMEDIATION_DIGESTS[policy, scenario]
