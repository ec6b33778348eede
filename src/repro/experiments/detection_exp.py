"""Detection-policy experiments (paper Figures 10 and 11).

Fifty peer-to-peer flows with a 1 s period run on 4 channels (11-14).
Schedules from RA and RC are executed for six 18-repetition epochs,
first in a clean RF environment and then with WiFi interferers (one per
floor, WiFi channel 1) injecting external interference.  The detection
policy then classifies every reuse-involved link whose reuse-slot PRR
falls below PRR_t as *reject* (reuse-degraded) or *accept* (degraded by
something else).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.core.ra import DEFAULT_RHO_T
from repro.detection.classifier import (
    DetectionConfig,
    LinkDiagnosis,
    Verdict,
    diagnose_epoch,
    rejected_links_per_epoch,
)
from repro.detection.health import (
    EpochReport,
    SAMPLES_PER_EPOCH,
    build_epoch_reports,
)
from repro.experiments.common import (
    PreparedNetwork,
    prepare_network,
    schedule_workload,
)
from repro.experiments.parallel import parallel_map
from repro.experiments.reliability import RELIABILITY_CHANNELS
from repro.flows.flow import FlowSet
from repro.flows.generator import generate_fixed_period_flow_set
from repro.network.topology import Topology
from repro.propagation.pathloss import LogDistancePathLoss
from repro.routing.traffic import TrafficType, assign_routes
from repro.simulator.conditions import Conditions
from repro.simulator.engine import SimulationConfig, TschSimulator
from repro.simulator.interference import (
    interferer_rssi_matrix,
    place_interferer_pairs,
)
from repro.simulator.stats import Link
from repro.testbeds.layout import FloorPlan
from repro.testbeds.synth import RadioEnvironment


@dataclass
class DetectionOutcome:
    """Detection-experiment results for one (policy, condition) pair.

    Attributes:
        policy: "RA" or "RC".
        condition: "clean" or "wifi".
        schedulable: Whether the schedule was produced at all.
        reuse_links: Links involved in channel reuse in the schedule.
        epoch_reports: Health reports per epoch.
        diagnoses: Per-epoch diagnoses of reuse-involved links.
        rejected_per_epoch: Links the policy flags as reuse-degraded.
        low_prr_links: Links under PRR_t (reuse slots) in any epoch.
    """

    policy: str
    condition: str
    schedulable: bool
    reuse_links: List[Link] = field(default_factory=list)
    epoch_reports: List[EpochReport] = field(default_factory=list)
    diagnoses: Dict[int, List[LinkDiagnosis]] = field(default_factory=dict)
    rejected_per_epoch: Dict[int, List[Link]] = field(default_factory=dict)
    low_prr_links: List[Link] = field(default_factory=list)

    def rejected_links(self) -> List[Link]:
        """Union of rejected links over all epochs."""
        links = set()
        for rejected in self.rejected_per_epoch.values():
            links.update(rejected)
        return sorted(links)

    def accepted_links(self) -> List[Link]:
        """Links classified as degraded-by-other-causes in any epoch."""
        links = set()
        for diagnoses in self.diagnoses.values():
            links.update(d.link for d in diagnoses
                         if d.verdict is Verdict.ACCEPT)
        return sorted(links)


def build_detection_flow_set(network: PreparedNetwork,
                             rng: np.random.Generator,
                             num_flows: int = 50) -> FlowSet:
    """The paper's detection workload: N p2p flows, 1 s period.

    Deadlines are drawn from ``[P/2, P]`` (the paper's general workload
    convention); the tighter deadlines are what push RC into introducing
    a small amount of channel reuse, matching the paper's observation of
    20 reuse-involved links under RC versus 95 under RA.
    """
    flow_set, access_points = generate_fixed_period_flow_set(
        network.communication, ((1.0, num_flows),), rng,
        access_points=network.access_points, deadline_equals_period=False)
    ordered = flow_set.deadline_monotonic()
    return assign_routes(ordered, network.communication,
                         TrafficType.PEER_TO_PEER, access_points)


def _detection_trial(context: dict, policy: str) -> List[DetectionOutcome]:
    """One detection policy: schedule once, simulate every condition.

    The flow set, interferer placement, and simulation seeds are all in
    the context, so trials are independent of execution order (see
    :mod:`repro.experiments.parallel`).
    """
    network: PreparedNetwork = context["network"]
    flow_set = context["flow_set"]
    config: DetectionConfig = context["config"]
    seed = context["seed"]
    repetitions_per_epoch = context["repetitions_per_epoch"]
    total_repetitions = context["num_epochs"] * repetitions_per_epoch
    result = schedule_workload(network, flow_set, policy, context["rho_t"])
    outcomes: List[DetectionOutcome] = []
    for condition in context["conditions"]:
        if not result.schedulable:
            outcomes.append(DetectionOutcome(
                policy=policy, condition=condition, schedulable=False))
            continue
        use_wifi = condition == "wifi"
        simulator = TschSimulator(
            schedule=result.schedule, flow_set=flow_set,
            environment=context["environment"],
            channel_map=network.topology.channel_map,
            config=SimulationConfig(seed=seed + 2000),
            conditions=context["wifi"] if use_wifi else None)
        stats = simulator.run(total_repetitions)
        reports = build_epoch_reports(stats, repetitions_per_epoch)

        outcome = DetectionOutcome(
            policy=policy, condition=condition, schedulable=True,
            reuse_links=result.schedule.reuse_links(),
            epoch_reports=reports)
        low_prr = set()
        for report in reports:
            diagnoses = diagnose_epoch(report, config)
            outcome.diagnoses[report.epoch] = diagnoses
            low_prr.update(
                d.link for d in diagnoses
                if d.verdict in (Verdict.REJECT, Verdict.ACCEPT))
        outcome.rejected_per_epoch = rejected_links_per_epoch(
            outcome.diagnoses)
        outcome.low_prr_links = sorted(low_prr)
        outcomes.append(outcome)
    return outcomes


def run_detection(topology: Topology, environment: RadioEnvironment,
                  plan: FloorPlan, *, num_flows: int = 80,
                  num_epochs: int = 6,
                  repetitions_per_epoch: int = SAMPLES_PER_EPOCH,
                  channels: Sequence[int] = RELIABILITY_CHANNELS,
                  policies: Sequence[str] = ("RA", "RC"),
                  conditions: Sequence[str] = ("clean", "wifi"),
                  config: DetectionConfig = DetectionConfig(),
                  rho_t: int = DEFAULT_RHO_T,
                  seed: int = 0, workers: int = 1,
                  ) -> List[DetectionOutcome]:
    """Run the Figure 10/11 experiment.

    Args:
        topology: Full WUSTL-like topology.
        environment: Its ground-truth RF environment.
        plan: Building plan (interferer placement).
        num_flows: Peer-to-peer flows.  The paper uses 50 on a testbed
            whose routes are roughly twice as long as our synthetic
            WUSTL's; 80 flows applies equivalent scheduling pressure
            (matching the paper's reuse-link counts: ~137 vs the paper's
            95 for RA, ~23 vs 20 for RC).
        num_epochs: Health-report epochs (6 in the paper).
        repetitions_per_epoch: Schedule executions per epoch (18).
        channels: Physical channels in use (11-14).
        policies: Schedulers whose schedules are analyzed (RA and RC).
        conditions: "clean" and/or "wifi".
        config: Detection-policy parameters (α = 0.05, PRR_t = 0.9).
        rho_t: Reuse hop floor.
        seed: Base seed.
        workers: Worker processes to fan the per-policy trials over
            (``0`` = all CPUs).  Results are identical for any count.

    Returns:
        One :class:`DetectionOutcome` per (policy, condition).
    """
    network = prepare_network(topology, channels=channels)
    rng = np.random.default_rng(seed)
    flow_set = build_detection_flow_set(network, rng, num_flows)

    interferers = place_interferer_pairs(plan)
    wifi = Conditions(
        extra_interferers=tuple(interferers),
        extra_interferer_rssi_dbm=interferer_rssi_matrix(
            interferers, environment.positions, plan,
            LogDistancePathLoss(), np.random.default_rng(seed + 1)))

    context = {
        "network": network, "environment": environment,
        "flow_set": flow_set, "wifi": wifi,
        "conditions": tuple(conditions), "config": config,
        "rho_t": rho_t, "seed": seed, "num_epochs": num_epochs,
        "repetitions_per_epoch": repetitions_per_epoch,
    }
    batches = parallel_map(_detection_trial, list(policies),
                           workers=workers, context=context)
    return [outcome for batch in batches for outcome in batch]
