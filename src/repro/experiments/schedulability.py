"""Schedulable-ratio sweeps (paper Figures 1, 2, 3) and timing (Figure 6).

A sweep varies either the number of channels or the number of flows,
generates ``num_flow_sets`` random workloads per point, schedules each
with NR, RA, and RC, and reports the fraction of schedulable flow sets
per policy, plus the reuse statistics (Figures 4, 5) and execution times
(Figure 6) harvested from the same runs.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.metrics import (
    reuse_hop_distribution,
    schedulable_ratio,
    tx_per_cell_distribution,
)
from repro.core.ra import DEFAULT_RHO_T
from repro.experiments.common import (
    POLICY_NAMES,
    build_workload,
    schedule_workload,
)
from repro.experiments.parallel import parallel_map, trial_network
from repro.flows.generator import PeriodRange
from repro.network.topology import Topology
from repro.routing.shortest_path import NoRouteError
from repro.routing.traffic import TrafficType


@dataclass
class TrialOutcome:
    """One (sweep point, flow set, policy) scheduling run.

    Histograms are only populated for schedulable runs (the paper's reuse
    statistics come from complete schedules).
    """

    x: int
    set_index: int
    policy: str
    schedulable: bool
    elapsed_s: float
    tx_hist: Dict[int, int] = field(default_factory=dict)
    hop_hist: Dict[int, int] = field(default_factory=dict)


@dataclass
class SweepResult:
    """All trial outcomes of one sweep, with aggregation helpers."""

    vary: str
    values: List[int]
    policies: Tuple[str, ...]
    outcomes: List[TrialOutcome]

    def schedulable_ratios(self) -> Dict[str, Dict[int, float]]:
        """``{policy: {x: fraction of schedulable flow sets}}``."""
        points: Dict[Tuple[str, int], List[TrialOutcome]] = defaultdict(list)
        for outcome in self.outcomes:
            points[(outcome.policy, outcome.x)].append(outcome)
        ratios: Dict[str, Dict[int, float]] = {p: {} for p in self.policies}
        for (policy, x), outcomes in points.items():
            ratios[policy][x] = schedulable_ratio(outcomes)
        return ratios

    def mean_times_ms(self) -> Dict[str, Dict[int, float]]:
        """Mean scheduler execution time in milliseconds per point."""
        sums: Dict[Tuple[str, int], float] = defaultdict(float)
        counts: Dict[Tuple[str, int], int] = defaultdict(int)
        for outcome in self.outcomes:
            key = (outcome.policy, outcome.x)
            sums[key] += outcome.elapsed_s
            counts[key] += 1
        times: Dict[str, Dict[int, float]] = {p: {} for p in self.policies}
        for (policy, x), total in sums.items():
            times[policy][x] = 1000.0 * total / counts[(policy, x)]
        return times

    def tx_per_cell_fractions(self, policy: str,
                              x: Optional[int] = None) -> Dict[int, float]:
        """Pooled Tx/channel histogram (fractions) for a policy (Fig. 4)."""
        return self._pooled_fractions("tx_hist", policy, x)

    def reuse_hop_fractions(self, policy: str,
                            x: Optional[int] = None) -> Dict[int, float]:
        """Pooled reuse hop-count histogram (fractions) (Fig. 5)."""
        return self._pooled_fractions("hop_hist", policy, x)

    def _pooled_fractions(self, histogram: str, policy: str,
                          x: Optional[int]) -> Dict[int, float]:
        """One histogram field pooled over a policy's outcomes (at one
        point, or all), as fractions with ascending keys."""
        total: Counter = Counter()
        for outcome in self.outcomes:
            if outcome.policy == policy and (x is None or outcome.x == x):
                total.update(getattr(outcome, histogram))
        count = sum(total.values())
        if count == 0:
            return {}
        return {k: v / count for k, v in sorted(total.items())}


def _sweep_trial(context: dict, task: Tuple[int, int]) -> List[TrialOutcome]:
    """One (sweep point, flow set) trial: workload + every policy.

    All randomness derives from ``seed + set_index``, so trials are
    independent of execution order and worker placement (see
    :mod:`repro.experiments.parallel`).
    """
    x, set_index = task
    vary = context["vary"]
    num_channels = x if vary == "channels" else context["fixed_channels"]
    num_flows = x if vary == "flows" else context["fixed_flows"]
    network = trial_network(context, num_channels=num_channels)
    policies = context["policies"]
    rng = np.random.default_rng(context["seed"] + set_index)
    try:
        flow_set = build_workload(network, num_flows,
                                  context["period_range"],
                                  context["traffic"], rng)
    except NoRouteError:
        # The restricted graph cannot carry this workload at all;
        # count it against every policy equally.
        return [TrialOutcome(x=x, set_index=set_index, policy=policy,
                             schedulable=False, elapsed_s=0.0)
                for policy in policies]
    outcomes: List[TrialOutcome] = []
    for policy in policies:
        result = schedule_workload(network, flow_set, policy,
                                   context["rho_t"])
        outcome = TrialOutcome(
            x=x, set_index=set_index, policy=policy,
            schedulable=result.schedulable,
            elapsed_s=result.elapsed_s)
        if result.schedulable and context["collect_histograms"]:
            outcome.tx_hist = tx_per_cell_distribution(result.schedule)
            outcome.hop_hist = reuse_hop_distribution(
                result.schedule, network.reuse)
        outcomes.append(outcome)
    return outcomes


def run_sweep(topology: Topology, traffic: TrafficType, vary: str,
              values: Sequence[int], *, fixed_channels: int = 5,
              fixed_flows: int = 30,
              period_range: PeriodRange = PeriodRange(0, 4),
              num_flow_sets: int = 100, seed: int = 0,
              policies: Sequence[str] = POLICY_NAMES,
              rho_t: int = DEFAULT_RHO_T,
              collect_histograms: bool = True,
              workers: int = 1) -> SweepResult:
    """Run one schedulable-ratio sweep.

    Args:
        topology: Full testbed topology (all 16 channels).
        traffic: Centralized or peer-to-peer routing.
        vary: ``"channels"`` or ``"flows"`` — the swept dimension.
        values: Sweep points (channel counts or flow counts).
        fixed_channels: Channel count when varying flows.
        fixed_flows: Flow count when varying channels.
        period_range: Harmonic period range of the workloads.
        num_flow_sets: Random flow sets per sweep point (100 in paper).
        seed: Base seed; flow set k at every sweep point uses seed+k so
            points are compared on matched workload randomness.
        policies: Which schedulers to run.
        rho_t: Reuse hop-count floor for RA and RC.
        collect_histograms: Harvest Tx/channel and reuse-hop histograms
            from schedulable runs (Figures 4-5).
        workers: Worker processes to fan the (sweep point, flow set)
            trials over (``0`` = all CPUs).  Results are identical for
            any worker count.

    Returns:
        A :class:`SweepResult`.
    """
    if vary not in ("channels", "flows"):
        raise ValueError("vary must be 'channels' or 'flows'")

    context = {
        "topology": topology, "traffic": traffic, "vary": vary,
        "fixed_channels": fixed_channels, "fixed_flows": fixed_flows,
        "period_range": period_range, "seed": seed,
        "policies": tuple(policies), "rho_t": rho_t,
        "collect_histograms": collect_histograms,
    }
    tasks = [(x, set_index) for x in values
             for set_index in range(num_flow_sets)]
    batches = parallel_map(_sweep_trial, tasks, workers=workers,
                           context=context)
    outcomes = [outcome for batch in batches for outcome in batch]
    return SweepResult(vary=vary, values=list(values),
                       policies=tuple(policies), outcomes=outcomes)
