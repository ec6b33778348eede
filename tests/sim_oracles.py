"""Reference readers for the radio model and the simulator's counts.

The simulator decides every reception in bulk from one pinned draw plan
and keeps per-repetition count matrices.  This module holds the
one-at-a-time forms the tests compare them with: a single reception
draw from SINR, the SINR at which a PRR curve reaches a target, and a
link's per-repetition PRR samples.  Nothing in the library calls it.
"""

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.propagation.prr_model import PrrCurve
from repro.simulator.radio import sinr_at_receiver
from repro.simulator.stats import SimulationStats


@dataclass(frozen=True)
class ReceptionDecision:
    """Outcome of one reception attempt."""

    success: bool
    sinr_db: float
    success_probability: float


def decide_reception(signal_dbm: float, noise_dbm: float,
                     interference_dbm: Sequence[float],
                     lookup: PrrCurve,
                     rng: np.random.Generator) -> ReceptionDecision:
    """Draw the success of one reception attempt.

    The capture effect falls out naturally: if the intended signal is
    strong enough relative to the interferers (SINR above the transition
    region), the packet survives concurrent transmissions.
    """
    sinr = sinr_at_receiver(signal_dbm, noise_dbm, interference_dbm)
    probability = lookup(sinr)
    return ReceptionDecision(
        success=bool(rng.random() < probability),
        sinr_db=sinr,
        success_probability=probability,
    )


def sinr_reaching(curve: PrrCurve, target_prr: float) -> float:
    """The first grid SINR (dB) at which the curve reaches the target."""
    index = int(np.searchsorted(curve._values, target_prr))
    return float(curve._grid[min(index, len(curve._grid) - 1)])


def link_prr_samples(stats: SimulationStats, link: Tuple[int, int],
                     shared_cell: bool,
                     repetition_range: Optional[Tuple[int, int]] = None,
                     ) -> List[float]:
    """Per-repetition PRR samples of a link in one cell category: one
    value per repetition (of the window) in which it made an attempt."""
    return [successes / attempts for attempts, successes
            in stats._link_counts(link, shared_cell, repetition_range)
            if attempts]
