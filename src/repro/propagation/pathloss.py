"""Indoor radio propagation: log-distance path loss with floor attenuation.

The synthetic testbeds (:mod:`repro.testbeds`) and the simulator's
SINR-based reception model (:mod:`repro.simulator.radio`) share this
substrate.  We use the classic log-distance model with a floor-attenuation
factor, which is the standard model for multi-floor office deployments
such as Indriya and the WUSTL testbed:

    PL(d) = PL(d0) + 10 * n * log10(d / d0) + FAF * floors + X

where ``n`` is the path-loss exponent, ``FAF`` the per-floor attenuation,
and ``X`` a log-normal shadowing term.  Shadowing is split into a static
per-link component (captured once when a testbed is synthesized, so graphs
are reproducible) and a fast per-slot fading component drawn by the
simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Thermal noise floor of a CC2420-class 802.15.4 receiver, in dBm.
DEFAULT_NOISE_FLOOR_DBM = -98.0

#: Default transmission power used in the paper's experiments, in dBm.
DEFAULT_TX_POWER_DBM = 0.0


@dataclass(frozen=True)
class LogDistancePathLoss:
    """Log-distance path loss with per-floor attenuation.

    Attributes:
        pl_d0_db: Path loss at the reference distance, in dB.
        exponent: Path-loss exponent ``n`` (2.0 free space; ~3 indoors).
        reference_distance_m: Reference distance ``d0`` in meters.
        floor_attenuation_db: Extra loss per floor crossed (FAF).
        shadowing_sigma_db: Standard deviation of log-normal shadowing.
    """

    pl_d0_db: float = 40.0
    exponent: float = 3.0
    reference_distance_m: float = 1.0
    floor_attenuation_db: float = 15.0
    shadowing_sigma_db: float = 4.0

    def __post_init__(self) -> None:
        if self.exponent <= 0:
            raise ValueError("path-loss exponent must be positive")
        if self.reference_distance_m <= 0:
            raise ValueError("reference distance must be positive")
        if self.shadowing_sigma_db < 0:
            raise ValueError("shadowing sigma must be non-negative")

    def path_loss_db(self, distance_m: float, floors_crossed: int = 0,
                     shadowing_db: float = 0.0) -> float:
        """Total path loss in dB over a link.

        Args:
            distance_m: 3-D distance between sender and receiver.
            floors_crossed: Number of building floors between them.
            shadowing_db: A pre-drawn shadowing realization in dB.
        """
        if distance_m < 0:
            raise ValueError("distance must be non-negative")
        effective = max(distance_m, self.reference_distance_m)
        return (self.pl_d0_db
                + 10.0 * self.exponent
                * math.log10(effective / self.reference_distance_m)
                + self.floor_attenuation_db * abs(floors_crossed)
                + shadowing_db)

    def draw_shadowing(self, rng: np.random.Generator,
                       shape=None) -> np.ndarray:
        """Draw log-normal shadowing realizations (in dB)."""
        return rng.normal(0.0, self.shadowing_sigma_db, size=shape)


def dbm_to_mw(dbm) -> np.ndarray:
    """Convert power in dBm to milliwatts (vectorized)."""
    return np.power(10.0, np.asarray(dbm, dtype=float) / 10.0)


def mw_to_dbm(mw) -> np.ndarray:
    """Convert power in milliwatts to dBm (vectorized).

    Zero (or negative) power maps to -inf dBm.
    """
    mw = np.asarray(mw, dtype=float)
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(np.where(mw > 0.0, mw, 0.0))


def sinr_db(signal_dbm: float, noise_dbm: float,
            interference_dbm_list=()) -> float:
    """Signal-to-interference-plus-noise ratio in dB.

    Interference powers add in the linear (mW) domain — the "cumulative
    interference" effect the paper cites as the reason to limit the number
    of concurrent transmissions per channel.
    """
    noise_mw = float(dbm_to_mw(noise_dbm))
    interference_mw = float(np.sum(dbm_to_mw(list(interference_dbm_list)))) \
        if len(list(interference_dbm_list)) else 0.0
    signal_mw = float(dbm_to_mw(signal_dbm))
    return float(mw_to_dbm(signal_mw / (noise_mw + interference_mw)))
