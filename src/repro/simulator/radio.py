"""Ground-truth reception model for the slot simulator.

While the *scheduler* reasons with the hop-based interference model, the
simulated radio decides packet reception from SINR — received signal power
against noise plus the cumulative power of all concurrent same-channel
transmitters and any active external interferers — exactly the mismatch
the paper's reliability experiments (Figs. 8-11) probe.

A precomputed lookup table makes the SINR→PRR curve cheap to evaluate in
the per-slot hot loop.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.propagation.pathloss import dbm_to_mw
from repro.propagation.prr_model import PrrCurve

#: The lookup used by the simulator is the (optionally grey-region
#: smoothed) propagation curve; the alias is kept because the simulator's
#: callers think of it as a lookup table.
PrrLookup = PrrCurve


def sinr_at_receiver(signal_dbm: float, noise_dbm: float,
                     interference_dbm: Sequence[float]) -> float:
    """SINR in dB with interference summed in the linear domain."""
    noise_mw = float(dbm_to_mw(noise_dbm))
    total_interference_mw = 0.0
    for power in interference_dbm:
        total_interference_mw += float(dbm_to_mw(power))
    signal_mw = float(dbm_to_mw(signal_dbm))
    denominator = noise_mw + total_interference_mw
    if signal_mw <= 0.0:
        return float("-inf")
    return 10.0 * float(np.log10(signal_mw / denominator))
