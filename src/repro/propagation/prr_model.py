"""SINR → packet reception ratio for IEEE 802.15.4 (CC2420-class) radios.

We use the standard analytical model for the 2.4 GHz O-QPSK PHY with DSSS
(as used in TOSSIM and the Zuniga-Krishnamachari link-layer study): the
chip-level SINR determines a symbol error probability, which yields a bit
error rate and finally the probability that an entire frame (plus its ACK)
is received intact.

The curve has the characteristic sharp transition region: below ~ -1 dB
SINR almost nothing gets through, above ~ 4 dB almost everything does.
This is exactly the *capture effect* the paper relies on — a concurrent
transmission only destroys a packet when it pushes the SINR into or below
the transition region.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

#: Default 802.15.4 data frame size in bytes (max PSDU is 127 + overhead).
DEFAULT_FRAME_BYTES = 60

#: ACK frame size in bytes.
ACK_FRAME_BYTES = 11


#: The BER series' terms ``((-1)^k C(16, k), 1/k - 1)`` for k = 2..16.
_BER_TERMS = tuple((((-1) ** k) * math.comb(16, k), 1.0 / k - 1.0)
                   for k in range(2, 17))


def bit_error_rate(sinr_db: float) -> float:
    """Bit error rate of the 802.15.4 2.4 GHz PHY at a given SINR.

    Uses the non-coherent 16-ary orthogonal demodulation approximation::

        BER = (8/15) * (1/16) * sum_{k=2}^{16} (-1)^k C(16,k) exp(20*SINR*(1/k - 1))

    with SINR in linear scale.
    """
    sinr_linear = 10.0 ** (sinr_db / 10.0)
    total = 0.0
    for coefficient, exponent in _BER_TERMS:
        total += coefficient * math.exp(20.0 * sinr_linear * exponent)
    ber = (8.0 / 15.0) * (1.0 / 16.0) * total
    return min(max(ber, 0.0), 1.0)


def frame_success_probability(sinr_db: float,
                              frame_bytes: int = DEFAULT_FRAME_BYTES) -> float:
    """Probability that a frame of the given size is received intact."""
    if frame_bytes <= 0:
        raise ValueError("frame_bytes must be positive")
    ber = bit_error_rate(sinr_db)
    return (1.0 - ber) ** (8 * frame_bytes)


def prr(sinr_db: float, frame_bytes: int = DEFAULT_FRAME_BYTES,
        include_ack: bool = True) -> float:
    """Packet reception ratio: data frame and (optionally) its ACK succeed.

    WirelessHART counts a transmission as successful only when the ACK is
    received, so by default the ACK's success probability (computed at the
    same SINR, a reasonable symmetry assumption for short ACKs) is folded
    in.
    """
    probability = frame_success_probability(sinr_db, frame_bytes)
    if include_ack:
        probability *= frame_success_probability(sinr_db, ACK_FRAME_BYTES)
    return probability


def prr_curve(sinr_db_values, frame_bytes: int = DEFAULT_FRAME_BYTES,
              include_ack: bool = True) -> np.ndarray:
    """Vectorized :func:`prr` over an array of SINR values."""
    return np.array([prr(float(s), frame_bytes, include_ack)
                     for s in np.asarray(sinr_db_values, dtype=float)])


class PrrCurve:
    """Tabulated, optionally smoothed SINR (dB) → PRR mapping.

    The analytic 802.15.4 curve has a transition region barely 1 dB wide.
    Measured link curves (the CC2420 "grey region") are far wider because
    noise-floor variation, frame-to-frame channel dynamics, and hardware
    differences blur the cliff.  We model this by convolving the analytic
    curve with a Gaussian in the SINR domain — the result is the *expected*
    PRR at a nominal SINR, marginalized over those unmodeled variations.

    The same curve instance must be used for testbed synthesis and for
    the simulator's reception draws so that "measured" PRRs and run-time
    behaviour agree.

    Args:
        frame_bytes: Data frame size.
        smoothing_sigma_db: Grey-region width (0 disables smoothing).
        lo_db / hi_db / step_db: Tabulation grid.
    """

    def __init__(self, frame_bytes: int = DEFAULT_FRAME_BYTES,
                 smoothing_sigma_db: float = 2.5,
                 lo_db: float = -30.0, hi_db: float = 30.0,
                 step_db: float = 0.05):
        if smoothing_sigma_db < 0:
            raise ValueError("smoothing_sigma_db must be non-negative")
        if hi_db <= lo_db:
            raise ValueError("hi_db must exceed lo_db")
        self.frame_bytes = frame_bytes
        self.smoothing_sigma_db = smoothing_sigma_db
        self._grid = np.arange(lo_db, hi_db + step_db, step_db)
        if frame_bytes <= 0:
            raise ValueError("frame_bytes must be positive")
        # prr() at each point, one BER shared by the frame and its ACK;
        # every float operation keeps prr()'s order (bit-identical).
        bers = [bit_error_rate(sinr_db) for sinr_db in self._grid.tolist()]
        values = np.array([(1.0 - ber) ** (8 * frame_bytes)
                           * (1.0 - ber) ** (8 * ACK_FRAME_BYTES)
                           for ber in bers])
        if smoothing_sigma_db > 0.0:
            values = _gaussian_smooth(values, smoothing_sigma_db / step_db)
        self._values = values

    def __call__(self, sinr_db: float) -> float:
        """Expected PRR at one SINR value."""
        return float(np.interp(sinr_db, self._grid, self._values,
                               left=self._values[0], right=self._values[-1]))

    def many(self, sinr_db) -> np.ndarray:
        """Vectorized evaluation."""
        return np.interp(np.asarray(sinr_db, dtype=float),
                         self._grid, self._values,
                         left=self._values[0], right=self._values[-1])

def _gaussian_smooth(values: np.ndarray, sigma_steps: float) -> np.ndarray:
    """Convolve with a normalized Gaussian kernel (edge-replicated)."""
    half = int(math.ceil(4.0 * sigma_steps))
    offsets = np.arange(-half, half + 1)
    kernel = np.exp(-0.5 * (offsets / sigma_steps) ** 2)
    kernel /= kernel.sum()
    padded = np.concatenate([
        np.full(half, values[0]), values, np.full(half, values[-1])])
    return np.convolve(padded, kernel, mode="valid")


@lru_cache(maxsize=32)
def get_prr_curve(frame_bytes: int = DEFAULT_FRAME_BYTES,
                  smoothing_sigma_db: float = 2.5) -> PrrCurve:
    """Shared, cached :class:`PrrCurve` instances."""
    return PrrCurve(frame_bytes=frame_bytes,
                    smoothing_sigma_db=smoothing_sigma_db)

