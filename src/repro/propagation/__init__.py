"""RF propagation substrate: path loss, shadowing, SINR→PRR."""

from repro.propagation.pathloss import (
    DEFAULT_NOISE_FLOOR_DBM,
    DEFAULT_TX_POWER_DBM,
    LogDistancePathLoss,
    dbm_to_mw,
    mw_to_dbm,
    sinr_db,
)
from repro.propagation.prr_model import (
    ACK_FRAME_BYTES,
    DEFAULT_FRAME_BYTES,
    PrrCurve,
    bit_error_rate,
    frame_success_probability,
    get_prr_curve,
    prr,
    prr_curve,
)

__all__ = [
    "ACK_FRAME_BYTES",
    "PrrCurve",
    "get_prr_curve",
    "DEFAULT_FRAME_BYTES",
    "DEFAULT_NOISE_FLOOR_DBM",
    "DEFAULT_TX_POWER_DBM",
    "LogDistancePathLoss",
    "bit_error_rate",
    "dbm_to_mw",
    "frame_success_probability",
    "mw_to_dbm",
    "prr",
    "prr_curve",
    "sinr_db",
]
