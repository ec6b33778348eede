"""TSCH network simulator with SINR-based reception.

Two engines share one pinned random-draw plan and produce bit-identical
statistics: the slot-driven oracle (:meth:`TschSimulator.run_slot`) and
the batched engine (:func:`run_event_batched`), which runs all
Monte-Carlo repetitions in whole-chunk numpy passes over per-schedule
index tables and keeps only the progress-dependent step in its
per-slot loop.  :meth:`TschSimulator.run` is the batched engine; the
oracle stays for tests, the fuzzer and ``repro bench``.  Both return a
:class:`SimulationStats`: per-flow totals plus per-repetition count
matrices over ``(link, shared_cell)`` and channel columns, the one
store every reader down to the detector works on.
:func:`stats_signature` is the one comparator for their output.
"""

from repro.simulator.engine import SimulationConfig, TschSimulator
from repro.simulator.events import (
    DrawPlan,
    build_draw_plan,
    repetition_draws,
    run_event_batched,
)
from repro.simulator.interference import (
    WIFI_INBAND_FRACTION_DB,
    WifiInterferer,
    interferer_rssi_matrix,
    place_interferer_pairs,
)
from repro.simulator.radio import (
    PrrLookup,
    sinr_at_receiver,
)
from repro.simulator.stats import SimulationStats, stats_signature

__all__ = [
    "DrawPlan",
    "PrrLookup",
    "SimulationConfig",
    "SimulationStats",
    "TschSimulator",
    "WIFI_INBAND_FRACTION_DB",
    "WifiInterferer",
    "build_draw_plan",
    "interferer_rssi_matrix",
    "place_interferer_pairs",
    "repetition_draws",
    "run_event_batched",
    "sinr_at_receiver",
    "stats_signature",
]
