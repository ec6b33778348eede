"""RA — aggressive channel reuse baseline.

RA schedules each transmission at the earliest slot that has *any*
channel offset satisfying the reuse constraint at hop count ρ_t,
reusing channels whenever the hop-based interference model permits —
the behaviour of traditional spatial-reuse TDMA schedulers and of TASA
(paper Section VII: "a channel is reused whenever possible").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.core.schedule import Schedule
from repro.core.scheduler import OFFSET_FIRST, find_slot
from repro.core.transmissions import TransmissionRequest
from repro.flows.flow import Flow
from repro.network.graphs import ChannelReuseGraph
from repro.obs import recorder as _obs

#: Reuse hop-count threshold used for both RA and RC in the paper's
#: evaluation (a fair comparison requires the same floor).
DEFAULT_RHO_T = 2


@dataclass
class AggressiveReusePolicy:
    """Earliest slot, first offset feasible at the fixed hop count ρ_t.

    Attributes:
        rho_t: The (only) reuse hop count RA ever checks.
    """

    rho_t: int = DEFAULT_RHO_T
    name: str = "RA"

    def __post_init__(self) -> None:
        if self.rho_t < 1:
            raise ValueError("rho_t must be at least 1")

    def start_flow(self, flow: Flow) -> None:
        """No per-flow state."""

    def provenance_context(self) -> dict:
        """Static policy parameters stamped onto decision records."""
        return {"rho": self.rho_t, "offset_rule": OFFSET_FIRST}

    def place(self, schedule: Schedule, reuse_graph: ChannelReuseGraph,
              request: TransmissionRequest, earliest: int,
              remaining: Sequence[TransmissionRequest],
              ) -> Optional[Tuple[int, int]]:
        """Earliest slot with any offset feasible at ρ_t; lowest offset."""
        if _obs.ENABLED:
            _obs.RECORDER.count("policy.RA.place_calls")
        return find_slot(schedule, reuse_graph, request, self.rho_t,
                         earliest, OFFSET_FIRST)
