"""NR — the WirelessHART standard policy: no channel reuse.

Each (slot, channel offset) cell holds at most one transmission, so a
slot accommodates at most ``|M|`` concurrent transmissions.  This is the
paper's first baseline (DM + no reuse).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.core.constraints import NO_REUSE
from repro.core.schedule import Schedule
from repro.core.scheduler import OFFSET_FIRST, find_slot
from repro.core.transmissions import TransmissionRequest
from repro.flows.flow import Flow
from repro.network.graphs import ChannelReuseGraph
from repro.obs import recorder as _obs


class NoReusePolicy:
    """Earliest slot, exclusive channel (WirelessHART default)."""

    name = "NR"

    def start_flow(self, flow: Flow) -> None:
        """No per-flow state."""

    def provenance_context(self) -> dict:
        """Static policy parameters stamped onto decision records."""
        return {"rho": None, "offset_rule": OFFSET_FIRST}

    def place(self, schedule: Schedule, reuse_graph: ChannelReuseGraph,
              request: TransmissionRequest, earliest: int,
              remaining: Sequence[TransmissionRequest],
              ) -> Optional[Tuple[int, int]]:
        """Earliest conflict-free slot with an unused channel offset."""
        if _obs.ENABLED:
            _obs.RECORDER.count("policy.NR.place_calls")
        return find_slot(schedule, reuse_graph, request, NO_REUSE,
                         earliest, OFFSET_FIRST)
