"""Expansion of flow instances into schedulable transmission requests.

Under source routing (paper Section VII), each wireless link on a route
gets a dedicated retransmission slot: a hop expands to two transmission
*attempts*, both of which the scheduler must place in dedicated cells.
Attempts are strictly ordered — attempt 1 of hop ``h`` after attempt 0 of
hop ``h``, and hop ``h+1`` after both attempts of hop ``h`` — because in
the worst case the packet only reaches the next relay in the
retransmission slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, List, Sequence

from repro.flows.flow import FlowInstance

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.laxity import LaxityTable
    from repro.core.schedule import Schedule

#: Transmission attempts reserved per link under source routing.
ATTEMPTS_PER_LINK = 2


@dataclass(frozen=True)
class TransmissionRequest:
    """One transmission attempt awaiting a (slot, channel offset) cell.

    Attributes:
        flow_id: Owning flow.
        instance: Release index within the hyperperiod.
        hop_index: Position of the link on the route (0-based).
        attempt: 0 for the primary attempt, 1 for the retransmission.
        sender: Transmitting node id.
        receiver: Receiving node id.
        release_slot: The instance's release slot (earliest possible slot
            for the *first* request; later requests are further bounded by
            their predecessors' placements).
        deadline_slot: The instance's absolute deadline slot ``d_i``
            (inclusive; the last slot the attempt may occupy).
    """

    flow_id: int
    instance: int
    hop_index: int
    attempt: int
    sender: int
    receiver: int
    release_slot: int
    deadline_slot: int

    def __post_init__(self) -> None:
        if self.sender == self.receiver:
            raise ValueError("sender and receiver must differ")
        if self.attempt < 0:
            raise ValueError("attempt must be non-negative")

    @property
    def link(self) -> tuple:
        """The directed link ``(sender, receiver)``."""
        return (self.sender, self.receiver)

    def __str__(self) -> str:
        return (f"F{self.flow_id}[{self.instance}] hop {self.hop_index}"
                f".{self.attempt} {self.sender}->{self.receiver}")


class RequestWindow(Sequence):
    """A zero-copy tail view of an instance's request list.

    The scheduling engine hands each placement policy the requests that
    still need slots (``T_post`` in the laxity formula).  Slicing the
    request list per placement is O(n); this view shares the instance's
    :class:`repro.core.laxity.LaxityTable` (its request list and its
    Eq. 1 table) across every placement of the instance and exposes
    the tail without copying.
    """

    __slots__ = ("_table", "_requests", "_start")

    def __init__(self, table: "LaxityTable", start: int):
        self._table = table
        self._requests = table.requests
        self._start = start

    def laxity(self, schedule: "Schedule", slot: int) -> int:
        """Eq. 1 for the request just before this window, at ``slot``."""
        return self._table.laxity(schedule, self._start - 1, slot)

    def __len__(self) -> int:
        return len(self._requests) - self._start

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._requests[self._start:])[index]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(index)
        return self._requests[self._start + index]

    def __iter__(self):
        return islice(iter(self._requests), self._start, None)


def expand_instance(instance: FlowInstance,
                    attempts_per_link: int = ATTEMPTS_PER_LINK,
                    ) -> List[TransmissionRequest]:
    """Expand a flow instance into its ordered transmission requests.

    Args:
        instance: The release to expand.
        attempts_per_link: Slots reserved per link (2 under source
            routing; 1 disables the retransmission reservation).

    Returns:
        Requests in precedence order: hop-major, attempt-minor.
    """
    if attempts_per_link < 1:
        raise ValueError("attempts_per_link must be at least 1")
    flow = instance.flow
    if not flow.has_route:
        raise ValueError(f"flow {flow.flow_id} has no route")
    requests = []
    for hop_index, (sender, receiver) in enumerate(flow.links):
        for attempt in range(attempts_per_link):
            requests.append(TransmissionRequest(
                flow_id=flow.flow_id,
                instance=instance.instance,
                hop_index=hop_index,
                attempt=attempt,
                sender=sender,
                receiver=receiver,
                release_slot=instance.release_slot,
                deadline_slot=instance.deadline_slot,
            ))
    return requests
