"""Superframes and per-device slot tables.

The network manager does not ship the global schedule to the field: each
device receives only its own actions — for every slot of the superframe,
whether to transmit, receive, or sleep, on which channel offset, and
with which neighbor.  This module converts a global
:class:`~repro.core.schedule.Schedule` into those per-device tables,
which is also what the simulator-independent energy analysis consumes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING, Tuple

if TYPE_CHECKING:  # pragma: no cover - import only for type checkers
    # Imported lazily: repro.core imports repro.mac at load time, so a
    # module-level import here would be circular.
    from repro.core.schedule import Schedule


class SlotAction(enum.Enum):
    """What a device does in one slot of its superframe."""

    TRANSMIT = "transmit"
    RECEIVE = "receive"
    SLEEP = "sleep"


@dataclass(frozen=True)
class DeviceSlot:
    """One entry of a device's slot table.

    Attributes:
        slot: Slot index within the superframe.
        action: Transmit / receive (sleep slots are omitted from tables).
        peer: The neighbor on the other end of the link.
        channel_offset: The cell's channel offset.
        flow_id: The flow whose packet uses this cell.
    """

    slot: int
    action: SlotAction
    peer: int
    channel_offset: int
    flow_id: int


@dataclass
class DeviceTable:
    """All scheduled actions of one device within a superframe."""

    node_id: int
    superframe_slots: int
    entries: List[DeviceSlot] = field(default_factory=list)

    def duty_cycle(self) -> float:
        """Fraction of superframe slots the radio is on."""
        if self.superframe_slots == 0:
            return 0.0
        return len(self.entries) / self.superframe_slots


@dataclass(frozen=True)
class Superframe:
    """A complete set of per-device tables for one hyperperiod.

    Attributes:
        num_slots: Superframe length (the flow set's hyperperiod).
        num_offsets: Channel offsets in use.
        tables: One table per device that has any scheduled action.
    """

    num_slots: int
    num_offsets: int
    tables: Dict[int, DeviceTable]

    def mean_duty_cycle(self) -> float:
        """Average radio duty cycle over active devices."""
        if not self.tables:
            return 0.0
        return (sum(t.duty_cycle() for t in self.tables.values())
                / len(self.tables))

    def busiest_device(self) -> Tuple[Optional[int], float]:
        """``(node_id, duty_cycle)`` of the most loaded device."""
        if not self.tables:
            return (None, 0.0)
        node_id = max(self.tables,
                      key=lambda n: self.tables[n].duty_cycle())
        return (node_id, self.tables[node_id].duty_cycle())


def build_superframe(schedule: "Schedule") -> Superframe:
    """Split a global schedule into per-device slot tables.

    Every scheduled transmission becomes a TRANSMIT entry at the sender
    and a RECEIVE entry at the receiver; devices not named by any
    transmission are simply absent (all-sleep).
    """
    tables: Dict[int, DeviceTable] = {}

    def table_for(node_id: int) -> DeviceTable:
        if node_id not in tables:
            tables[node_id] = DeviceTable(
                node_id=node_id, superframe_slots=schedule.num_slots)
        return tables[node_id]

    for entry in schedule.entries:
        request = entry.request
        table_for(request.sender).entries.append(DeviceSlot(
            slot=entry.slot, action=SlotAction.TRANSMIT,
            peer=request.receiver, channel_offset=entry.offset,
            flow_id=request.flow_id))
        table_for(request.receiver).entries.append(DeviceSlot(
            slot=entry.slot, action=SlotAction.RECEIVE,
            peer=request.sender, channel_offset=entry.offset,
            flow_id=request.flow_id))

    for table in tables.values():
        table.entries.sort(key=lambda e: e.slot)
    return Superframe(num_slots=schedule.num_slots,
                      num_offsets=schedule.num_offsets, tables=tables)
