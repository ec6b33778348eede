"""Time Slotted Channel Hopping (TSCH) primitives.

TSCH (IEEE 802.15.4e) divides time into fixed-length slots — 10 ms in
WirelessHART — each wide enough for one data transmission and its
acknowledgement.  Every (slot, channel-offset) cell in the schedule maps to
a physical channel through the hopping formula

    logicalChannel = (ASN + channelOffset) mod |M|

where ASN is the Absolute Slot Number since network start and M the set of
channels in use.  Because ASN advances every slot, a given channel offset
cycles through every physical channel, which is why link-quality
requirements in the paper are stated over *all* channels.
"""

from __future__ import annotations

from dataclasses import dataclass


#: WirelessHART slot duration in milliseconds.
SLOT_DURATION_MS = 10.0

#: WirelessHART slot duration in seconds.
SLOT_DURATION_S = SLOT_DURATION_MS / 1000.0

#: Number of time slots per second.
SLOTS_PER_SECOND = int(round(1.0 / SLOT_DURATION_S))


def seconds_to_slots(seconds: float) -> int:
    """Convert a duration in seconds to a whole number of 10 ms slots.

    Raises:
        ValueError: If the duration is not a positive integral number of
            slots (WirelessHART periods are configured in slot multiples).
    """
    slots = seconds * SLOTS_PER_SECOND
    rounded = int(round(slots))
    if rounded <= 0 or abs(slots - rounded) > 1e-9:
        raise ValueError(
            f"{seconds} s is not a positive whole number of {SLOT_DURATION_MS} ms slots")
    return rounded


@dataclass(frozen=True)
class SlotTiming:
    """Intra-slot timing template (simplified WirelessHART timeslot).

    All durations are in microseconds and sum to at most the 10 ms slot.
    The defaults follow the IEEE 802.15.4e TSCH timeslot template closely
    enough for simulation purposes.
    """

    tx_offset_us: float = 2120.0      #: sender waits before transmitting
    max_packet_us: float = 4256.0     #: 133-byte frame at 250 kbps
    rx_ack_delay_us: float = 800.0    #: turnaround before the ACK
    ack_duration_us: float = 1000.0   #: ACK frame airtime
