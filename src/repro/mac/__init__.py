"""TSCH MAC-layer primitives: channels, slot timing, superframes."""

from repro.mac.channels import (
    ChannelMap,
    MAX_CHANNEL,
    MIN_CHANNEL,
    NUM_CHANNELS_24GHZ,
    channel_center_frequency_mhz,
    channels_overlapping_wifi,
    wifi_center_frequency_mhz,
)
from repro.mac.superframe import (
    DeviceSlot,
    DeviceTable,
    SlotAction,
    Superframe,
    build_superframe,
)
from repro.mac.tsch import (
    SLOT_DURATION_MS,
    SLOT_DURATION_S,
    SLOTS_PER_SECOND,
    SlotTiming,
    seconds_to_slots,
)

__all__ = [
    "ChannelMap",
    "DeviceSlot",
    "DeviceTable",
    "SlotAction",
    "Superframe",
    "build_superframe",
    "MAX_CHANNEL",
    "MIN_CHANNEL",
    "NUM_CHANNELS_24GHZ",
    "SLOT_DURATION_MS",
    "SLOT_DURATION_S",
    "SLOTS_PER_SECOND",
    "SlotTiming",
    "channel_center_frequency_mhz",
    "channels_overlapping_wifi",
    "seconds_to_slots",
    "wifi_center_frequency_mhz",
]
