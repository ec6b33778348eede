"""IEEE 802.15.4 channel bookkeeping for TSCH networks.

The 2.4 GHz PHY of IEEE 802.15.4 defines 16 channels, numbered 11 through
26, spaced 5 MHz apart with center frequencies ``2405 + 5 * (ch - 11)`` MHz.
TSCH uses a subset of these (channels with extreme noise may be
blacklisted) and hops over the remaining ones.

This module owns the mapping between *physical channels* (11..26) and
*logical channels* (0..|M|-1), plus helpers to reason about spectral
overlap with 2.4 GHz WiFi, which the evaluation of the paper uses as an
external interference source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

#: Lowest and highest 802.15.4 channel numbers in the 2.4 GHz band.
MIN_CHANNEL = 11
MAX_CHANNEL = 26

#: Number of channels available in the 2.4 GHz band.
NUM_CHANNELS_24GHZ = MAX_CHANNEL - MIN_CHANNEL + 1

#: Channel spacing in MHz.
CHANNEL_SPACING_MHZ = 5.0


def channel_center_frequency_mhz(channel: int) -> float:
    """Return the center frequency of an 802.15.4 channel in MHz.

    Args:
        channel: Physical channel number (11..26).

    Raises:
        ValueError: If ``channel`` is outside the 2.4 GHz band.
    """
    _validate_channel(channel)
    return 2405.0 + CHANNEL_SPACING_MHZ * (channel - MIN_CHANNEL)


def wifi_center_frequency_mhz(wifi_channel: int) -> float:
    """Return the center frequency of a 2.4 GHz WiFi channel in MHz.

    WiFi channels 1..13 are centered at ``2412 + 5 * (ch - 1)`` MHz, each
    occupying roughly 22 MHz.
    """
    if not 1 <= wifi_channel <= 13:
        raise ValueError(f"WiFi channel must be in [1, 13], got {wifi_channel}")
    return 2412.0 + 5.0 * (wifi_channel - 1)


def channels_overlapping_wifi(wifi_channel: int,
                              wifi_bandwidth_mhz: float = 22.0) -> List[int]:
    """Return the 802.15.4 channels whose band overlaps a WiFi channel.

    An 802.15.4 channel occupies about 2 MHz around its center; a WiFi
    channel occupies ``wifi_bandwidth_mhz`` around its own.  WiFi channel 1
    overlaps 802.15.4 channels 11-14, matching the setup in the paper's
    Section VII-E.
    """
    wifi_center = wifi_center_frequency_mhz(wifi_channel)
    half_width = wifi_bandwidth_mhz / 2.0 + 1.0  # +1 MHz for the 802.15.4 half-band
    overlapping = []
    for channel in range(MIN_CHANNEL, MAX_CHANNEL + 1):
        if abs(channel_center_frequency_mhz(channel) - wifi_center) <= half_width:
            overlapping.append(channel)
    return overlapping


def _validate_channel(channel: int) -> None:
    if not MIN_CHANNEL <= channel <= MAX_CHANNEL:
        raise ValueError(
            f"802.15.4 channel must be in [{MIN_CHANNEL}, {MAX_CHANNEL}], got {channel}")


@dataclass(frozen=True)
class ChannelMap:
    """An ordered set of physical channels used by a TSCH network.

    The map translates between *logical channels* (indices ``0..|M|-1``
    produced by the TSCH hopping formula) and *physical channels*
    (802.15.4 channel numbers).  All devices in a network share the same
    map, as mandated by the WirelessHART specification.

    Attributes:
        channels: Physical channel numbers, in logical-channel order.
    """

    channels: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.channels:
            raise ValueError("ChannelMap requires at least one channel")
        for channel in self.channels:
            _validate_channel(channel)
        if len(set(self.channels)) != len(self.channels):
            raise ValueError(f"duplicate channels in map: {self.channels}")

    @classmethod
    def first_n(cls, n: int) -> "ChannelMap":
        """Build a map of the first ``n`` channels starting at channel 11."""
        if not 1 <= n <= NUM_CHANNELS_24GHZ:
            raise ValueError(f"n must be in [1, {NUM_CHANNELS_24GHZ}], got {n}")
        return cls(tuple(range(MIN_CHANNEL, MIN_CHANNEL + n)))

    def __len__(self) -> int:
        return len(self.channels)

    def __iter__(self):
        return iter(self.channels)

    def __contains__(self, channel: int) -> bool:
        return channel in self.channels

    def physical(self, logical_channel: int) -> int:
        """Map a logical channel index to its physical channel number."""
        if not 0 <= logical_channel < len(self.channels):
            raise ValueError(
                f"logical channel must be in [0, {len(self.channels) - 1}], "
                f"got {logical_channel}")
        return self.channels[logical_channel]

    def logical(self, physical_channel: int) -> int:
        """Map a physical channel number back to its logical index."""
        try:
            return self.channels.index(physical_channel)
        except ValueError:
            raise ValueError(
                f"channel {physical_channel} is not in this map") from None

    def index_map(self) -> dict:
        """Return a dict from physical channel to logical index."""
        return {ch: i for i, ch in enumerate(self.channels)}
