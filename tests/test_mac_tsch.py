"""Tests for repro.mac.tsch."""

import pytest

from repro.mac.channels import ChannelMap
from repro.mac.tsch import (
    SLOT_DURATION_MS,
    SLOT_DURATION_S,
    SLOTS_PER_SECOND,
    seconds_to_slots,
)


class TestSlotConversion:
    def test_one_second_is_100_slots(self):
        assert seconds_to_slots(1.0) == 100

    def test_half_second(self):
        assert seconds_to_slots(0.5) == 50

    def test_paper_period_range(self):
        """P = [2^-1, 2^3] seconds maps to 50..800 slots."""
        assert [seconds_to_slots(2.0 ** e) for e in range(-1, 4)] == [
            50, 100, 200, 400, 800]

    def test_non_slot_aligned_rejected(self):
        with pytest.raises(ValueError):
            seconds_to_slots(0.125)  # 12.5 slots

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            seconds_to_slots(0.0)

    def test_roundtrip(self):
        assert seconds_to_slots(2.0) * SLOT_DURATION_S == 2.0

    def test_constants_consistent(self):
        assert SLOTS_PER_SECOND * SLOT_DURATION_MS == 1000.0


def visited(channel_map, channel_offset, num_slots, start_asn=0):
    """The physical channels a cell visits: the hopping formula
    ``logicalChannel = (ASN + offset) mod |M|`` (paper Section III-A)
    read through the channel map, as the simulator resolves each
    attempt."""
    return [channel_map.physical((asn + channel_offset) % len(channel_map))
            for asn in range(start_asn, start_asn + num_slots)]


class TestHoppingSequence:
    def test_cycles_through_all_channels(self):
        """Any offset visits every physical channel across |M| slots.

        This is the property forcing the paper's 'reliable on all
        channels' admission rule for communication-graph edges.
        """
        channels = visited(ChannelMap.first_n(4), channel_offset=1,
                           num_slots=4)
        assert sorted(channels) == [11, 12, 13, 14]

    def test_periodicity(self):
        channel_map = ChannelMap.first_n(3)
        assert visited(channel_map, 0, 3) == visited(channel_map, 0, 3,
                                                     start_asn=3)

    def test_physical_channel(self):
        assert visited(ChannelMap((20, 25)), 0, 2) == [20, 25]

