"""Tests for repro.mac.channels."""

import pytest

from repro.mac.channels import (
    ChannelMap,
    MAX_CHANNEL,
    MIN_CHANNEL,
    NUM_CHANNELS_24GHZ,
    channel_center_frequency_mhz,
    channels_overlapping_wifi,
    wifi_center_frequency_mhz,
)


class TestChannelFrequencies:
    def test_channel_11_center(self):
        assert channel_center_frequency_mhz(11) == 2405.0

    def test_channel_26_center(self):
        assert channel_center_frequency_mhz(26) == 2480.0

    def test_spacing_is_5mhz(self):
        assert (channel_center_frequency_mhz(12)
                - channel_center_frequency_mhz(11)) == 5.0

    @pytest.mark.parametrize("bad", [10, 27, 0, -1])
    def test_out_of_band_rejected(self, bad):
        with pytest.raises(ValueError):
            channel_center_frequency_mhz(bad)

    def test_wifi_channel_1_center(self):
        assert wifi_center_frequency_mhz(1) == 2412.0

    def test_wifi_channel_out_of_range(self):
        with pytest.raises(ValueError):
            wifi_center_frequency_mhz(14)


class TestWifiOverlap:
    def test_wifi_1_overlaps_802154_11_to_14(self):
        """The paper's setup: WiFi channel 1 covers 802.15.4 channels 11-14."""
        assert channels_overlapping_wifi(1) == [11, 12, 13, 14]

    def test_wifi_6_overlaps_middle_channels(self):
        overlapping = channels_overlapping_wifi(6)
        assert 16 in overlapping and 19 in overlapping
        assert 11 not in overlapping

    def test_narrow_wifi_overlaps_fewer(self):
        narrow = channels_overlapping_wifi(1, wifi_bandwidth_mhz=10.0)
        assert set(narrow) <= set(channels_overlapping_wifi(1))


class TestChannelMap:
    def test_first_n(self):
        cmap = ChannelMap.first_n(4)
        assert list(cmap) == [11, 12, 13, 14]
        assert len(cmap) == 4

    def test_all_channels(self):
        cmap = ChannelMap.first_n(NUM_CHANNELS_24GHZ)
        assert len(cmap) == NUM_CHANNELS_24GHZ
        assert list(cmap)[0] == MIN_CHANNEL
        assert list(cmap)[-1] == MAX_CHANNEL

    def test_physical_logical_roundtrip(self):
        cmap = ChannelMap((15, 11, 20))
        for logical, physical in enumerate((15, 11, 20)):
            assert cmap.physical(logical) == physical
            assert cmap.logical(physical) == logical

    def test_contains(self):
        cmap = ChannelMap.first_n(3)
        assert 12 in cmap
        assert 20 not in cmap

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ChannelMap(())

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            ChannelMap((11, 11))

    def test_out_of_band_rejected(self):
        with pytest.raises(ValueError):
            ChannelMap((10,))

    def test_logical_out_of_range(self):
        with pytest.raises(ValueError):
            ChannelMap.first_n(3).physical(3)

    def test_unknown_physical(self):
        with pytest.raises(ValueError):
            ChannelMap.first_n(3).logical(26)

    def test_index_map(self):
        cmap = ChannelMap.first_n(3)
        assert cmap.index_map() == {11: 0, 12: 1, 13: 2}

    def test_first_n_bounds(self):
        with pytest.raises(ValueError):
            ChannelMap.first_n(0)
        with pytest.raises(ValueError):
            ChannelMap.first_n(17)

