"""Tests for repro.mac.superframe and repro.analysis.energy."""

import pytest

from repro.analysis.energy import (
    NodeEnergy,
    RadioPowerProfile,
    network_lifetime_days,
    superframe_energy,
)
from repro.core.schedule import Schedule
from repro.mac.superframe import DeviceTable, SlotAction, build_superframe

from test_core_schedule import request


@pytest.fixture
def small_schedule():
    schedule = Schedule(6, 20, 2)
    schedule.add(request(0, 1), 0, 0)
    schedule.add(request(2, 3), 0, 1)
    schedule.add(request(1, 2), 5, 0)
    return schedule


def device_table(superframe, node_id):
    """One device's slot table, an empty one when it is unscheduled."""
    return superframe.tables.get(node_id, DeviceTable(
        node_id=node_id, superframe_slots=superframe.num_slots))


def slots_doing(table, action):
    """The slots of a device's table holding one action, ascending."""
    return sorted(entry.slot for entry in table.entries
                  if entry.action is action)


def action_in_slot(table, slot):
    """A device's action in a slot, read from its table (SLEEP when
    unscheduled)."""
    return next((entry.action for entry in table.entries
                 if entry.slot == slot), SlotAction.SLEEP)


class TestSuperframe:
    def test_actions_assigned(self, small_schedule):
        superframe = build_superframe(small_schedule)
        table0 = device_table(superframe, 0)
        assert action_in_slot(table0, 0) is SlotAction.TRANSMIT
        assert action_in_slot(table0, 1) is SlotAction.SLEEP
        table1 = device_table(superframe, 1)
        assert action_in_slot(table1, 0) is SlotAction.RECEIVE
        assert action_in_slot(table1, 5) is SlotAction.TRANSMIT

    def test_unscheduled_device_sleeps(self, small_schedule):
        superframe = build_superframe(small_schedule)
        table = device_table(superframe, 5)
        assert table.entries == []
        assert table.duty_cycle() == 0.0
        assert action_in_slot(table, 3) is SlotAction.SLEEP

    def test_active_devices(self, small_schedule):
        superframe = build_superframe(small_schedule)
        assert sorted(superframe.tables) == [0, 1, 2, 3]

    def test_duty_cycle(self, small_schedule):
        superframe = build_superframe(small_schedule)
        # Node 1 is active in slots 0 and 5 of 20.
        assert device_table(superframe, 1).duty_cycle() == pytest.approx(0.1)

    def test_busiest_device(self, small_schedule):
        superframe = build_superframe(small_schedule)
        node, duty = superframe.busiest_device()
        assert node in (1, 2)  # both have two active slots
        assert duty == pytest.approx(0.1)

    def test_transmit_receive_slot_lists(self, small_schedule):
        superframe = build_superframe(small_schedule)
        assert slots_doing(device_table(superframe, 2),
                           SlotAction.RECEIVE) == [5]
        assert slots_doing(device_table(superframe, 2),
                           SlotAction.TRANSMIT) == [0]

    def test_entries_sorted_by_slot(self, small_schedule):
        superframe = build_superframe(small_schedule)
        slots = [e.slot for e in device_table(superframe, 1).entries]
        assert slots == sorted(slots)

    def test_mean_duty_cycle(self, small_schedule):
        superframe = build_superframe(small_schedule)
        assert 0.0 < superframe.mean_duty_cycle() <= 0.1

    def test_empty_schedule(self):
        superframe = build_superframe(Schedule(4, 10, 1))
        assert sorted(superframe.tables) == []
        assert superframe.mean_duty_cycle() == 0.0
        assert superframe.busiest_device() == (None, 0.0)


class TestEnergy:
    def test_slot_charges_ordering(self):
        """TX slots cost less than RX slots (RX listens longer); both
        dwarf sleep slots."""
        profile = RadioPowerProfile()
        assert profile.receive_slot_charge_mc() > profile.transmit_slot_charge_mc()
        assert profile.transmit_slot_charge_mc() > 100 * profile.sleep_slot_charge_mc()

    def test_per_node_accounting(self, small_schedule):
        superframe = build_superframe(small_schedule)
        energies = superframe_energy(superframe)
        node1 = energies[1]
        assert node1.transmit_slots == 1
        assert node1.receive_slots == 1
        assert node1.sleep_slots == 18
        assert node1.charge_mc > 0

    def test_busier_node_uses_more_energy(self, small_schedule):
        superframe = build_superframe(small_schedule)
        energies = superframe_energy(superframe)
        assert energies[1].charge_mc > energies[0].charge_mc

    def test_average_current_positive(self, small_schedule):
        superframe = build_superframe(small_schedule)
        energies = superframe_energy(superframe)
        current = energies[1].average_current_ma(superframe.num_slots)
        assert 0.0 < current < RadioPowerProfile().rx_current_ma

    def test_lifetime_decreases_with_load(self):
        """A device with more active slots lives shorter."""
        light = Schedule(4, 100, 1)
        light.add(request(0, 1), 0, 0)
        heavy = Schedule(4, 100, 1)
        for slot in range(0, 50, 2):
            heavy.add(request(0, 1), slot, 0)
        light_life = network_lifetime_days(build_superframe(light))
        heavy_life = network_lifetime_days(build_superframe(heavy))
        assert heavy_life < light_life

    def test_empty_network_lifetime_infinite(self):
        assert network_lifetime_days(
            build_superframe(Schedule(4, 10, 1))) == float("inf")

    def test_idle_node_lifetime_years(self):
        """A node with one active slot per 100 sleeps almost always and
        should be projected to last years."""
        schedule = Schedule(4, 1000, 1)
        schedule.add(request(0, 1), 0, 0)
        superframe = build_superframe(schedule)
        energies = superframe_energy(superframe)
        assert energies[0].lifetime_days(1000) > 365
