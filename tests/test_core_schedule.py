"""Tests for repro.core.schedule and repro.core.transmissions."""

import pytest

from repro.core.schedule import Schedule
from repro.core.transmissions import TransmissionRequest, expand_instance
from repro.flows.flow import Flow

from core_oracles import (
    busy_matrix,
    free_offsets,
    node_busy,
    used_offsets,
    validate_basic,
)


def request(sender, receiver, flow_id=0, instance=0, hop=0, attempt=0,
            release=0, deadline=99):
    return TransmissionRequest(flow_id, instance, hop, attempt, sender,
                               receiver, release, deadline)


class TestTransmissionRequest:
    def test_link(self):
        assert request(3, 4).link == (3, 4)

    def test_self_link_rejected(self):
        with pytest.raises(ValueError):
            request(3, 3)

    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError):
            request(3, 4, attempt=-1)

    def test_str_mentions_flow_and_hop(self):
        text = str(request(1, 2, flow_id=7, hop=3, attempt=1))
        assert "F7" in text and "hop 3.1" in text


class TestExpandInstance:
    def _instance(self, route=(0, 1, 2), period=100, deadline=80):
        f = Flow(0, route[0], route[-1], period, deadline, tuple(route))
        return next(f.instances(period))

    def test_two_attempts_per_hop(self):
        requests = expand_instance(self._instance())
        assert len(requests) == 4  # 2 hops x 2 attempts
        assert [(r.hop_index, r.attempt) for r in requests] == [
            (0, 0), (0, 1), (1, 0), (1, 1)]

    def test_attempt_links_match_route(self):
        requests = expand_instance(self._instance())
        assert requests[0].link == (0, 1)
        assert requests[1].link == (0, 1)
        assert requests[2].link == (1, 2)

    def test_single_attempt_mode(self):
        requests = expand_instance(self._instance(), attempts_per_link=1)
        assert len(requests) == 2

    def test_deadline_propagated(self):
        requests = expand_instance(self._instance(deadline=80))
        assert all(r.deadline_slot == 79 for r in requests)

    def test_unrouted_flow_rejected(self):
        f = Flow(0, 0, 2, 100, 100)
        instance = next(f.instances(100))
        with pytest.raises(ValueError):
            expand_instance(instance)

    def test_invalid_attempts(self):
        with pytest.raises(ValueError):
            expand_instance(self._instance(), attempts_per_link=0)

    @pytest.mark.parametrize("attempts", [1, 2])
    def test_requests_match_the_constructor(self, attempts):
        # A multi-hop route, past the first release: every field moves.
        f = Flow(5, 0, 3, 50, 40, (0, 1, 2, 3))
        instance = list(f.instances(100))[1]
        requests = expand_instance(instance, attempts_per_link=attempts)
        assert [(r.hop_index, r.attempt, r.sender, r.receiver)
                for r in requests] == [
            (hop, attempt, hop, hop + 1)
            for hop in range(3) for attempt in range(attempts)]
        for built in requests:
            constructed = TransmissionRequest(
                flow_id=5, instance=1, hop_index=built.hop_index,
                attempt=built.attempt, sender=built.sender,
                receiver=built.receiver, release_slot=50, deadline_slot=89)
            assert type(built) is TransmissionRequest
            assert built == constructed
            assert hash(built) == hash(constructed)
            assert str(built) == str(constructed)


class TestSchedule:
    def test_add_and_query(self):
        schedule = Schedule(num_nodes=5, num_slots=10, num_offsets=2)
        entry = schedule.add(request(0, 1), slot=3, offset=1)
        assert entry.slot == 3 and entry.offset == 1
        assert node_busy(schedule, 0, 3) and node_busy(schedule, 1, 3)
        assert not node_busy(schedule, 2, 3)
        assert schedule.cell_size(3, 1) == 1
        assert len(schedule) == 1

    def test_conflicting_add_rejected(self):
        schedule = Schedule(5, 10, 2)
        schedule.add(request(0, 1), 3, 0)
        with pytest.raises(ValueError):
            schedule.add(request(1, 2), 3, 1)  # shares node 1

    def test_out_of_range_rejected(self):
        schedule = Schedule(5, 10, 2)
        with pytest.raises(ValueError):
            schedule.add(request(0, 1), 10, 0)
        with pytest.raises(ValueError):
            schedule.add(request(0, 1), 0, 2)

    @pytest.mark.parametrize("method", ["add", "force_add"])
    @pytest.mark.parametrize("link", [(0, 999), (999, 0), (-3, 1),
                                      (1, -3)])
    def test_out_of_range_node_rejected_untouched(self, method, link):
        schedule = Schedule(5, 10, 2)
        schedule.add(request(0, 1), 3, 0)
        before = (len(schedule), schedule.version,
                  schedule.canonical_hash(), busy_matrix(schedule).copy())
        with pytest.raises(ValueError, match="node .* out of range"):
            getattr(schedule, method)(request(*link, flow_id=1), 4, 1)
        assert len(schedule) == before[0]
        assert schedule.version == before[1]
        assert schedule.canonical_hash() == before[2]
        assert (busy_matrix(schedule) == before[3]).all()
        assert used_offsets(schedule, 4) == []

    def test_conflict_mask_and_count(self):
        schedule = Schedule(5, 10, 2)
        schedule.add(request(0, 1), 2, 0)
        schedule.add(request(2, 3), 5, 0)
        assert schedule.conflict_count(1, 4, 0, 9) == 1
        assert schedule.conflict_count(0, 3, 0, 9) == 2
        assert schedule.conflict_count(4, 4 - 4, 6, 9) == 0
        mask = schedule.conflict_mask(0, 4, 0, 9)
        assert list(mask.nonzero()[0]) == [2]

    def test_conflict_empty_window(self):
        schedule = Schedule(5, 10, 2)
        assert schedule.conflict_count(0, 1, 5, 4) == 0

    def test_offsets_tracking(self):
        schedule = Schedule(6, 10, 3)
        schedule.add(request(0, 1), 4, 0)
        schedule.add(request(2, 3), 4, 2)
        assert used_offsets(schedule, 4) == [0, 2]
        assert free_offsets(schedule, 4) == [1]
        assert schedule.free_offset_slots(4, 4).tolist() == [True]
        schedule.add(request(4, 5), 4, 1)
        assert schedule.free_offset_slots(4, 4).tolist() == [False]

    def test_free_offset_slots_mask(self):
        schedule = Schedule(4, 5, 1)
        schedule.add(request(0, 1), 2, 0)
        mask = schedule.free_offset_slots(0, 4)
        assert list(mask) == [True, True, False, True, True]

    def test_slot_transmissions(self):
        schedule = Schedule(6, 10, 3)
        schedule.add(request(0, 1), 4, 0)
        schedule.add(request(2, 3), 4, 1)
        assert len(schedule.slot_transmissions(4)) == 2
        assert schedule.slot_transmissions(5) == []

    def test_cells_and_reuse(self):
        schedule = Schedule(8, 10, 2)
        schedule.add(request(0, 1), 1, 0)
        schedule.add(request(2, 3), 1, 0)  # shares channel offset 0
        schedule.add(request(4, 5), 1, 1)
        reused = schedule.reused_cells()
        assert len(reused) == 1
        slot, offset, txs = reused[0]
        assert (slot, offset) == (1, 0)
        assert len(txs) == 2
        assert schedule.num_reused_cells() == 1

    def test_reuse_links(self):
        schedule = Schedule(8, 10, 2)
        schedule.add(request(0, 1), 1, 0)
        schedule.add(request(2, 3), 1, 0)
        schedule.add(request(4, 5), 2, 0)  # exclusive cell
        assert schedule.reuse_links() == [(0, 1), (2, 3)]

    def test_entries_by_slot(self):
        schedule = Schedule(8, 10, 2)
        schedule.add(request(0, 1), 5, 0)
        schedule.add(request(2, 3), 1, 0)
        by_slot = schedule.entries_by_slot()
        assert list(by_slot) == [1, 5]

    def test_makespan(self):
        schedule = Schedule(4, 10, 1)
        assert schedule.makespan() == 0
        schedule.add(request(0, 1), 7, 0)
        assert schedule.makespan() == 8

    def test_validate_basic_passes(self):
        schedule = Schedule(6, 10, 2)
        schedule.add(request(0, 1), 0, 0)
        schedule.add(request(2, 3), 0, 1)
        validate_basic(schedule)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            Schedule(0, 10, 2)
        with pytest.raises(ValueError):
            Schedule(5, 0, 2)
        with pytest.raises(ValueError):
            Schedule(5, 10, 0)
