"""Tests for the windowed time-series store (repro.obs.timeseries)."""

from __future__ import annotations

import json

import pytest

from repro.obs import recorder as _obs
from repro.obs.recorder import NullRecorder, Recorder
from repro.obs.timeseries import DEFAULT_RETENTION, Series, TimeSeriesStore


class TestSeries:
    def test_validation(self):
        with pytest.raises(ValueError, match="retention"):
            Series("x", retention=1)
        with pytest.raises(ValueError, match="stride"):
            Series("x", stride=0)

    def test_add_and_accessors(self):
        series = Series("pdr", retention=8)
        for t in range(5):
            series.add(t, t * 0.1)
        assert series.stride == 1
        assert series.last() == (4.0, pytest.approx(0.4))
        assert series.values() == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4])
        assert [v for _, v in series.points[-2:]] == pytest.approx(
            [0.3, 0.4])
        assert [v for _, v in series.points[-99:]] == series.values()
        assert Series("empty").last() is None

    def test_downsample_halves_and_doubles_stride(self):
        series = Series("x", retention=4)
        for t in range(5):          # 5th add overflows retention=4
            series.add(t, float(t))
        assert series.stride == 2
        # Pairs (0,1),(2,3) average to 0.5 and 2.5, keeping the *second*
        # member's t; the trailing odd sample (4, 4.0) survives verbatim.
        assert series.points == [(1.0, 0.5), (3.0, 2.5), (4.0, 4.0)]

    def test_retention_is_bounded_forever(self):
        series = Series("x", retention=8)
        for t in range(10_000):
            series.add(t, float(t))
        assert len(series.points) <= 8
        assert series.stride > 1
        # The most recent timestamp always survives downsampling.
        assert series.points[-1][0] == 9_999.0

    def test_to_record_shape(self):
        series = Series("a.b", retention=16)
        series.add(0, 1.0)
        record = series.to_record()
        assert record == {"kind": "series", "name": "a.b", "retention": 16,
                          "stride": 1, "points": [[0.0, 1.0]]}
        json.dumps(record)  # must be JSON-clean


class TestTimeSeriesStore:
    def test_record_creates_series_on_first_use(self):
        store = TimeSeriesStore()
        assert len(store) == 0
        assert store.get("x") is None
        store.record("x", 0, 1.0)
        store.record("x", 1, 2.0)
        store.record("y", 0, 3.0)
        assert len(store) == 2
        assert store.names() == ["x", "y"]
        assert store.get("x").values() == [1.0, 2.0]
        assert store.retention == DEFAULT_RETENTION

    def test_validation(self):
        with pytest.raises(ValueError, match="retention"):
            TimeSeriesStore(retention=1)

    def test_to_records_has_honest_trailer(self):
        store = TimeSeriesStore(retention=4)
        for t in range(6):
            store.record("hot", t, float(t))
        store.record("cold", 0, 1.0)
        records = store.to_records()
        assert [r["kind"] for r in records] == ["series", "series", "ts_meta"]
        trailer = records[-1]
        assert trailer == {"kind": "ts_meta", "series": 2, "retention": 4,
                           "downsampled": 1}
        assert store.downsampled_series() == 1

    def test_jsonl_roundtrip(self, tmp_path):
        store = TimeSeriesStore(retention=8)
        for t in range(12):
            store.record("a", t, float(t))
        store.record("b", 0, 0.5)
        path = tmp_path / "ts.jsonl"
        written = store.export_jsonl(path)
        assert written == 2  # trailer excluded

        loaded = TimeSeriesStore.load_jsonl(path)
        assert loaded.retention == 8  # read back from the trailer
        assert loaded.names() == store.names()
        for name in store.names():
            assert loaded.get(name).points == store.get(name).points
            assert loaded.get(name).stride == store.get(name).stride

    def test_merge_later_wins_and_sorts_by_t(self):
        store = TimeSeriesStore()
        store.record("x", 0, 1.0)
        store.record("x", 2, 2.0)
        store.merge_records([
            {"kind": "series", "name": "x", "stride": 1,
             "points": [[1, 9.0], [2, 7.0]]},  # t=2 collides: later wins
            {"kind": "ts_meta", "series": 1},   # trailer ignored
        ])
        assert store.get("x").points == [(0.0, 1.0), (1.0, 9.0), (2.0, 7.0)]

    def test_merge_keeps_coarser_stride_and_redownsamples(self):
        store = TimeSeriesStore(retention=4)
        for t in range(4):
            store.record("x", t, float(t))
        store.merge_records([
            {"kind": "series", "name": "x", "stride": 4,
             "points": [[10, 1.0], [11, 2.0], [12, 3.0]]},
        ])
        series = store.get("x")
        assert len(series.points) <= 4       # retention applied on merge
        assert series.stride >= 4            # coarser stride kept

    def test_from_records_rebuilds(self):
        store = TimeSeriesStore()
        store.record("x", 0, 1.0)
        rebuilt = TimeSeriesStore.from_records(store.to_records())
        assert rebuilt.get("x").points == [(0.0, 1.0)]


class TestRecorderSampleIdiom:
    def test_recorder_sample_routes_to_attached_store(self):
        store = TimeSeriesStore()
        recorder = Recorder(timeseries=store)
        recorder.sample("x", 3, 0.75)
        assert store.get("x").points == [(3.0, 0.75)]

    def test_recorder_without_store_discards(self):
        recorder = Recorder()
        assert recorder.timeseries is None
        recorder.sample("x", 0, 1.0)  # must not raise

    def test_null_recorder_discards(self):
        null = NullRecorder()
        assert null.timeseries is None
        null.sample("x", 0, 1.0)  # must not raise

    def test_recording_context_exposes_store(self):
        store = TimeSeriesStore()
        with _obs.recording(Recorder(timeseries=store)):
            assert _obs.ENABLED
            _obs.RECORDER.sample("ctx", 1, 2.0)
        assert not _obs.ENABLED
        assert store.get("ctx").values() == [2.0]
