"""Tests for the online monitor's vectorized batch catch-up path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SeriesError
from repro.metrics.store import MetricStore
from repro.stream.monitor import MonitorConfig, OnlineMonitor
from repro.stream.session import StreamSession
from repro.stream.store import StreamingMetricStore


def make_store(num_machines: int = 4, num_samples: int = 24,
               seed: int = 0) -> MetricStore:
    rng = np.random.default_rng(seed)
    ids = [f"m{i}" for i in range(num_machines)]
    store = MetricStore(ids, np.arange(num_samples) * 60.0)
    store.data[:] = rng.uniform(10.0, 70.0, store.data.shape)
    # machine 0 crosses the threshold twice, machine 1 once (to the end)
    store.metric_block("cpu")[0, 5:8] = 97.0
    store.metric_block("cpu")[0, 15:17] = 95.0
    store.metric_block("mem")[1, 10:] = 99.0
    return store


class TestAppendBlock:
    def test_bulk_matches_sequential(self):
        store = make_store()
        seq = StreamingMetricStore(store.machine_ids, window_samples=64)
        for idx, timestamp in enumerate(store.timestamps):
            seq.append(float(timestamp),
                       {mid: {m: float(store.data[i, j, idx])
                              for j, m in enumerate(store.metrics)}
                        for i, mid in enumerate(store.machine_ids)})
        bulk = StreamingMetricStore(store.machine_ids, window_samples=64)
        bulk.append_block(store.timestamps, store.data)
        np.testing.assert_array_equal(seq.snapshot_store().data,
                                      bulk.snapshot_store().data)
        assert seq.snapshot_store().timestamps.tolist() == \
            bulk.snapshot_store().timestamps.tolist()

    def test_rejects_bad_shape(self):
        stream = StreamingMetricStore(["a"], window_samples=8)
        with pytest.raises(SeriesError):
            stream.append_block(np.arange(3.0), np.zeros((2, 3, 3)))

    def test_rejects_non_increasing_timestamps(self):
        stream = StreamingMetricStore(["a"], window_samples=8)
        with pytest.raises(SeriesError):
            stream.append_block(np.array([0.0, 0.0]), np.zeros((1, 3, 2)))

    def test_rejects_timestamps_before_existing(self):
        stream = StreamingMetricStore(["a"], window_samples=8)
        stream.append(100.0, {"a": {"cpu": 1.0}})
        with pytest.raises(SeriesError):
            stream.append_block(np.array([50.0]), np.zeros((1, 3, 1)))

    def test_rejects_out_of_range_values(self):
        stream = StreamingMetricStore(["a"], window_samples=8)
        block = np.full((1, 3, 2), 120.0)
        with pytest.raises(SeriesError):
            stream.append_block(np.array([0.0, 60.0]), block)

    def test_window_still_bounded(self):
        stream = StreamingMetricStore(["a"], window_samples=4)
        stream.append_block(np.arange(10) * 60.0,
                            np.zeros((1, 3, 10)))
        assert len(stream) == 4
        assert stream.latest_timestamp == 9 * 60.0

    def test_oversized_block_does_not_pin_full_history(self):
        # the store must not hold the whole catch-up block alive: its
        # storage is a preallocated mirrored ring of 2 x window frames,
        # and the window it serves shares that ring, not the input block
        stream = StreamingMetricStore(["a", "b"], window_samples=4)
        block = np.zeros((2, 3, 1000))
        stream.append_block(np.arange(1000) * 60.0, block)
        max_ring = 2 * 4 * 2 * 3 * 8  # mirrored window frames of float64
        assert stream._buffer.nbytes <= max_ring
        view = stream.window_view()
        assert np.shares_memory(view.data, stream._buffer)
        assert not np.shares_memory(view.data, block)

    def test_oversized_block_values_correct(self):
        stream = StreamingMetricStore(["a"], window_samples=3)
        block = np.arange(10, dtype=np.float64).reshape(1, 1, 10) * np.ones(
            (1, 3, 1))
        stream.append_block(np.arange(10) * 60.0, block)
        snap = stream.snapshot_store()
        assert snap.timestamps.tolist() == [420.0, 480.0, 540.0]
        assert snap.series("a", "cpu").values.tolist() == [7.0, 8.0, 9.0]


class TestCatchUp:
    def test_threshold_alerts_identical_to_sequential(self):
        store = make_store()
        config = MonitorConfig(utilisation_threshold=92.0)
        sequential = OnlineMonitor(store.machine_ids, config=config,
                                   window_samples=64)
        for idx, timestamp in enumerate(store.timestamps):
            sequential.observe(float(timestamp),
                               {mid: {m: float(store.data[i, j, idx])
                                      for j, m in enumerate(store.metrics)}
                                for i, mid in enumerate(store.machine_ids)})
        batch = OnlineMonitor(store.machine_ids, config=config,
                              window_samples=64)
        batch.catch_up(store)
        assert (batch.alerts_of_kind("threshold")
                == sequential.alerts_of_kind("threshold"))
        assert len(batch.alerts_of_kind("threshold")) == 3
        assert batch._over_threshold == sequential._over_threshold

    def test_catch_up_resumes_open_episode(self):
        store = make_store()
        config = MonitorConfig(utilisation_threshold=92.0)
        monitor = OnlineMonitor(store.machine_ids, config=config,
                                window_samples=64)
        # machine 1 mem is over threshold from sample 10 to the end; feed the
        # first 12 samples one by one, then catch up on the rest — the open
        # episode must not re-alert at the block boundary.
        for idx in range(12):
            monitor.observe(float(store.timestamps[idx]),
                            {mid: {m: float(store.data[i, j, idx])
                                   for j, m in enumerate(store.metrics)}
                             for i, mid in enumerate(store.machine_ids)})
        before = len(monitor.alerts_of_kind("threshold"))
        tail = store.window(float(store.timestamps[12]),
                            float(store.timestamps[-1]))
        alerts = monitor.catch_up(tail)
        threshold_alerts = [a for a in alerts if a.kind == "threshold"]
        # only machine 0's second excursion (t=15..16) is new
        assert [a.subject for a in threshold_alerts] == ["m0"]
        assert len(monitor.alerts_of_kind("threshold")) == before + 1

    def test_catch_up_runs_regime_and_thrashing_once(self):
        store = make_store(num_machines=6, num_samples=32, seed=3)
        monitor = OnlineMonitor(store.machine_ids, window_samples=64)
        monitor.catch_up(store)
        assert monitor.current_regime is not None
        assert monitor._samples_seen == store.num_samples

    def test_catch_up_empty_store_is_noop(self):
        store = MetricStore(["a"], np.array([]))
        monitor = OnlineMonitor(["a"])
        assert monitor.catch_up(store) == []

    def test_catch_up_missing_machine_rejected(self):
        store = make_store()
        monitor = OnlineMonitor(store.machine_ids + ["ghost"])
        with pytest.raises(SeriesError):
            monitor.catch_up(store)

    def test_catch_up_reorders_machines(self):
        store = make_store()
        monitor = OnlineMonitor(list(reversed(store.machine_ids)),
                                config=MonitorConfig(utilisation_threshold=92.0))
        monitor.catch_up(store)
        assert {a.subject for a in monitor.alerts_of_kind("threshold")} == \
            {"m0", "m1"}


class TestBatchReplay:
    @staticmethod
    def _replay(bundle, cadence):
        session = StreamSession(bundle.usage.machine_ids, cadence=cadence)
        session.ingest(bundle.usage)
        return session.monitor

    def test_replay_bundle_batch_threshold_parity(self, thrashing_bundle):
        sequential = self._replay(thrashing_bundle, "sample")
        batch = self._replay(thrashing_bundle, "catch-up")
        assert (batch.alerts_of_kind("threshold")
                == sequential.alerts_of_kind("threshold"))
        # batch mode still lands on a regime assessment
        assert batch.current_regime is not None
