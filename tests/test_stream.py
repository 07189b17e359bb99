"""Tests for the streaming store and the online monitor (paper future work)."""

import numpy as np
import pytest

from repro.analysis.patterns import Regime
from repro.errors import SeriesError
from repro.stream.monitor import MonitorConfig, OnlineMonitor, iter_samples
from repro.stream.replay import TraceReplayer
from repro.stream.store import StreamingMetricStore


def frame(cpu: float, mem: float, machines=("m1", "m2")) -> dict:
    return {mid: {"cpu": cpu, "mem": mem, "disk": 10.0} for mid in machines}


class TestStreamingStore:
    def test_append_and_query(self):
        store = StreamingMetricStore(["m1", "m2"], window_samples=8)
        store.append(0, frame(10, 20))
        store.append(60, frame(30, 40))
        assert len(store) == 2
        assert store.latest("m1", "cpu") == 30.0
        assert store.latest_timestamp == 60.0

    def test_monotonic_timestamps_enforced(self):
        store = StreamingMetricStore(["m1"], window_samples=4)
        store.append(0, {"m1": {"cpu": 1}})
        with pytest.raises(SeriesError):
            store.append(0, {"m1": {"cpu": 2}})

    def test_unknown_machine_and_metric_rejected(self):
        store = StreamingMetricStore(["m1"], window_samples=4)
        with pytest.raises(SeriesError):
            store.append(0, {"ghost": {"cpu": 1}})
        with pytest.raises(SeriesError):
            store.append(0, {"m1": {"gpu": 1}})

    def test_out_of_range_value_rejected(self):
        store = StreamingMetricStore(["m1"], window_samples=4)
        with pytest.raises(SeriesError):
            store.append(0, {"m1": {"cpu": 150}})

    def test_missing_machine_carries_last_value_forward(self):
        store = StreamingMetricStore(["m1", "m2"], window_samples=4)
        store.append(0, frame(10, 20))
        store.append(60, {"m1": {"cpu": 50.0}})
        assert store.latest("m2", "cpu") == 10.0
        assert store.latest("m1", "cpu") == 50.0

    def test_window_eviction(self):
        store = StreamingMetricStore(["m1"], window_samples=3)
        for i in range(5):
            store.append(i * 60, {"m1": {"cpu": float(i)}})
        assert len(store) == 3
        assert store.is_full()
        snapshot = store.snapshot_store()
        assert list(snapshot.timestamps) == [120, 180, 240]

    def test_snapshot_store_matches_appended_values(self):
        store = StreamingMetricStore(["m1", "m2"], window_samples=8)
        store.append(0, frame(10, 20))
        store.append(60, frame(30, 40))
        snapshot = store.snapshot_store()
        assert snapshot.series("m1", "cpu").values.tolist() == [10.0, 30.0]
        assert snapshot.series("m2", "mem").values.tolist() == [20.0, 40.0]

    def test_empty_store_queries_raise(self):
        store = StreamingMetricStore(["m1"], window_samples=4)
        with pytest.raises(SeriesError):
            store.snapshot_store()
        with pytest.raises(SeriesError):
            _ = store.latest_timestamp

    def test_invalid_window(self):
        with pytest.raises(SeriesError):
            StreamingMetricStore(["m1"], window_samples=1)


class TestOnlineMonitor:
    def test_threshold_alert_fires_once_per_excursion(self):
        monitor = OnlineMonitor(["m1", "m2"],
                                config=MonitorConfig(utilisation_threshold=90.0))
        monitor.observe(0, frame(50, 50))
        alerts = monitor.observe(60, {"m1": {"cpu": 95.0, "mem": 50.0, "disk": 0.0},
                                      "m2": {"cpu": 40.0, "mem": 40.0, "disk": 0.0}})
        assert [a.kind for a in alerts].count("threshold") == 1
        # staying above the threshold does not re-fire
        alerts = monitor.observe(120, {"m1": {"cpu": 96.0, "mem": 50.0, "disk": 0.0}})
        assert not [a for a in alerts if a.kind == "threshold"]
        # dropping below re-arms the alert
        monitor.observe(180, {"m1": {"cpu": 40.0, "mem": 50.0, "disk": 0.0}})
        alerts = monitor.observe(240, {"m1": {"cpu": 97.0, "mem": 50.0, "disk": 0.0}})
        assert [a.kind for a in alerts].count("threshold") == 1

    def test_regime_change_alert(self):
        monitor = OnlineMonitor(["m1", "m2"])
        for i in range(3):
            monitor.observe(i * 60, frame(25, 25))
        alerts = []
        for i in range(3, 6):
            alerts += monitor.observe(i * 60, frame(85, 85))
        regime_alerts = [a for a in alerts if a.kind == "regime-change"]
        assert regime_alerts
        assert monitor.current_regime == Regime.SATURATED
        assert regime_alerts[-1].severity == "critical"

    def test_thrashing_alert_on_collapse(self):
        monitor = OnlineMonitor(["m1"], config=MonitorConfig(thrashing_scan_every=1))
        # healthy phase
        for i in range(10):
            monitor.observe(i * 60, {"m1": {"cpu": 70, "mem": 60, "disk": 0}})
        # memory saturates while CPU collapses
        for i in range(10, 20):
            cpu = max(5.0, 70 - (i - 9) * 8)
            monitor.observe(i * 60, {"m1": {"cpu": cpu, "mem": 96, "disk": 0}})
        assert monitor.alerts_of_kind("thrashing")
        assert monitor.summary().get("thrashing", 0) >= 1

    @staticmethod
    def _feed(monitor, start_s: float, count: int, *, cpu: float,
              mem: float) -> float:
        t = start_s
        for _ in range(count):
            monitor.observe(t, {"m1": {"cpu": cpu, "mem": mem, "disk": 5.0}})
            t += 60.0
        return t

    def test_thrashing_episode_alerts_once_despite_flapping(self):
        """A detection-boundary dip mid-episode must not re-emit the alert."""
        monitor = OnlineMonitor(["m1"], config=MonitorConfig())
        t = self._feed(monitor, 0.0, 12, cpu=50, mem=30)      # healthy
        t = self._feed(monitor, t, 16, cpu=5, mem=95)          # episode starts
        t = self._feed(monitor, t, 8, cpu=50, mem=30)          # brief clearance
        self._feed(monitor, t, 16, cpu=5, mem=95)              # episode resumes
        assert len(monitor.alerts_of_kind("thrashing")) == 1

    def test_thrashing_new_episode_alerts_again_after_cooldown(self):
        """A genuinely new episode (long clearance) still raises a new alert."""
        monitor = OnlineMonitor(["m1"], config=MonitorConfig())
        t = self._feed(monitor, 0.0, 12, cpu=50, mem=30)
        t = self._feed(monitor, t, 16, cpu=5, mem=95)          # first episode
        t = self._feed(monitor, t, 16, cpu=50, mem=30)         # real recovery
        self._feed(monitor, t, 16, cpu=5, mem=95)              # second episode
        assert len(monitor.alerts_of_kind("thrashing")) == 2

    def test_thrashing_clear_scans_validated(self):
        with pytest.raises(SeriesError):
            MonitorConfig(thrashing_clear_scans=0).validate()


class TestReplay:
    def test_iter_samples_covers_every_timestamp(self, healthy_bundle):
        frames = list(iter_samples(healthy_bundle.usage))
        assert len(frames) == healthy_bundle.usage.num_samples
        timestamp, sample = frames[0]
        assert set(sample) == set(healthy_bundle.usage.machine_ids)

    def test_replay_thrashing_bundle_raises_critical_alerts(self, thrashing_bundle):
        replayer = TraceReplayer(
            thrashing_bundle,
            monitor_config=MonitorConfig(thrashing_scan_every=2))
        replayer.run_to_end()
        kinds = replayer.monitor.summary()
        assert kinds.get("threshold", 0) >= 1
        assert kinds.get("thrashing", 0) >= 1

    def test_replay_healthy_bundle_is_mostly_quiet(self, healthy_bundle):
        replayer = TraceReplayer(healthy_bundle)
        replayer.run_to_end()
        assert replayer.monitor.summary().get("thrashing", 0) == 0
