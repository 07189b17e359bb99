"""Tests for the trace replay harness."""

import pytest

from repro.errors import SeriesError
from repro.stream.alerts import AlertManager, AlertPolicy
from repro.stream.monitor import MonitorConfig
from repro.stream.replay import TraceReplayer, alert_timeline, replay_with_alerts
from repro.trace.records import TraceBundle

from tests.conftest import mid_timestamp


class TestTraceReplayer:
    def test_replays_every_sample(self, healthy_bundle):
        replayer = TraceReplayer(healthy_bundle, samples_per_step=8)
        report = replayer.run_to_end()
        assert report.samples_replayed == healthy_bundle.usage.num_samples
        assert replayer.finished
        assert report.duration_s > 0

    def test_step_respects_batch_size(self, healthy_bundle):
        replayer = TraceReplayer(healthy_bundle, samples_per_step=4)
        replayer.step()
        assert replayer.samples_replayed == 4

    def test_run_until_stops_at_timestamp(self, healthy_bundle):
        target = mid_timestamp(healthy_bundle)
        replayer = TraceReplayer(healthy_bundle)
        replayer.run_until(target)
        assert replayer.current_timestamp is not None
        assert replayer.current_timestamp >= target
        assert not replayer.finished or replayer.current_timestamp >= target

    def test_report_tracks_cpu_statistics(self, healthy_bundle):
        report = TraceReplayer(healthy_bundle, samples_per_step=16).run_to_end()
        assert 0.0 < report.mean_cpu < 100.0
        assert report.mean_cpu <= report.p95_cpu <= 100.0

    def test_checkpoint_before_start_rejected(self, healthy_bundle):
        with pytest.raises(SeriesError):
            TraceReplayer(healthy_bundle).checkpoint()

    def test_checkpoints_recorded_in_report(self, healthy_bundle):
        replayer = TraceReplayer(healthy_bundle, samples_per_step=4)
        replayer.step()
        first = replayer.checkpoint()
        replayer.run_to_end()
        second = replayer.checkpoint()
        report = replayer.report()
        assert report.checkpoints == (first, second)
        assert second.samples_replayed > first.samples_replayed

    def test_empty_bundle_rejected(self):
        with pytest.raises(SeriesError):
            TraceReplayer(TraceBundle())

    def test_invalid_samples_per_step(self, healthy_bundle):
        with pytest.raises(SeriesError):
            TraceReplayer(healthy_bundle, samples_per_step=0)

    def test_alerts_flow_into_manager(self, thrashing_bundle):
        manager = AlertManager(policy=AlertPolicy(min_severity="warning"))
        replayer = TraceReplayer(
            thrashing_bundle, alert_manager=manager, samples_per_step=8,
            monitor_config=MonitorConfig(utilisation_threshold=85.0))
        report = replayer.run_to_end()
        assert sum(report.alerts_by_kind.values()) == len(replayer.monitor.alerts)
        assert manager.history, "thrashing replay should raise at least one alert"


class TestReplayWithAlerts:
    def test_checkpoints_at_requested_timestamps(self, hotjob_bundle):
        start, end = hotjob_bundle.time_range()
        targets = [start + (end - start) * f for f in (0.25, 0.75)]
        report, manager = replay_with_alerts(hotjob_bundle, checkpoints_at=targets)
        assert len(report.checkpoints) == 2
        assert report.checkpoints[0].timestamp >= targets[0]
        assert report.checkpoints[1].timestamp >= targets[1]
        assert isinstance(manager, AlertManager)

    def test_thrashing_scenario_raises_critical_alerts(self, thrashing_bundle):
        report, manager = replay_with_alerts(
            thrashing_bundle,
            monitor_config=MonitorConfig(utilisation_threshold=85.0))
        assert report.alerts_by_kind, "expected at least one alert kind"
        assert report.final_regime is not None

    def test_alert_timeline_sorted(self, thrashing_bundle):
        _, manager = replay_with_alerts(
            thrashing_bundle,
            monitor_config=MonitorConfig(utilisation_threshold=85.0))
        timeline = alert_timeline(manager)
        timestamps = [row[0] for row in timeline]
        assert timestamps == sorted(timestamps)

    def test_healthy_scenario_quieter_than_thrashing(self, healthy_bundle,
                                                     thrashing_bundle):
        config = MonitorConfig(utilisation_threshold=90.0)
        healthy_report, _ = replay_with_alerts(healthy_bundle, monitor_config=config)
        thrash_report, _ = replay_with_alerts(thrashing_bundle, monitor_config=config)
        assert (sum(healthy_report.alerts_by_kind.values())
                <= sum(thrash_report.alerts_by_kind.values()))
