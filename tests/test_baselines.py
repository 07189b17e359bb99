"""Tests for the baseline tools (threshold monitor, flat dashboard, tabular)."""

import numpy as np
import pytest

from repro.baselines.flat_dashboard import FlatDashboard
from repro.baselines.tabular import TabularReport
from repro.baselines.threshold_monitor import ThresholdMonitor
from repro.errors import BatchLensError
from repro.metrics.store import MetricStore
from repro.trace.records import TraceBundle
from tests.conftest import mid_timestamp


def store_with_hot_machine() -> MetricStore:
    store = MetricStore(["cold", "hot"], np.arange(0, 600, 60, dtype=float))
    store.set_series("cold", "cpu", np.full(10, 30.0))
    store.set_series("hot", "cpu", np.concatenate([np.full(5, 30.0), np.full(5, 97.0)]))
    store.set_series("hot", "mem", np.full(10, 95.0))
    return store


class TestThresholdMonitor:
    def test_alerts_on_hot_machine_only(self):
        monitor = ThresholdMonitor(cpu_threshold=90, mem_threshold=90,
                                   disk_threshold=90)
        alerts = monitor.ingest(
            monitor.scan_pipeline(store_with_hot_machine()).run())
        assert alerts
        assert {a.machine_id for a in alerts} == {"hot"}
        metrics = {a.metric for a in alerts}
        assert metrics == {"cpu", "mem"}

    def test_alerted_machines_window_filter(self):
        monitor = ThresholdMonitor()
        monitor.ingest(monitor.scan_pipeline(store_with_hot_machine()).run())
        assert monitor.alerted_machines((0, 200)) == {"hot"}  # mem alert spans all
        assert "hot" in monitor.alerted_machines()

    def test_precision_recall(self):
        monitor = ThresholdMonitor()
        monitor.ingest(monitor.scan_pipeline(store_with_hot_machine()).run())
        precision, recall = monitor.precision_recall({"hot"})
        assert precision == 1.0
        assert recall == 1.0
        precision, recall = monitor.precision_recall({"cold"})
        assert precision == 0.0
        assert recall == 0.0

    def test_precision_recall_without_alerts(self):
        monitor = ThresholdMonitor(cpu_threshold=99.9, mem_threshold=99.9,
                                   disk_threshold=99.9)
        store = MetricStore(["a"], np.array([0.0]))
        monitor.ingest(monitor.scan_pipeline(store).run())
        assert monitor.precision_recall(set()) == (0.0, 1.0)

    def test_to_events(self):
        monitor = ThresholdMonitor()
        monitor.ingest(monitor.scan_pipeline(store_with_hot_machine()).run())
        events = monitor.to_events()
        assert len(events) == len(monitor.alerts)
        assert all(e.kind == "threshold-alert" for e in events)

    def test_detects_thrashing_scenario_machines(self, thrashing_bundle):
        monitor = ThresholdMonitor(mem_threshold=90.0)
        monitor.ingest(monitor.scan_pipeline(thrashing_bundle.usage).run())
        injected = set(thrashing_bundle.meta["thrashing"]["machines"])
        _, recall = monitor.precision_recall(
            injected, window=tuple(thrashing_bundle.meta["thrashing"]["window"]))
        assert recall >= 0.5


class TestFlatDashboard:
    def test_build_contains_heatmaps(self, healthy_bundle):
        dashboard = FlatDashboard.from_bundle(healthy_bundle).build()
        html = dashboard.to_html()
        assert html.count("heat map") >= 3
        # the flat baseline has no hierarchy view: no job bubbles anywhere
        assert 'class="job-bubble"' not in html

    def test_requires_usage(self):
        with pytest.raises(BatchLensError):
            FlatDashboard.from_bundle(TraceBundle())

    def test_save(self, tmp_path, healthy_bundle):
        path = FlatDashboard.from_bundle(healthy_bundle).save(tmp_path / "flat.html")
        assert path.exists()


class TestTabularReport:
    def test_report_sections(self, healthy_bundle):
        report = TabularReport(healthy_bundle, top_n=5)
        text = report.report(mid_timestamp(healthy_bundle))
        assert "Busiest machines" in text
        assert "Longest jobs" in text
        assert "Largest jobs" in text

    def test_busiest_machines_sorted(self, healthy_bundle):
        report = TabularReport(healthy_bundle, top_n=3)
        table = report.busiest_machines_table(mid_timestamp(healthy_bundle))
        lines = table.splitlines()[2:]
        values = [float(line.split()[-1].rstrip("%")) for line in lines]
        assert values == sorted(values, reverse=True)
        assert len(values) == 3

    def test_invalid_top_n(self, healthy_bundle):
        with pytest.raises(BatchLensError):
            TabularReport(healthy_bundle, top_n=0)

    def test_largest_jobs_counts(self, healthy_bundle):
        report = TabularReport(healthy_bundle, top_n=1)
        table = report.largest_jobs_table()
        top_job = table.splitlines()[2].split()[0]
        counts = {}
        for inst in healthy_bundle.instances:
            counts[inst.job_id] = counts.get(inst.job_id, 0) + 1
        assert counts[top_job] == max(counts.values())
