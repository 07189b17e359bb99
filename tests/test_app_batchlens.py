"""Tests for the BatchLens facade."""

import pytest

from repro.app.batchlens import BatchLens
from repro.errors import BatchLensError
from repro.trace.records import TraceBundle
from repro.trace.writer import write_trace
from tests.conftest import fast_config, mid_timestamp


class TestConstruction:
    def test_from_bundle(self, healthy_bundle):
        lens = BatchLens.from_bundle(healthy_bundle)
        assert lens.time_extent == healthy_bundle.time_range()

    def test_requires_usage(self, healthy_bundle):
        with pytest.raises(BatchLensError):
            BatchLens(TraceBundle(tasks=healthy_bundle.tasks,
                                  instances=healthy_bundle.instances))

    def test_requires_scheduler_tables(self, healthy_bundle):
        with pytest.raises(BatchLensError):
            BatchLens(TraceBundle(usage=healthy_bundle.usage))

    def test_generate(self):
        lens = BatchLens.generate(fast_config("healthy", seed=42))
        assert lens.bundle.meta["seed"] == 42

    def test_generate_with_overrides(self):
        lens = BatchLens.generate(fast_config(), scenario="hotjob", seed=3)
        assert lens.bundle.meta["scenario"] == "hotjob"

    def test_from_directory_roundtrip(self, tmp_path, healthy_bundle):
        write_trace(healthy_bundle, tmp_path)
        lens = BatchLens.from_directory(tmp_path)
        assert set(lens.hierarchy.job_ids) == set(healthy_bundle.job_ids())


class TestQueries:
    def test_stats_match_hierarchy(self, healthy_lens, healthy_bundle):
        stats = healthy_lens.stats()
        assert stats.num_jobs == len(healthy_bundle.job_ids())
        assert stats.num_machines == len(healthy_bundle.machine_ids())

    def test_snapshot_regime(self, thrashing_lens, thrashing_bundle):
        t0, t1 = thrashing_bundle.meta["thrashing"]["window"]
        assessment = thrashing_lens.snapshot((t0 + t1) / 2)
        assert assessment.regime.value in ("busy", "saturated")

    def test_active_jobs(self, healthy_lens, healthy_bundle):
        timestamp = mid_timestamp(healthy_bundle)
        rows = healthy_lens.active_jobs(timestamp)
        assert {row["job_id"] for row in rows} == set(
            healthy_bundle.active_jobs(timestamp))

    def test_session_factory(self, healthy_lens):
        session = healthy_lens.session()
        assert session.hierarchy is healthy_lens.hierarchy

    def test_detect_sweeps_cluster(self, thrashing_lens, thrashing_bundle):
        events = thrashing_lens.pipeline(detectors="threshold",
                                         metrics=("mem",),
                                         sinks=()).run().events()
        flagged = {e.subject for e in events}
        truth = set(thrashing_bundle.meta["thrashing"]["machines"])
        assert truth & flagged
        assert all(e.kind == "threshold" and e.metric == "mem" for e in events)


class TestCharts:
    def test_bubble_chart_renders(self, hotjob_lens, hotjob_bundle):
        chart = hotjob_lens.bubble_chart(mid_timestamp(hotjob_bundle), max_jobs=5)
        svg = chart.to_svg()
        assert "job-bubble" in svg
        assert "node-ring-cpu" in svg

    def test_job_lines_render_with_annotations(self, hotjob_lens, hotjob_bundle):
        job_id = hotjob_bundle.job_ids()[0]
        chart = hotjob_lens.job_lines(job_id)
        svg = chart.to_svg()
        assert "metric-line" in svg
        assert "annotation-start" in svg
        assert "annotation-end" in svg

    def test_job_lines_zoom(self, hotjob_lens, hotjob_bundle):
        job_id = hotjob_bundle.job_ids()[0]
        chart = hotjob_lens.job_lines(job_id)
        t0, t1 = chart.model.time_extent()
        zoomed = chart.zoomed(t0 + (t1 - t0) * 0.25, t0 + (t1 - t0) * 0.75)
        assert "zoom" in zoomed.title

    def test_timeline_and_heatmap(self, healthy_lens, healthy_bundle):
        timestamp = mid_timestamp(healthy_bundle)
        assert "timeline-line" in healthy_lens.timeline(
            selected_timestamp=timestamp).to_svg()
        assert "heat-cell" in healthy_lens.heatmap(metric="mem").to_svg()


class TestDashboard:
    def test_dashboard_contains_linked_views(self, hotjob_lens, hotjob_bundle):
        timestamp = mid_timestamp(hotjob_bundle)
        dash = hotjob_lens.dashboard(timestamp, max_line_panels=2)
        html = dash.to_html()
        assert "panel-timeline" in html
        assert "panel-bubble" in html
        assert html.count("<section") >= 3
        assert "data-machine" in html

    def test_dashboard_explicit_jobs(self, hotjob_lens, hotjob_bundle):
        timestamp = mid_timestamp(hotjob_bundle)
        job_id = hotjob_bundle.active_jobs(timestamp)[0]
        dash = hotjob_lens.dashboard(timestamp, jobs=[job_id], metrics=("cpu",))
        assert f"panel-job-{job_id}" in dash.to_html()

    def test_dashboard_unknown_metric_rejected(self, hotjob_lens, hotjob_bundle):
        with pytest.raises(BatchLensError):
            hotjob_lens.dashboard(mid_timestamp(hotjob_bundle), metrics=("gpu",))

    def test_save_dashboard(self, tmp_path, healthy_lens, healthy_bundle):
        path = healthy_lens.save_dashboard(mid_timestamp(healthy_bundle),
                                           tmp_path / "dash.html",
                                           max_line_panels=1)
        assert path.exists()
        assert path.read_text().startswith("<!DOCTYPE html>")
