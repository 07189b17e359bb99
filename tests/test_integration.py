"""Cross-module integration tests: the full analyst workflow end to end."""

import numpy as np
import pytest

from repro.analysis.patterns import Regime, classify_regime
from repro.analysis.rootcause import anomalous_machines_in_window, rank_root_causes
from repro.app.batchlens import BatchLens
from repro.app.export import case_study_narrative
from repro.baselines.flat_dashboard import FlatDashboard
from repro.baselines.threshold_monitor import ThresholdMonitor
from repro.cluster.hierarchy import BatchHierarchy
from repro.trace.loader import load_trace
from repro.trace.validate import validate_bundle
from repro.trace.writer import write_trace
from tests.conftest import fast_config, mid_timestamp


class TestGenerateSaveLoadAnalyse:
    """Generate → write CSV → reload → analyse, as a downstream user would."""

    def test_full_pipeline_via_disk(self, tmp_path):
        lens = BatchLens.generate(fast_config("hotjob", seed=55))
        write_trace(lens.bundle, tmp_path / "trace")
        reloaded = load_trace(tmp_path / "trace")
        assert validate_bundle(reloaded).ok

        lens2 = BatchLens.from_bundle(reloaded)
        assert lens2.stats().num_jobs == lens.stats().num_jobs

        timestamp = mid_timestamp(reloaded)
        dashboard = lens2.dashboard(timestamp, max_line_panels=1)
        path = dashboard.save(tmp_path / "dash.html")
        html = path.read_text()
        assert "panel-bubble" in html
        assert "node-ring-cpu" in html


class TestAnalystWorkflow:
    """The §IV workflow: timeline → snapshot → bubble chart → job drill-down."""

    def test_interactive_drilldown(self, hotjob_bundle):
        lens = BatchLens.from_bundle(hotjob_bundle)
        session = lens.session()

        # 1. pick the moment of peak cluster CPU from the timeline
        timeline = session.timeline_model()
        peak_time = timeline.layers["cpu"].argmax()
        session.select_timestamp(peak_time)

        # 2. the bubble chart shows the active jobs at that moment
        bubble = session.bubble_model()
        assert bubble.jobs
        assert {j.job_id for j in bubble.jobs} <= set(
            hotjob_bundle.active_jobs(peak_time))

        # 3. drill into the busiest job's line chart and brush a window
        busiest = session.active_jobs()[0]["job_id"]
        session.select_job(busiest)
        lo, hi = session.time_extent
        session.brush(max(lo, peak_time - 1200), min(hi, peak_time + 1200))
        model = session.line_model()
        assert model.brush is not None
        assert len(model.lines) >= 1

        # 4. the zoomed detail view restricts itself to the brushed window
        from repro.vis.charts.line import MultiLineChart

        chart = MultiLineChart(model)
        zoomed = chart.zoomed(*model.brush)
        z0, z1 = zoomed.model.time_extent()
        assert z0 >= model.brush[0] - 1e-6
        assert z1 <= model.brush[1] + 1e-6

    def test_hot_job_is_visually_hotter_than_cluster(self, hotjob_bundle):
        """The Fig. 3(b) reading: the hot job's nodes are redder than the rest."""
        lens = BatchLens.from_bundle(hotjob_bundle)
        hot_id = hotjob_bundle.meta["hot_job_id"]
        instances = hotjob_bundle.instances_of_job(hot_id)
        during = (min(i.start_timestamp for i in instances)
                  + max(i.end_timestamp for i in instances)) / 2
        model = lens.session()
        model.select_timestamp(during)
        bubble = model.bubble_model()
        hot_nodes = [n for j in bubble.jobs if j.job_id == hot_id
                     for t in j.tasks for n in t.nodes]
        other_nodes = [n for j in bubble.jobs if j.job_id != hot_id
                       for t in j.tasks for n in t.nodes]
        if hot_nodes and other_nodes:
            assert (np.mean([n.cpu for n in hot_nodes])
                    >= np.mean([n.cpu for n in other_nodes]) - 5.0)


class TestCaseStudyRegimes:
    """The three Fig. 3 regimes are distinguishable programmatically."""

    def test_regime_progression(self, healthy_bundle, hotjob_bundle,
                                thrashing_bundle):
        order = [Regime.IDLE, Regime.HEALTHY, Regime.BUSY, Regime.SATURATED]
        ranks = {}
        for name, bundle in (("healthy", healthy_bundle), ("hotjob", hotjob_bundle),
                             ("thrashing", thrashing_bundle)):
            if name == "thrashing":
                t0, t1 = bundle.meta["thrashing"]["window"]
                timestamp = (t0 + t1) / 2
            else:
                timestamp = mid_timestamp(bundle)
            ranks[name] = order.index(classify_regime(bundle.usage, timestamp).regime)
        assert ranks["healthy"] <= ranks["hotjob"] <= ranks["thrashing"]
        assert ranks["thrashing"] == order.index(Regime.SATURATED)

    def test_thrashing_root_cause_analysis_closes_the_loop(self, thrashing_bundle):
        hierarchy = BatchHierarchy.from_bundle(thrashing_bundle)
        t0, t1 = thrashing_bundle.meta["thrashing"]["window"]
        machines = anomalous_machines_in_window(
            thrashing_bundle.usage, (t0, t1), metric="mem", threshold=80.0)
        assert machines
        candidates = rank_root_causes(thrashing_bundle, hierarchy, machines, (t0, t1))
        assert candidates
        assert candidates[0].score >= candidates[-1].score

    def test_narratives_differ_between_regimes(self, healthy_bundle,
                                               thrashing_bundle):
        healthy_text = case_study_narrative(healthy_bundle,
                                            mid_timestamp(healthy_bundle))
        t0, t1 = thrashing_bundle.meta["thrashing"]["window"]
        thrash_text = case_study_narrative(thrashing_bundle, (t0 + t1) / 2)
        assert "Thrashing detected" in thrash_text
        assert "Thrashing detected" not in healthy_text


class TestBatchLensVsBaselines:
    """BatchLens exposes the attribution the baselines cannot."""

    def test_baseline_alerts_but_cannot_attribute(self, thrashing_bundle):
        monitor = ThresholdMonitor(mem_threshold=90.0)
        monitor.ingest(monitor.scan_pipeline(thrashing_bundle.usage).run())
        alerted = monitor.alerted_machines()
        assert alerted, "the baseline does notice the saturated machines"

        # BatchLens goes one step further: from machines to the causing job
        hierarchy = BatchHierarchy.from_bundle(thrashing_bundle)
        t0, t1 = thrashing_bundle.meta["thrashing"]["window"]
        candidates = rank_root_causes(thrashing_bundle, hierarchy,
                                      sorted(alerted), (t0, t1))
        assert candidates, "BatchLens names candidate jobs, the baseline cannot"

    def test_both_dashboards_render_from_same_bundle(self, tmp_path, hotjob_bundle):
        timestamp = mid_timestamp(hotjob_bundle)
        lens_path = BatchLens.from_bundle(hotjob_bundle).save_dashboard(
            timestamp, tmp_path / "batchlens.html", max_line_panels=1)
        flat_path = FlatDashboard.from_bundle(hotjob_bundle).save(
            tmp_path / "flat.html")
        assert lens_path.exists() and flat_path.exists()
        assert 'class="job-bubble"' in lens_path.read_text()
        assert 'class="job-bubble"' not in flat_path.read_text()


class TestDeterminismAcrossTheStack:
    def test_same_seed_same_dashboard(self, tmp_path):
        html_a = BatchLens.generate(fast_config("hotjob", seed=99)).dashboard(
            3600, max_line_panels=1).to_html()
        html_b = BatchLens.generate(fast_config("hotjob", seed=99)).dashboard(
            3600, max_line_panels=1).to_html()
        assert html_a == html_b
