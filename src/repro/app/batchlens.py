"""The BatchLens facade: the library's primary public API.

Typical use::

    from repro import BatchLens

    lens = BatchLens.generate(scenario="hotjob", seed=7)   # or .from_directory(...)
    lens.dashboard(timestamp=9000).save("batchlens.html")

    chart = lens.bubble_chart(timestamp=9000)
    lines = lens.job_lines("job_1042", metric="cpu")
    detail = lines.zoomed(8000, 12000)                      # Fig. 2(b)

Detection goes through the declarative pipeline
(:mod:`repro.pipeline`) — :meth:`BatchLens.pipeline` wraps the lens's
bundle as a pipeline source, so a detector sweep plus ground-truth scoring
is one spec away::

    result = lens.pipeline(detectors="threshold(threshold=85)+flatline",
                           sinks=("score",)).run()
    result.flagged_machines()
    result.scores                       # precision/recall per anomaly

Every chart is also available as a plain *model* (``*_model`` methods via
:class:`~repro.app.session.AnalysisSession`) for programmatic analysis.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.patterns import RegimeAssessment, classify_regime
from repro.app.session import AnalysisSession
from repro.app.views import (
    active_job_summary,
    build_bubble_model,
    build_heatmap_model,
    build_line_model,
    build_timeline_model,
)
from repro.cluster.hierarchy import BatchHierarchy
from repro.config import METRICS, TraceConfig
from repro.errors import BatchLensError
from repro.metrics.stats import HierarchyStats
from repro.metrics.store import MetricStore
from repro.trace.loader import load_trace
from repro.trace.records import TraceBundle
from repro.vis.charts.area import StackedAreaChart, StackedAreaModel
from repro.vis.charts.bubble import HierarchicalBubbleChart
from repro.vis.charts.distribution import HistogramModel, UtilisationHistogram
from repro.vis.charts.heatmap import UtilisationHeatmap
from repro.vis.charts.line import MultiLineChart
from repro.vis.charts.scatter import MachineScatterChart, ScatterModel
from repro.vis.charts.smallmultiples import SmallMultiplesChart, SmallMultiplesModel
from repro.vis.charts.timeline import TimelineChart
from repro.vis.html import Dashboard


class BatchLens:
    """Interactive visual analytics over one Alibaba-style trace bundle."""

    def __init__(self, bundle: TraceBundle) -> None:
        if bundle.usage is None or bundle.usage.num_samples == 0:
            raise BatchLensError(
                "BatchLens needs server-usage data; the bundle has none")
        if not bundle.tasks and not bundle.instances:
            raise BatchLensError(
                "BatchLens needs batch scheduler data; the bundle has none")
        self.bundle = bundle
        self.hierarchy: BatchHierarchy = BatchHierarchy.from_bundle(bundle)
        self.store: MetricStore = bundle.usage

    # -- constructors ---------------------------------------------------------------
    @classmethod
    def from_bundle(cls, bundle: TraceBundle) -> "BatchLens":
        """Wrap an already-loaded or freshly-generated bundle."""
        return cls(bundle)

    @classmethod
    def from_directory(cls, directory: str | Path) -> "BatchLens":
        """Load the Alibaba CSV tables under ``directory`` and wrap them."""
        return cls(load_trace(directory))

    @classmethod
    def generate(cls, config: TraceConfig | None = None, *,
                 scenario=None, seed: int | None = None) -> "BatchLens":
        """Generate a synthetic trace (see :func:`repro.trace.generate_trace`).

        ``scenario`` accepts a legacy alias (``"healthy"``, ``"hotjob"``,
        ``"thrashing"``), any registered fault-injector name, or a composed
        spec stacking several injectors::

            lens = BatchLens.generate(
                scenario="diurnal(amplitude=40)+network-storm", seed=7)
            manifest = lens.ground_truth()      # what was injected where
        """
        from repro.trace.synthetic import generate_trace

        return cls(generate_trace(config, scenario=scenario, seed=seed))

    # -- basic queries -----------------------------------------------------------------
    @property
    def time_extent(self) -> tuple[float, float]:
        return self.bundle.time_range()

    def stats(self) -> HierarchyStats:
        """Structural statistics of the batch hierarchy (§II numbers)."""
        return self.hierarchy.stats()

    def snapshot(self, timestamp: float) -> RegimeAssessment:
        """Regime classification of the cluster at one timestamp."""
        return classify_regime(self.store, timestamp)

    def active_jobs(self, timestamp: float) -> list[dict]:
        """Summary rows of every job active at a timestamp."""
        return active_job_summary(self.bundle, self.hierarchy, self.store, timestamp)

    def session(self) -> AnalysisSession:
        """Start a stateful exploration session (brushing, selection, hover)."""
        return AnalysisSession(self.bundle, hierarchy=self.hierarchy)

    def ground_truth(self):
        """Ground-truth manifest of the injected anomalies (may be empty)."""
        return self.bundle.ground_truth()

    def detection_scorecard(self) -> dict:
        """Precision/recall of the declared detectors per injected anomaly.

        Scores every entry of the ground-truth manifest with the detector it
        names (see :mod:`repro.scenarios.scoring`); empty for bundles without
        a manifest.  The mask-based runners sweep the whole cluster through
        the vectorized :class:`~repro.analysis.engine.DetectionEngine`.
        """
        from repro.scenarios.scoring import scorecard

        return scorecard(self.bundle)

    def pipeline(self, **kwargs):
        """A :class:`~repro.pipeline.Pipeline` over this lens's bundle.

        Keyword arguments are the pipeline's (``detectors``, ``metrics``,
        ``mode``, ``sinks``, ``streaming``)::

            result = lens.pipeline(detectors="zscore(window=8)+flatline",
                                   sinks=("score",)).run()
        """
        from repro.pipeline import Pipeline

        return Pipeline.from_bundle(self.bundle, **kwargs)

    # -- charts -------------------------------------------------------------------------
    def bubble_chart(self, timestamp: float, *, max_jobs: int | None = None,
                     width: float = 760.0, height: float = 720.0,
                     title: str | None = None) -> HierarchicalBubbleChart:
        """The hierarchical bubble chart at one timestamp (Fig. 1 / Fig. 3)."""
        model = build_bubble_model(self.hierarchy, self.store, timestamp,
                                   max_jobs=max_jobs)
        if title is None:
            title = f"Batch hierarchy at t={timestamp:.0f}s"
        return HierarchicalBubbleChart(model, width=width, height=height,
                                       title=title)

    def job_lines(self, job_id: str, *, metric: str = "cpu",
                  brush: tuple[float, float] | None = None,
                  width: float = 680.0, height: float = 300.0) -> MultiLineChart:
        """The per-job multi-line chart with annotations (Fig. 2)."""
        model = build_line_model(self.hierarchy, self.store, job_id,
                                 metric=metric, brush=brush)
        return MultiLineChart(model, width=width, height=height)

    def timeline(self, *, selected_timestamp: float | None = None,
                 brush: tuple[float, float] | None = None,
                 width: float = 900.0, height: float = 220.0) -> TimelineChart:
        """The cluster-aggregate timeline (§III-C)."""
        model = build_timeline_model(self.store,
                                     selected_timestamp=selected_timestamp,
                                     brush=brush)
        return TimelineChart(model, width=width, height=height)

    def coallocation_matrix(self, timestamp: float | None = None, *,
                            max_jobs: int | None = 20,
                            width: float = 520.0, height: float = 520.0):
        """The job × job shared-machine matrix (co-allocation view)."""
        from repro.vis.charts.matrix import CoAllocationMatrix, CoAllocationMatrixModel

        model = CoAllocationMatrixModel.from_hierarchy(self.hierarchy, timestamp,
                                                       max_jobs=max_jobs)
        return CoAllocationMatrix(model, width=width, height=height)

    def heatmap(self, *, metric: str = "cpu",
                machine_ids: list[str] | None = None,
                width: float = 900.0, height: float = 480.0) -> UtilisationHeatmap:
        """The flat per-machine heat map (baseline-style view)."""
        model = build_heatmap_model(self.store, metric=metric,
                                    machine_ids=machine_ids)
        return UtilisationHeatmap(model, width=width, height=height)

    def scatter(self, timestamp: float, *,
                highlight: dict[str, str] | None = None,
                width: float = 480.0, height: float = 440.0) -> MachineScatterChart:
        """CPU-vs-memory scatter of every machine at one timestamp."""
        model = ScatterModel.from_store(self.store, timestamp, highlight=highlight)
        return MachineScatterChart(model, width=width, height=height)

    def histogram(self, timestamp: float, *, metric: str = "cpu",
                  bins: int = 10, width: float = 420.0,
                  height: float = 260.0) -> UtilisationHistogram:
        """Utilisation histogram across machines at one timestamp."""
        model = HistogramModel.from_store(self.store, metric, timestamp, bins=bins)
        return UtilisationHistogram(model, width=width, height=height)

    def _job_machines(self, *, active_at: float | None = None) -> dict[str, list[str]]:
        """Machines of every job (optionally only jobs active at a time)."""
        jobs = (self.hierarchy.jobs_at(active_at) if active_at is not None
                else self.hierarchy.jobs)
        return {job.job_id: job.machine_ids() for job in jobs}

    def stacked_area(self, *, metric: str = "cpu", max_groups: int = 10,
                     width: float = 900.0, height: float = 300.0) -> StackedAreaChart:
        """Per-job stacked contribution to cluster load over time."""
        model = StackedAreaModel.from_job_machines(
            self.store, self._job_machines(), metric=metric, max_groups=max_groups)
        return StackedAreaChart(model, width=width, height=height)

    def small_multiples(self, *, metric: str = "cpu", columns: int = 4,
                        width: float = 920.0) -> SmallMultiplesChart:
        """One sparkline per job: mean utilisation of its machines over time."""
        job_windows = {
            job.job_id: (float(job.start), float(job.end))
            for job in self.hierarchy.jobs}
        model = SmallMultiplesModel.per_job(self.store, self._job_machines(),
                                            metric=metric,
                                            job_windows=job_windows)
        return SmallMultiplesChart(model, columns=columns, width=width)

    # -- dashboards ------------------------------------------------------------------------
    def dashboard(self, timestamp: float, *, jobs: list[str] | None = None,
                  metrics: tuple[str, ...] = ("cpu", "mem"),
                  max_jobs: int | None = 18, max_line_panels: int = 4,
                  title: str | None = None, extended: bool = False) -> Dashboard:
        """Assemble the linked views for one timestamp into an HTML dashboard.

        The layout mirrors Fig. 3: the timeline on top, the hierarchical
        bubble chart as the main view, and per-job line-chart detail views
        below it.  ``jobs`` selects which jobs get line charts; by default
        the jobs running on the most machines at the timestamp are used.
        ``extended`` appends the overview panels that go beyond the paper's
        layout: the machine scatter plot, the utilisation histogram and the
        per-job stacked area chart.
        """
        for metric in metrics:
            if metric not in METRICS:
                raise BatchLensError(f"unknown metric {metric!r}")
        assessment = self.snapshot(timestamp)
        dash = Dashboard(
            title=title if title is not None else
            f"BatchLens — cluster at t={timestamp:.0f}s",
            subtitle=(f"{assessment.summary()}  |  scenario: "
                      f"{self.bundle.meta.get('scenario', 'unknown')}"),
        )
        dash.add_panel("Cluster timeline",
                       self.timeline(selected_timestamp=timestamp),
                       description="Cluster-aggregate utilisation; the marker "
                                   "shows the selected timestamp.",
                       full_width=True, panel_id="panel-timeline")
        dash.add_panel("Batch hierarchy (jobs ▸ tasks ▸ compute nodes)",
                       self.bubble_chart(timestamp, max_jobs=max_jobs),
                       description="Ring colours: CPU (outer), memory (middle), "
                                   "disk (inner). Hover a node to highlight the "
                                   "same machine everywhere; click a job to jump "
                                   "to its line charts.",
                       full_width=True, panel_id="panel-bubble")

        if jobs is None:
            summary = self.active_jobs(timestamp)
            jobs = [row["job_id"] for row in summary[:max_line_panels]]
        for job_id in jobs:
            for metric in metrics:
                try:
                    chart = self.job_lines(job_id, metric=metric)
                except BatchLensError:
                    continue
                dash.add_panel(
                    f"{job_id} — {metric.upper()} per compute node",
                    chart,
                    description="Green lines: execution start per node; "
                                "coloured lines: per-task end timestamps.",
                    panel_id=f"panel-job-{job_id}" if metric == metrics[0]
                    else f"panel-job-{job_id}-{metric}")

        if extended:
            dash.add_panel("Machines by CPU and memory",
                           self.scatter(timestamp),
                           description="Each dot is a machine; the high-memory / "
                                       "low-CPU corner is the thrashing signature.",
                           panel_id="panel-scatter")
            dash.add_panel("CPU utilisation distribution",
                           self.histogram(timestamp),
                           description="How many machines sit in each utilisation "
                                       "band at the selected timestamp.",
                           panel_id="panel-histogram")
            try:
                area = self.stacked_area()
            except BatchLensError:
                area = None
            if area is not None:
                dash.add_panel("Per-job cluster load",
                               area,
                               description="Summed utilisation of each job's "
                                           "machines over the whole trace.",
                               full_width=True, panel_id="panel-stacked-area")
        return dash

    def save_dashboard(self, timestamp: float, path: str | Path,
                       **kwargs) -> Path:
        """Render :meth:`dashboard` and write it to ``path``."""
        return self.dashboard(timestamp, **kwargs).save(path)
