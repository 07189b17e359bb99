"""Baseline 1: a classic threshold-alert monitor.

This is the "metrics-based approach" of the related work: per-machine static
thresholds firing alerts, with no notion of the batch hierarchy.  The E9
benchmark compares its alert quality against the BatchLens analysis layer
(which knows which job caused what) on traces with injected anomalies.

A scan is one batch run of the declarative pipeline (:mod:`repro.pipeline`)
folded into alerts::

    monitor = ThresholdMonitor(cpu_threshold=92.0)
    alerts = monitor.ingest(monitor.scan_pipeline(store).run())

The run sweeps every metric of the whole cluster through the vectorized
:class:`~repro.analysis.engine.DetectionEngine` — one array pass per metric
instead of a per-machine, per-metric series loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.detectors import AnomalyEvent, ThresholdDetector
from repro.metrics.store import MetricStore


@dataclass(frozen=True)
class Alert:
    """One alert raised by the monitor."""

    machine_id: str
    metric: str
    start: float
    end: float
    peak: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class ThresholdMonitor:
    """Fires an alert whenever any machine crosses a per-metric threshold."""

    cpu_threshold: float = 90.0
    mem_threshold: float = 90.0
    disk_threshold: float = 90.0
    min_duration_s: float = 0.0
    alerts: list[Alert] = field(default_factory=list)

    def _threshold_for(self, metric: str) -> float:
        return {"cpu": self.cpu_threshold, "mem": self.mem_threshold,
                "disk": self.disk_threshold}[metric]

    def scan_pipeline(self, store: MetricStore):
        """The pipeline that scans ``store``: one plan per metric.

        One batch :class:`~repro.pipeline.Pipeline` run judges the whole
        cluster — one vectorized engine pass per metric.
        """
        from repro.pipeline import DetectorPlan, Pipeline

        plans = tuple(
            DetectorPlan(
                label=f"threshold@{metric}", name="threshold", metric=metric,
                detector=ThresholdDetector(self._threshold_for(metric),
                                           min_duration_s=self.min_duration_s))
            for metric in store.metrics)
        return Pipeline.from_store(store, plans=plans,
                                   metrics=tuple(store.metrics), sinks=())

    def ingest(self, result) -> list[Alert]:
        """Fold a pipeline :class:`~repro.pipeline.RunResult` into alerts."""
        self.alerts = []
        for run in result.detections:
            threshold = self._threshold_for(run.metric)
            for event in run.result.events():
                self.alerts.append(Alert(
                    machine_id=event.subject, metric=run.metric,
                    start=event.start, end=event.end,
                    peak=event.score + threshold))
        self.alerts.sort(key=lambda a: (a.start, a.machine_id, a.metric))
        return self.alerts

    # -- evaluation helpers ---------------------------------------------------------
    def alerted_machines(self, window: tuple[float, float] | None = None) -> set[str]:
        """Machines with at least one alert (optionally within a window)."""
        out = set()
        for alert in self.alerts:
            if window is None or (alert.start <= window[1] and alert.end >= window[0]):
                out.add(alert.machine_id)
        return out

    def precision_recall(self, true_machines: set[str],
                         window: tuple[float, float] | None = None) -> tuple[float, float]:
        """Machine-level precision/recall against a ground-truth set."""
        predicted = self.alerted_machines(window)
        if not predicted:
            return (0.0, 0.0 if true_machines else 1.0)
        true_positives = len(predicted & true_machines)
        precision = true_positives / len(predicted)
        recall = (true_positives / len(true_machines)) if true_machines else 1.0
        return (precision, recall)

    def to_events(self) -> list[AnomalyEvent]:
        """Expose alerts in the common :class:`AnomalyEvent` shape."""
        return [AnomalyEvent(start=a.start, end=a.end, metric=a.metric,
                             subject=a.machine_id, kind="threshold-alert",
                             score=a.peak) for a in self.alerts]
