"""Online monitoring on top of the streaming store.

The :class:`OnlineMonitor` turns the paper's offline case-study readings into
a live loop: every ingested sample updates the streaming window, and the
monitor emits :class:`MonitorAlert` records when the cluster regime changes,
when a machine crosses a utilisation threshold, or when a machine starts
thrashing.  Streams drive it through a
:class:`~repro.stream.session.StreamSession`, which also folds the
detector states and the alert manager.

Internally the monitor is fully incremental and vectorized:

* threshold alerts come from the detection engine's incremental protocol —
  one :class:`~repro.analysis.engine.StreamState` per watched metric turns
  newly-arrived samples into rising edges, with episode state carried
  across chunk boundaries (no per-machine dict loops, no rescans);
* regime and thrashing checks run on the ring buffer's zero-copy
  :meth:`~repro.stream.store.StreamingMetricStore.window_view` through the
  vectorized cluster thrashing scan
  (:func:`~repro.analysis.thrashing.cluster_thrashing_report`), so a check
  costs one array pass over the window instead of one Python loop per
  machine.

Alert-for-alert, the monitor is unchanged from the historical per-sample
implementation — the incremental rewiring only buys wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.analysis.detectors import ThresholdDetector
from repro.analysis.engine import StreamState
from repro.analysis.patterns import Regime, RegimeThresholds, classify_regime
from repro.analysis.thrashing import ThrashingConfig, cluster_thrashing_report
from repro.errors import SeriesError
from repro.metrics.store import MetricStore
from repro.stream.store import StreamingMetricStore


@dataclass(frozen=True)
class MonitorAlert:
    """One alert emitted by the online monitor."""

    timestamp: float
    kind: str           # "regime-change", "threshold", "thrashing"
    subject: str        # machine id or "cluster"
    detail: str
    severity: str = "warning"

    def to_dict(self) -> dict:
        """The canonical JSON encoding (the detection service's wire form)."""
        return {"timestamp": self.timestamp, "kind": self.kind,
                "subject": self.subject, "detail": self.detail,
                "severity": self.severity}

    @classmethod
    def from_dict(cls, raw: dict) -> "MonitorAlert":
        """Rebuild an alert from its :meth:`to_dict` encoding (round-trips
        bit-identically — JSON float text parses back to the same double)."""
        try:
            return cls(timestamp=float(raw["timestamp"]),
                       kind=str(raw["kind"]), subject=str(raw["subject"]),
                       detail=str(raw["detail"]),
                       severity=str(raw.get("severity", "warning")))
        except (KeyError, TypeError, ValueError) as exc:
            raise SeriesError(
                f"malformed monitor-alert dict {raw!r}: {exc}") from None


def check_utilisation_threshold(threshold: float, *,
                                name: str = "utilisation_threshold",
                                error: type[Exception] = SeriesError) -> None:
    """The one rule for an alerting threshold: a percentage in (0, 100].

    NaN fails the chained comparison, so it is rejected too.  Callers
    that validate the same value earlier (pipeline specs) pass their own
    field ``name`` and ``error`` type.
    """
    if not 0.0 < threshold <= 100.0:
        raise error(f"{name} must be in (0, 100], got {threshold!r}")


@dataclass
class MonitorConfig:
    """Tunable thresholds of the online monitor."""

    utilisation_threshold: float = 92.0
    #: Metrics checked against ``utilisation_threshold``.
    threshold_metrics: tuple[str, ...] = ("cpu", "mem")
    regime_thresholds: RegimeThresholds = field(default_factory=RegimeThresholds)
    thrashing: ThrashingConfig = field(default_factory=ThrashingConfig)
    #: Number of samples between full thrashing scans (they cost one
    #: vectorized pass over the window).
    thrashing_scan_every: int = 4
    #: Consecutive clear scans before a machine's thrashing episode is
    #: considered over.  Noisy windows flap around the detection boundary;
    #: without this cooldown every flap re-emits the same alert.
    thrashing_clear_scans: int = 3

    def validate(self) -> None:
        check_utilisation_threshold(self.utilisation_threshold)
        if self.thrashing_scan_every < 1:
            raise SeriesError("thrashing_scan_every must be >= 1")
        if self.thrashing_clear_scans < 1:
            raise SeriesError("thrashing_clear_scans must be >= 1")


class OnlineMonitor:
    """Incremental regime / threshold / thrashing monitoring."""

    def __init__(self, machine_ids: Sequence[str], *,
                 config: MonitorConfig | None = None,
                 window_samples: int = 128) -> None:
        self.config = config if config is not None else MonitorConfig()
        self.config.validate()
        self.store = StreamingMetricStore(machine_ids,
                                          window_samples=window_samples)
        self.alerts: list[MonitorAlert] = []
        self._last_regime: Regime | None = None
        # One incremental threshold sweep per watched metric that the store
        # actually carries; ``position`` keeps the metric's index in
        # ``threshold_metrics`` so alert ordering matches the config order.
        detector = ThresholdDetector(self.config.utilisation_threshold)
        metrics = self.store.metrics
        # archive_runs=False: the monitor reacts to rising edges and open
        # state only, so closed episodes are not archived — a forever-lived
        # monitor keeps O(machines) threshold state, not O(episodes).
        self._threshold_streams: list[tuple[int, str, int, StreamState]] = [
            (position, metric, metrics.index(metric),
             StreamState(detector, metric=metric,
                         machine_ids=self.store.machine_ids,
                         archive_runs=False))
            for position, metric in enumerate(self.config.threshold_metrics)
            if metric in metrics
        ]
        self._thrashing_machines: set[str] = set()
        #: Consecutive clear scans per machine, for episode cool-down.
        self._thrashing_clear: dict[str, int] = {}
        self._samples_seen = 0
        self._last_thrashing_scan: float | None = None
        #: One-slot cache: the regime and thrashing checks of one ingest
        #: share a single vectorized window scan when their configs agree.
        self._thrash_cache: tuple[tuple, dict] | None = None

    # -- ingestion ---------------------------------------------------------------
    def observe(self, timestamp: float,
                sample: dict[str, dict[str, float]]) -> list[MonitorAlert]:
        """Ingest one cluster-wide sample and return the alerts it triggered."""
        self.store.append(timestamp, sample)
        return self._after_sample(timestamp)

    def observe_frame(self, timestamp: float,
                      frame: np.ndarray) -> list[MonitorAlert]:
        """Ingest one dense ``(machines, metrics)`` frame (no dict round trip).

        Alert-for-alert identical to :meth:`observe` on the equivalent
        sample dict; a sample-cadence stream session feeds zero-copy store
        columns through this.
        """
        self.store.append_frame(timestamp, frame)
        return self._after_sample(timestamp)

    def _after_sample(self, timestamp: float) -> list[MonitorAlert]:
        """The per-sample check cascade, after the store ingested a frame."""
        self._samples_seen += 1
        frame = self.store.latest_frame()
        ts_arr = np.asarray([timestamp], dtype=np.float64)
        new_alerts = self._threshold_alerts(ts_arr, frame[:, :, np.newaxis])
        new_alerts.extend(self._check_regime(timestamp))
        if self._samples_seen % self.config.thrashing_scan_every == 0:
            new_alerts.extend(self._check_thrashing(timestamp))
        self.alerts.extend(new_alerts)
        return new_alerts

    def catch_up(self, store: MetricStore) -> list[MonitorAlert]:
        """Ingest a whole offline block at once (vectorized batch catch-up).

        A monitor that fell behind its feed (restart, backlog, replay of a
        historical window) would need one :meth:`observe` round-trip per
        sample to recover; ``catch_up`` folds the entire block in a single
        array pass instead.  Threshold alerts are identical to feeding the
        samples one at a time — rising edges come from the incremental
        threshold sweeps, whose episode state spans the block boundary.
        Regime and thrashing are checked once against the state *after*
        the block (one alert per catch-up instead of per-sample flapping),
        which is the designed trade-off of a catch-up: the intermediate
        regimes were already history when the block arrived.

        Degenerate blocks are valid input, never an error: an empty store
        is a no-op returning no alerts, and a single-sample store folds
        normally (the regime/thrashing checks simply stay below their
        warm-up lengths).  The streaming pipeline's empty-``RunResult``
        contract (:meth:`repro.pipeline.Pipeline.run`) builds on this.
        """
        if store.num_samples == 0:
            return []
        timestamps = store.timestamps
        block = self.aligned_block(store)
        self.store.append_block(timestamps, block)
        self._samples_seen += store.num_samples
        new_alerts = self._threshold_alerts(
            np.asarray(timestamps, dtype=np.float64), block)
        new_alerts.extend(self._check_regime(float(timestamps[-1])))
        new_alerts.extend(self._check_thrashing(float(timestamps[-1])))
        self.alerts.extend(new_alerts)
        return new_alerts

    def aligned_block(self, store: MetricStore) -> np.ndarray:
        """The store's data in this monitor's machine/metric order (the
        layout both :meth:`catch_up` and :meth:`observe_frame` take)."""
        stream = self.store
        if (store.machine_ids == stream.machine_ids
                and store.metrics == stream.metrics):
            return store.data
        row_of = {mid: i for i, mid in enumerate(store.machine_ids)}
        missing = [mid for mid in stream.machine_ids if mid not in row_of]
        if missing:
            raise SeriesError(
                f"catch-up block is missing machine {missing[0]!r}")
        rows = [row_of[mid] for mid in stream.machine_ids]
        for metric in stream.metrics:
            if metric not in store.metrics:
                raise SeriesError(
                    f"catch-up block is missing metric {metric!r}")
        return np.stack([store.metric_block(metric)[rows]
                         for metric in stream.metrics], axis=1)

    # -- checks ---------------------------------------------------------------------
    def _threshold_alerts(self, timestamps: np.ndarray,
                          block: np.ndarray) -> list[MonitorAlert]:
        """Edge-triggered threshold alerts for newly-arrived samples.

        Each watched metric's incremental sweep folds the new chunk and
        reports the runs that *opened* inside it — continuations of an
        episode already over the threshold never re-alert, exactly the
        historical per-sample edge semantics.
        """
        threshold = self.config.utilisation_threshold
        machine_ids = self.store.machine_ids
        checked = list(self.config.threshold_metrics)
        hits: list[tuple[int, int, int, float]] = []
        for position, _metric, column, state in self._threshold_streams:
            values = block[:, column, :]
            chunk = state._advance(timestamps, np.asarray(values,
                                                          dtype=np.float64))
            for row, start in zip(chunk.opened_rows.tolist(),
                                  chunk.opened_starts.tolist()):
                hits.append((start, row, position, float(values[row, start])))
        hits.sort()
        return [MonitorAlert(
            timestamp=float(timestamps[sample]), kind="threshold",
            subject=machine_ids[row],
            detail=f"{checked[position]} reached {value:.0f}% "
                   f"(threshold {threshold:.0f}%)",
            severity="warning")
            for sample, row, position, value in hits]

    @property
    def _over_threshold(self) -> set[tuple[str, str]]:
        """Machine/metric pairs currently above the threshold (open episodes)."""
        machine_ids = self.store.machine_ids
        return {(machine_ids[row], metric)
                for _position, metric, _column, state in self._threshold_streams
                for row in np.flatnonzero(state.open_mask).tolist()}

    def _thrashing_report(self, view: MetricStore, timestamp: float,
                          config: ThrashingConfig) -> dict:
        """Window thrashing scan, shared across the checks of one ingest."""
        key = (timestamp, config)
        if self._thrash_cache is not None and self._thrash_cache[0] == key:
            return self._thrash_cache[1]
        report = cluster_thrashing_report(view, config=config)
        self._thrash_cache = (key, report)
        return report

    def _check_regime(self, timestamp: float) -> list[MonitorAlert]:
        if len(self.store) < 2:
            return []
        view = self.store.window_view()
        # The classifier's thrashing evidence historically uses the default
        # ThrashingConfig (not the monitor's own thrashing tuning) — keep
        # that, but share the scan when the two configs agree.
        assessment = classify_regime(
            view, timestamp, thresholds=self.config.regime_thresholds,
            thrash_report=self._thrashing_report(view, timestamp,
                                                 ThrashingConfig()))
        if self._last_regime is None:
            self._last_regime = assessment.regime
            return []
        if assessment.regime == self._last_regime:
            return []
        previous, self._last_regime = self._last_regime, assessment.regime
        severity = ("critical" if assessment.regime == Regime.SATURATED
                    else "warning")
        return [MonitorAlert(
            timestamp=timestamp, kind="regime-change", subject="cluster",
            detail=f"regime changed {previous.value} -> {assessment.regime.value} "
                   f"(mean CPU {assessment.mean_cpu:.0f}%, "
                   f"mean MEM {assessment.mean_mem:.0f}%)",
            severity=severity)]

    def _check_thrashing(self, timestamp: float) -> list[MonitorAlert]:
        if len(self.store) < 8:
            return []
        view = self.store.window_view()
        report = self._thrashing_report(view, timestamp, self.config.thrashing)
        alerts: list[MonitorAlert] = []
        # A machine counts as thrashing when a detected window reaches past the
        # previous scan — scans run every ``thrashing_scan_every`` samples, and
        # only checking the very latest sample would miss windows whose noisy
        # edges dip below the watermark exactly at the scan instant.
        since = self._last_thrashing_scan
        for machine_id in view.machine_ids:
            windows = report.get(machine_id, ())
            recent = [w for w in windows if since is None or w.end >= since]
            if recent:
                # Still (or again) inside an episode: reset the cool-down and
                # alert only if no episode is currently open for the machine
                # — one alert per (machine, kind) episode, not per scan.
                self._thrashing_clear[machine_id] = 0
                if machine_id not in self._thrashing_machines:
                    self._thrashing_machines.add(machine_id)
                    latest = recent[-1]
                    alerts.append(MonitorAlert(
                        timestamp=timestamp, kind="thrashing", subject=machine_id,
                        detail=f"memory {latest.peak_mem:.0f}% with CPU down to "
                               f"{latest.min_cpu:.0f}% since t={latest.start:.0f}s",
                        severity="critical"))
            elif machine_id in self._thrashing_machines:
                # A window flapping around the detection boundary clears for
                # a scan or two mid-episode; only close the episode after
                # ``thrashing_clear_scans`` consecutive clear scans.
                clear = self._thrashing_clear.get(machine_id, 0) + 1
                self._thrashing_clear[machine_id] = clear
                if clear >= self.config.thrashing_clear_scans:
                    self._thrashing_machines.discard(machine_id)
                    self._thrashing_clear.pop(machine_id, None)
        self._last_thrashing_scan = timestamp
        return alerts

    # -- reporting --------------------------------------------------------------------
    @property
    def current_regime(self) -> Regime | None:
        return self._last_regime

    def alerts_of_kind(self, kind: str) -> list[MonitorAlert]:
        return [alert for alert in self.alerts if alert.kind == kind]

    def summary(self) -> dict[str, int]:
        """Alert counts by kind (for dashboards and tests)."""
        counts: dict[str, int] = {}
        for alert in self.alerts:
            counts[alert.kind] = counts.get(alert.kind, 0) + 1
        return counts


def iter_samples(store: MetricStore) -> Iterator[tuple[float, dict[str, dict[str, float]]]]:
    """Yield ``(timestamp, {machine: {metric: value}})`` frames from a store."""
    for index, timestamp in enumerate(store.timestamps):
        yield float(timestamp), {
            machine_id: {metric: float(store.data[m_idx, j, index])
                         for j, metric in enumerate(store.metrics)}
            for m_idx, machine_id in enumerate(store.machine_ids)}
