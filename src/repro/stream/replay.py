"""Trace replay harness for the real-time extension.

A live BatchLens deployment would subscribe to the cluster's metrics bus;
this repository has no cluster, so :class:`TraceReplayer` plays an offline
:class:`~repro.trace.records.TraceBundle` back sample by sample in
*simulated* time.  It feeds a ``cadence="sample"``
:class:`~repro.stream.session.StreamSession` (the online monitor, any
planned detectors and the alert manager), supports stepping and
checkpointing (so a demo can pause at the case-study timestamps), and
produces a :class:`ReplayReport` summarising what a live deployment would
have surfaced.

No wall-clock sleeping happens here — the "speed" of the replay only decides
how many trace samples are folded per :meth:`TraceReplayer.step` call, which
keeps the harness deterministic and test-friendly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SeriesError
from repro.stream.alerts import AlertManager, ManagedAlert
from repro.stream.monitor import MonitorAlert, MonitorConfig, OnlineMonitor
from repro.stream.online_stats import P2Quantile, RunningStats
from repro.stream.session import StreamSession
from repro.trace.records import TraceBundle


@dataclass(frozen=True)
class ReplayCheckpoint:
    """State snapshot taken at one point of the replay."""

    timestamp: float
    samples_replayed: int
    alerts_so_far: int
    regime: str | None
    mean_cpu: float
    p95_cpu: float


@dataclass(frozen=True)
class ReplayReport:
    """What a live deployment would have reported over the replayed window."""

    samples_replayed: int
    duration_s: float
    alerts_by_kind: dict[str, int]
    pending_alerts: int
    final_regime: str | None
    mean_cpu: float
    p95_cpu: float
    checkpoints: tuple[ReplayCheckpoint, ...] = field(default_factory=tuple)


class TraceReplayer:
    """Replays a bundle's usage through a sample-cadence stream session
    (with one incremental detector state per plan in ``plans``)."""

    def __init__(self, bundle: TraceBundle, *, plans=(),
                 monitor_config: MonitorConfig | None = None,
                 alert_manager: AlertManager | None = None,
                 window_samples: int = 128,
                 samples_per_step: int = 1) -> None:
        if bundle.usage is None or bundle.usage.num_samples == 0:
            raise SeriesError("bundle carries no usage data to replay")
        if samples_per_step < 1:
            raise SeriesError("samples_per_step must be at least 1")
        self.bundle = bundle
        self.session = StreamSession(bundle.usage.machine_ids, plans,
                                     config=monitor_config,
                                     window_samples=window_samples,
                                     cadence="sample", manager=alert_manager)
        self.samples_per_step = samples_per_step
        self._cursor = 0
        self._cpu_stats = RunningStats()
        self._cpu_p95 = P2Quantile(0.95)
        self._checkpoints: list[ReplayCheckpoint] = []
        self._exhausted = False

    @property
    def monitor(self) -> OnlineMonitor:
        return self.session.monitor

    @property
    def alerts(self) -> AlertManager:
        """The session's alert manager."""
        return self.session.manager

    # -- progress ---------------------------------------------------------------
    @property
    def samples_replayed(self) -> int:
        return self._cursor

    @property
    def current_timestamp(self) -> float | None:
        """Timestamp of the most recently replayed sample."""
        if self._cursor == 0:
            return None
        return float(self.bundle.usage.timestamps[self._cursor - 1])

    @property
    def finished(self) -> bool:
        return self._exhausted

    # -- stepping ---------------------------------------------------------------
    def step(self) -> list[MonitorAlert]:
        """Replay up to ``samples_per_step`` samples; returns the new alerts."""
        store = self.bundle.usage
        lo = self._cursor
        hi = min(lo + self.samples_per_step, store.num_samples)
        new_alerts: list[MonitorAlert] = []
        if hi > lo:
            # Column by column: RunningStats.update_many over several
            # samples would merge differently in floating point.
            has_cpu = "cpu" in store.metrics
            for index in range(lo, hi):
                cpu_column = (store.metric_block("cpu")[:, index] if has_cpu
                              else np.zeros(store.num_machines))
                self._cpu_stats.update_many(cpu_column)
                self._cpu_p95.update_many(cpu_column)
            new_alerts = self.session.ingest(store.sample_slice(lo, hi))
            self._cursor = hi
        self._exhausted = hi - lo < self.samples_per_step
        return new_alerts

    def run_until(self, timestamp: float) -> list[MonitorAlert]:
        """Replay until the trace clock passes ``timestamp`` (or the end)."""
        collected: list[MonitorAlert] = []
        while not self._exhausted and (self.current_timestamp is None
                                       or self.current_timestamp < timestamp):
            collected.extend(self.step())
        return collected

    def run_to_end(self) -> ReplayReport:
        """Replay every remaining sample and return the final report."""
        while not self._exhausted:
            self.step()
        return self.report()

    # -- checkpoints -----------------------------------------------------------------
    def checkpoint(self) -> ReplayCheckpoint:
        """Record (and return) a snapshot of the replay state."""
        if self._cursor == 0:
            raise SeriesError("cannot checkpoint before any sample is replayed")
        regime = self.monitor.current_regime
        snapshot = ReplayCheckpoint(
            timestamp=self.current_timestamp,
            samples_replayed=self._cursor,
            alerts_so_far=len(self.session.alerts),
            regime=regime.value if regime is not None else None,
            mean_cpu=self._cpu_stats.mean,
            p95_cpu=self._cpu_p95.value,
        )
        self._checkpoints.append(snapshot)
        return snapshot

    # -- reporting -------------------------------------------------------------------
    def report(self) -> ReplayReport:
        """Summarise everything replayed so far."""
        start, _ = self.bundle.time_range()
        duration = 0.0
        if self.current_timestamp is not None:
            duration = self.current_timestamp - float(start)
        regime = self.monitor.current_regime
        return ReplayReport(
            samples_replayed=self._cursor,
            duration_s=max(0.0, duration),
            alerts_by_kind=self.monitor.summary(),
            pending_alerts=len(self.alerts.pending()),
            final_regime=regime.value if regime is not None else None,
            mean_cpu=self._cpu_stats.mean if self._cpu_stats.count else 0.0,
            p95_cpu=self._cpu_p95.value if self._cpu_p95.count else 0.0,
            checkpoints=tuple(self._checkpoints),
        )


def replay_with_alerts(bundle: TraceBundle, *,
                       monitor_config: MonitorConfig | None = None,
                       checkpoints_at: list[float] | None = None,
                       window_samples: int = 128) -> tuple[ReplayReport, AlertManager]:
    """Convenience wrapper: replay a whole bundle and return report + alerts.

    ``checkpoints_at`` lists trace timestamps at which a state snapshot is
    recorded — the examples use the paper's three case-study timestamps.
    """
    replayer = TraceReplayer(bundle, monitor_config=monitor_config,
                             window_samples=window_samples)
    remaining = sorted(checkpoints_at) if checkpoints_at else []
    while not replayer.finished:
        replayer.step()
        while (remaining and replayer.current_timestamp is not None
               and replayer.current_timestamp >= remaining[0]):
            replayer.checkpoint()
            remaining.pop(0)
    return replayer.report(), replayer.alerts


def replay_scenario(scenario, *, config=None, seed: int | None = None,
                    monitor_config: MonitorConfig | None = None,
                    checkpoints_at: list[float] | None = None,
                    window_samples: int = 128):
    """Generate a scenario and replay it through the monitoring stack.

    ``scenario`` accepts everything the scenario registry resolves: a legacy
    alias, a registered fault-injector name, a composed spec string such as
    ``"diurnal+network-storm"``, or an already-built scenario object (see
    :mod:`repro.scenarios`).  Returns ``(report, alert_manager, bundle)`` —
    the bundle's ground-truth manifest
    (``bundle.ground_truth()``) tells callers which machines the alerts
    *should* have fired on.
    """
    from repro.trace.synthetic import generate_trace

    bundle = generate_trace(config, scenario=scenario, seed=seed)
    report, manager = replay_with_alerts(bundle, monitor_config=monitor_config,
                                         checkpoints_at=checkpoints_at,
                                         window_samples=window_samples)
    return report, manager, bundle


def alert_timeline(manager: AlertManager) -> list[tuple[float, str, str]]:
    """Flatten a manager's history into ``(timestamp, kind, subject)`` rows."""
    rows = [(managed.alert.timestamp, managed.alert.kind, managed.alert.subject)
            for managed in manager.history]
    return sorted(rows)


__all__ = [
    "ManagedAlert",
    "ReplayCheckpoint",
    "ReplayReport",
    "TraceReplayer",
    "alert_timeline",
    "replay_scenario",
    "replay_with_alerts",
]
