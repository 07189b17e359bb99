"""One stream's fold: the online monitor, detector states and alert manager.

The streaming :class:`~repro.pipeline.Pipeline`, the
:class:`~repro.stream.replay.TraceReplayer` and each serve
:class:`~repro.serve.tenants.Tenant` fold every chunk through
:meth:`StreamSession.ingest`: the monitor, then each detector state, then
the alert manager.  ``cadence="catch-up"`` folds a chunk through
``monitor.catch_up`` once (regime and thrashing assessed once per chunk);
``"sample"`` feeds its columns one at a time through
``monitor.observe_frame`` (a thrashing scan every ``thrashing_scan_every``
samples).  Detector states fold the whole chunk either way.

``monitor.alerts`` is the one alert log.  If a fold fails, ``ingest``
drops that chunk's alerts from it and re-raises; the manager never sees
them, and a tenant never hands out seqs a restart would reassign.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.engine import DetectionEngine
from repro.errors import SeriesError
from repro.metrics.store import MetricStore
from repro.stream.alerts import AlertManager
from repro.stream.monitor import MonitorAlert, MonitorConfig, OnlineMonitor

CADENCES = ("catch-up", "sample")


class StreamSession:
    """A monitor, one incremental state per detector plan, an alert manager."""

    def __init__(self, machine_ids: Sequence[str], plans=(), *,
                 config: MonitorConfig | None = None,
                 window_samples: int = 128, cadence: str = "catch-up",
                 manager: AlertManager | None = None) -> None:
        if cadence not in CADENCES:
            raise SeriesError(f"unknown stream cadence {cadence!r}; "
                              f"expected one of {list(CADENCES)}")
        self.cadence = cadence
        self.monitor = OnlineMonitor(machine_ids, config=config,
                                     window_samples=window_samples)
        self.engine = DetectionEngine(detectors={})
        self.states = [self.engine.stream(machine_ids, plan.detector,
                                          metric=plan.metric)
                       for plan in plans]
        self.manager = manager if manager is not None else AlertManager()

    @property
    def alerts(self) -> list[MonitorAlert]:
        """Every monitor alert in arrival order (the monitor's own list)."""
        return self.monitor.alerts

    def ingest(self, chunk: MetricStore) -> list[MonitorAlert]:
        """Fold one chunk of samples; returns the alerts it raised."""
        log = self.monitor.alerts
        mark = len(log)
        try:
            if self.cadence == "catch-up":
                new_alerts = self.monitor.catch_up(chunk)
            else:
                new_alerts = []
                block = self.monitor.aligned_block(chunk)
                for index, timestamp in enumerate(chunk.timestamps.tolist()):
                    new_alerts.extend(self.monitor.observe_frame(
                        timestamp, block[:, :, index]))
            for state in self.states:
                self.engine.run_incremental(state, chunk)
        except BaseException:
            del log[mark:]
            raise
        self.manager.ingest_many(new_alerts)
        return new_alerts
