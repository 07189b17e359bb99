"""Real-time extension (paper §VI future work): streaming store + online monitor."""

from repro.stream.alerts import AlertManager, AlertPolicy, ManagedAlert
from repro.stream.monitor import (
    MonitorAlert,
    MonitorConfig,
    OnlineMonitor,
    iter_samples,
)
from repro.stream.online_stats import P2Quantile, RunningStats
from repro.stream.replay import (
    ReplayCheckpoint,
    ReplayReport,
    TraceReplayer,
    alert_timeline,
    replay_scenario,
    replay_with_alerts,
)
from repro.stream.session import StreamSession
from repro.stream.store import StreamingMetricStore

__all__ = [
    "AlertManager",
    "AlertPolicy",
    "ManagedAlert",
    "MonitorAlert",
    "MonitorConfig",
    "OnlineMonitor",
    "P2Quantile",
    "ReplayCheckpoint",
    "ReplayReport",
    "RunningStats",
    "StreamSession",
    "StreamingMetricStore",
    "TraceReplayer",
    "alert_timeline",
    "iter_samples",
    "replay_scenario",
    "replay_with_alerts",
]
