"""Streaming ingestion of usage samples (the paper's real-time future work).

§VI: "We plan to extend BatchLens into a real-time online system."  The
:class:`StreamingMetricStore` is the storage side of that extension: an
append-only, bounded-window store that accepts one cluster-wide sample batch
at a time (as a monitoring agent would deliver them) and exposes the same
query surface as the offline :class:`~repro.metrics.store.MetricStore`, so
every chart and detector works on live data unchanged.

Storage is a preallocated *mirrored* NumPy ring buffer of shape
``(machines, metrics, 2 * window)``: every sample is written at its ring
slot and at ``slot + window``, so the live window is always one contiguous
slice of the buffer.  :meth:`StreamingMetricStore.window_view` therefore
hands out a zero-copy read-only :class:`MetricStore` over the current
window — the online monitor's regime and thrashing checks run directly on
it without materialising anything — while :meth:`snapshot_store` keeps its
historical contract of an independent copy.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.config import METRICS
from repro.errors import SeriesError
from repro.metrics.store import MetricStore, valid_utilisation


class StreamingMetricStore:
    """Bounded sliding-window store fed one timestamp at a time."""

    def __init__(self, machine_ids: Sequence[str], *, window_samples: int = 256,
                 metrics: Sequence[str] = METRICS) -> None:
        if window_samples <= 1:
            raise SeriesError("window_samples must be at least 2")
        self._machine_ids = list(machine_ids)
        if len(set(self._machine_ids)) != len(self._machine_ids):
            raise SeriesError("machine ids must be unique")
        self._metrics = tuple(metrics)
        self._window = window_samples
        self._machine_index = {mid: i for i, mid in enumerate(self._machine_ids)}
        self._metric_index = {m: i for i, m in enumerate(self._metrics)}
        # Mirrored ring: sample number t lives at slot t % window AND at
        # slot t % window + window, so the live window [total - count,
        # total) is always the contiguous slice [start, start + count).
        self._buffer = np.zeros(
            (len(self._machine_ids), len(self._metrics), 2 * window_samples),
            dtype=np.float64)
        self._ts = np.zeros(2 * window_samples, dtype=np.float64)
        self._total = 0   # samples ever ingested
        self._count = 0   # samples currently in the window

    @property
    def _start(self) -> int:
        """First buffer index of the live window (always contiguous)."""
        return (self._total - self._count) % self._window

    def _write_column(self, timestamp: float, frame: np.ndarray) -> None:
        """Commit one fully-validated ``(machines, metrics)`` frame."""
        slot = self._total % self._window
        self._buffer[:, :, slot] = frame
        self._buffer[:, :, slot + self._window] = frame
        self._ts[slot] = timestamp
        self._ts[slot + self._window] = timestamp
        self._total += 1
        self._count = min(self._count + 1, self._window)

    # -- ingestion -------------------------------------------------------------
    def append(self, timestamp: float,
               sample: Mapping[str, Mapping[str, float]]) -> None:
        """Append one cluster-wide sample: ``{machine_id: {metric: value}}``.

        Timestamps must be strictly increasing; machines missing from the
        sample carry their previous value forward (0 for the first frame),
        matching how monitoring systems hold the last reported reading.
        """
        if self._count and timestamp <= self.latest_timestamp:
            raise SeriesError(
                f"timestamp {timestamp} is not after {self.latest_timestamp}")
        if self._count:
            frame = self.latest_frame().copy()
        else:
            frame = np.zeros((len(self._machine_ids), len(self._metrics)))
        for machine_id, values in sample.items():
            row = self._machine_index.get(machine_id)
            if row is None:
                raise SeriesError(f"unknown machine {machine_id!r}")
            for metric, value in values.items():
                col = self._metric_index.get(metric)
                if col is None:
                    raise SeriesError(f"unknown metric {metric!r}")
                if not valid_utilisation(float(value)):
                    raise SeriesError(
                        f"utilisation {value} outside [0, 100] for "
                        f"{machine_id}/{metric}")
                frame[row, col] = float(value)
        self._write_column(float(timestamp), frame)

    def append_frame(self, timestamp: float, frame: np.ndarray) -> None:
        """Append one fully-specified ``(machines, metrics)`` array frame.

        The vectorized sibling of :meth:`append` for feeds that already
        hold dense columns (the trace replayer): every cell must be
        present, so there is no per-machine carry-forward and no dict
        round-trip.
        """
        frame = np.asarray(frame, dtype=np.float64)
        expected = (len(self._machine_ids), len(self._metrics))
        if frame.shape != expected:
            raise SeriesError(
                f"frame shape {frame.shape} does not match {expected}")
        if self._count and timestamp <= self.latest_timestamp:
            raise SeriesError(
                f"timestamp {timestamp} is not after {self.latest_timestamp}")
        if not valid_utilisation(frame).all():
            raise SeriesError("utilisation values outside [0, 100] in frame")
        self._write_column(float(timestamp), frame)

    def append_block(self, timestamps: np.ndarray,
                     block: np.ndarray) -> None:
        """Bulk-append many fully-specified samples in one call.

        ``block`` has shape ``(machines, metrics, samples)`` in this store's
        machine/metric order (the :class:`~repro.metrics.store.MetricStore`
        layout), so an offline store's data array can be fed directly.
        Unlike :meth:`append`, every cell must be present — bulk catch-up
        has no per-machine carry-forward.
        """
        timestamps = np.asarray(timestamps, dtype=np.float64)
        block = np.asarray(block, dtype=np.float64)
        expected = (len(self._machine_ids), len(self._metrics),
                    timestamps.shape[0])
        if block.shape != expected:
            raise SeriesError(
                f"block shape {block.shape} does not match {expected}")
        if timestamps.shape[0] == 0:
            return
        if timestamps.shape[0] > 1 and np.any(np.diff(timestamps) <= 0):
            raise SeriesError("block timestamps must be strictly increasing")
        if self._count and timestamps[0] <= self.latest_timestamp:
            raise SeriesError(
                f"timestamp {timestamps[0]} is not after "
                f"{self.latest_timestamp}")
        if not valid_utilisation(block).all():
            raise SeriesError("utilisation values outside [0, 100] in block")
        total_new = timestamps.shape[0]
        # Only the trailing window survives a bounded buffer: samples a
        # window-or-more from the block's end would be overwritten before
        # they could ever be read, so they are never written at all.
        keep = min(self._window, total_new)
        slots = (self._total + np.arange(total_new - keep, total_new)) \
            % self._window
        kept_block = block[:, :, total_new - keep:]
        kept_ts = timestamps[total_new - keep:]
        self._buffer[:, :, slots] = kept_block
        self._buffer[:, :, slots + self._window] = kept_block
        self._ts[slots] = kept_ts
        self._ts[slots + self._window] = kept_ts
        self._total += total_new
        self._count = min(self._count + total_new, self._window)

    # -- accessors ----------------------------------------------------------------
    @property
    def machine_ids(self) -> list[str]:
        return list(self._machine_ids)

    @property
    def metrics(self) -> tuple[str, ...]:
        return self._metrics

    @property
    def window_samples(self) -> int:
        return self._window

    def __len__(self) -> int:
        return self._count

    @property
    def total_samples(self) -> int:
        """Samples ever appended: the ring's append counter.

        Every write advances it, so on one ring an unchanged count means
        an unchanged window — the ``/detect`` response cache versions its
        entries with it.
        """
        return self._total

    @property
    def latest_timestamp(self) -> float:
        if not self._count:
            raise SeriesError("no samples ingested yet")
        return float(self._ts[self._start + self._count - 1])

    def latest_frame(self) -> np.ndarray:
        """Zero-copy ``(machines, metrics)`` view of the newest sample."""
        if not self._count:
            raise SeriesError("no samples ingested yet")
        return self._buffer[:, :, self._start + self._count - 1]

    def latest(self, machine_id: str, metric: str) -> float:
        """Most recent value for one machine/metric."""
        row = self._machine_index.get(machine_id)
        if row is None:
            raise SeriesError(f"unknown machine {machine_id!r}")
        col = self._metric_index.get(metric)
        if col is None:
            raise SeriesError(f"unknown metric {metric!r}")
        return float(self.latest_frame()[row, col])

    # -- offline-compatible views -----------------------------------------------------
    def window_view(self) -> MetricStore:
        """Zero-copy read-only :class:`MetricStore` over the live window.

        The mirrored ring keeps the window contiguous, so this never
        copies: the view shares the ring's memory and goes stale (shows
        newer samples) after the next append — take it, use it, drop it.
        The online monitor's regime and thrashing checks run on it
        directly.
        """
        if not self._count:
            raise SeriesError("no samples ingested yet")
        start = self._start
        data = self._buffer[:, :, start:start + self._count]
        data.setflags(write=False)
        return MetricStore.from_dense(
            self._machine_ids, self._ts[start:start + self._count],
            self._metrics, data)

    def snapshot_store(self) -> MetricStore:
        """Materialise the current window as a regular :class:`MetricStore`.

        Every offline view and detector (bubble chart, timeline, regime
        classifier, thrashing detector, ...) can then run on live data
        unchanged.  The snapshot is an independent copy — it does not go
        stale as the window slides; for a zero-copy window use
        :meth:`window_view`.
        """
        if not self._count:
            raise SeriesError("no samples ingested yet")
        start = self._start
        return MetricStore.from_dense(
            self._machine_ids,
            self._ts[start:start + self._count].copy(),
            self._metrics,
            self._buffer[:, :, start:start + self._count].copy())

    def is_full(self) -> bool:
        """True once the sliding window has wrapped at least once."""
        return self._count == self._window
