"""Dense storage of per-machine utilisation series.

A :class:`MetricStore` keeps the server-usage table of a trace as one dense
array of shape ``(machines, metrics, samples)`` on a shared regular time
grid.  That is the natural layout for the queries BatchLens issues
constantly: "utilisation of machine M at time T", "CPU of every machine at
time T" (bubble chart colouring), and "whole series for machine M"
(line charts).

It is also the layout the cluster-wide detection engine
(:mod:`repro.analysis.engine`) sweeps in one NumPy pass:
:meth:`MetricStore.metric_block` hands out a zero-copy ``(machines,
samples)`` view of one metric, and :meth:`MetricStore.window` /
:meth:`MetricStore.subset` produce zero-copy views wherever basic slicing
allows, so engine queries never duplicate the usage matrix.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.config import METRICS
from repro.errors import SeriesError, UnknownEntityError
from repro.metrics.series import TimeSeries


def _validate_axes(machine_ids: Sequence[str],
                   timestamps: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Shared machine/time axis validation (constructor and
    :meth:`MetricStore.from_dense`): unique ids, 1-D strictly increasing
    timestamps.  Returns the normalised ``(ids, timestamps)`` pair."""
    machine_ids = list(machine_ids)
    if len(set(machine_ids)) != len(machine_ids):
        raise SeriesError("machine ids must be unique")
    timestamps = np.asarray(timestamps, dtype=np.float64)
    if timestamps.ndim != 1:
        raise SeriesError("timestamps must be one-dimensional")
    if timestamps.shape[0] > 1 and np.any(np.diff(timestamps) <= 0):
        raise SeriesError("timestamps must be strictly increasing")
    return machine_ids, timestamps


#: Largest window, in samples, that a streaming ring or a rolling detector
#: may ask for, 512× the ring's default of 128.  A sanity bound rather than
#: a memory budget: the mirrored ring keeps 2 × window float64 samples per
#: machine and metric, so at most about 3 MB of ring per machine.
MAX_WINDOW_SAMPLES = 65_536


def valid_utilisation(values):
    """The one rule for utilisation samples, elementwise: finite and in
    [0, 100] (NaN fails both comparisons).  The streaming ring, the trace
    loader and the trace validator all apply it."""
    return (values >= 0.0) & (values <= 100.0)


@dataclass(frozen=True)
class MmapBacking:
    """Where a memory-mapped store's dense matrix lives on disk.

    A store opened from the trace cache with ``mmap=True`` carries one of
    these: pickling the store then ships this descriptor instead of the
    array bytes, and the receiving process reopens the file with
    ``np.load(mmap_mode="r")`` and re-slices its machine rows — so a
    process-pool shard worker pages in only the rows it sweeps, never the
    whole matrix.  ``size``/``mtime_ns`` pin the file as observed at open
    time: a store must never silently reattach to different bytes.
    """

    path: str
    dtype: str
    shape: tuple[int, int, int]
    row_start: int
    row_stop: int
    size: int
    mtime_ns: int

    def reopen(self) -> np.ndarray:
        """Re-mmap the backing file (read-only) and slice our rows."""
        try:
            stat = os.stat(self.path)
        except OSError as exc:
            raise SeriesError(
                f"mmap backing file is gone: {self.path} ({exc}); "
                f"reload the trace") from exc
        if (stat.st_size, stat.st_mtime_ns) != (self.size, self.mtime_ns):
            raise SeriesError(
                f"mmap backing file changed since the store was opened: "
                f"{self.path}; reload the trace")
        data = np.load(self.path, mmap_mode="r", allow_pickle=False)
        if tuple(data.shape) != self.shape or str(data.dtype) != self.dtype:
            raise SeriesError(
                f"mmap backing file changed layout: {self.path} holds "
                f"{data.shape}/{data.dtype}, expected "
                f"{self.shape}/{self.dtype}")
        return data[self.row_start:self.row_stop]


class MetricStore:
    """Dense ``(machine, metric, time)`` utilisation storage."""

    def __init__(self, machine_ids: Sequence[str], timestamps: np.ndarray,
                 metrics: Sequence[str] = METRICS) -> None:
        self._machine_ids, self._timestamps = _validate_axes(machine_ids,
                                                             timestamps)
        self._metrics = tuple(metrics)
        self._machine_index = {mid: i for i, mid in enumerate(self._machine_ids)}
        self._metric_index = {name: i for i, name in enumerate(self._metrics)}
        self._data = np.zeros(
            (len(self._machine_ids), len(self._metrics), self._timestamps.shape[0]),
            dtype=np.float64)
        self._backing: MmapBacking | None = None

    @classmethod
    def _view(cls, machine_ids: Sequence[str], timestamps: np.ndarray,
              metrics: Sequence[str], data: np.ndarray) -> "MetricStore":
        """Wrap existing arrays without copying (or re-validating) them.

        Used by :meth:`window` and :meth:`subset` to build zero-copy views:
        the inputs come from an already-validated store, so the constructor
        checks (and its zero-fill allocation) are skipped.
        """
        store = cls.__new__(cls)
        store._machine_ids = list(machine_ids)
        store._metrics = tuple(metrics)
        store._timestamps = timestamps
        store._machine_index = {mid: i for i, mid in enumerate(store._machine_ids)}
        store._metric_index = {name: i for i, name in enumerate(store._metrics)}
        store._data = data
        store._backing = None
        return store

    # -- mmap backing --------------------------------------------------------
    @property
    def mmap_backed(self) -> bool:
        """Whether the dense matrix is a read-only window into a file."""
        return self._backing is not None

    def _attach_backing(self, backing: MmapBacking) -> None:
        """Adopt an on-disk backing descriptor (trace-cache internal)."""
        self._backing = backing

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        if self._backing is not None:
            # Ship the descriptor, not the bytes: the receiving process
            # reopens the mmap by path and pages in only its rows.
            state["_data"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if self._data is None and self._backing is not None:
            self._data = self._backing.reopen()

    def __eq__(self, other: object) -> bool:
        """Value equality: machine ids, metrics, time axis and samples.

        Where the matrix lives does not count, so an mmap-backed store
        equals its in-RAM copy, and a :class:`~repro.trace.records.TraceBundle`
        compares its ``usage`` by value.
        """
        if not isinstance(other, MetricStore):
            return NotImplemented
        return (self._machine_ids == other._machine_ids
                and self._metrics == other._metrics
                and np.array_equal(self._timestamps, other._timestamps)
                and np.array_equal(self._data, other._data))

    # Value equality on a mutable matrix: a store is not hashable.
    __hash__ = None

    # -- accessors ----------------------------------------------------------
    @property
    def machine_ids(self) -> list[str]:
        return list(self._machine_ids)

    @property
    def metrics(self) -> tuple[str, ...]:
        return self._metrics

    @property
    def timestamps(self) -> np.ndarray:
        return self._timestamps

    @property
    def data(self) -> np.ndarray:
        """The raw ``(machines, metrics, samples)`` array (mutable view)."""
        return self._data

    @property
    def num_machines(self) -> int:
        return len(self._machine_ids)

    @property
    def num_samples(self) -> int:
        return int(self._timestamps.shape[0])

    def __contains__(self, machine_id: str) -> bool:
        return machine_id in self._machine_index

    def _machine_row(self, machine_id: str) -> int:
        try:
            return self._machine_index[machine_id]
        except KeyError:
            raise UnknownEntityError("machine", machine_id) from None

    def _metric_row(self, metric: str) -> int:
        try:
            return self._metric_index[metric]
        except KeyError:
            raise UnknownEntityError("metric", metric) from None

    # -- mutation -----------------------------------------------------------
    def _require_writable(self, operation: str) -> None:
        """Fail mutations of read-only stores with a clear error.

        Without this, NumPy raises an opaque ``ValueError: assignment
        destination is read-only`` from deep inside the assignment.
        """
        if not self._data.flags.writeable:
            origin = ("it is memory-mapped from the trace cache"
                      if self._backing is not None else
                      "it is a read-only view (subset / shard slice)")
            raise SeriesError(
                f"cannot {operation} on a read-only store: {origin}; "
                f"materialise a writable copy first, e.g. "
                f"MetricStore.from_dense(store.machine_ids, "
                f"store.timestamps, store.metrics, store.data.copy())")

    def set_series(self, machine_id: str, metric: str,
                   values: np.ndarray | Sequence[float]) -> None:
        """Overwrite the full series for one machine/metric pair."""
        self._require_writable("set_series")
        values = np.asarray(values, dtype=np.float64)
        if values.shape[0] != self.num_samples:
            raise SeriesError(
                f"expected {self.num_samples} samples, got {values.shape[0]}")
        self._data[self._machine_row(machine_id), self._metric_row(metric), :] = values

    def add_to_series(self, machine_id: str, metric: str,
                      values: np.ndarray | Sequence[float]) -> None:
        """Accumulate values onto an existing series (used by the simulator)."""
        self._require_writable("add_to_series")
        values = np.asarray(values, dtype=np.float64)
        if values.shape[0] != self.num_samples:
            raise SeriesError(
                f"expected {self.num_samples} samples, got {values.shape[0]}")
        self._data[self._machine_row(machine_id), self._metric_row(metric), :] += values

    def clip(self, lower: float = 0.0, upper: float = 100.0) -> None:
        """Clip every stored value into ``[lower, upper]`` in place."""
        self._require_writable("clip")
        np.clip(self._data, lower, upper, out=self._data)

    # -- queries ------------------------------------------------------------
    def series(self, machine_id: str, metric: str) -> TimeSeries:
        """Return the utilisation series of one machine for one metric."""
        row = self._data[self._machine_row(machine_id), self._metric_row(metric), :]
        return TimeSeries(self._timestamps, row.copy())

    def machine_snapshot(self, machine_id: str, timestamp: float) -> dict[str, float]:
        """Return ``{metric: value}`` for one machine at one timestamp."""
        idx = self._time_index(timestamp)
        row = self._data[self._machine_row(machine_id), :, idx]
        return {metric: float(row[i]) for i, metric in enumerate(self._metrics)}

    def snapshot(self, timestamp: float,
                 metric: str | None = None) -> dict[str, dict[str, float]] | dict[str, float]:
        """Return the utilisation of every machine at ``timestamp``.

        With ``metric`` set, a flat ``{machine_id: value}`` mapping is
        returned; otherwise a nested ``{machine_id: {metric: value}}``.
        """
        idx = self._time_index(timestamp)
        if metric is not None:
            column = self._data[:, self._metric_row(metric), idx]
            return {mid: float(column[i]) for i, mid in enumerate(self._machine_ids)}
        out: dict[str, dict[str, float]] = {}
        for i, mid in enumerate(self._machine_ids):
            out[mid] = {m: float(self._data[i, j, idx])
                        for j, m in enumerate(self._metrics)}
        return out

    def metric_block(self, metric: str) -> np.ndarray:
        """Zero-copy ``(machines, samples)`` view of one metric.

        This is the array the cluster-wide detection engine sweeps: row ``i``
        is the full series of ``machine_ids[i]``.  Mutating the view mutates
        the store.
        """
        return self._data[:, self._metric_row(metric), :]

    def aggregate(self, metric: str, reducer: str = "mean") -> TimeSeries:
        """Aggregate one metric across all machines at every timestamp."""
        block = self._data[:, self._metric_row(metric), :]
        if reducer == "mean":
            values = block.mean(axis=0)
        elif reducer == "max":
            values = block.max(axis=0)
        elif reducer == "min":
            values = block.min(axis=0)
        elif reducer == "sum":
            values = block.sum(axis=0)
        elif reducer == "p95":
            values = np.percentile(block, 95, axis=0)
        else:
            raise SeriesError(f"unknown reducer {reducer!r}")
        return TimeSeries(self._timestamps, values)

    def subset(self, machine_ids: Iterable[str]) -> "MetricStore":
        """Return a read-only store restricted to the given machines.

        When the requested machines form a contiguous ascending block of
        this store's rows (including the identity subset), the result is a
        zero-copy view sharing this store's data; otherwise the selected
        rows are gathered into a fresh array.  Either way the subset's data
        is marked read-only, so the mutation contract does not depend on
        which machines were picked.
        """
        ids = [mid for mid in machine_ids]
        if len(set(ids)) != len(ids):
            raise SeriesError("machine ids must be unique")
        rows = np.asarray([self._machine_row(mid) for mid in ids], dtype=np.intp)
        if rows.size and np.array_equal(
                rows, np.arange(rows[0], rows[0] + rows.size)):
            data = self._data[rows[0]:rows[0] + rows.size]
        else:
            data = self._data[rows]
        data.setflags(write=False)
        return MetricStore._view(ids, self._timestamps, self._metrics, data)

    def machine_slice(self, start: int, stop: int) -> "MetricStore":
        """Zero-copy view of a contiguous run of machine rows.

        This is the primitive the shard planner
        (:mod:`repro.analysis.shard`) splits a store with: the returned
        view shares this store's data (``np.shares_memory``) and is marked
        read-only, mirroring :meth:`subset`'s contiguous fast path without
        the id-list round trip.
        """
        start, stop = int(start), int(stop)
        if start < 0 or stop > self.num_machines or stop < start:
            raise SeriesError(
                f"machine slice [{start}, {stop}) out of range for "
                f"{self.num_machines} machine(s)")
        data = self._data[start:stop]
        data.setflags(write=False)
        view = MetricStore._view(self._machine_ids[start:stop],
                                 self._timestamps, self._metrics, data)
        if self._backing is not None:
            # The shard keeps a window descriptor into the same file, so
            # pickling it (process backend) ships a path + row range, not
            # the rows themselves.
            view._backing = replace(
                self._backing,
                row_start=self._backing.row_start + start,
                row_stop=self._backing.row_start + stop)
        return view

    def sample_slice(self, start: int, stop: int) -> "MetricStore":
        """Zero-copy view of a contiguous run of samples (by index).

        The time-axis sibling of :meth:`machine_slice`: the chunked
        streaming pipeline cuts a store into sample blocks with it, and
        every chunk shares this store's data (``np.shares_memory``).
        Unlike :meth:`window` (which resolves timestamps), the bounds are
        plain sample indices.
        """
        start, stop = int(start), int(stop)
        if start < 0 or stop > self.num_samples or stop < start:
            raise SeriesError(
                f"sample slice [{start}, {stop}) out of range for "
                f"{self.num_samples} sample(s)")
        return MetricStore._view(self._machine_ids,
                                 self._timestamps[start:stop],
                                 self._metrics, self._data[:, :, start:stop])

    def window(self, start: float, end: float) -> "MetricStore":
        """Return a zero-copy view restricted to ``start <= t <= end``.

        Timestamps are sorted, so the window is always a contiguous slice;
        the returned store shares this store's data (mutations propagate).
        """
        if end < start:
            raise SeriesError(f"end ({end}) precedes start ({start})")
        lo = int(np.searchsorted(self._timestamps, start, side="left"))
        hi = int(np.searchsorted(self._timestamps, end, side="right"))
        return MetricStore._view(self._machine_ids, self._timestamps[lo:hi],
                                 self._metrics, self._data[:, :, lo:hi])

    def time_index(self, timestamp: float) -> int:
        """Index of the newest sample at or before ``timestamp`` (clamped).

        The lookup behind every snapshot query, public so array consumers
        (the regime classifier, the online monitor) can address a dense
        column directly instead of round-tripping through snapshot dicts.
        """
        if self.num_samples == 0:
            raise SeriesError("store holds no samples")
        idx = int(np.searchsorted(self._timestamps, timestamp, side="right")) - 1
        return max(0, min(idx, self.num_samples - 1))

    #: Backwards-compatible internal alias (pre-streaming-refactor name).
    _time_index = time_index

    # -- dense conversion ------------------------------------------------------
    @classmethod
    def from_dense(cls, machine_ids: Sequence[str], timestamps: np.ndarray,
                   metrics: Sequence[str], data: np.ndarray, *,
                   dtype: np.dtype | type | None = np.float64) -> "MetricStore":
        """Adopt an existing dense ``(machines, metrics, samples)`` array.

        The inverse of reading :attr:`data` out of a store — the columnar
        trace cache (:mod:`repro.trace.cache`) round-trips stores through
        it.  Ids/timestamps get the constructor's validation, but ``data``
        is adopted without copying and no zero matrix is allocated (this
        sits on the warm cache-load hot path).  ``dtype=None`` adopts the
        array exactly as passed — the cache uses it so a ``float32`` or
        memory-mapped matrix is not silently materialised as a fresh
        ``float64`` copy.
        """
        machine_ids, timestamps = _validate_axes(machine_ids, timestamps)
        data = np.asarray(data) if dtype is None else np.asarray(data,
                                                                 dtype=dtype)
        expected = (len(machine_ids), len(metrics), timestamps.shape[0])
        if data.shape != expected:
            raise SeriesError(
                f"dense block has shape {data.shape}, expected {expected}")
        return cls._view(machine_ids, timestamps, tuple(metrics), data)

    # -- record conversion ----------------------------------------------------
    def iter_records(self) -> Iterator[tuple[float, str, dict[str, float]]]:
        """Yield ``(timestamp, machine_id, {metric: value})`` for every sample."""
        for t_idx, timestamp in enumerate(self._timestamps):
            for m_idx, machine_id in enumerate(self._machine_ids):
                values = {metric: float(self._data[m_idx, j, t_idx])
                          for j, metric in enumerate(self._metrics)}
                yield float(timestamp), machine_id, values

    @classmethod
    def from_records(cls, records: Iterable[tuple[float, str, Mapping[str, float]]],
                     metrics: Sequence[str] = METRICS) -> "MetricStore":
        """Build a store from ``(timestamp, machine_id, {metric: value})`` rows.

        Rows may arrive in any order, share timestamps across machines, and
        omit metrics (missing metrics stay 0).  When the same
        ``(timestamp, machine, metric)`` cell appears more than once, the
        last row wins.  Cell placement is one bulk ``searchsorted``
        scatter-assignment per metric instead of a per-row Python loop.
        """
        rows = list(records)
        raw_ts = np.asarray([r[0] for r in rows], dtype=np.float64)
        timestamps = np.unique(raw_ts)
        machine_ids = sorted({r[1] for r in rows})
        store = cls(machine_ids, timestamps, metrics)
        if not rows:
            return store
        num_rows = len(rows)
        t_idx = np.searchsorted(timestamps, raw_ts)
        m_idx = np.fromiter((store._machine_index[r[1]] for r in rows),
                            dtype=np.intp, count=num_rows)
        for j, metric in enumerate(store._metrics):
            present = np.fromiter((metric in r[2] for r in rows),
                                  dtype=bool, count=num_rows)
            if not present.any():
                continue
            values = np.fromiter(
                (float(r[2][metric]) if ok else 0.0
                 for ok, r in zip(present.tolist(), rows)),
                dtype=np.float64, count=num_rows)
            store._data[m_idx[present], j, t_idx[present]] = values[present]
        return store
