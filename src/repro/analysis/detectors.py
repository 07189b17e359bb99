"""Metric-based anomaly detectors.

BatchLens itself leaves anomaly *detection* to the human looking at the
views; the benchmark harness, however, needs a programmatic way to check
that the patterns the paper's case study describes are actually present in
the generated data.  These detectors implement the standard metric-based
approaches the related-work section cites (thresholding, rolling z-score,
EWMA residuals) and produce :class:`AnomalyEvent` records the higher-level
analyses build on.

Every detector exposes two equivalent surfaces:

* :meth:`~BlockDetector.detect` — the classic per-series call, returning
  events for one :class:`~repro.metrics.series.TimeSeries`;
* :meth:`~BlockDetector.detect_block` — the array-level call taking a
  ``(rows, samples)`` value block and judging every row in one NumPy pass.
  :class:`~repro.analysis.engine.DetectionEngine` uses it to sweep a whole
  :class:`~repro.metrics.store.MetricStore` without ever copying a series.

Both paths share the same numerical kernels, so their events are
bit-identical; the per-series form is simply a one-row block.

The rolling z-score's statistics come from one helper,
:func:`rolling_mean_std`, which batch, sharded, incremental and served
sweeps all call.  It returns the mean and standard deviation of every full
window, bit for bit what ``sliding_window_view(values, window,
axis=1).mean(axis=2)`` and ``.std(axis=2)`` return.  On a block holding
many windows for its window length it adds the window's shifted
``(windows, rows)`` slices of one samples-major copy in the order of
NumPy's float64 ``pairwise_sum`` (left to right below 8 terms, eight
interleaved accumulators up to 128, a split at a multiple of 8 above),
then divides as ``np.mean`` and ``np.std`` do.  That costs about four
NumPy calls per window term and no ``(rows, windows, window)`` temporary.
A block with fewer than ``32 × window`` cells of ``rows × windows``, such
as a one-row :meth:`~BlockDetector.detect` call, keeps the sliding-window
reductions, which win there, unless their temporary would pass 32 MB.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import SeriesError
from repro.metrics.series import TimeSeries
from repro.metrics.store import MAX_WINDOW_SAMPLES


@dataclass(frozen=True)
class AnomalyEvent:
    """One detected anomalous interval on one series."""

    start: float
    end: float
    metric: str
    subject: str
    kind: str
    score: float
    detail: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start

    def overlaps(self, start: float, end: float) -> bool:
        """True when this event overlaps the interval ``[start, end]``."""
        return self.start <= end and self.end >= start

    def to_dict(self) -> dict:
        """The canonical JSON encoding (the detection service's wire form).

        ``from_dict(to_dict())`` round-trips bit-identically: JSON float
        text is the shortest repr, which parses back to the same double.
        """
        return {"start": self.start, "end": self.end, "metric": self.metric,
                "subject": self.subject, "kind": self.kind,
                "score": self.score, "detail": self.detail}

    @classmethod
    def from_dict(cls, raw: dict) -> "AnomalyEvent":
        """Rebuild an event from its :meth:`to_dict` encoding."""
        try:
            return cls(start=float(raw["start"]), end=float(raw["end"]),
                       metric=str(raw["metric"]), subject=str(raw["subject"]),
                       kind=str(raw["kind"]), score=float(raw["score"]),
                       detail=str(raw.get("detail", "")))
        except (KeyError, TypeError, ValueError) as exc:
            raise SeriesError(
                f"malformed anomaly-event dict {raw!r}: {exc}") from None


# -- vectorized run-length encoding ------------------------------------------
def mask_runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run-length encode a boolean ``(rows, samples)`` mask in one pass.

    Returns ``(rows, starts, ends)`` arrays, one entry per contiguous run of
    ``True`` samples: the row it lies on, its first sample index, and its
    exclusive end index.  Runs never span rows.  Runs are emitted in
    row-major order (all runs of row 0 first, left to right), which is also
    the order of the ``True`` samples in ``mask.ravel()``.
    """
    if mask.ndim != 2:
        raise SeriesError("mask_runs expects a 2-D (rows, samples) mask")
    num_rows, num_samples = mask.shape
    empty = np.empty(0, dtype=np.intp)
    if num_rows == 0 or num_samples == 0 or not mask.any():
        return empty, empty, empty
    # Pad each row with False on both sides so runs cannot leak across rows
    # when the matrix is flattened, then find the rising/falling edges.
    padded = np.zeros((num_rows, num_samples + 2), dtype=bool)
    padded[:, 1:-1] = mask
    edges = np.diff(padded.ravel().view(np.int8))
    starts_flat = np.flatnonzero(edges == 1) + 1
    ends_flat = np.flatnonzero(edges == -1) + 1
    width = num_samples + 2
    rows = starts_flat // width
    starts = starts_flat % width - 1
    ends = ends_flat % width - 1
    return rows.astype(np.intp), starts.astype(np.intp), ends.astype(np.intp)


def _run_max(scores: np.ndarray, rows: np.ndarray, starts: np.ndarray,
             ends: np.ndarray) -> np.ndarray:
    """Maximum score inside each run, for every run at once."""
    if rows.size == 0:
        return np.empty(0, dtype=np.float64)
    num_samples = scores.shape[1]
    flat = scores.reshape(-1)
    base = rows * num_samples
    bounds = np.column_stack([base + starts, base + ends]).reshape(-1)
    if bounds[-1] == flat.shape[0]:
        bounds = bounds[:-1]
    return np.maximum.reduceat(flat, bounds)[::2]


@dataclass(frozen=True)
class BlockDetection:
    """One detector's verdict on a ``(rows, samples)`` value block.

    Holds both the per-sample view (``mask``/``scores``) and the run-level
    view (``rows``/``starts``/``ends``/``run_scores``), already filtered by
    the detector's event-level criteria (minimum duration / sample count).
    """

    timestamps: np.ndarray
    #: Post-filter boolean flags, shape ``(rows, samples)``.
    mask: np.ndarray
    #: Raw per-sample anomaly scores, shape ``(rows, samples)``.
    scores: np.ndarray
    #: Row index of each surviving run.
    rows: np.ndarray
    #: First sample index of each run.
    starts: np.ndarray
    #: Exclusive end sample index of each run.
    ends: np.ndarray
    #: Maximum score inside each run.
    run_scores: np.ndarray

    @property
    def num_runs(self) -> int:
        return int(self.rows.shape[0])

    @classmethod
    def from_mask(cls, timestamps: np.ndarray, mask: np.ndarray,
                  scores: np.ndarray) -> "BlockDetection":
        """Assemble a block verdict from a per-sample mask/score pair.

        Runs the vectorized run-length encoding and per-run score reduction
        — the single place the run-level view is derived from the
        per-sample view.
        """
        rows, starts, ends = mask_runs(mask)
        return cls(timestamps=timestamps, mask=mask, scores=scores,
                   rows=rows, starts=starts, ends=ends,
                   run_scores=_run_max(scores, rows, starts, ends))

    def events(self, *, subjects: Sequence[str], metric: str,
               kind: str) -> list[AnomalyEvent]:
        """Materialise the runs as :class:`AnomalyEvent` records."""
        timestamps = self.timestamps
        return [
            AnomalyEvent(start=float(timestamps[lo]),
                         end=float(timestamps[hi - 1]),
                         metric=metric, subject=subjects[row], kind=kind,
                         score=float(score))
            for row, lo, hi, score in zip(self.rows.tolist(),
                                          self.starts.tolist(),
                                          self.ends.tolist(),
                                          self.run_scores.tolist())
        ]

    def vote_scores(self) -> np.ndarray:
        """Per-sample scores with each run's maximum broadcast over the run.

        This is the sample-level score surface ensemble voting combines:
        every sample of a run carries the run's peak score (matching how an
        event's score covers its whole interval), everything else is zero.
        """
        out = np.zeros_like(self.scores)
        if self.rows.size:
            lengths = self.ends - self.starts
            flat = out.reshape(-1)
            flat[np.flatnonzero(self.mask.reshape(-1))] = np.repeat(
                self.run_scores, lengths)
        return out

    def flagged_rows(self, window: tuple[float, float] | None = None) -> np.ndarray:
        """Unique row indices with at least one run (overlapping ``window``)."""
        rows = self.rows
        if window is not None and rows.size:
            run_start = self.timestamps[self.starts]
            run_end = self.timestamps[self.ends - 1]
            rows = rows[(run_start <= window[1]) & (run_end >= window[0])]
        return np.unique(rows)


def _as_block(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise SeriesError(
            f"detect_block expects a (rows, samples) block, got shape "
            f"{values.shape}")
    return values


class BlockDetector:
    """Base class wiring the per-sample kernels into both detector surfaces.

    Subclasses implement :meth:`_block_mask` (per-sample flags and scores
    over a 2-D block) and optionally :meth:`_keep_run_spans` (event-level
    filtering such as a minimum duration); :meth:`detect` and
    :meth:`detect_block` then share the identical numerical path.

    Detectors that can also judge a trace *incrementally* — chunk by chunk,
    carrying their warm-up context across chunk boundaries — additionally
    implement :meth:`make_stream_state` / :meth:`_stream_mask`.  The
    contract (golden-pinned by the engine's incremental suite) is that
    feeding any chunking of a trace through ``_stream_mask`` flags exactly
    the samples a single :meth:`detect_block` over the whole trace would.
    All built-in detectors implement it; per-series-only third-party
    detectors simply raise, and the engine reports that they cannot
    stream.
    """

    #: ``AnomalyEvent.kind`` value this detector emits.
    kind: str = "anomaly"

    def _block_mask(self, timestamps: np.ndarray,
                    values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def _keep_run_spans(self, durations: np.ndarray,
                        lengths: np.ndarray) -> np.ndarray | None:
        """Boolean keep-flag per run, or ``None`` to keep every run.

        ``durations`` is each run's time span in seconds (last flagged
        timestamp minus first), ``lengths`` its sample count.  This is the
        one event-level filter hook both the batch path and the
        incremental engine apply, so a detector's minimum-duration rule
        cannot diverge between them.
        """
        return None

    def _keep_runs(self, timestamps: np.ndarray, rows: np.ndarray,
                   starts: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
        """Span-based keep flags resolved against a block's time axis."""
        if rows.size == 0:
            return None
        return self._keep_run_spans(timestamps[ends - 1] - timestamps[starts],
                                    ends - starts)

    # -- incremental surface ---------------------------------------------------
    def make_stream_state(self, num_rows: int) -> object:
        """Fresh warm-up context for an incremental sweep of ``num_rows`` rows."""
        raise SeriesError(
            f"detector {type(self).__name__} does not support incremental "
            f"streaming (no make_stream_state/_stream_mask)")

    def _stream_mask(self, state: object, timestamps: np.ndarray,
                     values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-sample flags/scores for one new chunk, updating ``state``."""
        raise SeriesError(
            f"detector {type(self).__name__} does not support incremental "
            f"streaming (no make_stream_state/_stream_mask)")

    def detect_block(self, timestamps: np.ndarray,
                     values: np.ndarray) -> BlockDetection:
        """Judge every row of a ``(rows, samples)`` block in one pass."""
        timestamps = np.asarray(timestamps, dtype=np.float64)
        values = _as_block(values)
        if timestamps.shape[0] != values.shape[1]:
            raise SeriesError(
                f"block has {values.shape[1]} samples but {timestamps.shape[0]} "
                f"timestamps")
        mask, scores = self._block_mask(timestamps, values)
        rows, starts, ends = mask_runs(mask)
        keep = self._keep_runs(timestamps, rows, starts, ends)
        if keep is not None and not np.all(keep):
            # Clear the dropped runs out of the per-sample mask: the True
            # samples of ``mask.ravel()`` are exactly the runs concatenated
            # in (row, start) order, so a per-run keep-flag repeats into a
            # per-flagged-sample keep-flag.
            if not mask.flags.writeable or not mask.flags.owndata:
                mask = mask.copy()
            flat = mask.reshape(-1)
            flat[np.flatnonzero(flat)] = np.repeat(keep, ends - starts)
            rows, starts, ends = rows[keep], starts[keep], ends[keep]
        run_scores = _run_max(scores, rows, starts, ends)
        return BlockDetection(timestamps=timestamps, mask=mask, scores=scores,
                              rows=rows, starts=starts, ends=ends,
                              run_scores=run_scores)

    def detect(self, series: TimeSeries, *, metric: str = "cpu",
               subject: str = "") -> list[AnomalyEvent]:
        """Detect events on one series (a one-row block)."""
        if len(series) == 0:
            return []
        block = self.detect_block(series.timestamps,
                                  series.values[np.newaxis, :])
        return block.events(subjects=(subject,), metric=metric, kind=self.kind)


def events_to_block(timestamps: np.ndarray, num_rows: int,
                    events_of_row) -> BlockDetection:
    """Paint per-row event lists back into a :class:`BlockDetection`.

    This is the shared fallback for per-series-only detectors (third-party
    implementations without ``detect_block``): ``events_of_row(row)`` must
    return the row's :class:`AnomalyEvent` list, whose intervals are painted
    into a mask/score block and re-run-length-encoded.  Overlapping or
    touching events merge into one run, preserving the
    :class:`BlockDetection` invariant that the flagged samples of ``mask``
    are exactly the runs concatenated.
    """
    timestamps = np.asarray(timestamps, dtype=np.float64)
    mask = np.zeros((num_rows, timestamps.shape[0]), dtype=bool)
    scores = np.zeros((num_rows, timestamps.shape[0]), dtype=np.float64)
    for row in range(num_rows):
        for event in events_of_row(row):
            lo = int(np.searchsorted(timestamps, event.start, side="left"))
            hi = int(np.searchsorted(timestamps, event.end, side="right"))
            mask[row, lo:hi] = True
            scores[row, lo:hi] = np.maximum(scores[row, lo:hi], event.score)
    return BlockDetection.from_mask(timestamps, mask, scores)


def mask_to_events(timestamps: np.ndarray, mask: np.ndarray, scores: np.ndarray,
                   *, metric: str, subject: str, kind: str) -> list[AnomalyEvent]:
    """Convert a boolean per-sample mask into contiguous anomaly events."""
    block = BlockDetection.from_mask(
        np.asarray(timestamps, dtype=np.float64),
        np.asarray(mask, dtype=bool)[np.newaxis, :],
        np.asarray(scores, dtype=np.float64)[np.newaxis, :])
    return block.events(subjects=(subject,), metric=metric, kind=kind)


class ThresholdDetector(BlockDetector):
    """Flags samples exceeding a static utilisation threshold."""

    kind = "threshold"

    def __init__(self, threshold: float = 90.0, *, min_duration_s: float = 0.0) -> None:
        if not 0.0 < threshold <= 100.0:
            raise SeriesError(f"threshold must be in (0, 100], got {threshold}")
        self.threshold = threshold
        self.min_duration_s = min_duration_s

    def _block_mask(self, timestamps: np.ndarray,
                    values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return values >= self.threshold, values - self.threshold

    def _keep_run_spans(self, durations: np.ndarray,
                        lengths: np.ndarray) -> np.ndarray | None:
        if self.min_duration_s <= 0.0 or durations.size == 0:
            return None
        return durations >= self.min_duration_s

    # Thresholding is memoryless: a chunk's flags do not depend on earlier
    # samples, so streaming needs no warm-up context at all.
    def make_stream_state(self, num_rows: int) -> None:
        return None

    def _stream_mask(self, state: None, timestamps: np.ndarray,
                     values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self._block_mask(timestamps, values)


#: A block whose ``rows × windows`` is below this multiple of the window
#: length keeps the sliding-window reductions: the shifted-column pass
#: costs about four NumPy calls per window term whatever the block size,
#: so it loses on blocks holding few windows for their length.
_SHIFTED_MIN_CELLS_PER_TERM = 32
#: ``np.std`` over the window view materialises ``rows × windows ×
#: window`` deviations; above this many (32 MB) the shifted-column pass
#: runs even where it is slower, so a long window cannot exhaust memory.
_SLIDING_MAX_CELLS = 1 << 22
#: Cells (windows × rows) the shifted-column pass sums at once: 128 KB
#: per array, so eight lanes and the terms fit a 2 MB L2 cache.
_SPAN_CELLS = 16_384


def _pairwise_split(start: int, count: int) -> tuple:
    if count <= 128:
        return (start, count)
    half = count // 2
    half -= half % 8
    return (_pairwise_split(start, half),
            _pairwise_split(start + half, count - half))


@functools.lru_cache(maxsize=64)
def _pairwise_plan(count: int) -> tuple:
    """NumPy's float64 ``pairwise_sum`` order over ``count`` terms, as a tree.

    A leaf ``(start, n)`` holds at most 128 terms, summed as
    :func:`_pairwise_sum` describes; a node ``(left, right)`` is a split at
    half the count rounded down to a multiple of 8, summed left plus
    right.  A long-lived server meets any window length up to
    :data:`MAX_WINDOW_SAMPLES`, hence the bound.
    """
    return _pairwise_split(0, count)


def _pairwise_sum(plan: tuple,
                  term: Callable[[int], np.ndarray]) -> np.ndarray:
    """Add the arrays ``term(i)`` in the order ``np.add.reduce`` adds a
    contiguous float64 axis: left to right below 8 terms; eight interleaved
    accumulators combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` and
    then the remainder left to right up to 128; recursive splits above.

    A leaf holds at least two terms (windows are at least 2 samples and
    splits at least 64).  The result is a new array; ``term`` may return
    views, which are only read.
    """
    if isinstance(plan[0], tuple):
        total = _pairwise_sum(plan[0], term)
        total += _pairwise_sum(plan[1], term)
        return total
    start, count = plan
    stop = start + count
    if count < 8:
        rest = start + 2
        total = term(start) + term(start + 1)
    else:
        rest = stop - count % 8
        if count < 16:
            lanes = [term(start + k) for k in range(8)]
        else:
            lanes = [term(start + k) + term(start + 8 + k) for k in range(8)]
            for base in range(start + 16, rest, 8):
                for k in range(8):
                    lanes[k] += term(base + k)
        total = lanes[0] + lanes[1]
        total += lanes[2] + lanes[3]
        upper = lanes[4] + lanes[5]
        upper += lanes[6] + lanes[7]
        total += upper
    for i in range(rest, stop):
        total += term(i)
    return total


def rolling_mean_std(values: np.ndarray,
                     window: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard deviation of every full ``window`` of each row.

    ``values`` is a float64 ``(rows, samples)`` block with at least
    ``window`` samples; both results have shape ``(rows, samples - window
    + 1)`` and equal ``sliding_window_view(values, window,
    axis=1).mean(axis=2)`` and ``.std(axis=2)`` bit for bit, a window of
    ``-0.0`` values included.  Blocks holding many windows for their
    length take the shifted-column pass over a samples-major copy; the
    rest keep the sliding-window reductions (module docstring).
    """
    num_rows, num_samples = values.shape
    num_windows = num_samples - window + 1
    cells = num_rows * num_windows
    if (cells < _SHIFTED_MIN_CELLS_PER_TERM * window
            and cells * window <= _SLIDING_MAX_CELLS):
        windows = sliding_window_view(values, window, axis=1)
        return windows.mean(axis=2), windows.std(axis=2)
    columns = np.ascontiguousarray(values.T)
    plan = _pairwise_plan(window)
    mean = np.empty((num_windows, num_rows), dtype=np.float64)
    std = np.empty_like(mean)
    span = max(1, _SPAN_CELLS // num_rows)
    for lo in range(0, num_windows, span):
        count = min(span, num_windows - lo)
        mean[lo:lo + count], var = _shifted_moments(
            columns[lo:lo + count + window - 1], plan, window, count)
        np.sqrt(var, out=std[lo:lo + count])
    return mean.T, std.T


def _shifted_moments(block: np.ndarray, plan: tuple, window: int,
                     count: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of the first ``count`` windows of a samples-major
    ``block``, in the order ``np.mean`` and ``np.var`` compute them."""
    mean = _pairwise_sum(plan, lambda i: block[i:i + count])
    # ``add.reduce`` adds the pairwise sum to its identity +0.0, which
    # turns a sum of -0.0 values into +0.0.
    mean += 0.0
    mean /= window

    def squared_deviation(i: int) -> np.ndarray:
        deviation = block[i:i + count] - mean
        deviation *= deviation
        return deviation

    var = _pairwise_sum(plan, squared_deviation)
    var += 0.0
    var /= window
    return mean, var


class _ZScoreStreamState:
    """Tail context of an incremental z-score sweep.

    ``tail`` holds the last ``window - 1`` values of every row — exactly
    the context the next chunk's first full rolling window needs.  While
    the trace is still shorter than that, the tail is the whole trace so
    far, whose length doubles as the global warm-up tracker: a chunk
    position only gets a full window (and may be flagged) once ``tail``
    plus the samples before it span ``window`` samples.
    """

    __slots__ = ("tail",)

    def __init__(self, num_rows: int) -> None:
        self.tail = np.empty((num_rows, 0), dtype=np.float64)


class RollingZScoreDetector(BlockDetector):
    """Flags samples whose rolling z-score exceeds a cut-off."""

    kind = "zscore"

    def __init__(self, window: int = 12, z_threshold: float = 3.0,
                 *, min_std: float = 1.0) -> None:
        if (isinstance(window, bool)
                or not isinstance(window, (int, np.integer))):
            raise SeriesError(
                f"window must be an integer number of samples, got "
                f"{window!r}")
        if not 2 <= window <= MAX_WINDOW_SAMPLES:
            raise SeriesError(
                f"window must be between 2 and {MAX_WINDOW_SAMPLES} "
                f"samples, got {window}")
        if z_threshold <= 0:
            raise SeriesError("z_threshold must be positive")
        self.window = int(window)
        self.z_threshold = z_threshold
        self.min_std = min_std

    def _block_mask(self, timestamps: np.ndarray,
                    values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        num_rows, num_samples = values.shape
        if num_samples < self.window:
            return (np.zeros((num_rows, num_samples), dtype=bool),
                    np.zeros((num_rows, num_samples), dtype=np.float64))
        mean = np.empty_like(values)
        std = np.empty_like(values)
        mean[:, self.window - 1:], std[:, self.window - 1:] = (
            rolling_mean_std(values, self.window))
        # The warm-up region is never flagged; its statistics only exist so
        # the score array is fully defined.
        for i in range(self.window - 1):
            head = values[:, :i + 1]
            mean[:, i] = head.mean(axis=1)
            std[:, i] = head.std(axis=1)
        std = np.maximum(std, self.min_std)
        z = np.abs(values - mean) / std
        mask = z >= self.z_threshold
        mask[:, :self.window - 1] = False
        return mask, z

    def make_stream_state(self, num_rows: int) -> _ZScoreStreamState:
        return _ZScoreStreamState(num_rows)

    def _stream_mask(self, state: _ZScoreStreamState, timestamps: np.ndarray,
                     values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        num_rows, n = values.shape
        mask = np.zeros((num_rows, n), dtype=bool)
        scores = np.zeros((num_rows, n), dtype=np.float64)
        if n == 0:
            return mask, scores
        tail = state.tail
        joined = (np.concatenate([tail, values], axis=1)
                  if tail.shape[1] else np.ascontiguousarray(values))
        k = tail.shape[1]
        m = joined.shape[1]
        if m >= self.window:
            # Rolling windows over tail + chunk cover exactly the trace
            # windows ending inside the chunk; the batch path's helper
            # keeps the statistics bit-identical.
            mean, std = rolling_mean_std(joined, self.window)
            std = np.maximum(std, self.min_std)
            first = max(self.window - 1, k)   # first full-window position
            off = first - (self.window - 1)
            z = np.abs(joined[:, first:] - mean[:, off:]) / std[:, off:]
            mask[:, first - k:] = z >= self.z_threshold
            scores[:, first - k:] = z
        keep = min(self.window - 1, m)
        state.tail = joined[:, m - keep:].copy()
        return mask, scores


class _EwmaStreamState:
    """Tail context of an incremental EWMA sweep: the forecast carried into
    the next chunk, plus the global sample count (the very first sample of
    a trace is never flagged, whichever chunk it arrives in)."""

    __slots__ = ("prev", "seen")

    def __init__(self, num_rows: int) -> None:
        self.prev = np.zeros(num_rows, dtype=np.float64)
        self.seen = 0


class EwmaDetector(BlockDetector):
    """Flags samples deviating strongly from an EWMA forecast."""

    kind = "ewma"

    def __init__(self, alpha: float = 0.3, deviation_threshold: float = 15.0) -> None:
        if not 0.0 < alpha <= 1.0:
            raise SeriesError(f"alpha must be in (0, 1], got {alpha}")
        if deviation_threshold <= 0:
            raise SeriesError("deviation_threshold must be positive")
        self.alpha = alpha
        self.deviation_threshold = deviation_threshold

    def _block_mask(self, timestamps: np.ndarray,
                    values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        num_rows, num_samples = values.shape
        mask = np.zeros((num_rows, num_samples), dtype=bool)
        scores = np.zeros((num_rows, num_samples), dtype=np.float64)
        if num_samples < 2:
            return mask, scores
        # The recurrence walks samples, so it runs over a samples-major
        # copy: each step reads and writes one contiguous row instead of a
        # column strided across the store's (machines, metrics, samples).
        # ``alpha * x`` for every sample up front, then one in-place add per
        # step: the same products and sum as ``alpha * x[i] + decay *
        # s[i - 1]``, so bit-identical, with one temporary per step, not three.
        columns = np.ascontiguousarray(values.T)
        smoothed = columns * self.alpha
        smoothed[0] = columns[0]
        decay = 1.0 - self.alpha
        for i in range(1, num_samples):
            smoothed[i] += smoothed[i - 1] * decay
        # compare each sample against the forecast from the previous one
        residual = np.abs(columns[1:] - smoothed[:-1]).T
        mask[:, 1:] = residual >= self.deviation_threshold
        scores[:, 1:] = residual
        return mask, scores

    def make_stream_state(self, num_rows: int) -> _EwmaStreamState:
        return _EwmaStreamState(num_rows)

    def _stream_mask(self, state: _EwmaStreamState, timestamps: np.ndarray,
                     values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        num_rows, n = values.shape
        mask = np.zeros((num_rows, n), dtype=bool)
        scores = np.zeros((num_rows, n), dtype=np.float64)
        if n == 0:
            return mask, scores
        prev = state.prev
        start = 0
        if state.seen == 0:
            prev = values[:, 0].copy()
            start = 1
        alpha, decay = self.alpha, 1.0 - self.alpha
        # Same per-column recurrence as the batch kernel (vectorized across
        # rows), so the smoothed sequence — and hence every residual — is
        # bit-identical however the trace is chunked.
        for i in range(start, n):
            column = values[:, i]
            residual = np.abs(column - prev)
            mask[:, i] = residual >= self.deviation_threshold
            scores[:, i] = residual
            prev = alpha * column + decay * prev
        state.prev = np.asarray(prev, dtype=np.float64)
        state.seen += n
        return mask, scores


class FlatlineDetector(BlockDetector):
    """Flags stretches where a series sits at (effectively) zero.

    A healthy machine always reports at least its background baseline, so a
    sustained flatline at zero is the signature of a dead or failed machine
    (the :mod:`repro.scenarios` failure injectors zero the series of failed
    machines).
    """

    kind = "flatline"

    def __init__(self, epsilon: float = 0.5, *, min_samples: int = 3) -> None:
        if epsilon < 0:
            raise SeriesError("epsilon must be non-negative")
        if min_samples < 1:
            raise SeriesError("min_samples must be at least 1")
        self.epsilon = epsilon
        self.min_samples = min_samples

    def _block_mask(self, timestamps: np.ndarray,
                    values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return values <= self.epsilon, self.epsilon - values

    def _keep_run_spans(self, durations: np.ndarray,
                        lengths: np.ndarray) -> np.ndarray | None:
        if self.min_samples <= 1 or lengths.size == 0:
            return None
        # Run length IS the sample count — no need to re-scan the timestamp
        # array per event.
        return lengths >= self.min_samples

    # Like thresholding, flatline flags are memoryless per sample; only the
    # run-length filter is stateful, and that lives in the engine's
    # cross-chunk run tracking.
    def make_stream_state(self, num_rows: int) -> None:
        return None

    def _stream_mask(self, state: None, timestamps: np.ndarray,
                     values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self._block_mask(timestamps, values)


def detect_all(series: TimeSeries, detectors: Sequence | None = None, *,
               metric: str = "cpu", subject: str = "") -> list[AnomalyEvent]:
    """Run several detectors over one series and pool their events."""
    if detectors is None:
        detectors = [ThresholdDetector(), RollingZScoreDetector(), EwmaDetector()]
    events: list[AnomalyEvent] = []
    for detector in detectors:
        events.extend(detector.detect(series, metric=metric, subject=subject))
    return sorted(events, key=lambda e: (e.start, e.kind))


def _merge_detail(kinds: list[str]) -> str:
    """Provenance of a merged event: the distinct contributing kinds."""
    seen: dict[str, None] = {}
    for kind in kinds:
        seen.setdefault(kind, None)
    return "kinds=" + "+".join(seen)


def merge_events(events: Sequence[AnomalyEvent],
                 gap_s: float = 0.0) -> list[AnomalyEvent]:
    """Merge overlapping (or near-overlapping) events on the same subject/metric.

    Merged events carry ``kind="merged"`` and record the contributing
    detector kinds in ``detail`` (``"kinds=threshold+zscore"``), so the
    provenance survives the merge.  Events that absorb nothing are returned
    unchanged.
    """
    grouped: dict[tuple[str, str], list[AnomalyEvent]] = {}
    for event in events:
        grouped.setdefault((event.subject, event.metric), []).append(event)
    merged: list[AnomalyEvent] = []
    for (subject, metric), group in grouped.items():
        group = sorted(group, key=lambda e: e.start)
        current = group[0]
        current_kinds = [current.kind]
        for event in group[1:]:
            if event.start <= current.end + gap_s:
                current_kinds.append(event.kind)
                current = AnomalyEvent(
                    start=current.start, end=max(current.end, event.end),
                    metric=metric, subject=subject, kind="merged",
                    score=max(current.score, event.score),
                    detail=_merge_detail(current_kinds))
            else:
                merged.append(current)
                current = event
                current_kinds = [event.kind]
        merged.append(current)
    return sorted(merged, key=lambda e: (e.start, e.subject))
