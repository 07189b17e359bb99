"""Spike and valley detection in utilisation series.

"Users can observe the temporal patterns in terms of metric trends of
compute nodes, such as a spike or a valley in the context of other nodes'
performance" (§III-B).  This module finds those spikes/valleys by peak
prominence so the case-study benchmark can verify that the hot-job machines
really do exhibit the Fig. 3(b) spike.

Every function reads one block kernel over a ``(machines, samples)``
array: :func:`block_peaks` finds every row's peaks and
:func:`block_prominences` measures the prominence of given peaks.  Both
work in slabs of at most :data:`_SLAB_CELLS` cells, with a number of
NumPy passes per slab that depends only on the row length (one per
sparse-table level, ⌊log₂ n⌋ + 1), never on the number of rows or peaks.
The per-series functions pass their series as a one-row block, and
cluster scoring passes the whole metric block at once.

**Exactness contract.**  The kernel reproduces the per-sample peak and
prominence walks (kept as the reference in
``tests/test_analysis_spikes.py``) exactly:

* a peak is a rise into a sample whose run of equal values (a plateau)
  ends in a fall; a plateau peak reports its first sample, and a plateau
  that runs into the row end or into a NaN is no peak, so a row with
  fewer than 3 samples has none;
* a peak's prominence is its height minus the higher of its two bases.
  Each base is the minimum over the samples reachable on that side
  without crossing a strictly higher one.  NaN samples neither stop the
  walk nor become a base, as with the walk's ``>`` tests and Python's
  ``min``.

Only ``min``, ``max`` and one subtraction touch values, so prominences
are bit-identical to the walk.  Input is upcast with
``np.asarray(block, dtype=np.float64)`` (a float32 store gives what
``store.series`` gives) and never written to, so read-only (mmap) blocks
are fine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import SeriesError
from repro.metrics.series import TimeSeries


@dataclass(frozen=True)
class Spike:
    """One detected spike (or valley) in a series."""

    timestamp: float
    value: float
    prominence: float
    kind: str  # "spike" or "valley"
    subject: str = ""


#: Cells (rows × samples) one slab of the block kernel holds at a time.
#: The sparse tables and index temporaries scale with the slab, not with
#: the block; a row longer than this forms its own slab.
_SLAB_CELLS = 8192


def _slabs(num_rows: int, num_samples: int):
    """``(lo, hi)`` row ranges of at most :data:`_SLAB_CELLS` cells each."""
    step = max(1, _SLAB_CELLS // max(1, num_samples))
    for lo in range(0, num_rows, step):
        yield lo, min(lo + step, num_rows)


def _as_block(block) -> np.ndarray:
    block = np.asarray(block, dtype=np.float64)
    if block.ndim != 2:
        raise SeriesError(
            f"spike kernel expects a (rows, samples) block, got shape "
            f"{block.shape}")
    return block


def _slab_peaks(values: np.ndarray) -> np.ndarray:
    """Boolean ``(rows, samples)`` peak mask of one slab (>= 3 samples)."""
    prev, nxt = values[:, :-1], values[:, 1:]
    num_steps = prev.shape[1]
    # Step k joins samples k and k + 1.  ``end[:, k]`` is the first step at
    # or after k that is not flat; ``num_steps`` stands for "none".
    flat = nxt == prev
    end = np.where(flat, num_steps, np.arange(num_steps))
    end = np.minimum.accumulate(end[:, ::-1], axis=1)[:, ::-1]
    falls = np.zeros((values.shape[0], num_steps + 1), dtype=bool)
    np.less(nxt, prev, out=falls[:, :-1])
    mask = np.zeros(values.shape, dtype=bool)
    # A rise into sample i (1 <= i <= n - 2) is a peak iff its plateau
    # ends in a fall.
    np.logical_and(nxt[:, :-1] > prev[:, :-1],
                   np.take_along_axis(falls, end[:, 1:], axis=1),
                   out=mask[:, 1:-1])
    return mask


def block_peaks(block) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, cols)`` of every row's peaks, in (row, col) order.

    Plateau peaks report their first sample; see the module docstring for
    the full rule.
    """
    block = _as_block(block)
    num_rows, num_samples = block.shape
    rows, cols = [], []
    if num_samples >= 3:
        for lo, hi in _slabs(num_rows, num_samples):
            slab_rows, slab_cols = np.nonzero(_slab_peaks(block[lo:hi]))
            rows.append(slab_rows + lo)
            cols.append(slab_cols)
    if not rows:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    return (np.concatenate(rows).astype(np.int64, copy=False),
            np.concatenate(cols).astype(np.int64, copy=False))


def _slab_prominences(values: np.ndarray, rows: np.ndarray,
                      cols: np.ndarray) -> np.ndarray:
    """Prominences of the peaks ``(rows, cols)`` of one slab."""
    num_rows, n = values.shape
    levels = n.bit_length()
    cells = num_rows * n
    # Sparse tables over the flattened slab: level k at cell c covers cells
    # [c, c + 2**k).  Queries never cross a row end, so the cells whose
    # span does are never read (and the last 2**k - 1 are never set).
    high = np.empty((levels, cells))
    low = np.empty((levels, cells))
    high[0] = low[0] = values.reshape(-1)
    for k in range(1, levels):
        half, width = 1 << (k - 1), cells - (1 << k) + 1
        np.fmax(high[k - 1, :width], high[k - 1, half:half + width],
                out=high[k, :width])
        np.fmin(low[k - 1, :width], low[k - 1, half:half + width],
                out=low[k, :width])
    base = rows * n
    heights = high[0].take(base + cols)
    # Binary lifting: extend [left, right] around each peak by the largest
    # power-of-two spans holding no strictly higher sample.  ``~(x > h)``
    # lets NaN through, as the walk does.
    left = cols.copy()
    right = cols.copy()
    for k in reversed(range(levels)):
        step = 1 << k
        fits = left >= step
        start = np.where(fits, left - step, 0)
        fits &= ~(high[k].take(base + start) > heights)
        left = np.where(fits, start, left)
        fits = right + step <= n - 1
        start = np.where(fits, right + 1, 0)
        fits &= ~(high[k].take(base + start) > heights)
        right = np.where(fits, right + step, right)

    def range_min(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        level = np.frexp(hi - lo + 1)[1] - 1  # floor(log2(length))
        return np.fmin(low[level, base + lo],
                       low[level, base + hi - (1 << level) + 1])

    return heights - np.maximum(range_min(left, cols), range_min(cols, right))


def block_prominences(block, rows, cols) -> np.ndarray:
    """Prominence of each peak ``(rows[i], cols[i])`` of ``block``.

    Any subset of :func:`block_peaks`' output is fine, so a caller can
    drop peaks it does not need before paying for their prominence.
    """
    block = _as_block(block)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    num_rows, num_samples = block.shape
    if rows.shape != cols.shape or rows.ndim != 1:
        raise SeriesError("peak rows and cols must be 1-D and equally long")
    out = np.empty(rows.shape[0])
    if rows.shape[0] == 0:
        return out
    if (rows.min() < 0 or rows.max() >= num_rows or cols.min() < 0
            or cols.max() >= num_samples):
        raise SeriesError(
            f"peak positions fall outside the {block.shape} block")
    for lo, hi in _slabs(num_rows, num_samples):
        inside = (rows >= lo) & (rows < hi)
        if inside.any():
            out[inside] = _slab_prominences(block[lo:hi], rows[inside] - lo,
                                            cols[inside])
    return out


def _check_thresholds(min_prominence: float,
                      tolerance_s: float | None = None) -> None:
    if not (math.isfinite(min_prominence) and min_prominence > 0):
        raise SeriesError(
            f"min_prominence must be finite and positive, got "
            f"{min_prominence!r}")
    if tolerance_s is not None and not (math.isfinite(tolerance_s)
                                        and tolerance_s >= 0):
        raise SeriesError(
            f"tolerance_s must be finite and non-negative, got "
            f"{tolerance_s!r}")


def _series_spikes(series: TimeSeries, values: np.ndarray,
                   min_prominence: float, kind: str,
                   subject: str) -> list[Spike]:
    """Peaks of ``values`` (the series or its negation) as ``Spike``s."""
    _check_thresholds(min_prominence)
    block = values[np.newaxis]
    rows, cols = block_peaks(block)
    prominences = block_prominences(block, rows, cols)
    keep = prominences >= min_prominence
    timestamps, own = series.timestamps, series.values
    return [Spike(timestamp=float(timestamps[index]), value=float(own[index]),
                  prominence=prominence, kind=kind, subject=subject)
            for index, prominence in zip(cols[keep].tolist(),
                                         prominences[keep].tolist())]


def find_peaks(values: np.ndarray) -> np.ndarray:
    """Indices of strict local maxima (plateau peaks report their first sample)."""
    _, cols = block_peaks(np.asarray(values, dtype=np.float64)[np.newaxis])
    return cols


def detect_spikes(series: TimeSeries, *, min_prominence: float = 15.0,
                  subject: str = "") -> list[Spike]:
    """Spikes: local maxima with prominence of at least ``min_prominence``."""
    return _series_spikes(series, series.values, min_prominence, "spike",
                          subject)


def detect_valleys(series: TimeSeries, *, min_prominence: float = 15.0,
                   subject: str = "") -> list[Spike]:
    """Valleys: spikes of the negated series."""
    return _series_spikes(series, -series.values, min_prominence, "valley",
                          subject)


def largest_spike(series: TimeSeries, *, min_prominence: float = 5.0,
                  subject: str = "") -> Spike | None:
    """The most prominent spike of a series, or ``None``."""
    spikes = detect_spikes(series, min_prominence=min_prominence, subject=subject)
    if not spikes:
        return None
    return max(spikes, key=lambda s: s.prominence)


def synchronized_spike(series_list: list[TimeSeries], *, min_prominence: float = 10.0,
                       tolerance_s: float = 900.0) -> bool:
    """True when most series spike at roughly the same time.

    The Fig. 3(b) observation is that the CPU of *all* nodes running the hot
    job is synchronised; this helper checks that at least half of the series
    have their largest spike within ``tolerance_s`` of the median spike time.
    """
    _check_thresholds(min_prominence, tolerance_s)
    times = []
    for series in series_list:
        spike = largest_spike(series, min_prominence=min_prominence)
        if spike is not None:
            times.append(spike.timestamp)
    if len(times) < max(2, len(series_list) // 2):
        return False
    median = float(np.median(times))
    close = sum(1 for t in times if abs(t - median) <= tolerance_s)
    return close >= max(2, int(np.ceil(0.5 * len(series_list))))
