"""Single-pass (online) statistics for the streaming replay report.

The offline analysis layer can afford to hold whole utilisation series in
memory; a live BatchLens deployment (§VI future work) cannot.  These small
estimators maintain summary statistics one sample at a time with O(1) state:

* :class:`RunningStats` — Welford's algorithm for mean / variance / extrema;
* :class:`P2Quantile` — the P² algorithm for streaming quantile estimation
  (used for live p95/p99 badges without storing samples).

Online *detection* does not live here: every registered detector carries
its own incremental state through
:meth:`~repro.analysis.engine.DetectionEngine.stream`, so streamed verdicts
equal batch ones.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import SeriesError


def _as_sample_array(values) -> np.ndarray:
    """Normalise any iterable of samples to a 1-D float64 array."""
    if not isinstance(values, np.ndarray):
        values = np.asarray(list(values), dtype=np.float64)
    else:
        values = np.asarray(values, dtype=np.float64)
    return values.reshape(-1)


class RunningStats:
    """Welford's single-pass mean / variance / min / max."""

    __slots__ = ("_count", "_mean", "_m2", "_minimum", "_maximum")

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._minimum = math.inf
        self._maximum = -math.inf

    def update(self, value: float) -> None:
        """Fold one sample into the statistics."""
        value = float(value)
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)
        self._minimum = min(self._minimum, value)
        self._maximum = max(self._maximum, value)

    def update_many(self, values) -> None:
        """Fold a whole batch of samples in one vectorized pass.

        The batch's count/mean/M2 come from NumPy reductions and combine
        with the running state through the same parallel-merge algebra as
        :meth:`merge` — the statistics agree with folding the samples one
        by one (count/min/max exactly; mean/variance to floating-point
        merge precision, property-pinned in the test suite) at a fraction
        of the cost for large batches.
        """
        values = _as_sample_array(values)
        n = int(values.shape[0])
        if n == 0:
            return
        if n == 1:
            self.update(float(values[0]))
            return
        block_mean = float(values.mean())
        block_m2 = float(((values - block_mean) ** 2).sum())
        if self._count == 0:
            self._mean = block_mean
            self._m2 = block_m2
        else:
            count = self._count + n
            delta = block_mean - self._mean
            self._mean += delta * n / count
            self._m2 += block_m2 + delta * delta * self._count * n / count
        self._count += n
        self._minimum = min(self._minimum, float(values.min()))
        self._maximum = max(self._maximum, float(values.max()))

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._mean if self._count else 0.0

    @property
    def variance(self) -> float:
        """Population variance of the samples seen so far."""
        return self._m2 / self._count if self._count else 0.0

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        if not self._count:
            raise SeriesError("no samples observed yet")
        return self._minimum

    @property
    def maximum(self) -> float:
        if not self._count:
            raise SeriesError("no samples observed yet")
        return self._maximum

    def merge(self, other: "RunningStats") -> "RunningStats":
        """Combine two partial aggregations (parallel / per-shard collection)."""
        merged = RunningStats()
        if self._count == 0:
            merged._count = other._count
            merged._mean = other._mean
            merged._m2 = other._m2
            merged._minimum = other._minimum
            merged._maximum = other._maximum
            return merged
        if other._count == 0:
            merged._count = self._count
            merged._mean = self._mean
            merged._m2 = self._m2
            merged._minimum = self._minimum
            merged._maximum = self._maximum
            return merged
        count = self._count + other._count
        delta = other._mean - self._mean
        merged._count = count
        merged._mean = self._mean + delta * other._count / count
        merged._m2 = (self._m2 + other._m2
                      + delta * delta * self._count * other._count / count)
        merged._minimum = min(self._minimum, other._minimum)
        merged._maximum = max(self._maximum, other._maximum)
        return merged


class P2Quantile:
    """Jain & Chlamtac's P² streaming quantile estimator.

    Maintains five markers; after at least five observations the
    :attr:`value` approximates the requested quantile without storing the
    sample history.
    """

    def __init__(self, quantile: float = 0.95) -> None:
        if not 0.0 < quantile < 1.0:
            raise SeriesError(f"quantile must be in (0, 1), got {quantile}")
        self.quantile = quantile
        self._initial: list[float] = []
        self._heights: list[float] = []
        self._positions: list[float] = []
        self._desired: list[float] = []
        self._increments: list[float] = []
        self._count = 0

    def update_many(self, values) -> None:
        """Fold an iterable of samples (P² is inherently sequential)."""
        for value in values:
            self.update(value)

    def update(self, value: float) -> None:
        value = float(value)
        self._count += 1
        if len(self._initial) < 5:
            self._initial.append(value)
            if len(self._initial) == 5:
                self._initial.sort()
                q = self.quantile
                self._heights = list(self._initial)
                self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
                self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q,
                                 3.0 + 2.0 * q, 5.0]
                self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
            return

        heights = self._heights
        positions = self._positions

        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            for index in range(4):
                if heights[index] <= value < heights[index + 1]:
                    cell = index
                    break

        for index in range(cell + 1, 5):
            positions[index] += 1.0
        for index in range(5):
            self._desired[index] += self._increments[index]

        for index in range(1, 4):
            delta = self._desired[index] - positions[index]
            if ((delta >= 1.0 and positions[index + 1] - positions[index] > 1.0)
                    or (delta <= -1.0 and positions[index - 1] - positions[index] < -1.0)):
                direction = 1.0 if delta >= 1.0 else -1.0
                candidate = self._parabolic(index, direction)
                if heights[index - 1] < candidate < heights[index + 1]:
                    heights[index] = candidate
                else:
                    heights[index] = self._linear(index, direction)
                positions[index] += direction

    def _parabolic(self, index: int, direction: float) -> float:
        h, p = self._heights, self._positions
        return h[index] + direction / (p[index + 1] - p[index - 1]) * (
            (p[index] - p[index - 1] + direction)
            * (h[index + 1] - h[index]) / (p[index + 1] - p[index])
            + (p[index + 1] - p[index] - direction)
            * (h[index] - h[index - 1]) / (p[index] - p[index - 1]))

    def _linear(self, index: int, direction: float) -> float:
        h, p = self._heights, self._positions
        step = int(direction)
        return h[index] + direction * (h[index + step] - h[index]) / (
            p[index + step] - p[index])

    @property
    def count(self) -> int:
        return self._count

    @property
    def value(self) -> float:
        """Current quantile estimate."""
        if not self._count:
            raise SeriesError("no samples observed yet")
        if len(self._initial) < 5:
            ordered = sorted(self._initial)
            index = min(len(ordered) - 1,
                        int(round(self.quantile * (len(ordered) - 1))))
            return ordered[index]
        return self._heights[2]
