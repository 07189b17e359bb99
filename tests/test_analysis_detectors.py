"""Tests for the metric-based anomaly detectors."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from repro.analysis import detectors
from repro.analysis.detectors import (
    AnomalyEvent,
    EwmaDetector,
    RollingZScoreDetector,
    ThresholdDetector,
    detect_all,
    merge_events,
    rolling_mean_std,
)
from repro.errors import SeriesError
from repro.metrics.series import TimeSeries
from repro.metrics.store import MAX_WINDOW_SAMPLES


def flat_with_spike(level=20.0, spike=95.0, n=50, spike_at=30, width=3) -> TimeSeries:
    values = np.full(n, level)
    values[spike_at:spike_at + width] = spike
    return TimeSeries(np.arange(n) * 60.0, values)


class TestThresholdDetector:
    def test_detects_interval_above_threshold(self):
        events = ThresholdDetector(90.0).detect(flat_with_spike(), subject="m1")
        assert len(events) == 1
        event = events[0]
        assert event.start == 30 * 60.0
        assert event.end == 32 * 60.0
        assert event.subject == "m1"
        assert event.kind == "threshold"

    def test_no_events_below_threshold(self):
        events = ThresholdDetector(99.0).detect(flat_with_spike(spike=95))
        assert events == []

    def test_min_duration_filter(self):
        detector = ThresholdDetector(90.0, min_duration_s=600)
        assert detector.detect(flat_with_spike(width=2)) == []

    def test_event_reaching_series_end(self):
        values = np.concatenate([np.full(10, 10.0), np.full(5, 99.0)])
        series = TimeSeries(np.arange(15) * 60.0, values)
        events = ThresholdDetector(90.0).detect(series)
        assert len(events) == 1
        assert events[0].end == series.end

    def test_invalid_threshold(self):
        with pytest.raises(SeriesError):
            ThresholdDetector(0.0)
        with pytest.raises(SeriesError):
            ThresholdDetector(150.0)

    def test_empty_series(self):
        assert ThresholdDetector().detect(TimeSeries.empty()) == []


class TestRollingZScore:
    def test_detects_level_shift(self):
        events = RollingZScoreDetector(window=8, z_threshold=2.5).detect(
            flat_with_spike(), subject="m2")
        assert len(events) >= 1
        assert any(e.start <= 30 * 60.0 <= e.end + 120 for e in events)

    def test_quiet_series_has_no_events(self):
        rng = np.random.default_rng(0)
        series = TimeSeries(np.arange(100) * 60.0, 20 + rng.normal(0, 0.5, 100))
        assert RollingZScoreDetector(window=10, z_threshold=4.0).detect(series) == []

    def test_short_series_returns_nothing(self):
        assert RollingZScoreDetector(window=10).detect(
            TimeSeries([0, 1], [1, 2])) == []

    def test_invalid_parameters(self):
        with pytest.raises(SeriesError):
            RollingZScoreDetector(window=1)
        with pytest.raises(SeriesError):
            RollingZScoreDetector(z_threshold=0)

    @pytest.mark.parametrize("window", [2.5, 12.0, True, "12", None])
    def test_window_must_be_an_int(self, window):
        with pytest.raises(SeriesError, match="integer"):
            RollingZScoreDetector(window=window)

    @pytest.mark.parametrize("window", [0, 1, MAX_WINDOW_SAMPLES + 1, 10**6])
    def test_window_must_fit_a_ring(self, window):
        with pytest.raises(SeriesError, match=str(MAX_WINDOW_SAMPLES)):
            RollingZScoreDetector(window=window)

    @pytest.mark.parametrize("window", [2, MAX_WINDOW_SAMPLES, np.int64(12)])
    def test_window_bounds_are_accepted(self, window):
        detector = RollingZScoreDetector(window=window)
        assert detector.window == window and type(detector.window) is int


class TestEwmaDetector:
    def test_detects_jump(self):
        events = EwmaDetector(alpha=0.3, deviation_threshold=30.0).detect(
            flat_with_spike())
        assert len(events) >= 1

    def test_slow_drift_not_flagged(self):
        series = TimeSeries(np.arange(100) * 60.0, np.linspace(10, 30, 100))
        assert EwmaDetector(alpha=0.3, deviation_threshold=10.0).detect(series) == []

    def test_invalid_parameters(self):
        with pytest.raises(SeriesError):
            EwmaDetector(alpha=0.0)
        with pytest.raises(SeriesError):
            EwmaDetector(deviation_threshold=-1)


class TestDetectAllAndMerge:
    def test_detect_all_pools_detectors(self):
        events = detect_all(flat_with_spike(), metric="cpu", subject="m")
        kinds = {e.kind for e in events}
        assert "threshold" in kinds
        assert len(events) >= 2
        assert events == sorted(events, key=lambda e: (e.start, e.kind))

    def test_merge_overlapping_events(self):
        events = [
            AnomalyEvent(0, 100, "cpu", "m1", "threshold", 1.0),
            AnomalyEvent(50, 200, "cpu", "m1", "zscore", 2.0),
            AnomalyEvent(500, 600, "cpu", "m1", "threshold", 3.0),
            AnomalyEvent(0, 100, "cpu", "m2", "threshold", 1.0),
        ]
        merged = merge_events(events)
        m1_events = [e for e in merged if e.subject == "m1"]
        assert len(m1_events) == 2
        assert m1_events[0].end == 200
        assert m1_events[0].score == 2.0

    def test_merge_with_gap_tolerance(self):
        events = [AnomalyEvent(0, 100, "cpu", "m", "t", 1.0),
                  AnomalyEvent(150, 300, "cpu", "m", "t", 1.0)]
        assert len(merge_events(events)) == 2
        assert len(merge_events(events, gap_s=60)) == 1

    def test_event_overlap_helper(self):
        event = AnomalyEvent(100, 200, "cpu", "m", "t", 1.0)
        assert event.overlaps(150, 400)
        assert event.overlaps(0, 100)
        assert not event.overlaps(201, 400)
        assert event.duration == 100


# -- the rolling-moment and recurrence kernels against their old formulas ----
#: Windows around the pairwise-sum boundaries: the 8-lane unroll (8k ± 1),
#: the 128-term block and the first recursive splits.
_EDGE_WINDOWS = (2, 7, 8, 9, 15, 16, 17, 23, 24, 25, 127, 128, 129, 135,
                 136, 137, 160, 255, 256, 257, 300)
_SPECIAL_VALUES = (-0.0, 0.0, 0.5, 33.3, 99.9, 100.0)


@st.composite
def _moment_blocks(draw, max_window=300, max_rows=64, max_windows=80):
    """A ``(rows, samples)`` block: C-contiguous or a store view
    ``(machines, metrics, samples)[:, k, :]``, its values drawn from the
    special set, uniform in [0, 100], a mix, or all ``-0.0``."""
    window = draw(st.one_of(st.integers(2, max_window),
                            st.sampled_from([w for w in _EDGE_WINDOWS
                                             if w <= max_window])))
    rows = draw(st.integers(1, max_rows))
    samples = window - 1 + draw(st.integers(1, max_windows))
    fill = draw(st.sampled_from(("uniform", "special", "mixed",
                                 "negative-zero")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    store = rng.uniform(0.0, 100.0, (rows, 3, samples))
    special = np.asarray(_SPECIAL_VALUES)[rng.integers(0, 6, store.shape)]
    if fill == "special":
        store = special
    elif fill == "mixed":
        store = np.where(rng.random(store.shape) < 0.5, special, store)
    elif fill == "negative-zero":
        store = np.full(store.shape, -0.0)
    if draw(st.booleans()):
        block = store[:, draw(st.integers(0, 2)), :]
    else:
        block = np.ascontiguousarray(store[:, 0, :])
    return block, window


def _bits(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.float64).view(np.int64)


def _reference_zscore_block_mask(detector, values):
    """``RollingZScoreDetector._block_mask`` before ``rolling_mean_std``."""
    num_rows, num_samples = values.shape
    if num_samples < detector.window:
        return (np.zeros((num_rows, num_samples), dtype=bool),
                np.zeros((num_rows, num_samples), dtype=np.float64))
    mean = np.empty_like(values)
    std = np.empty_like(values)
    windows = sliding_window_view(values, detector.window, axis=1)
    mean[:, detector.window - 1:] = windows.mean(axis=2)
    std[:, detector.window - 1:] = windows.std(axis=2)
    for i in range(detector.window - 1):
        head = values[:, :i + 1]
        mean[:, i] = head.mean(axis=1)
        std[:, i] = head.std(axis=1)
    std = np.maximum(std, detector.min_std)
    z = np.abs(values - mean) / std
    mask = z >= detector.z_threshold
    mask[:, :detector.window - 1] = False
    return mask, z


def _reference_zscore_stream_mask(detector, tail, values):
    """``RollingZScoreDetector._stream_mask`` before ``rolling_mean_std``;
    returns ``(mask, scores, new_tail)``."""
    num_rows, n = values.shape
    mask = np.zeros((num_rows, n), dtype=bool)
    scores = np.zeros((num_rows, n), dtype=np.float64)
    joined = (np.concatenate([tail, values], axis=1)
              if tail.shape[1] else np.ascontiguousarray(values))
    k, m = tail.shape[1], joined.shape[1]
    if m >= detector.window:
        windows = sliding_window_view(joined, detector.window, axis=1)
        mean = windows.mean(axis=2)
        std = np.maximum(windows.std(axis=2), detector.min_std)
        first = max(detector.window - 1, k)
        off = first - (detector.window - 1)
        z = np.abs(joined[:, first:] - mean[:, off:]) / std[:, off:]
        mask[:, first - k:] = z >= detector.z_threshold
        scores[:, first - k:] = z
    keep = min(detector.window - 1, m)
    return mask, scores, joined[:, m - keep:].copy()


def _reference_ewma_block_mask(detector, values):
    """``EwmaDetector._block_mask`` before the samples-major copy."""
    num_rows, num_samples = values.shape
    mask = np.zeros((num_rows, num_samples), dtype=bool)
    scores = np.zeros((num_rows, num_samples), dtype=np.float64)
    if num_samples < 2:
        return mask, scores
    smoothed = np.empty_like(values)
    smoothed[:, 0] = values[:, 0]
    alpha, decay = detector.alpha, 1.0 - detector.alpha
    for i in range(1, num_samples):
        smoothed[:, i] = alpha * values[:, i] + decay * smoothed[:, i - 1]
    residual = np.abs(values[:, 1:] - smoothed[:, :-1])
    mask[:, 1:] = residual >= detector.deviation_threshold
    scores[:, 1:] = residual
    return mask, scores


def _assert_same_verdict(got, want) -> None:
    assert got[0].dtype == bool and np.array_equal(got[0], want[0])
    assert np.array_equal(_bits(got[1]), _bits(want[1]))


class TestRollingMeanStdProperty:
    """``rolling_mean_std`` equals the sliding-window ``mean``/``std`` bit
    for bit, on the route a block's shape picks and on the shifted-column
    route forced for every shape."""

    @given(drawn=_moment_blocks(), force_shifted=st.booleans())
    @settings(max_examples=250, deadline=None)
    @example(drawn=(np.full((64, 208), -0.0), 129), force_shifted=False)
    @example(drawn=(np.full((1, 300), 33.3), 300), force_shifted=True)
    def test_equals_the_sliding_window_reductions(self, drawn, force_shifted):
        block, window = drawn
        windows = sliding_window_view(block, window, axis=1)
        want_mean, want_std = windows.mean(axis=2), windows.std(axis=2)
        threshold = 0 if force_shifted else detectors._SHIFTED_MIN_CELLS_PER_TERM
        with mock.patch.object(detectors, "_SHIFTED_MIN_CELLS_PER_TERM",
                               threshold):
            mean, std = rolling_mean_std(block, window)
        assert mean.shape == std.shape == want_mean.shape
        assert np.array_equal(_bits(mean), _bits(want_mean))
        assert np.array_equal(_bits(std), _bits(want_std))

    def test_shape_picks_the_route(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[1])
            return sliding_window_view(*args, **kwargs)

        monkeypatch.setattr(detectors, "sliding_window_view", spy)
        rng = np.random.default_rng(4)
        rolling_mean_std(rng.uniform(0, 100, (32, 19)), 12)      # 32 × 8
        rolling_mean_std(rng.uniform(0, 100, (1, 289)), 12)      # detect()
        assert calls == [12, 12]
        rolling_mean_std(rng.uniform(0, 100, (256, 43)), 12)     # 256 × 32
        rolling_mean_std(rng.uniform(0, 100, (128, 256)), 12)    # a shard
        # A temporary past 32 MB takes the shifted route at any shape.
        rolling_mean_std(rng.uniform(0, 100, (4, 3000)), 2000)
        assert calls == [12, 12]

    def test_plans_are_cached_with_a_bound(self):
        assert detectors._pairwise_plan(12) is detectors._pairwise_plan(12)
        assert detectors._pairwise_plan(12) == (0, 12)
        assert detectors._pairwise_plan(300) == (((0, 72), (72, 72)),
                                                 ((144, 72), (216, 84)))
        assert detectors._pairwise_plan.cache_info().maxsize is not None


class TestKernelsMatchTheirOldFormulas:
    """The detectors' kernels against their pre-change bodies, bit for bit."""

    @given(drawn=_moment_blocks(max_window=60, max_windows=60),
           z_threshold=st.sampled_from((0.5, 2.0, 3.0)))
    @settings(max_examples=120, deadline=None)
    def test_zscore_block_mask(self, drawn, z_threshold):
        block, window = drawn
        detector = RollingZScoreDetector(window=window,
                                         z_threshold=z_threshold)
        _assert_same_verdict(detector._block_mask(None, block),
                             _reference_zscore_block_mask(detector, block))

    @given(drawn=_moment_blocks(max_window=60, max_windows=60),
           cuts=st.lists(st.integers(0, 120), max_size=6))
    @settings(max_examples=120, deadline=None)
    def test_zscore_stream_mask(self, drawn, cuts):
        block, window = drawn
        detector = RollingZScoreDetector(window=window, z_threshold=2.0)
        state = detector.make_stream_state(block.shape[0])
        tail = np.empty((block.shape[0], 0))
        bounds = sorted({0, block.shape[1], *(c for c in cuts
                                              if c < block.shape[1])})
        for lo, hi in zip(bounds, bounds[1:]):
            chunk = block[:, lo:hi]
            mask, scores = detector._stream_mask(state, None, chunk)
            want_mask, want_scores, tail = _reference_zscore_stream_mask(
                detector, tail, chunk)
            _assert_same_verdict((mask, scores), (want_mask, want_scores))
            assert np.array_equal(_bits(state.tail), _bits(tail))

    @given(drawn=_moment_blocks(max_window=2, max_windows=200),
           alpha=st.sampled_from((0.05, 0.3, 1.0)))
    @settings(max_examples=80, deadline=None)
    def test_ewma_block_mask(self, drawn, alpha):
        block, _ = drawn
        detector = EwmaDetector(alpha=alpha, deviation_threshold=10.0)
        _assert_same_verdict(detector._block_mask(None, block),
                             _reference_ewma_block_mask(detector, block))
        _assert_same_verdict(detector._block_mask(None, block[:, :1]),
                             _reference_ewma_block_mask(detector, block[:, :1]))
