"""Tests for single-pass online statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SeriesError
from repro.stream.online_stats import P2Quantile, RunningStats


class TestRunningStats:
    def test_matches_numpy_on_fixed_data(self):
        values = [3.0, 7.0, 7.0, 19.0, 24.0, 1.5]
        stats = RunningStats()
        stats.update_many(values)
        assert stats.count == len(values)
        assert stats.mean == pytest.approx(np.mean(values))
        assert stats.variance == pytest.approx(np.var(values))
        assert stats.std == pytest.approx(np.std(values))
        assert stats.minimum == min(values)
        assert stats.maximum == max(values)

    def test_empty_stats(self):
        stats = RunningStats()
        assert stats.count == 0
        assert stats.mean == 0.0
        assert stats.variance == 0.0
        with pytest.raises(SeriesError):
            _ = stats.minimum
        with pytest.raises(SeriesError):
            _ = stats.maximum

    def test_single_sample(self):
        stats = RunningStats()
        stats.update(42.0)
        assert stats.mean == 42.0
        assert stats.variance == 0.0
        assert stats.minimum == stats.maximum == 42.0

    def test_merge_equals_sequential(self):
        left_values = [1.0, 5.0, 9.0]
        right_values = [2.0, 2.0, 40.0, 7.0]
        left, right, combined = RunningStats(), RunningStats(), RunningStats()
        left.update_many(left_values)
        right.update_many(right_values)
        combined.update_many(left_values + right_values)
        merged = left.merge(right)
        assert merged.count == combined.count
        assert merged.mean == pytest.approx(combined.mean)
        assert merged.variance == pytest.approx(combined.variance)
        assert merged.minimum == combined.minimum
        assert merged.maximum == combined.maximum

    def test_merge_with_empty(self):
        stats = RunningStats()
        stats.update_many([4.0, 6.0])
        merged = stats.merge(RunningStats())
        assert merged.mean == pytest.approx(5.0)
        merged_other_way = RunningStats().merge(stats)
        assert merged_other_way.count == 2

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0),
                    min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_agrees_with_numpy(self, values):
        stats = RunningStats()
        stats.update_many(values)
        assert stats.mean == pytest.approx(float(np.mean(values)), abs=1e-9)
        assert stats.variance == pytest.approx(float(np.var(values)), abs=1e-6)

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=2, max_size=100),
           st.integers(min_value=1, max_value=99))
    @settings(max_examples=30, deadline=None)
    def test_merge_is_order_insensitive(self, values, split_percent):
        split = max(1, min(len(values) - 1, len(values) * split_percent // 100))
        a, b = RunningStats(), RunningStats()
        a.update_many(values[:split])
        b.update_many(values[split:])
        merged = a.merge(b)
        merged_reverse = b.merge(a)
        assert merged.mean == pytest.approx(merged_reverse.mean)
        assert merged.variance == pytest.approx(merged_reverse.variance, abs=1e-6)


class TestP2Quantile:
    def test_median_of_uniform_stream(self):
        rng = np.random.default_rng(7)
        values = rng.uniform(0, 100, 5000)
        estimator = P2Quantile(0.5)
        for value in values:
            estimator.update(value)
        assert estimator.value == pytest.approx(np.percentile(values, 50), abs=3.0)

    def test_p95_of_normal_stream(self):
        rng = np.random.default_rng(11)
        values = rng.normal(50, 10, 5000).clip(0, 100)
        estimator = P2Quantile(0.95)
        for value in values:
            estimator.update(value)
        assert estimator.value == pytest.approx(np.percentile(values, 95), abs=3.0)

    def test_small_sample_falls_back_to_sorted(self):
        estimator = P2Quantile(0.5)
        for value in [5.0, 1.0, 9.0]:
            estimator.update(value)
        assert estimator.value == 5.0

    def test_empty_estimator_raises(self):
        with pytest.raises(SeriesError):
            _ = P2Quantile(0.9).value

    def test_invalid_quantile(self):
        with pytest.raises(SeriesError):
            P2Quantile(0.0)
        with pytest.raises(SeriesError):
            P2Quantile(1.0)

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0),
                    min_size=20, max_size=300))
    @settings(max_examples=25, deadline=None)
    def test_estimate_within_observed_range(self, values):
        estimator = P2Quantile(0.9)
        for value in values:
            estimator.update(value)
        assert min(values) - 1e-9 <= estimator.value <= max(values) + 1e-9


class TestBulkUpdates:
    """The vectorized bulk paths agree with the scalar folding loops."""

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0),
                    min_size=0, max_size=300),
           st.lists(st.integers(min_value=0, max_value=40),
                    min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_running_stats_bulk_matches_scalar_loop(self, values, cuts):
        scalar = RunningStats()
        for value in values:
            scalar.update(value)
        bulk = RunningStats()
        cursor = 0
        for cut in cuts:   # fold in several arbitrary batches
            bulk.update_many(values[cursor:cursor + cut])
            cursor += cut
        bulk.update_many(values[cursor:])
        assert bulk.count == scalar.count
        if scalar.count:
            assert bulk.minimum == scalar.minimum
            assert bulk.maximum == scalar.maximum
            assert bulk.mean == pytest.approx(scalar.mean, rel=1e-12, abs=1e-12)
            assert bulk.variance == pytest.approx(scalar.variance,
                                                  rel=1e-9, abs=1e-8)

    def test_running_stats_bulk_accepts_arrays_and_generators(self):
        stats = RunningStats()
        stats.update_many(np.array([1.0, 2.0, 3.0]))
        stats.update_many(float(x) for x in (4.0, 5.0))
        assert stats.count == 5
        assert stats.mean == pytest.approx(3.0)

    def test_p2_bulk_matches_scalar_loop(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(0.0, 100.0, 400)
        scalar = P2Quantile(0.95)
        for value in values:
            scalar.update(value)
        bulk = P2Quantile(0.95)
        bulk.update_many(values)
        assert bulk.count == scalar.count
        assert bulk.value == scalar.value
