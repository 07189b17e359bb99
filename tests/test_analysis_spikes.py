"""Tests for spike/valley detection."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.spikes as spikes
from repro.analysis.spikes import (
    block_peaks,
    block_prominences,
    detect_spikes,
    detect_valleys,
    find_peaks,
    largest_spike,
    synchronized_spike,
)
from repro.errors import SeriesError
from repro.metrics.series import TimeSeries


def spiky_series(spike_at=25, height=80.0, base=20.0, n=60) -> TimeSeries:
    values = np.full(n, base)
    values[spike_at - 2:spike_at + 3] = [base + height * f
                                         for f in (0.3, 0.7, 1.0, 0.7, 0.3)]
    return TimeSeries(np.arange(n) * 60.0, values)


class TestFindPeaks:
    def test_simple_peak(self):
        peaks = find_peaks(np.array([0, 1, 5, 1, 0], dtype=float))
        assert list(peaks) == [2]

    def test_plateau_peak_reported_once(self):
        peaks = find_peaks(np.array([0, 5, 5, 5, 0], dtype=float))
        assert len(peaks) == 1

    def test_monotone_series_has_no_peaks(self):
        assert len(find_peaks(np.arange(10, dtype=float))) == 0

    def test_too_short(self):
        assert len(find_peaks(np.array([1.0, 2.0]))) == 0


class TestDetectSpikes:
    def test_detects_the_spike(self):
        spikes = detect_spikes(spiky_series(), min_prominence=30, subject="m1")
        assert len(spikes) == 1
        spike = spikes[0]
        assert spike.timestamp == 25 * 60.0
        assert spike.value == pytest.approx(100.0)
        assert spike.prominence >= 70.0
        assert spike.subject == "m1"

    def test_prominence_filters_noise(self):
        rng = np.random.default_rng(1)
        noisy = TimeSeries(np.arange(200) * 60.0, 20 + rng.normal(0, 2, 200))
        assert detect_spikes(noisy, min_prominence=25) == []

    @pytest.mark.parametrize("length", [60, 2])
    @pytest.mark.parametrize("min_prominence", [0, -1, math.nan, math.inf])
    @pytest.mark.parametrize("function", [detect_spikes, detect_valleys,
                                          largest_spike])
    def test_invalid_prominence(self, function, min_prominence, length):
        series = (spiky_series() if length == 60
                  else TimeSeries([0.0, 60.0], [1.0, 2.0]))
        with pytest.raises(SeriesError, match="min_prominence"):
            function(series, min_prominence=min_prominence)

    def test_short_series(self):
        assert detect_spikes(TimeSeries([0, 1], [1, 2])) == []


class TestDetectValleys:
    def test_detects_drop(self):
        values = np.full(50, 60.0)
        values[20:23] = 5.0
        series = TimeSeries(np.arange(50) * 60.0, values)
        valleys = detect_valleys(series, min_prominence=30)
        assert len(valleys) == 1
        assert valleys[0].kind == "valley"
        assert valleys[0].value == pytest.approx(5.0)


class TestLargestSpike:
    def test_returns_most_prominent(self):
        values = np.full(80, 10.0)
        values[20] = 40.0
        values[60] = 90.0
        series = TimeSeries(np.arange(80) * 60.0, values)
        spike = largest_spike(series)
        assert spike is not None
        assert spike.timestamp == 60 * 60.0

    def test_none_when_flat(self):
        assert largest_spike(TimeSeries.constant(np.arange(30), 5.0)) is None


class TestSynchronizedSpike:
    def test_synchronized_population(self):
        series_list = [spiky_series(spike_at=25) for _ in range(6)]
        assert synchronized_spike(series_list)

    def test_desynchronized_population(self):
        series_list = [spiky_series(spike_at=at) for at in (5, 15, 25, 35, 45, 55)]
        assert not synchronized_spike(series_list, tolerance_s=120)

    def test_too_few_spiking_series(self):
        flat = TimeSeries.constant(np.arange(60) * 60.0, 20.0)
        assert not synchronized_spike([flat, flat, flat, spiky_series()])

    def test_zero_tolerance_is_allowed(self):
        assert synchronized_spike([spiky_series() for _ in range(4)],
                                  tolerance_s=0.0)

    @pytest.mark.parametrize("population", [0, 4])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("argument", ["min_prominence", "tolerance_s"])
    def test_invalid_arguments(self, argument, value, population):
        series_list = [spiky_series() for _ in range(population)]
        with pytest.raises(SeriesError, match=argument):
            synchronized_spike(series_list, **{argument: value})


class TestHotJobSpikeEndToEnd:
    def test_hot_job_machines_spike_in_generated_trace(self, hotjob_bundle):
        hot_id = hotjob_bundle.meta["hot_job_id"]
        store = hotjob_bundle.usage
        machines = hotjob_bundle.machines_of_job(hot_id)
        series_list = [store.series(m, "cpu") for m in machines]
        spiking = sum(1 for s in series_list
                      if largest_spike(s, min_prominence=10) is not None)
        assert spiking >= len(series_list) // 2


# -- the per-sample walks the block kernel replaced ----------------------------
def _reference_prominences(values: np.ndarray, peak_indices: np.ndarray) -> np.ndarray:
    """Topographic prominence of each peak (simple linear-scan version)."""
    prominences = np.zeros(peak_indices.shape[0])
    for out_index, peak in enumerate(peak_indices):
        peak_value = values[peak]
        # walk left until a higher value; the minimum along the way is the base
        left_min = peak_value
        for i in range(peak - 1, -1, -1):
            if values[i] > peak_value:
                break
            left_min = min(left_min, values[i])
        right_min = peak_value
        for i in range(peak + 1, values.shape[0]):
            if values[i] > peak_value:
                break
            right_min = min(right_min, values[i])
        prominences[out_index] = peak_value - max(left_min, right_min)
    return prominences


def _reference_find_peaks(values: np.ndarray) -> np.ndarray:
    """Indices of strict local maxima (plateau peaks report their first sample)."""
    if values.shape[0] < 3:
        return np.empty(0, dtype=np.int64)
    peaks = []
    i = 1
    n = values.shape[0]
    while i < n - 1:
        if values[i] > values[i - 1]:
            # scan over any plateau
            j = i
            while j < n - 1 and values[j + 1] == values[j]:
                j += 1
            if j < n - 1 and values[j + 1] < values[j]:
                peaks.append(i)
            i = j + 1
        else:
            i += 1
    return np.asarray(peaks, dtype=np.int64)


#: Values that exercise every comparison edge: signed zeros, repeats
#: (plateaus and ties with far neighbours), NaN and both infinities.
_ALPHABET = (0.0, -0.0, 1.0, 2.0, 3.5, math.nan, math.inf, -math.inf)


@st.composite
def _blocks(draw):
    num_rows = draw(st.integers(0, 6))
    num_samples = draw(st.integers(0, 64))
    block = np.empty((num_rows, num_samples))
    for row in range(num_rows):
        kind = draw(st.sampled_from(["alphabet", "integer-walk",
                                     "gappy-walk", "walk"]))
        if kind == "alphabet":
            block[row] = draw(st.lists(st.sampled_from(_ALPHABET),
                                       min_size=num_samples,
                                       max_size=num_samples))
            continue
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        steps = (rng.normal(0.0, 5.0, num_samples) if kind == "walk"
                 else rng.integers(-2, 3, num_samples))
        block[row] = np.cumsum(steps)
        if kind == "gappy-walk":
            # NaN runs long enough to fill whole sparse-table spans
            for start in rng.integers(0, max(1, num_samples), 3):
                block[row, start:start + rng.integers(1, 9)] = math.nan
    return block


def _assert_kernel_equals_walks(block: np.ndarray) -> None:
    """Peaks equal and prominences bit-equal to the walks, row by row."""
    rows, cols = block_peaks(block)
    prominences = block_prominences(block, rows, cols)
    assert rows.dtype == cols.dtype == np.int64
    assert np.all(np.diff(rows) >= 0)
    for row in range(block.shape[0]):
        want = _reference_find_peaks(block[row])
        assert np.array_equal(cols[rows == row], want)
        assert np.array_equal(
            prominences[rows == row].view(np.uint64),
            _reference_prominences(block[row], want).view(np.uint64))


class TestBlockKernelProperty:
    """The block kernel against the per-sample walks at every slab size."""

    @given(block=_blocks(), cells=st.integers(1, 200))
    @settings(max_examples=80, deadline=None)
    def test_kernel_equals_the_walks(self, block, cells):
        block.setflags(write=False)   # the kernel never writes its input
        with mock.patch.object(spikes, "_SLAB_CELLS", cells):
            _assert_kernel_equals_walks(block)

    @pytest.mark.parametrize("values, prominence", [
        # a NaN run fills a whole lifting span, left and right of the peak
        ([-9.0, math.nan, math.nan, 0, 0, 0, 0, 3.0, -9.0], 12.0),
        ([-9.0, 3.0, 0, 0, 0, 0, math.nan, math.nan, -9.0], 12.0),
        # a NaN run fills a whole range-min span at the walk's end
        ([math.nan] * 4 + [1.0, 0, 3.0, 0], 3.0),
        ([0, 3.0, 0, 1.0] + [math.nan] * 4, 3.0),
    ])
    def test_nan_runs_neither_stop_the_walk_nor_become_bases(
            self, values, prominence):
        block = np.asarray([values])
        rows, cols = block_peaks(block)
        assert cols.tolist() == _reference_find_peaks(block[0]).tolist()
        assert block_prominences(block, rows, cols).tolist() == [prominence]

    def test_long_rows_form_their_own_slab(self):
        _assert_kernel_equals_walks(np.cumsum(
            np.random.default_rng(5).normal(size=(2, 20_000)), axis=1))

    def test_any_subset_of_peaks_in_any_order(self):
        rng = np.random.default_rng(6)
        block = np.cumsum(rng.normal(size=(5, 90)), axis=1)
        rows, cols = block_peaks(block)
        every = block_prominences(block, rows, cols)
        pick = rng.permutation(np.flatnonzero(cols % 3 == 0))
        with mock.patch.object(spikes, "_SLAB_CELLS", 100):
            assert np.array_equal(
                block_prominences(block, rows[pick], cols[pick]), every[pick])

    def test_rejects_bad_input(self):
        block = np.zeros((2, 5))
        with pytest.raises(SeriesError, match="block"):
            block_peaks(np.zeros(5))
        with pytest.raises(SeriesError, match="equally long"):
            block_prominences(block, [0, 1], [2])
        for rows, cols in (([2], [1]), ([0], [5]), ([-1], [1]), ([0], [-1])):
            with pytest.raises(SeriesError, match="outside"):
                block_prominences(block, rows, cols)


def _reference_spike_machines(bundle, entry) -> set[str]:
    """The per-series spike runner the block kernel replaced."""
    store = bundle.usage
    t0, t1 = (entry.window if entry.window is not None
              else (float(t) for t in bundle.time_range()))
    prominence = max(12.0, 0.5 * float(entry.params.get("peak_boost", 30.0)))
    flagged = set()
    for machine_id in store.machine_ids:
        series = store.series(machine_id, "cpu")
        peaks = _reference_find_peaks(series.values)
        prominences = _reference_prominences(series.values, peaks)
        if any(t0 <= float(series.timestamps[peak]) <= t1
               for peak, value in zip(peaks, prominences)
               if value >= prominence):
            flagged.add(machine_id)
    return flagged


class TestSpikeScoringOnLoadedStores:
    """``score_bundle``'s spike runner on float32 and read-only mmap stores
    equals the per-series runner on the same store."""

    @pytest.fixture(scope="class")
    def trace(self, tmp_path_factory):
        from repro.trace.synthetic import generate_trace
        from repro.trace.writer import write_trace

        from tests.conftest import fast_config

        bundle = generate_trace(fast_config("hotjob+machine-failure", seed=5,
                                            num_machines=24))
        directory = tmp_path_factory.mktemp("spike-scoring")
        write_trace(bundle, directory)
        return bundle, directory

    @pytest.mark.parametrize("options", [{"storage": "float32"},
                                         {"mmap": True},
                                         {"storage": "float32", "mmap": True}],
                             ids=["float32", "mmap", "float32-mmap"])
    def test_block_runner_equals_series_runner(self, trace, options):
        from repro.scenarios.groundtruth import manifest_from_meta
        from repro.scenarios.scoring import score_bundle
        from repro.trace.loader import load_trace

        original, directory = trace
        loaded = load_trace(directory, cache=True, **options)
        if options.get("mmap"):
            assert not loaded.usage.metric_block("cpu").flags.writeable
        # trace-dir bundles carry no manifest: pass the generator's
        manifest = manifest_from_meta(original.meta)
        spike_scores = [scored for scored in score_bundle(loaded,
                                                          manifest=manifest)
                        if scored.detector == "spike"]
        assert spike_scores
        for scored in spike_scores:
            assert set(scored.predicted) == _reference_spike_machines(
                loaded, scored.entry)
