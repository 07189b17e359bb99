"""Tests for thrashing detection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.thrashing import (
    ThrashingConfig,
    cluster_thrashing_report,
    detect_thrashing,
    thrashing_fraction,
)
from repro.errors import SeriesError
from repro.metrics.series import TimeSeries


def thrashing_pair(n=60, onset=30):
    """CPU collapses while memory saturates after ``onset``."""
    timestamps = np.arange(n) * 60.0
    cpu = np.full(n, 70.0)
    mem = np.full(n, 60.0)
    cpu[onset:] = np.linspace(65, 8, n - onset)
    mem[onset:] = np.linspace(88, 99, n - onset)
    return TimeSeries(timestamps, cpu), TimeSeries(timestamps, mem)


def healthy_pair(n=60):
    timestamps = np.arange(n) * 60.0
    return (TimeSeries(timestamps, np.full(n, 50.0)),
            TimeSeries(timestamps, np.full(n, 40.0)))


class TestDetectThrashing:
    def test_detects_collapse(self):
        cpu, mem = thrashing_pair()
        windows = detect_thrashing(cpu, mem, machine_id="m1")
        assert len(windows) >= 1
        window = windows[0]
        assert window.machine_id == "m1"
        assert window.peak_mem >= 90.0
        assert window.min_cpu <= 20.0
        assert window.cpu_drop > 20.0
        assert window.start >= 30 * 60.0

    def test_healthy_machine_clean(self):
        cpu, mem = healthy_pair()
        assert detect_thrashing(cpu, mem) == []

    def test_high_memory_with_high_cpu_is_not_thrashing(self):
        n = 40
        timestamps = np.arange(n) * 60.0
        cpu = TimeSeries(timestamps, np.full(n, 85.0))
        mem = TimeSeries(timestamps, np.full(n, 95.0))
        assert detect_thrashing(cpu, mem) == []

    def test_min_duration_filter(self):
        cpu, mem = thrashing_pair(onset=57)
        config = ThrashingConfig(min_duration_s=600)
        assert detect_thrashing(cpu, mem, config=config) == []

    def test_mismatched_series_rejected(self):
        cpu, _ = thrashing_pair()
        other = TimeSeries([0, 1], [1, 2])
        with pytest.raises(SeriesError):
            detect_thrashing(cpu, other)

    def test_empty_series(self):
        assert detect_thrashing(TimeSeries.empty(), TimeSeries.empty()) == []

    def test_invalid_config(self):
        with pytest.raises(SeriesError):
            ThrashingConfig(mem_watermark=0).validate()
        with pytest.raises(SeriesError):
            ThrashingConfig(cpu_drop_fraction=1.5).validate()
        with pytest.raises(SeriesError):
            ThrashingConfig(reference_window=0).validate()


class TestClusterReport:
    def test_report_on_thrashing_scenario(self, thrashing_bundle):
        report = cluster_thrashing_report(thrashing_bundle.usage)
        assert len(report) >= 1
        injected = set(thrashing_bundle.meta["thrashing"]["machines"])
        detected = set(report)
        # at least half of the injected machines are recovered by the detector
        assert len(detected & injected) >= max(1, len(injected) // 2)

    def test_report_on_healthy_scenario_is_mostly_clean(self, healthy_bundle):
        report = cluster_thrashing_report(healthy_bundle.usage)
        assert len(report) <= max(1, healthy_bundle.usage.num_machines // 4)

    def test_thrashing_fraction_inside_window(self, thrashing_bundle):
        t0, t1 = thrashing_bundle.meta["thrashing"]["window"]
        inside = thrashing_fraction(thrashing_bundle.usage, (t0 + t1) / 2 + (t1 - t0) / 4)
        before = thrashing_fraction(thrashing_bundle.usage, t0 - (t1 - t0))
        assert inside >= before
        assert 0.0 <= inside <= 1.0


class TestBlockScanParity:
    """The vectorized cluster scan is bit-identical to per-series calls."""

    def _random_store(self, seed, num_machines, num_samples):
        from repro.metrics.store import MetricStore

        rng = np.random.default_rng(seed)
        ids = [f"m{i}" for i in range(num_machines)]
        store = MetricStore(ids, np.arange(num_samples) * 60.0)
        store.data[:] = rng.uniform(0.0, 100.0, store.data.shape)
        for row in range(num_machines):
            if rng.random() < 0.6 and num_samples > 8:
                lo = int(rng.integers(0, num_samples - 6))
                span = int(rng.integers(3, 6))
                store.data[row, 1, lo:lo + span] = 96.0
                store.data[row, 0, lo:lo + span] = 4.0
        return store

    @pytest.mark.parametrize("seed", range(6))
    def test_report_equals_per_series_detection(self, seed):
        store = self._random_store(seed, num_machines=9,
                                   num_samples=10 + seed * 13)
        config = ThrashingConfig(reference_window=(seed % 3) * 5 + 1)
        report = cluster_thrashing_report(store, config=config)
        for machine_id in store.machine_ids:
            direct = detect_thrashing(store.series(machine_id, "cpu"),
                                      store.series(machine_id, "mem"),
                                      machine_id=machine_id, config=config)
            assert report.get(machine_id, []) == direct, machine_id

    def test_min_duration_filter_matches(self):
        store = self._random_store(3, num_machines=6, num_samples=40)
        config = ThrashingConfig(min_duration_s=120.0)
        report = cluster_thrashing_report(store, config=config)
        for machine_id in store.machine_ids:
            direct = detect_thrashing(store.series(machine_id, "cpu"),
                                      store.series(machine_id, "mem"),
                                      machine_id=machine_id, config=config)
            assert report.get(machine_id, []) == direct

    def test_empty_store_reports_nothing(self):
        from repro.metrics.store import MetricStore

        assert cluster_thrashing_report(MetricStore(["a"], np.array([]))) == {}
        assert cluster_thrashing_report(MetricStore([], np.array([0.0]))) == {}

    def test_mask_block_shape(self):
        from repro.analysis.thrashing import thrashing_mask_block

        store = self._random_store(1, num_machines=4, num_samples=20)
        mask, reference = thrashing_mask_block(store.timestamps,
                                               store.metric_block("cpu"),
                                               store.metric_block("mem"))
        assert mask.shape == (4, 20)
        assert reference.shape == (4, 20)
        assert mask.dtype == bool


def _scalar_reference(cpu: np.ndarray, mem: np.ndarray,
                      config: ThrashingConfig):
    """A per-row copy of :func:`detect_thrashing`'s reference recurrence."""
    reference = np.empty(cpu.shape[0])
    healthy_recent: list[float] = []
    for i in range(cpu.shape[0]):
        if healthy_recent:
            reference[i] = float(np.mean(healthy_recent))
        else:
            reference[i] = cpu[i]
        if mem[i] < config.mem_watermark:
            healthy_recent.append(float(cpu[i]))
            if len(healthy_recent) > config.reference_window:
                healthy_recent.pop(0)
    mask = (mem >= config.mem_watermark) & (
        cpu <= config.cpu_drop_fraction * np.maximum(reference, 1e-9))
    return mask, reference


class TestSweepProperty:
    """The vectorized reference sweep against the per-series recurrence on
    random blocks: any rows and samples (0 and 1 included), every
    ``reference_window`` up to NumPy's pairwise block size, memory values
    tied with the watermark, signed CPU zeros, and slabs cut at arbitrary
    row boundaries."""

    @staticmethod
    def _block(seed, num_machines, num_samples, watermark, tie_fraction):
        rng = np.random.default_rng(seed)
        shape = (num_machines, num_samples)
        cpu = rng.uniform(0.0, 100.0, shape)
        cpu[rng.random(shape) < 0.1] = 0.0
        cpu[rng.random(shape) < 0.1] = -0.0   # in range, and np.mean -> +0.0
        cpu[rng.integers(num_machines)] = -0.0   # a machine idle throughout
        mem = rng.uniform(watermark - 30.0, 100.0, shape)
        mem[rng.random(shape) < tie_fraction] = watermark
        return cpu, mem

    @given(seed=st.integers(0, 2**32 - 1),
           num_machines=st.integers(1, 12),
           num_samples=st.sampled_from([0, 1, 2, 7, 8, 9, 17, 64, 150, 300]),
           window=st.integers(1, 128),
           watermark=st.sampled_from([85.0, 60.0, 99.5]),
           tie_fraction=st.sampled_from([0.0, 0.1, 0.5]),
           cells=st.sampled_from([1, 5, 64, 8192]))
    @settings(max_examples=80, deadline=None)
    def test_mask_and_reference_equal_per_row_recurrence(
            self, seed, num_machines, num_samples, window, watermark,
            tie_fraction, cells):
        from unittest import mock

        import repro.analysis.thrashing as thrashing

        cpu, mem = self._block(seed, num_machines, num_samples, watermark,
                               tie_fraction)
        config = ThrashingConfig(mem_watermark=watermark,
                                 reference_window=window)
        with mock.patch.object(thrashing, "_SWEEP_CELLS", cells):
            mask, reference = thrashing.thrashing_mask_block(
                np.arange(num_samples) * 60.0, cpu, mem, config=config)
        assert mask.shape == reference.shape == cpu.shape
        for row in range(num_machines):
            want_mask, want_ref = _scalar_reference(cpu[row], mem[row], config)
            assert np.array_equal(mask[row], want_mask)
            assert np.array_equal(reference[row].view(np.uint64),
                                  want_ref.view(np.uint64))

    @given(seed=st.integers(0, 2**32 - 1),
           num_machines=st.integers(1, 8),
           num_samples=st.sampled_from([0, 1, 9, 40, 130]),
           window=st.integers(1, 128),
           tie_fraction=st.sampled_from([0.0, 0.3]))
    @settings(max_examples=40, deadline=None)
    def test_cluster_report_equals_per_series_detection(
            self, seed, num_machines, num_samples, window, tie_fraction):
        from repro.metrics.store import MetricStore

        cpu, mem = self._block(seed, num_machines, num_samples, 85.0,
                               tie_fraction)
        ids = [f"m{i}" for i in range(num_machines)]
        store = MetricStore(ids, np.arange(num_samples) * 60.0)
        store.data[:, 0, :] = cpu
        store.data[:, 1, :] = mem
        config = ThrashingConfig(reference_window=window)
        report = cluster_thrashing_report(store, config=config)
        for machine_id in ids:
            direct = detect_thrashing(store.series(machine_id, "cpu"),
                                      store.series(machine_id, "mem"),
                                      machine_id=machine_id, config=config)
            assert report.get(machine_id, []) == direct, machine_id
