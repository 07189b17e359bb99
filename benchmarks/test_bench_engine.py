"""E10 — the vectorized detection engine vs. the per-series loop.

The north star demands detection "as fast as the hardware allows"; the
:class:`~repro.analysis.engine.DetectionEngine` replaced every per-machine
``store.series`` loop with one array pass over the dense usage matrix.
This benchmark pins the claim on a 256-machine cluster:

* every registered detector (threshold / zscore / ewma / flatline) must run
  at least 5x faster through the engine than through the per-series loop,
  with identical events;
* ``repro.scenarios.score_bundle`` — now engine-backed — must produce
  bit-identical precision/recall to the legacy per-series runner loops it
  replaced;
* the spike runner — one block-kernel pass over the CPU block — must flag
  the same machines as the per-series peak walk on a hot-job trace, at
  least 5x faster;
* the z-score kernel — ``rolling_mean_std``'s shifted-column pass — must
  give the sliding-window formula's mask and scores bit for bit on
  perfbench's 256 × 289 store view, at least 2x faster.
"""

from __future__ import annotations

import numpy as np

from numpy.lib.stride_tricks import sliding_window_view

from repro.analysis.detectors import (
    EwmaDetector,
    FlatlineDetector,
    RollingZScoreDetector,
)
from repro.analysis.engine import DetectionEngine
from repro.analysis.ensemble import evaluate_machine_sets
from repro.scenarios.groundtruth import manifest_from_meta
from repro.scenarios.scoring import score_bundle, score_entry
from repro.trace.synthetic import generate_trace

from benchmarks.conftest import (
    bench_config,
    bench_detectors,
    best_of,
    record_result,
    report,
    synthetic_cluster,
)

NUM_MACHINES = 256
NUM_SAMPLES = 288  # 24 h at 300 s resolution
MIN_SPEEDUP = 5.0
#: perfbench's offline trace: 256 machines × 24 h at 300 s, both ends kept.
KERNEL_SAMPLES = 289
MIN_KERNEL_SPEEDUP = 2.0

BENCH_DETECTORS = bench_detectors()


class TestEngineSpeedup:
    def test_engine_5x_faster_than_series_loop(self):
        store = synthetic_cluster(NUM_MACHINES, NUM_SAMPLES)
        engine = DetectionEngine()
        rows = {}
        for name, detector in BENCH_DETECTORS.items():
            def series_loop(detector=detector):
                events = []
                for machine_id in store.machine_ids:
                    events.extend(detector.detect(store.series(machine_id, "cpu"),
                                                  metric="cpu",
                                                  subject=machine_id))
                return events

            def engine_pass(detector=detector):
                return engine.run(store, detector, metric="cpu").events()

            loop_s, loop_events = best_of(series_loop)
            engine_s, engine_events = best_of(engine_pass)
            key = lambda e: (e.subject, e.start)
            assert sorted(engine_events, key=key) == sorted(loop_events, key=key)
            speedup = loop_s / engine_s
            rows[name] = (loop_s, engine_s, speedup, len(engine_events))
            record_result(f"engine/{name}", wall_clock_s=engine_s,
                          throughput=NUM_MACHINES / engine_s,
                          throughput_unit="machine-sweeps/s",
                          speedup_vs_series_loop=speedup,
                          num_machines=NUM_MACHINES)

        report(f"E10: engine vs per-series loop ({NUM_MACHINES} machines, "
               f"{NUM_SAMPLES} samples)", {
                   name: f"loop {loop_s * 1e3:.1f} ms -> engine "
                         f"{engine_s * 1e3:.1f} ms ({speedup:.1f}x, "
                         f"{events} events)"
                   for name, (loop_s, engine_s, speedup, events) in rows.items()})
        for name, (_, _, speedup, _) in rows.items():
            assert speedup >= MIN_SPEEDUP, (
                f"{name}: engine only {speedup:.1f}x faster (need "
                f">= {MIN_SPEEDUP}x)")


def legacy_flag(store, detector, metric, window):
    """The pre-engine scoring loop: detect per machine, filter by overlap."""
    flagged = set()
    for machine_id in store.machine_ids:
        events = detector.detect(store.series(machine_id, metric),
                                 metric=metric, subject=machine_id)
        if any(event.overlaps(window[0], window[1]) for event in events):
            flagged.add(machine_id)
    return flagged


def legacy_find_peaks(values):
    """The pre-kernel peak walk (plateau peaks report their first sample)."""
    if values.shape[0] < 3:
        return np.empty(0, dtype=np.int64)
    peaks = []
    i = 1
    n = values.shape[0]
    while i < n - 1:
        if values[i] > values[i - 1]:
            j = i
            while j < n - 1 and values[j + 1] == values[j]:
                j += 1
            if j < n - 1 and values[j + 1] < values[j]:
                peaks.append(i)
            i = j + 1
        else:
            i += 1
    return np.asarray(peaks, dtype=np.int64)


def legacy_prominences(values, peak_indices):
    """The pre-kernel prominence walk, outward from every peak."""
    prominences = np.zeros(peak_indices.shape[0])
    for out_index, peak in enumerate(peak_indices):
        peak_value = values[peak]
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


def legacy_spike(store, min_prominence, window):
    """The pre-kernel spike runner: walk every machine's CPU series."""
    flagged = set()
    for machine_id in store.machine_ids:
        series = store.series(machine_id, "cpu")
        peaks = legacy_find_peaks(series.values)
        prominences = legacy_prominences(series.values, peaks)
        if any(window[0] <= float(series.timestamps[peak]) <= window[1]
               for peak, prominence in zip(peaks, prominences)
               if prominence >= min_prominence):
            flagged.add(machine_id)
    return flagged


def legacy_predicted(bundle, entry):
    """Legacy (pre-rewiring) bodies of the engine-backed scoring runners."""
    store = bundle.usage
    if entry.window is not None:
        t0, t1 = entry.window
    else:
        t0, t1 = (float(t) for t in bundle.time_range())
    name = entry.detectors[0]
    if name == "flatline":
        return legacy_flag(store, FlatlineDetector(epsilon=0.5, min_samples=3),
                           "cpu", (t0, t1))
    if name == "disk-burst":
        threshold = max(10.0, 0.5 * float(entry.params.get("disk_boost", 45.0)))
        return legacy_flag(store, EwmaDetector(alpha=0.3,
                                               deviation_threshold=threshold),
                           "disk", (t0, t1))
    if name == "drain":
        level = float(entry.params.get("drained_mem_level", 3.0))
        return legacy_flag(store,
                           FlatlineDetector(epsilon=max(1.0, 2.0 * level),
                                            min_samples=2),
                           "mem", (t0, t1))
    if name == "spike":
        prominence = max(12.0,
                         0.5 * float(entry.params.get("peak_boost", 30.0)))
        return legacy_spike(store, prominence, (t0, t1))
    if name == "outlier":
        windowed = store.window(t0 + 0.1 * (t1 - t0), t1)
        means = {machine_id: float(windowed.series(machine_id, "cpu").mean())
                 for machine_id in windowed.machine_ids}
        values = np.asarray(list(means.values()), dtype=np.float64)
        mu = float(values.mean()) if values.size else 0.0
        sd = float(values.std()) if values.size else 0.0
        if sd <= 1e-9:
            return set()
        return {machine_id for machine_id, value in means.items()
                if (value - mu) / sd >= 1.5}
    return None


class TestScoreBundleBitIdentical:
    def test_engine_scoring_matches_legacy_loops(self):
        scenario = "machine-failure+network-storm+maintenance-drain+load-imbalance"
        compared = 0
        for seed in range(3):
            bundle = generate_trace(bench_config(scenario, seed=seed,
                                                 num_machines=64, num_jobs=40))
            for scored in score_bundle(bundle):
                legacy = legacy_predicted(bundle, scored.entry)
                if legacy is None:
                    continue
                compared += 1
                assert set(scored.predicted) == legacy
                assert scored.result == evaluate_machine_sets(
                    legacy, set(scored.entry.machines))
        report("E10: score_bundle engine vs legacy loops", {
            "entries compared": compared,
            "bit-identical": True,
        })
        assert compared >= 12


class TestSpikeScoring:
    def test_spike_runner_matches_and_beats_series_loop(self):
        bundle = generate_trace(bench_config(
            "hotjob", seed=11, num_machines=NUM_MACHINES,
            horizon_s=NUM_SAMPLES * 300, resolution_s=300))
        entries = [entry for entry in manifest_from_meta(bundle.meta)
                   if entry.detectors[0] == "spike"]
        assert entries
        loop_s = block_s = 0.0
        for entry in entries:
            entry_loop_s, legacy = best_of(
                lambda: legacy_predicted(bundle, entry))
            entry_block_s, scored = best_of(
                lambda: score_entry(bundle, entry))
            assert set(scored.predicted) == legacy
            assert scored.result == evaluate_machine_sets(
                legacy, set(entry.machines))
            loop_s += entry_loop_s
            block_s += entry_block_s
        speedup = loop_s / block_s
        record_result("scoring/spike", wall_clock_s=block_s,
                      throughput=NUM_MACHINES * len(entries) / block_s,
                      throughput_unit="machine-sweeps/s",
                      speedup_vs_series_loop=speedup,
                      num_machines=NUM_MACHINES)
        report(f"E10: spike scoring, block kernel vs per-series loop "
               f"({NUM_MACHINES} machines, {NUM_SAMPLES} samples)", {
                   "entries": len(entries),
                   "timing": f"loop {loop_s * 1e3:.1f} ms -> block "
                             f"{block_s * 1e3:.1f} ms ({speedup:.1f}x)",
               })
        assert speedup >= MIN_SPEEDUP, (
            f"spike scoring only {speedup:.1f}x faster (need "
            f">= {MIN_SPEEDUP}x)")


def legacy_zscore_block_mask(detector, values):
    """The pre-kernel z-score body: sliding-window ``mean``/``std``."""
    num_rows, num_samples = values.shape
    window = detector.window
    mean = np.empty_like(values)
    std = np.empty_like(values)
    windows = sliding_window_view(values, window, axis=1)
    mean[:, window - 1:] = windows.mean(axis=2)
    std[:, window - 1:] = windows.std(axis=2)
    for i in range(window - 1):
        head = values[:, :i + 1]
        mean[:, i] = head.mean(axis=1)
        std[:, i] = head.std(axis=1)
    std = np.maximum(std, detector.min_std)
    z = np.abs(values - mean) / std
    mask = z >= detector.z_threshold
    mask[:, :window - 1] = False
    return mask, z


class TestZScoreKernel:
    def test_zscore_block_mask_matches_and_beats_sliding(self):
        store = synthetic_cluster(NUM_MACHINES, KERNEL_SAMPLES)
        values = store.metric_block("cpu")   # a (machines, samples) view
        detector = BENCH_DETECTORS["zscore"]
        assert isinstance(detector, RollingZScoreDetector)
        timestamps = store.timestamps
        sliding_s, (want_mask, want_z) = best_of(
            lambda: legacy_zscore_block_mask(detector, values), rounds=15)
        kernel_s, (mask, z) = best_of(
            lambda: detector._block_mask(timestamps, values), rounds=15)
        assert np.array_equal(mask, want_mask)
        assert np.array_equal(z.view(np.int64), want_z.view(np.int64))
        speedup = sliding_s / kernel_s
        record_result("engine/zscore_kernel", wall_clock_s=kernel_s,
                      throughput=NUM_MACHINES / kernel_s,
                      throughput_unit="machine-sweeps/s",
                      speedup_vs_sliding=speedup,
                      num_machines=NUM_MACHINES)
        report(f"E10: z-score kernel, shifted columns vs sliding window "
               f"({NUM_MACHINES} machines, {KERNEL_SAMPLES} samples, "
               f"window {detector.window})", {
                   "timing": f"sliding {sliding_s * 1e3:.2f} ms -> kernel "
                             f"{kernel_s * 1e3:.2f} ms ({speedup:.1f}x)",
                   "flagged samples": int(mask.sum()),
               })
        assert speedup >= MIN_KERNEL_SPEEDUP, (
            f"z-score kernel only {speedup:.1f}x faster (need "
            f">= {MIN_KERNEL_SPEEDUP}x)")
