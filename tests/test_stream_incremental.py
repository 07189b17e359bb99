"""Golden suite: the incremental streaming engine is a full rescan, bit for bit.

The streaming refactor's core invariant: feeding a trace through
:meth:`DetectionEngine.run_incremental` in chunks — any chunks — produces
exactly the verdict of one batch :meth:`DetectionEngine.run` over the whole
trace.  These tests pin that for every registered detector × scenario ×
chunk size (including 1 and whole-trace), at every chunk boundary, and the
same chunk-invariance for the online monitor's threshold alerts and the
streaming pipeline's detections.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.detectors import RollingZScoreDetector
from repro.analysis.engine import DetectionEngine
from repro.errors import SeriesError
from repro.metrics.store import MAX_WINDOW_SAMPLES
from repro.pipeline import Pipeline, StreamingOptions, default_detector_names
from repro.stream.monitor import MonitorConfig, OnlineMonitor
from repro.stream.session import StreamSession
from repro.trace.synthetic import generate_trace

from tests.conftest import fast_config

SEED = 808
SCENARIOS = ("thrashing", "machine-failure+network-storm",
             "diurnal+memory-thrash")
CHUNKS = (1, 7, 64, None)   # None = the whole trace in one chunk


@pytest.fixture(scope="module")
def bundles():
    return {scenario: generate_trace(fast_config(scenario, seed=SEED))
            for scenario in SCENARIOS}


@pytest.fixture(scope="module")
def stores(bundles):
    return {scenario: bundle.usage for scenario, bundle in bundles.items()}


def chunk_bounds(num_samples: int, chunk: int | None):
    step = chunk or num_samples
    return [(lo, min(lo + step, num_samples))
            for lo in range(0, num_samples, step)]


class TestEngineIncrementalGolden:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("detector", default_detector_names())
    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_incremental_equals_batch(self, scenario, detector, chunk, stores):
        store = stores[scenario]
        engine = DetectionEngine()
        state = engine.stream(store.machine_ids, detector)
        for lo, hi in chunk_bounds(store.num_samples, chunk):
            engine.run_incremental(state, store.sample_slice(lo, hi))
        batch = engine.run(store, detector)
        assert state.events() == batch.events(), (
            f"{scenario}/{detector}/chunk={chunk} diverged from batch")
        assert state.flagged_machines() == batch.flagged_machines()
        assert state.num_events == batch.num_events

    @pytest.mark.parametrize("window", [2, MAX_WINDOW_SAMPLES])
    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_zscore_window_bounds_stream_equal_batch(self, window, chunk,
                                                     stores):
        store = stores["diurnal+memory-thrash"]
        # A two-sample window scores at most 1: a cut-off below it flags.
        detector = RollingZScoreDetector(window=window, z_threshold=0.9)
        engine = DetectionEngine()
        state = engine.stream(store.machine_ids, detector)
        for lo, hi in chunk_bounds(store.num_samples, chunk):
            engine.run_incremental(state, store.sample_slice(lo, hi))
        batch = engine.run(store, detector)
        assert state.events() == batch.events()
        assert (batch.num_events > 0) == (window == 2)

    @pytest.mark.parametrize("detector", default_detector_names())
    def test_every_boundary_is_a_valid_prefix(self, detector, stores):
        """At ANY chunk boundary the stream equals a batch run of the prefix."""
        store = stores["thrashing"]
        engine = DetectionEngine()
        state = engine.stream(store.machine_ids, detector)
        for lo, hi in chunk_bounds(store.num_samples, 7):
            engine.run_incremental(state, store.sample_slice(lo, hi))
            prefix = engine.run(store.sample_slice(0, hi), detector)
            assert state.events() == prefix.events(), (
                f"{detector}: prefix [0, {hi}) diverged")

    def test_windowed_flagging_matches_batch(self, stores):
        store = stores["machine-failure+network-storm"]
        engine = DetectionEngine()
        state = engine.stream(store.machine_ids, "flatline")
        for lo, hi in chunk_bounds(store.num_samples, 16):
            engine.run_incremental(state, store.sample_slice(lo, hi))
        batch = engine.run(store, "flatline")
        mid = float(store.timestamps[store.num_samples // 2])
        window = (mid, float(store.timestamps[-1]))
        assert state.flagged_machines(window) == batch.flagged_machines(window)

    def test_raw_block_form(self, stores):
        store = stores["thrashing"]
        engine = DetectionEngine()
        state = engine.stream(store.machine_ids, "threshold", metric="mem")
        block = store.metric_block("mem")
        for lo, hi in chunk_bounds(store.num_samples, 13):
            engine.run_incremental(state, block[:, lo:hi],
                                   timestamps=store.timestamps[lo:hi])
        assert state.events() == engine.run(store, "threshold",
                                            metric="mem").events()

    def test_detector_parameters_respected(self, stores):
        """Keep-filters (min duration / samples) survive chunk boundaries."""
        from repro.analysis.detectors import FlatlineDetector, ThresholdDetector

        store = stores["machine-failure+network-storm"]
        engine = DetectionEngine()
        for det in (FlatlineDetector(min_samples=5),
                    ThresholdDetector(80.0, min_duration_s=600.0)):
            batch = engine.run(store, det)
            state = engine.stream(store.machine_ids, det)
            for lo, hi in chunk_bounds(store.num_samples, 3):
                engine.run_incremental(state, store.sample_slice(lo, hi))
            assert state.events() == batch.events()

    def test_rejects_stale_and_mismatched_chunks(self, stores):
        store = stores["thrashing"]
        engine = DetectionEngine()
        state = engine.stream(store.machine_ids, "threshold")
        engine.run_incremental(state, store.sample_slice(0, 4))
        with pytest.raises(SeriesError):
            engine.run_incremental(state, store.sample_slice(0, 4))  # not after
        with pytest.raises(SeriesError):
            engine.run_incremental(state, np.zeros((2, 3)),
                                   timestamps=np.arange(3.0) + 1e9)
        with pytest.raises(SeriesError):
            engine.run_incremental(state, store.metric_block("cpu")[:, 4:8])

    def test_empty_chunk_is_a_noop(self, stores):
        store = stores["thrashing"]
        engine = DetectionEngine()
        state = engine.stream(store.machine_ids, "ewma")
        engine.run_incremental(state, store.sample_slice(0, 10))
        before = state.events()
        engine.run_incremental(state, store.sample_slice(10, 10))
        assert state.events() == before

    def test_per_series_only_detector_cannot_stream(self):
        class LegacyDetector:
            def detect(self, series, *, metric="cpu", subject=""):
                return []

        with pytest.raises(SeriesError):
            DetectionEngine().stream(["a"], LegacyDetector())


class TestMonitorChunkInvariance:
    def _sample_loop_monitor(self, store, config):
        session = StreamSession(store.machine_ids, config=config,
                                window_samples=64, cadence="sample")
        session.ingest(store)
        return session.monitor

    @pytest.mark.parametrize("chunk", (1, 5, 17, None))
    def test_threshold_alerts_chunk_invariant(self, chunk, stores):
        store = stores["thrashing"]
        config = MonitorConfig(utilisation_threshold=90.0)
        sample_loop = self._sample_loop_monitor(store, config)
        chunked = OnlineMonitor(store.machine_ids, config=config,
                                window_samples=64)
        for lo, hi in chunk_bounds(store.num_samples, chunk):
            chunked.catch_up(store.sample_slice(lo, hi))
        assert (chunked.alerts_of_kind("threshold")
                == sample_loop.alerts_of_kind("threshold"))
        assert chunked._over_threshold == sample_loop._over_threshold

    def test_observe_frame_equals_observe_dict(self, stores):
        from repro.stream.monitor import iter_samples

        store = stores["thrashing"]
        config = MonitorConfig(utilisation_threshold=90.0,
                               thrashing_scan_every=2)
        session = StreamSession(store.machine_ids, config=config,
                                window_samples=64, cadence="sample")
        session.ingest(store)
        dense = session.monitor
        dicts = OnlineMonitor(store.machine_ids, config=config,
                              window_samples=64)
        for timestamp, sample in iter_samples(store):
            dicts.observe(timestamp, sample)
        assert dense.alerts == dicts.alerts
        assert dense.current_regime == dicts.current_regime


class TestStreamingPipeline:
    @pytest.mark.parametrize("chunk", (1, 16, None))
    def test_streaming_detections_equal_batch(self, chunk, stores):
        store = stores["machine-failure+network-storm"]
        batch = Pipeline.from_store(store, sinks=()).run()
        streaming = Pipeline.from_store(
            store, mode="streaming", sinks=(),
            streaming=StreamingOptions(chunk=chunk)).run()
        assert [run.label for run in streaming.detections] \
            == [run.label for run in batch.detections]
        for s_run, b_run in zip(streaming.detections, batch.detections):
            assert s_run.result.events() == b_run.result.events()
            assert s_run.result.flagged_machines() \
                == b_run.result.flagged_machines()

    @pytest.mark.parametrize("scenario",
                             ("thrashing", "machine-failure+network-storm"))
    @pytest.mark.parametrize("detector", default_detector_names())
    def test_sample_cadence_detections_equal_batch(self, scenario, detector,
                                                   bundles):
        bundle = bundles[scenario]
        batch = Pipeline.from_bundle(bundle, detectors=detector,
                                     sinks=()).run()
        sample = StreamingOptions(threshold=80.0, cadence="sample")
        streaming = Pipeline.from_bundle(
            bundle, detectors=detector, mode="streaming", sinks=(),
            streaming=sample).run()
        assert [run.label for run in streaming.detections] \
            == [run.label for run in batch.detections]
        for s_run, b_run in zip(streaming.detections, batch.detections):
            assert s_run.result.events() == b_run.result.events()
        alerts_only = Pipeline.from_bundle(
            bundle, plans=(), mode="streaming", sinks=(),
            streaming=sample).run()
        assert streaming.alerts == alerts_only.alerts

    def test_chunked_threshold_alerts_match_single_catch_up(self, stores):
        store = stores["thrashing"]
        single = Pipeline.from_store(store, plans=(), mode="streaming",
                                     sinks=()).run()
        chunked = Pipeline.from_store(
            store, plans=(), mode="streaming", sinks=(),
            streaming=StreamingOptions(chunk=9)).run()
        assert ([a for a in chunked.alerts if a.kind == "threshold"]
                == [a for a in single.alerts if a.kind == "threshold"])

    def test_spec_round_trip_with_chunk(self):
        spec = {"source": {"kind": "synthetic", "scenario": "memory-thrash",
                           "seed": 3},
                "mode": "streaming",
                "detectors": "threshold(threshold=88)+flatline",
                "streaming": {"threshold": 88.0, "chunk": 32}}
        pipeline = Pipeline.from_spec(spec)
        assert pipeline.streaming.chunk == 32
        respun = Pipeline.from_spec(pipeline.to_spec())
        assert respun == pipeline
        assert respun.to_spec()["streaming"]["chunk"] == 32

    def test_chunk_rejected_for_sample_cadence(self):
        from repro.errors import PipelineError

        with pytest.raises(PipelineError):
            StreamingOptions(cadence="sample", chunk=8)
        with pytest.raises(PipelineError):
            StreamingOptions(chunk=0)

    def test_streaming_run_result_serialises(self, stores):
        store = stores["thrashing"]
        result = Pipeline.from_store(
            store, mode="streaming", detectors="threshold",
            sinks=("json",),
            streaming=StreamingOptions(chunk=8)).run()
        payload = result.outputs["json"]
        assert payload["mode"] == "streaming"
        assert payload["detections"][0]["detector"] == "threshold"
        batch = Pipeline.from_store(store, detectors="threshold",
                                    sinks=()).run()
        assert (payload["detections"][0]["flagged_machines"]
                == sorted(batch.detections[0].result.flagged_machines()))


class TestMonitorStateStaysBounded:
    def test_flapping_threshold_episodes_do_not_accumulate(self):
        """A forever-lived monitor keeps O(machines) threshold state, not
        one archived run per closed episode."""
        monitor = OnlineMonitor(["m1"],
                                config=MonitorConfig(utilisation_threshold=90.0,
                                                     thrashing_scan_every=10**9),
                                window_samples=8)
        for i in range(200):   # machine flaps across the threshold each sample
            value = 95.0 if i % 2 else 10.0
            monitor.observe(float(i), {"m1": {"cpu": value, "mem": 10.0,
                                              "disk": 0.0}})
        for _position, _metric, _column, state in monitor._threshold_streams:
            assert state._closed == []
        assert len(monitor.alerts_of_kind("threshold")) == 100
