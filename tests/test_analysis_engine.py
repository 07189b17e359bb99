"""Unit tests for the cluster-wide detection engine and its substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.detectors import (
    AnomalyEvent,
    EwmaDetector,
    FlatlineDetector,
    RollingZScoreDetector,
    ThresholdDetector,
    mask_runs,
    mask_to_events,
    merge_events,
)
from repro.analysis.engine import DetectionEngine, default_engine, detect_cluster
from repro.analysis.ensemble import EnsembleDetector
from repro.errors import PipelineError, SeriesError
from repro.metrics.series import TimeSeries
from repro.metrics.store import MetricStore
from repro.pipeline.detectors import detector_names, get_detector
from repro.trace.synthetic import generate_trace
from tests.conftest import fast_config


def make_store() -> MetricStore:
    timestamps = np.arange(8) * 60.0
    store = MetricStore(["m1", "m2", "m3"], timestamps)
    store.set_series("m1", "cpu", [10, 95, 96, 10, 10, 97, 10, 10])
    store.set_series("m2", "cpu", [10, 10, 10, 10, 10, 10, 10, 10])
    store.set_series("m3", "cpu", [93, 10, 10, 10, 10, 10, 10, 99])
    store.set_series("m1", "mem", [0, 0, 0, 0, 50, 50, 50, 50])
    return store


class TestMaskRuns:
    def test_runs_per_row(self):
        mask = np.array([[False, True, True, False, True],
                         [True, True, True, True, True],
                         [False, False, False, False, False]])
        rows, starts, ends = mask_runs(mask)
        assert rows.tolist() == [0, 0, 1]
        assert starts.tolist() == [1, 4, 0]
        assert ends.tolist() == [3, 5, 5]

    def test_runs_do_not_span_rows(self):
        mask = np.array([[False, True], [True, False]])
        rows, starts, ends = mask_runs(mask)
        assert rows.tolist() == [0, 1]
        assert starts.tolist() == [1, 0]
        assert ends.tolist() == [2, 1]

    def test_empty_inputs(self):
        for shape in [(0, 5), (3, 0)]:
            rows, starts, ends = mask_runs(np.zeros(shape, dtype=bool))
            assert rows.size == starts.size == ends.size == 0

    def test_all_false(self):
        rows, _, _ = mask_runs(np.zeros((2, 4), dtype=bool))
        assert rows.size == 0

    def test_one_dimensional_rejected(self):
        with pytest.raises(SeriesError):
            mask_runs(np.zeros(4, dtype=bool))


class TestMaskToEvents:
    def test_matches_manual_runs(self):
        timestamps = np.arange(6) * 60.0
        mask = np.array([False, True, True, False, False, True])
        scores = np.array([0.0, 3.0, 7.0, 0.0, 0.0, 2.0])
        events = mask_to_events(timestamps, mask, scores,
                                metric="cpu", subject="m", kind="k")
        assert [(e.start, e.end, e.score) for e in events] == [
            (60.0, 120.0, 7.0), (300.0, 300.0, 2.0)]
        assert all(e.kind == "k" and e.subject == "m" for e in events)


class TestDetectBlock:
    def test_threshold_block_matches_per_series(self):
        store = make_store()
        detector = ThresholdDetector(90.0)
        block = detector.detect_block(store.timestamps, store.metric_block("cpu"))
        events = block.events(subjects=store.machine_ids, metric="cpu",
                              kind="threshold")
        loop = []
        for mid in store.machine_ids:
            loop.extend(detector.detect(store.series(mid, "cpu"),
                                        metric="cpu", subject=mid))
        assert sorted(events, key=lambda e: (e.subject, e.start)) == \
            sorted(loop, key=lambda e: (e.subject, e.start))

    def test_min_duration_filters_runs_and_mask(self):
        store = make_store()
        detector = ThresholdDetector(90.0, min_duration_s=60.0)
        block = detector.detect_block(store.timestamps, store.metric_block("cpu"))
        # only the two-sample run on m1 survives; the mask agrees
        assert block.num_runs == 1
        assert block.mask.sum() == 2
        events = block.events(subjects=store.machine_ids, metric="cpu",
                              kind="threshold")
        assert events[0].subject == "m1" and events[0].duration == 60.0

    def test_flatline_min_samples_from_run_length(self):
        timestamps = np.arange(10) * 60.0
        values = np.array([[0, 0, 0, 5, 0, 0, 5, 0, 0, 0]], dtype=float)
        detector = FlatlineDetector(epsilon=0.5, min_samples=3)
        block = detector.detect_block(timestamps, values)
        assert block.num_runs == 2
        assert (block.ends - block.starts).tolist() == [3, 3]

    def test_zscore_warmup_never_flagged(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(0, 100, (4, 30))
        detector = RollingZScoreDetector(window=6, z_threshold=0.1, min_std=0.1)
        block = detector.detect_block(np.arange(30) * 60.0, values)
        assert not block.mask[:, :5].any()

    def test_ewma_short_block_empty(self):
        detector = EwmaDetector()
        block = detector.detect_block(np.array([0.0]), np.array([[50.0]]))
        assert block.num_runs == 0

    def test_block_shape_validation(self):
        detector = ThresholdDetector()
        with pytest.raises(SeriesError):
            detector.detect_block(np.arange(3.0), np.zeros(3))
        with pytest.raises(SeriesError):
            detector.detect_block(np.arange(3.0), np.zeros((2, 5)))

    def test_vote_scores_broadcasts_run_max(self):
        timestamps = np.arange(5) * 60.0
        detector = ThresholdDetector(50.0)
        block = detector.detect_block(
            timestamps, np.array([[10.0, 60.0, 90.0, 55.0, 10.0]]))
        votes = block.vote_scores()
        assert votes[0].tolist() == [0.0, 40.0, 40.0, 40.0, 0.0]


class TestDetectionEngine:
    def test_run_by_name_and_instance(self):
        store = make_store()
        engine = DetectionEngine()
        by_name = engine.run(store, "threshold", metric="cpu")
        by_instance = engine.run(store, ThresholdDetector(), metric="cpu")
        assert by_name.events() == by_instance.events()
        assert by_name.detector == "threshold"

    def test_unknown_detector_name(self):
        # unknown names fail in the one registry, whose message lists every
        # registered name — cluster detectors included
        with pytest.raises(PipelineError, match="unknown detector 'nope'") \
                as excinfo:
            DetectionEngine().run(make_store(), "nope")
        assert "sync_break" in str(excinfo.value)

    def test_flagged_machines_with_window(self):
        store = make_store()
        engine = DetectionEngine()
        result = engine.run(store, ThresholdDetector(90.0), metric="cpu")
        assert result.flagged_machines() == {"m1", "m3"}
        # m3's first event covers t=0 only; m1's events start at t=60
        assert result.flagged_machines(window=(0.0, 30.0)) == {"m3"}
        assert engine.flag_machines(store, ThresholdDetector(90.0),
                                    metric="cpu",
                                    window=(50.0, 130.0)) == {"m1"}

    def test_events_for_machine(self):
        store = make_store()
        result = DetectionEngine().run(store, "threshold", metric="cpu")
        events = result.events_for("m1")
        assert len(events) == 2
        assert all(e.subject == "m1" for e in events)
        assert result.events_for("m2") == []

    def test_event_counts(self):
        store = make_store()
        result = DetectionEngine().run(store, "threshold", metric="cpu")
        assert result.event_counts() == {"m1": 2, "m3": 2}

    def test_run_all_covers_registry(self):
        store = make_store()
        results = DetectionEngine().run_all(store, metric="cpu")
        assert set(results) == {"threshold", "zscore", "ewma", "flatline"}

    def test_run_with_window_slices_store(self):
        store = make_store()
        result = DetectionEngine().run(store, "threshold", metric="cpu",
                                       window=(60.0, 180.0))
        assert result.timestamps.tolist() == [60.0, 120.0, 180.0]
        assert result.flagged_machines() == {"m1"}

    def test_empty_store(self):
        store = MetricStore([], np.arange(4) * 60.0)
        result = DetectionEngine().run(store, "threshold", metric="cpu")
        assert result.events() == []
        assert result.flagged_machines() == set()

    def test_per_series_fallback_for_custom_detector(self):
        class LegacyOnly:
            kind = "legacy"

            def detect(self, series, *, metric="cpu", subject=""):
                if series.values.max() >= 90.0:
                    return [AnomalyEvent(start=series.start, end=series.end,
                                         metric=metric, subject=subject,
                                         kind=self.kind, score=1.0)]
                return []

        store = make_store()
        result = DetectionEngine().run(store, LegacyOnly(), metric="cpu")
        assert result.detector == "legacy"
        assert result.flagged_machines() == {"m1", "m3"}

    def test_per_series_fallback_merges_overlapping_events(self):
        class Overlapping:
            kind = "overlap"

            def detect(self, series, *, metric="cpu", subject=""):
                if subject != "m1":
                    return []
                return [AnomalyEvent(0.0, 180.0, metric, subject, self.kind, 2.0),
                        AnomalyEvent(120.0, 300.0, metric, subject, self.kind, 5.0)]

        store = make_store()
        result = DetectionEngine().run(store, Overlapping(), metric="cpu")
        # overlapping events collapse into one run; mask and runs agree
        assert result.num_events == 1
        assert result.mask[0].sum() == 6
        event = result.events()[0]
        assert (event.start, event.end, event.score) == (0.0, 300.0, 5.0)
        # the BlockDetection invariant holds, so vote_scores must not raise
        votes = result.block.vote_scores()
        assert votes[0, :6].tolist() == [5.0] * 6

    def test_default_engine_is_shared(self):
        assert default_engine() is default_engine()

    def test_detect_cluster_convenience(self):
        store = make_store()
        events = detect_cluster(store, "threshold", metric="cpu")
        assert {e.subject for e in events} == {"m1", "m3"}


@pytest.fixture(scope="module")
def every_detector_bundle():
    """A small trace on which every built-in detector reports events."""
    return generate_trace(fast_config(
        "hot-job+machine-failure+load-imbalance+straggler", seed=12))


class TestRegistryNames:
    """The engine resolves every registered name through the one registry."""

    @pytest.mark.parametrize("name", detector_names())
    def test_run_by_name_equals_instance(self, name, every_detector_bundle):
        bundle = every_detector_bundle
        engine = DetectionEngine()
        by_name = engine.run(bundle.usage, name, bundle=bundle)
        by_instance = engine.run(bundle.usage, get_detector(name),
                                 bundle=bundle)
        assert by_instance.num_events > 0
        assert by_name.detector == by_instance.detector
        assert by_name.events() == by_instance.events()

    @pytest.mark.parametrize("name", detector_names())
    def test_stream_by_name_equals_instance(self, name, every_detector_bundle):
        store = every_detector_bundle.usage
        engine = DetectionEngine()
        instance = get_detector(name)
        if not hasattr(instance, "make_stream_state"):
            # cluster detectors resolve, then refuse incremental use
            for detector in (name, instance):
                with pytest.raises(SeriesError, match="incremental"):
                    engine.stream(store.machine_ids, detector)
            return
        states = [engine.stream(store.machine_ids, detector)
                  for detector in (name, instance)]
        for state in states:
            engine.run_incremental(state, store)
        assert states[0].events() == states[1].events()
        assert states[0].events() == engine.run(store, instance).events()


class TestEnsembleBlock:
    def test_cluster_wide_ensemble(self):
        store = make_store()
        ensemble = EnsembleDetector(min_votes=2)
        result = DetectionEngine().run(store, ensemble, metric="cpu")
        loop = []
        for mid in store.machine_ids:
            loop.extend(ensemble.detect(store.series(mid, "cpu"),
                                        metric="cpu", subject=mid))
        assert sorted(result.events(), key=lambda e: (e.subject, e.start)) == \
            sorted(loop, key=lambda e: (e.subject, e.start))
        assert all(e.kind == "ensemble" for e in result.events())

    def test_member_without_detect_block(self):
        class LegacyMember:
            def detect(self, series, *, metric="cpu", subject=""):
                return ThresholdDetector(90.0).detect(series, metric=metric,
                                                      subject=subject)

        series = TimeSeries(np.arange(6) * 60.0,
                            np.array([10, 95, 96, 10, 95, 10], dtype=float))
        reference = EnsembleDetector([ThresholdDetector(90.0)], min_votes=1)
        mixed = EnsembleDetector([LegacyMember()], min_votes=1)
        assert mixed.detect(series) == reference.detect(series)


class TestZeroCopyStoreViews:
    def test_window_shares_data(self):
        store = make_store()
        windowed = store.window(60.0, 180.0)
        assert windowed.num_samples == 3
        assert np.shares_memory(windowed.data, store.data)

    def test_full_subset_shares_data(self):
        store = make_store()
        sub = store.subset(store.machine_ids)
        assert np.shares_memory(sub.data, store.data)

    def test_contiguous_subset_shares_data(self):
        store = make_store()
        sub = store.subset(["m2", "m3"])
        assert np.shares_memory(sub.data, store.data)
        assert sub.series("m3", "cpu").values[0] == 93.0

    def test_scattered_subset_still_correct(self):
        store = make_store()
        sub = store.subset(["m3", "m1"])
        assert sub.machine_ids == ["m3", "m1"]
        assert sub.series("m1", "cpu").values[1] == 95.0

    def test_subset_uniformly_read_only(self):
        # mutation semantics must not depend on which machines were picked:
        # both the zero-copy view and the gathered copy refuse writes
        store = make_store()
        for ids in (["m1", "m2"], ["m3", "m1"]):
            sub = store.subset(ids)
            with pytest.raises(ValueError):
                sub.data[0, 0, 0] = 1.0

    def test_duplicate_subset_rejected(self):
        with pytest.raises(SeriesError):
            make_store().subset(["m1", "m1"])

    def test_metric_block_is_view(self):
        store = make_store()
        block = store.metric_block("cpu")
        assert block.shape == (3, 8)
        assert np.shares_memory(block, store.data)
        assert block[0, 1] == 95.0


class TestMergeEventsProvenance:
    def test_merged_detail_preserves_kinds(self):
        events = [
            AnomalyEvent(0, 100, "cpu", "m1", "threshold", 1.0),
            AnomalyEvent(50, 200, "cpu", "m1", "zscore", 2.0),
            AnomalyEvent(150, 260, "cpu", "m1", "threshold", 0.5),
        ]
        merged = merge_events(events)
        assert len(merged) == 1
        assert merged[0].kind == "merged"
        assert merged[0].detail == "kinds=threshold+zscore"

    def test_unmerged_event_unchanged(self):
        events = [
            AnomalyEvent(0, 100, "cpu", "m1", "threshold", 1.0,
                         detail="untouched"),
            AnomalyEvent(500, 600, "cpu", "m1", "zscore", 2.0),
        ]
        merged = merge_events(events)
        assert merged[0].detail == "untouched"
        assert merged[0].kind == "threshold"
        assert merged[1].kind == "zscore"
