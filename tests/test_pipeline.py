"""Unit tests for the declarative pipeline (:mod:`repro.pipeline`)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis.detectors import ThresholdDetector
from repro.errors import BatchLensError, PipelineError
from repro.metrics.store import MetricStore
from repro.pipeline import (
    DetectorPlan,
    ExecutionOptions,
    Pipeline,
    SourceSpec,
    StreamingOptions,
    canonical_detector_spec,
    default_detector_names,
    detector_names,
    get_detector,
    parse_detector_spec,
    register_detector,
    register_sink,
    resolve_detectors,
    sink_names,
)
from repro.pipeline.spec import MAX_WINDOW_SAMPLES
from repro.stream.monitor import MonitorConfig, OnlineMonitor


def make_store(num_machines: int = 4, num_samples: int = 24,
               seed: int = 0) -> MetricStore:
    rng = np.random.default_rng(seed)
    ids = [f"m{i}" for i in range(num_machines)]
    store = MetricStore(ids, np.arange(num_samples) * 60.0)
    store.data[:] = rng.uniform(10.0, 70.0, store.data.shape)
    store.metric_block("cpu")[0, 5:9] = 97.0
    store.metric_block("mem")[1, 10:] = 99.0
    return store


class TestDetectorRegistry:
    def test_default_names(self):
        assert detector_names() == ["ewma", "flatline", "imbalance",
                                    "sla_risk", "sync_break", "threshold",
                                    "zscore"]
        # the no-spec pipeline stack stays the per-machine quartet; the
        # cluster detectors are opt-in via spec strings
        assert default_detector_names() == ["ewma", "flatline", "threshold",
                                            "zscore"]

    def test_parse_spec_with_params(self):
        parts = parse_detector_spec("threshold(threshold=85)+flatline")
        assert parts == [("threshold", {"threshold": 85}), ("flatline", {})]

    def test_resolve_builds_instances(self):
        stack = resolve_detectors("threshold(threshold=85,min_duration_s=120)")
        (name, instance), = stack
        assert name == "threshold"
        assert instance.threshold == 85
        assert instance.min_duration_s == 120

    def test_unknown_name_lists_registered(self):
        with pytest.raises(PipelineError) as err:
            parse_detector_spec("threshold+wormhole")
        assert "wormhole" in str(err.value)
        for name in detector_names():
            assert name in str(err.value)

    def test_bad_params_are_actionable(self):
        with pytest.raises(PipelineError, match="rejected parameters"):
            get_detector("flatline", not_a_param=3)

    def test_malformed_spec(self):
        with pytest.raises(PipelineError, match="malformed"):
            parse_detector_spec("threshold(=")

    def test_errors_are_batchlens_errors(self):
        with pytest.raises(BatchLensError):
            get_detector("wormhole")

    def test_canonical_spec_round_trips(self):
        spec = "threshold(threshold=85)+ewma"
        assert canonical_detector_spec(" threshold( threshold = 85) + ewma ") \
            == spec

    def test_register_custom_detector(self):
        from repro.analysis.engine import DetectionEngine

        class Spiky(ThresholdDetector):
            kind = "spiky"

        register_detector("spiky", Spiky, "test-only")
        try:
            assert "spiky" in detector_names()
            (_, instance), = resolve_detectors("spiky(threshold=50)")
            assert isinstance(instance, Spiky)
            # the engine resolves the registered name too, batch and stream
            store = make_store()
            engine = DetectionEngine(detectors={})
            expected = engine.run(store, Spiky()).events()
            assert expected and {e.kind for e in expected} == {"spiky"}
            assert engine.run(store, "spiky").events() == expected
            state = engine.stream(store.machine_ids, "spiky")
            engine.run_incremental(state, store)
            assert state.events() == expected
        finally:
            from repro.pipeline import detectors as registry_module

            del registry_module._DETECTORS["spiky"]

    def test_invalid_registration_name(self):
        with pytest.raises(PipelineError):
            register_detector("a+b", ThresholdDetector)


class TestSpecs:
    def test_source_requires_known_kind(self):
        with pytest.raises(PipelineError, match="unknown source kind"):
            SourceSpec(kind="carrier-pigeon")

    def test_trace_dir_requires_path(self):
        with pytest.raises(PipelineError, match="path"):
            SourceSpec.from_dict({"kind": "trace-dir"})

    def test_shorthand_directory_vs_scenario(self, tmp_path):
        assert SourceSpec.from_shorthand(str(tmp_path)).kind == "trace-dir"
        source = SourceSpec.from_shorthand("diurnal+network-storm")
        assert source.kind == "synthetic"
        assert source.scenario == "diurnal+network-storm"

    def test_synthetic_config_keys_validated(self):
        with pytest.raises(PipelineError, match="num_gpus"):
            SourceSpec.from_dict({"kind": "synthetic", "scenario": "healthy",
                                  "config": {"num_gpus": 8}})

    def test_streaming_options_validated(self):
        with pytest.raises(PipelineError, match="cadence"):
            StreamingOptions(cadence="yearly")
        with pytest.raises(PipelineError, match="unknown streaming option"):
            StreamingOptions.from_dict({"cadnce": "sample"})

    def test_unknown_spec_key(self):
        with pytest.raises(PipelineError, match="detektors"):
            Pipeline.from_spec({"source": {"kind": "synthetic"},
                                "detektors": "threshold"})

    def test_unknown_mode_and_sink(self):
        source = {"kind": "synthetic", "scenario": "healthy"}
        with pytest.raises(PipelineError, match="mode"):
            Pipeline.from_spec({"source": source, "mode": "quantum"})
        with pytest.raises(PipelineError) as err:
            Pipeline.from_spec({"source": source, "sinks": ["telegram"]})
        for name in sink_names():
            assert name in str(err.value)

    def test_spec_needs_source(self):
        with pytest.raises(PipelineError, match="source"):
            Pipeline.from_spec({"detectors": "threshold"})

    def test_non_integer_seed_is_a_clean_error(self):
        with pytest.raises(PipelineError, match="seed"):
            SourceSpec.from_dict({"kind": "synthetic", "scenario": "healthy",
                                  "seed": "abc"})
        with pytest.raises(PipelineError, match="config.num_machines"):
            SourceSpec.from_dict({"kind": "synthetic", "scenario": "healthy",
                                  "config": {"num_machines": "lots"}})
        with pytest.raises(PipelineError, match="window_samples"):
            StreamingOptions.from_dict({"window_samples": "many"})

    #: Every boolean a pipeline spec carries, with a spec setting it to
    #: ``value`` and the parsed field it lands in.
    FLAGS = {
        "source.cache": (
            lambda value: {"source": {"kind": "trace-dir", "path": "t",
                                      "cache": value}},
            lambda pipeline: pipeline.source.cache),
        "source.mmap": (
            lambda value: {"source": {"kind": "trace-dir", "path": "t",
                                      "cache": True, "mmap": value}},
            lambda pipeline: pipeline.source.mmap),
        "source.paper_scale": (
            lambda value: {"source": {"kind": "synthetic",
                                      "paper_scale": value}},
            lambda pipeline: pipeline.source.paper_scale),
        "result_cache.enabled": (
            lambda value: {"source": {"kind": "synthetic"},
                           "result_cache": {"dir": "c", "enabled": value}},
            lambda pipeline: pipeline.result_cache.enabled),
    }

    @pytest.mark.parametrize("flag", sorted(FLAGS))
    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_non_boolean_flags_rejected(self, flag, value):
        build, _ = self.FLAGS[flag]
        with pytest.raises(PipelineError,
                           match=rf"{flag} must be true or false, got"):
            Pipeline.from_spec(build(value))

    @pytest.mark.parametrize("flag", sorted(FLAGS))
    @pytest.mark.parametrize("value", [True, False])
    def test_boolean_flags_accepted(self, flag, value):
        build, read = self.FLAGS[flag]
        pipeline = Pipeline.from_spec(build(value))
        assert read(pipeline) is value
        assert Pipeline.from_spec(pipeline.to_spec()) == pipeline

    @pytest.mark.parametrize("source, typo", [
        ({"kind": "trace-dir", "path": "t"}, "cahce"),
        ({"kind": "trace-dir", "path": "t"}, "seed"),
        ({"kind": "synthetic", "scenario": "hotjob"}, "sead"),
        ({"kind": "synthetic"}, "scenarios"),
        ({"kind": "synthetic"}, "path"),
    ])
    def test_unknown_source_key_rejected(self, source, typo):
        with pytest.raises(PipelineError) as err:
            Pipeline.from_spec({"source": {**source, typo: 3}})
        message = str(err.value)
        assert f"unknown {source['kind']} source key(s) ['{typo}']" in message
        assert "expected" in message and "'kind'" in message

    def test_full_source_specs_round_trip(self, tmp_path):
        for source in ({"kind": "trace-dir", "path": str(tmp_path),
                        "cache": True, "mmap": True, "storage": "float32"},
                       {"kind": "synthetic", "scenario": "hotjob", "seed": 3,
                        "paper_scale": True, "config": {"num_machines": 8}}):
            pipeline = Pipeline.from_spec({"source": source})
            assert pipeline.to_spec()["source"] == source
            assert Pipeline.from_spec(pipeline.to_spec()) == pipeline

    @pytest.mark.parametrize("window", [2, 3, MAX_WINDOW_SAMPLES - 1,
                                        MAX_WINDOW_SAMPLES])
    def test_window_samples_inside_bounds(self, window):
        options = StreamingOptions.from_dict({"window_samples": window})
        assert options.window_samples == window

    @pytest.mark.parametrize("window", [0, 1, MAX_WINDOW_SAMPLES + 1, 10**9])
    def test_window_samples_outside_bounds(self, window):
        with pytest.raises(PipelineError,
                           match="window_samples must be between 2 and 65536"):
            StreamingOptions.from_dict({"window_samples": window})

    @pytest.mark.parametrize("threshold", [0.5, 100])
    def test_threshold_inside_bounds(self, threshold):
        options = StreamingOptions.from_dict({"threshold": threshold})
        assert options.threshold == threshold

    @pytest.mark.parametrize("threshold", ["nan", float("nan"), float("inf"),
                                           0, -5, 100.5, 1e9])
    def test_threshold_outside_bounds(self, threshold):
        with pytest.raises(PipelineError,
                           match=r"streaming.threshold must be in \(0, 100\]"):
            StreamingOptions.from_dict({"threshold": threshold})

    def test_bad_threshold_fails_before_the_source(self, tmp_path):
        spec = {"source": {"kind": "trace-dir",
                           "path": str(tmp_path / "no-such-trace")},
                "mode": "streaming", "sinks": []}
        # The missing directory is only noticed when a run resolves it ...
        Pipeline.from_spec({**spec, "streaming": {"threshold": 85}})
        # ... so this error comes from parsing the spec alone.
        with pytest.raises(PipelineError, match="streaming.threshold"):
            Pipeline.from_spec({**spec, "streaming": {"threshold": "nan"}})

    def test_sinks_accept_a_bare_string(self):
        pipeline = Pipeline.from_spec({
            "source": {"kind": "synthetic", "scenario": "healthy"},
            "sinks": "report"})
        assert pipeline.sinks == ({"kind": "report"},)

    def test_json_string_spec(self):
        text = json.dumps({"source": {"kind": "synthetic",
                                      "scenario": "healthy", "seed": 3},
                           "detectors": "threshold"})
        pipeline = Pipeline.from_spec(text)
        assert pipeline.source.scenario == "healthy"
        assert [plan.label for plan in pipeline.plans] == ["threshold"]

    def test_invalid_json_string(self):
        with pytest.raises(PipelineError, match="JSON"):
            Pipeline.from_spec("{not json")

    def test_detector_list_form(self):
        pipeline = Pipeline.from_spec({
            "source": {"kind": "synthetic", "scenario": "healthy"},
            "detectors": ["flatline", "threshold"]})
        assert [plan.label for plan in pipeline.plans] \
            == ["flatline", "threshold"]

    def test_to_spec_rejects_in_memory_sources(self):
        pipeline = Pipeline.from_store(make_store(), detectors="threshold")
        with pytest.raises(PipelineError, match="serialis"):
            pipeline.to_spec()

    def test_to_spec_rejects_instance_detectors(self):
        pipeline = Pipeline(
            SourceSpec(kind="synthetic", scenario="healthy"),
            detectors={"threshold": ThresholdDetector(90.0)})
        with pytest.raises(PipelineError, match="spec-string"):
            pipeline.to_spec()

    def test_execution_options_validated(self):
        with pytest.raises(PipelineError, match="backend"):
            ExecutionOptions(backend="quantum")
        with pytest.raises(PipelineError, match="shards"):
            ExecutionOptions(shards=0)
        with pytest.raises(PipelineError, match="workers"):
            ExecutionOptions.from_dict({"workers": "many"})
        with pytest.raises(PipelineError, match="unknown execution option"):
            ExecutionOptions.from_dict({"wrokers": 4})

    def test_execution_spec_round_trip(self):
        source = {"kind": "synthetic", "scenario": "healthy", "seed": 2}
        pipeline = Pipeline.from_spec({
            "source": source,
            "execution": {"backend": "threads", "shards": 3, "workers": 2}})
        assert pipeline.execution == ExecutionOptions(
            backend="threads", shards=3, workers=2)
        assert pipeline.to_spec()["execution"] \
            == {"backend": "threads", "shards": 3, "workers": 2}
        assert Pipeline.from_spec(pipeline.to_spec()) == pipeline
        # the default execution stays out of the canonical spec
        assert "execution" not in Pipeline.from_spec({"source": source}).to_spec()

    def test_execution_workers_alone_implies_threads(self):
        """Asking for workers IS asking for parallelism — on the spec path,
        the programmatic constructor, and the CLI alike."""
        assert ExecutionOptions.from_dict({"workers": 8}) \
            == ExecutionOptions(backend="threads", workers=8)
        assert ExecutionOptions.from_dict({"shards": 4}).backend == "threads"
        assert ExecutionOptions.from_dict(
            {"backend": "serial", "workers": 8}).backend == "serial"
        assert ExecutionOptions.from_dict({}).backend == "serial"
        assert ExecutionOptions(workers=8).backend == "threads"
        assert ExecutionOptions(workers=8).sharded
        assert ExecutionOptions(shards=2).backend == "threads"

    def test_streaming_mode_rejects_execution_options(self):
        with pytest.raises(PipelineError, match="batch mode only"):
            Pipeline.from_spec({
                "source": {"kind": "synthetic", "scenario": "healthy"},
                "mode": "streaming",
                "execution": {"workers": 4}})

    def test_default_execution_is_serial_unsharded(self):
        pipeline = Pipeline.from_spec(
            {"source": {"kind": "synthetic", "scenario": "healthy"}})
        assert pipeline.execution == ExecutionOptions()
        assert not pipeline.execution.sharded
        assert ExecutionOptions(backend="threads").sharded
        assert ExecutionOptions(shards=4).sharded

    def test_plans_and_detectors_are_exclusive(self):
        plan = DetectorPlan(label="t", name="threshold", metric="cpu",
                            detector=ThresholdDetector(90.0))
        with pytest.raises(PipelineError, match="not both"):
            Pipeline(SourceSpec(kind="synthetic", scenario="healthy"),
                     detectors="threshold", plans=(plan,))


class TestBatchRun:
    def test_run_matches_engine_directly(self):
        from repro.analysis.engine import DetectionEngine

        store = make_store()
        detector = ThresholdDetector(90.0)
        result = Pipeline.from_store(
            store, detectors={"threshold": detector}, sinks=()).run()
        direct = DetectionEngine().run(store, detector, metric="cpu")
        assert result.events() == direct.events()
        assert result.flagged_machines() == direct.flagged_machines()
        assert result.num_events == direct.num_events

    def test_multi_metric_labels(self):
        store = make_store()
        result = Pipeline.from_store(
            store, detectors="threshold(threshold=95)",
            metrics=("cpu", "mem"), sinks=()).run()
        assert [run.label for run in result.detections] \
            == ["threshold@cpu", "threshold@mem"]
        assert result.flagged_machines("threshold@cpu") == {"m0"}
        assert result.flagged_machines("threshold@mem") == {"m1"}
        assert result.flagged_machines() == {"m0", "m1"}

    def test_duplicate_detectors_get_distinct_labels(self):
        store = make_store()
        result = Pipeline.from_store(
            store, detectors="threshold(threshold=95)+threshold(threshold=50)",
            sinks=()).run()
        assert [run.label for run in result.detections] \
            == ["threshold", "threshold#2"]

    def test_unknown_detection_label(self):
        result = Pipeline.from_store(make_store(), detectors="threshold",
                                     sinks=()).run()
        with pytest.raises(PipelineError, match="no detection labelled"):
            result.detection("zscore")

    def test_window_filter_matches_engine_semantics(self):
        from repro.analysis.engine import DetectionEngine

        store = make_store()
        result = Pipeline.from_store(
            store, detectors="threshold(threshold=95)", sinks=()).run()
        window = (0.0, 6 * 60.0)
        direct = DetectionEngine().run(store, ThresholdDetector(95.0))
        assert result.flagged_machines(window=window) \
            == direct.flagged_machines(window)

    def test_timings_recorded(self):
        result = Pipeline.from_store(make_store(), detectors="threshold",
                                     sinks=()).run()
        assert set(result.timings) \
            == {"source_s", "detect_s", "sinks_s", "total_s"}
        assert result.timings["total_s"] >= 0.0


class TestEmptyAndTinyStores:
    """The edge-case satellite: degenerate stores yield empty results."""

    @pytest.mark.parametrize("num_samples", [0, 1])
    def test_engine_run_degenerate_store(self, num_samples):
        from repro.analysis.engine import DetectionEngine

        store = MetricStore(["a", "b"], np.arange(num_samples) * 60.0)
        engine = DetectionEngine()
        for name in detector_names():
            # cluster detectors are registered only with the pipeline, so
            # hand the engine an instance rather than a name
            result = engine.run(store, get_detector(name))
            assert result.num_events == 0
            assert result.events() == []
            assert result.flagged_machines() == set()

    def test_engine_run_no_machines(self):
        from repro.analysis.engine import DetectionEngine

        store = MetricStore([], np.arange(5) * 60.0)
        assert DetectionEngine().run(store, "zscore").num_events == 0

    @pytest.mark.parametrize("num_samples", [0, 1])
    def test_catch_up_degenerate_store(self, num_samples):
        # all-zero data below the threshold: neither sample count may error,
        # and neither produces an alert
        store = MetricStore(["a", "b"], np.arange(num_samples) * 60.0)
        monitor = OnlineMonitor(store.machine_ids,
                                config=MonitorConfig(utilisation_threshold=50))
        assert monitor.catch_up(store) == []
        assert monitor._samples_seen == num_samples

    def test_pipeline_empty_store_returns_empty_result(self):
        store = MetricStore(["a"], np.array([]))
        for mode in ("batch", "streaming"):
            result = Pipeline.from_store(store, detectors="threshold",
                                         mode=mode, sinks=()).run()
            assert result.empty
            assert result.detections == ()
            assert result.alerts == ()
            assert result.events() == []
            assert result.flagged_machines() == set()

    def test_pipeline_single_sample_store_runs(self):
        store = MetricStore(["a"], np.array([0.0]))
        store.metric_block("cpu")[0, 0] = 99.0
        batch = Pipeline.from_store(store, detectors="threshold",
                                    sinks=()).run()
        assert not batch.empty
        assert batch.num_events == 1
        streaming = Pipeline.from_store(store, mode="streaming",
                                        sinks=()).run()
        assert streaming.alerts_by_kind() == {"threshold": 1}

    def test_pipeline_usage_less_bundle_returns_empty_result(self,
                                                             healthy_bundle):
        import dataclasses

        bundle = dataclasses.replace(healthy_bundle, usage=None)
        result = Pipeline.from_bundle(bundle).run()
        assert result.empty

    def test_empty_source_still_produces_sink_outputs(self, tmp_path):
        target = tmp_path / "empty.md"
        store = MetricStore(["a"], np.array([]))
        result = Pipeline.from_store(
            store, detectors="threshold",
            sinks=({"kind": "report", "path": str(target)}, "json",
                   "score")).run()
        assert result.empty
        assert target.exists()
        assert "Pipeline run" in result.outputs["report"]
        assert result.outputs["json"]["num_samples"] == 0
        assert result.outputs["score"] == ()

    def test_comparison_sink_rejects_empty_source_cleanly(self):
        store = MetricStore(["a"], np.array([]))
        pipeline = Pipeline.from_store(store, plans=(), sinks=("comparison",))
        with pytest.raises(PipelineError, match="empty"):
            pipeline.run()


class TestStreaming:
    def test_catch_up_parity_with_monitor(self):
        store = make_store()
        result = Pipeline.from_store(
            store, mode="streaming", sinks=("alerts",),
            streaming=StreamingOptions(threshold=92.0,
                                       window_samples=64)).run()
        monitor = OnlineMonitor(store.machine_ids,
                                config=MonitorConfig(utilisation_threshold=92.0),
                                window_samples=64)
        direct = monitor.catch_up(store)
        assert list(result.alerts) == direct
        assert result.outputs["alerts"] == result.alerts_by_kind()
        assert result.monitor is not None

    def test_sample_cadence_matches_replayer(self, thrashing_bundle):
        from repro.stream.replay import replay_with_alerts

        result = Pipeline.from_bundle(
            thrashing_bundle, mode="streaming",
            streaming=StreamingOptions(threshold=92.0, cadence="sample"),
            sinks=()).run()
        report, _manager = replay_with_alerts(
            thrashing_bundle,
            monitor_config=MonitorConfig(utilisation_threshold=92.0))
        assert result.replay.samples_replayed == report.samples_replayed
        assert result.replay.alerts_by_kind == report.alerts_by_kind
        assert result.replay.final_regime == report.final_regime
        assert result.alert_manager is not None

    def test_sample_cadence_needs_a_bundle(self):
        pipeline = Pipeline.from_store(
            make_store(), mode="streaming",
            streaming=StreamingOptions(cadence="sample"), sinks=())
        with pytest.raises(PipelineError, match="catch-up"):
            pipeline.run()


class TestSinks:
    def test_report_and_json_sinks(self, tmp_path):
        target = tmp_path / "run.json"
        result = Pipeline.from_store(
            make_store(), detectors="threshold(threshold=95)",
            sinks=("report", {"kind": "json", "path": str(target)})).run()
        assert "Pipeline run" in result.outputs["report"]
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert payload == result.outputs["json"]
        assert payload["detections"][0]["detector"] == "threshold"
        assert payload["detections"][0]["flagged_machines"] == ["m0"]

    def test_score_sink_empty_without_bundle(self):
        result = Pipeline.from_store(make_store(), detectors="threshold",
                                     sinks=("score",)).run()
        assert result.scores == ()

    def test_score_sink_matches_score_bundle(self, thrashing_bundle):
        from repro.scenarios.scoring import score_bundle

        result = Pipeline.from_bundle(thrashing_bundle, plans=(),
                                      sinks=("score",)).run()
        assert list(result.scores) == score_bundle(thrashing_bundle)

    def test_comparison_sink_needs_bundle(self):
        pipeline = Pipeline.from_store(make_store(), plans=(),
                                       sinks=("comparison",))
        with pytest.raises(PipelineError, match="comparison"):
            pipeline.run()

    def test_dashboard_sink(self, tmp_path, hotjob_bundle):
        target = tmp_path / "dash.html"
        result = Pipeline.from_bundle(
            hotjob_bundle, plans=(),
            sinks=({"kind": "dashboard", "path": str(target)},)).run()
        assert target.exists()
        assert result.outputs["dashboard"] == target

    def test_dashboard_sink_needs_path(self, hotjob_bundle):
        pipeline = Pipeline.from_bundle(hotjob_bundle, plans=(),
                                        sinks=("dashboard",))
        with pytest.raises(PipelineError, match="path"):
            pipeline.run()

    def test_register_custom_sink(self):
        def count_sink(result, *, bundle, store, options):
            result.outputs["count"] = result.num_events

        register_sink("count", count_sink)
        try:
            result = Pipeline.from_store(
                make_store(), detectors="threshold(threshold=95)",
                sinks=("count",)).run()
            assert result.outputs["count"] == result.num_events
        finally:
            from repro.pipeline import sinks as sinks_module

            del sinks_module._SINKS["count"]
