"""Tests for the pipeline-backed CLI: --json, --detectors, `repro pipeline`,
and clean one-line errors for unknown scenario/detector names."""

import json

import pytest

from repro.cli import build_parser, main
from repro.trace.writer import write_trace


class TestDetectJson:
    def test_detect_json_is_machine_readable(self, tmp_path, thrashing_bundle,
                                             capsys):
        write_trace(thrashing_bundle, tmp_path)
        assert main(["detect", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "batch"
        assert payload["num_machines"] == len(
            thrashing_bundle.usage.machine_ids)
        labels = [row["label"] for row in payload["detections"]]
        assert labels == ["ewma", "flatline", "threshold", "zscore"]
        for row in payload["detections"]:
            assert isinstance(row["num_events"], int)
            assert isinstance(row["flagged_machines"], list)
        assert "scores" in payload
        assert "scenario" in payload

    def test_detect_json_carries_scores(self, capsys):
        assert main(["detect", "--synthetic", "--scenario", "machine-failure",
                     "--seed", "5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "machine-failure"
        (score,) = payload["scores"]
        assert score["kind"] == "machine-failure"
        assert score["detector"] == "flatline"
        assert set(score) >= {"precision", "recall", "f1", "true_positives",
                              "false_positives", "false_negatives"}

    def test_detect_custom_detector_spec(self, tmp_path, thrashing_bundle,
                                         capsys):
        write_trace(thrashing_bundle, tmp_path)
        assert main(["detect", str(tmp_path),
                     "--detectors", "threshold(threshold=85)+flatline",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["label"] for row in payload["detections"]] \
            == ["threshold", "flatline"]


class TestCompareJson:
    def test_compare_json_is_machine_readable(self, tmp_path, thrashing_bundle,
                                              capsys):
        write_trace(thrashing_bundle, tmp_path)
        assert main(["compare", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        for tool in ("batchlens", "threshold_monitor"):
            assert set(payload[tool]) == {"precision", "recall", "f1",
                                          "true_positives", "false_positives",
                                          "false_negatives"}
        assert isinstance(payload["truth_machines"], list)
        assert payload["capabilities"][0]["capability"]

    def test_compare_json_respects_output_flag(self, tmp_path,
                                               thrashing_bundle, capsys):
        write_trace(thrashing_bundle, tmp_path / "trace")
        target = tmp_path / "comparison.json"
        assert main(["compare", str(tmp_path / "trace"), "--json",
                     "--output", str(target)]) == 0
        assert "written to" in capsys.readouterr().out
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert "batchlens" in payload


class TestPipelineSubcommand:
    def test_runs_a_spec_file(self, tmp_path, capsys):
        spec = {
            "source": {"kind": "synthetic", "scenario": "machine-failure",
                       "seed": 5,
                       "config": {"num_machines": 12, "num_jobs": 10,
                                  "horizon_s": 7200, "resolution_s": 120}},
            "detectors": "flatline",
            "sinks": ["score", "report"],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        assert main(["pipeline", str(spec_path)]) == 0
        output = capsys.readouterr().out
        assert "Pipeline run" in output
        assert "machine-failure" in output

    def test_json_output(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "source": {"kind": "synthetic", "scenario": "healthy", "seed": 3,
                       "config": {"num_machines": 8, "num_jobs": 6,
                                  "horizon_s": 3600, "resolution_s": 120}},
            "detectors": "threshold",
            "sinks": [],
        }), encoding="utf-8")
        assert main(["pipeline", str(spec_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "batch"
        assert payload["num_machines"] == 8

    def test_trace_dir_shorthand(self, tmp_path, thrashing_bundle, capsys):
        write_trace(thrashing_bundle, tmp_path)
        assert main(["pipeline", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_machines"] == len(
            thrashing_bundle.usage.machine_ids)

    def test_registered_in_help(self):
        assert "pipeline" in build_parser().format_help()


class TestExecutionFlags:
    """--backend/--workers/--shards shard the sweep; --timings surfaces
    the run's wall-clock breakdown; verdicts never change."""

    SYNTH = ["--synthetic", "--scenario", "machine-failure", "--seed", "5"]

    def test_detect_timings_line(self, capsys):
        assert main(["detect", *self.SYNTH, "--timings"]) == 0
        output = capsys.readouterr().out
        (line,) = [ln for ln in output.splitlines()
                   if ln.startswith("timings:")]
        for part in ("source", "detect", "sinks", "total"):
            assert f"{part} " in line

    def test_detect_parallel_flags_keep_verdict_identical(self, capsys):
        assert main(["detect", *self.SYNTH, "--json"]) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(["detect", *self.SYNTH, "--json",
                     "--backend", "threads", "--workers", "2",
                     "--shards", "3"]) == 0
        sharded = json.loads(capsys.readouterr().out)
        assert sharded["detections"] == serial["detections"]
        assert sharded["scores"] == serial["scores"]

    def test_workers_alone_implies_threads_backend(self, capsys):
        assert main(["detect", *self.SYNTH, "--json", "--workers", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["detections"]

    def test_pipeline_flags_override_spec(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "source": {"kind": "synthetic", "scenario": "healthy", "seed": 3,
                       "config": {"num_machines": 8, "num_jobs": 6,
                                  "horizon_s": 3600, "resolution_s": 120}},
            "detectors": "threshold",
            "sinks": [],
        }), encoding="utf-8")
        assert main(["pipeline", str(spec_path), "--json"]) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(["pipeline", str(spec_path), "--json",
                     "--backend", "serial", "--shards", "3"]) == 0
        sharded = json.loads(capsys.readouterr().out)
        assert sharded["detections"] == serial["detections"]

    def test_pipeline_flags_merge_with_spec_execution_block(self):
        """`--shards 4` alone must keep the spec's backend/workers, not
        silently swap a configured process pool for default threads."""
        from repro.cli import _execution_from_args
        from repro.pipeline import ExecutionOptions

        args = build_parser().parse_args(["pipeline", "spec.json",
                                          "--shards", "4"])
        base = ExecutionOptions(backend="process", workers=6)
        assert _execution_from_args(args, base=base) \
            == ExecutionOptions(backend="process", shards=4, workers=6)
        # no spec block: --shards alone implies the threads backend
        assert _execution_from_args(args, base=ExecutionOptions()) \
            == ExecutionOptions(backend="threads", shards=4)
        # ... but an explicitly pinned serial backend survives the flags
        pinned = _execution_from_args(
            args, base=ExecutionOptions(backend="serial"))
        assert pinned == ExecutionOptions(backend="serial", shards=4)
        # a merely implied backend re-resolves from the merged fields
        implied = _execution_from_args(
            args, base=ExecutionOptions(workers=16))
        assert implied == ExecutionOptions(backend="threads", shards=4,
                                           workers=16)
        # no flags at all: nothing to override
        bare = build_parser().parse_args(["pipeline", "spec.json"])
        assert _execution_from_args(bare, base=base) is None

    def test_pipeline_timings_line(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "source": {"kind": "synthetic", "scenario": "healthy", "seed": 3,
                       "config": {"num_machines": 8, "num_jobs": 6,
                                  "horizon_s": 3600, "resolution_s": 120}},
            "detectors": "threshold",
            "sinks": [],
        }), encoding="utf-8")
        assert main(["pipeline", str(spec_path), "--timings"]) == 0
        output = capsys.readouterr().out
        assert any(line.startswith("timings:")
                   for line in output.splitlines())

    def test_detect_cache_flag_builds_and_reuses_sidecar(
            self, tmp_path, thrashing_bundle, capsys):
        from repro.trace.cache import cache_path

        write_trace(thrashing_bundle, tmp_path)
        assert main(["detect", str(tmp_path), "--cache", "--json"]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cache_path(tmp_path).exists()
        assert main(["detect", str(tmp_path), "--cache", "--json"]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["detections"] == cold["detections"]


class TestCleanErrors:
    """Unknown names exit nonzero with a one-line message listing what IS
    registered — never a traceback."""

    def test_unknown_detector_lists_registered(self, tmp_path,
                                               thrashing_bundle, capsys):
        write_trace(thrashing_bundle, tmp_path)
        assert main(["detect", str(tmp_path), "--detectors", "wormhole"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        for name in ("ewma", "flatline", "threshold", "zscore", "wormhole"):
            assert name in err

    @pytest.mark.parametrize("window", ["2.5", "1", "true", "65537",
                                        "1000000"])
    def test_bad_zscore_window_is_a_clean_error(self, tmp_path,
                                                thrashing_bundle, capsys,
                                                window):
        write_trace(thrashing_bundle, tmp_path)
        assert main(["detect", str(tmp_path), "--detectors",
                     f"zscore(window={window})"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "window" in err

    def test_unknown_scenario_lists_registered(self, capsys):
        assert main(["detect", "--synthetic", "--scenario",
                     "wormhole+diurnal"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "wormhole" in err
        assert "diurnal" in err          # the registered names are listed
        assert "network-storm" in err

    def test_unknown_sink_in_pipeline_spec(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "source": {"kind": "synthetic", "scenario": "healthy"},
            "sinks": ["telegram"]}), encoding="utf-8")
        assert main(["pipeline", str(spec_path)]) == 2
        err = capsys.readouterr().err
        assert "telegram" in err
        assert "score" in err

    def test_malformed_pipeline_json(self, capsys):
        assert main(["pipeline", "{broken json"]) == 2
        assert "JSON" in capsys.readouterr().err

    def test_monitor_unknown_scenario(self, capsys):
        assert main(["monitor", "--synthetic", "--scenario", "wormhole"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", ["nan", "inf", "0", "-5", "1e9"])
    def test_monitor_bad_threshold_fails_before_loading(self, tmp_path,
                                                        capsys, threshold):
        missing = tmp_path / "no-such-trace"
        assert main(["monitor", str(missing), f"--threshold={threshold}"]) == 2
        assert "streaming.threshold" in capsys.readouterr().err


class TestScenariosListsDetectorsAndSinks:
    def test_scenarios_lists_pipeline_registries(self, capsys):
        assert main(["scenarios"]) == 0
        output = capsys.readouterr().out
        assert "registered detectors" in output
        for name in ("threshold", "zscore", "ewma", "flatline"):
            assert name in output
        assert "registered pipeline sinks" in output
        assert "score" in output


class TestMonitorStillIdentical:
    def test_monitor_output_shape_unchanged(self, tmp_path, thrashing_bundle,
                                            capsys):
        write_trace(thrashing_bundle, tmp_path)
        assert main(["monitor", str(tmp_path), "--threshold", "85"]) == 0
        output = capsys.readouterr().out
        assert "replayed" in output
        assert "final regime" in output
