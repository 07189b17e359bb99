"""Unit tests for the scenario engine: registry, specs, composition, plumbing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.app.batchlens import BatchLens
from repro.cluster.anomalies import Scenario, get_scenario
from repro.errors import SimulationError
from repro.scenarios import (
    GroundTruthEntry,
    GroundTruthManifest,
    NetworkStormInjector,
    compose,
    get_injector,
    injector_names,
    list_injectors,
    parse_scenario_spec,
    resolve_scenario,
    scenario_names,
)
from repro.stream.replay import replay_scenario
from repro.trace.synthetic import generate_trace
from tests.conftest import fast_config


class TestSpecParsing:
    def test_single_part(self):
        (part,) = parse_scenario_spec("network-storm")
        assert part.name == "network-storm"
        assert part.kwargs == {}

    def test_composed_with_kwargs(self):
        parts = parse_scenario_spec(
            " diurnal(amplitude=40, cycles=2) + network-storm ")
        assert [p.name for p in parts] == ["diurnal", "network-storm"]
        assert parts[0].kwargs == {"amplitude": 40, "cycles": 2}

    def test_value_types(self):
        (part,) = parse_scenario_spec(
            "memory-thrash(relaunch=false, mem_ceiling=92.5)")
        assert part.kwargs == {"relaunch": False, "mem_ceiling": 92.5}

    @pytest.mark.parametrize("bad", ["", "a++b", "name(", "x(noequals)",
                                     "x(1bad=2)", "x(a=nan)", "x(a=inf)",
                                     "x(a=-Infinity)", "x(a=1e999)"])
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(SimulationError):
            parse_scenario_spec(bad)


class TestRegistry:
    def test_injector_catalogue(self):
        names = injector_names()
        assert len([n for n in names if n != "background"]) >= 6
        for info in list_injectors():
            assert info.summary

    def test_get_injector_with_parameters(self):
        storm = get_injector("network-storm", disk_boost=60.0)
        assert isinstance(storm, NetworkStormInjector)
        assert storm.disk_boost == 60.0

    def test_unknown_injector_and_bad_kwargs(self):
        with pytest.raises(SimulationError):
            get_injector("wormhole")
        with pytest.raises(SimulationError):
            get_injector("network-storm", not_a_knob=1)

    def test_scenario_names_cover_aliases_and_injectors(self):
        names = scenario_names()
        assert {"healthy", "hotjob", "thrashing", "none"} <= set(names)
        assert set(injector_names()) <= set(names)


class TestResolution:
    def test_legacy_aliases_resolve(self):
        for name in ("healthy", "hotjob", "thrashing", "none"):
            scenario = get_scenario(name)
            assert isinstance(scenario, Scenario)
            assert scenario.name == name

    def test_unknown_name_raises_simulation_error(self):
        with pytest.raises(SimulationError):
            get_scenario("nope")

    def test_composed_spec_resolves_in_order(self):
        scenario = resolve_scenario("diurnal+network-storm")
        assert [a.name for a in scenario.anomalies] == ["diurnal",
                                                        "network-storm"]
        assert scenario.name == "diurnal+network-storm"

    def test_alias_spliced_into_composition(self):
        scenario = resolve_scenario("hotjob+network-storm")
        assert [a.name for a in scenario.anomalies] == [
            "background-load", "hot-job", "network-storm"]

    def test_alias_with_parameters_rejected(self):
        with pytest.raises(SimulationError):
            resolve_scenario("hotjob(peak_boost=40)")

    def test_resolve_accepts_injector_instances(self):
        storm = NetworkStormInjector(disk_boost=50.0)
        scenario = resolve_scenario([storm])
        assert scenario.anomalies == (storm,)
        single = resolve_scenario(storm)
        assert single.anomalies == (storm,)

    def test_compose_rejects_non_anomalies(self):
        with pytest.raises(SimulationError):
            compose(["not-an-anomaly"])


class TestEnginePlumbing:
    def test_generate_trace_accepts_composed_spec(self):
        bundle = generate_trace(fast_config(), scenario="diurnal+network-storm",
                                seed=5)
        assert bundle.meta["scenario"] == "diurnal+network-storm"
        kinds = bundle.ground_truth().kinds()
        assert kinds == ["diurnal", "network-storm"]

    def test_generate_trace_accepts_scenario_object(self):
        scenario = resolve_scenario("network-storm(disk_boost=55)")
        bundle = generate_trace(fast_config(), scenario=scenario, seed=5)
        # the storm records a per-machine entry plus a cluster-wide
        # imbalance-attribution entry over the same machines and window
        burst, imbalance = bundle.ground_truth().entries
        assert burst.params["disk_boost"] == 55
        assert burst.detectors == ("disk-burst",)
        assert imbalance.detectors == ("imbalance",)
        assert imbalance.machines == burst.machines
        assert imbalance.window == burst.window

    def test_ground_truth_key_always_present(self):
        bundle = generate_trace(fast_config("healthy"), seed=4)
        assert bundle.meta["ground_truth"] == []
        assert isinstance(bundle.ground_truth(), GroundTruthManifest)

    def test_batchlens_generate_and_scorecard(self):
        lens = BatchLens.generate(fast_config(), scenario="load-imbalance",
                                  seed=6)
        manifest = lens.ground_truth()
        assert manifest.kinds() == ["load-imbalance"]
        card = lens.detection_scorecard()
        assert "load-imbalance" in card

    def test_replay_scenario_returns_bundle_with_manifest(self):
        report, manager, bundle = replay_scenario(
            "cascading-failure", config=fast_config(), seed=3)
        assert report.samples_replayed == bundle.usage.num_samples
        assert bundle.ground_truth().kinds() == ["cascading-failure"]

    def test_injector_randomness_is_order_independent(self):
        a = generate_trace(fast_config(), scenario="network-storm+diurnal",
                           seed=9)
        b = generate_trace(fast_config(), scenario="diurnal+network-storm",
                           seed=9)
        np.testing.assert_allclose(a.usage.data, b.usage.data, atol=1e-9)
        assert (a.ground_truth().machines("network-storm")
                == b.ground_truth().machines("network-storm"))

    def test_duplicate_injectors_draw_independent_streams(self):
        bundle = generate_trace(fast_config(),
                                scenario="network-storm+network-storm", seed=3)
        first, second = [entry for entry in bundle.ground_truth().entries
                         if entry.detectors == ("disk-burst",)]
        assert set(first.machines) != set(second.machines)

    def test_multi_cycle_diurnal_records_one_window_per_peak(self):
        from repro.scenarios import score_bundle

        bundle = generate_trace(fast_config(), scenario="diurnal(cycles=2)",
                                seed=3)
        entries = bundle.ground_truth().entries
        assert len(entries) >= 2
        horizon = float(bundle.meta["horizon_s"])
        for entry in entries:
            lo, hi = entry.window
            assert hi - lo < 0.6 * horizon  # never spans the troughs
        score_bundle(bundle)  # must not raise on calibration

    def test_failure_injectors_never_emit_negative_durations(self):
        for spec in ("cascading-failure", "machine-failure(count=3)"):
            bundle = generate_trace(fast_config(), scenario=spec, seed=3)
            assert all(inst.end_timestamp >= inst.start_timestamp
                       for inst in bundle.instances), spec

    def test_seed_changes_injected_targets(self):
        targets = [generate_trace(fast_config(), scenario="network-storm",
                                  seed=s).ground_truth().machines()
                   for s in (1, 2, 3, 4)]
        # at least one seed picks a different machine subset
        assert any(t != targets[0] for t in targets[1:])


class TestGroundTruthRoundTrip:
    def test_entry_dict_roundtrip(self):
        entry = GroundTruthEntry(kind="x", machines=("m1",), jobs=("j1",),
                                 window=(1.0, 2.0), detectors=("spike",),
                                 params={"a": 1})
        assert GroundTruthEntry.from_dict(entry.to_dict()) == entry

    def test_manifest_queries(self):
        manifest = GroundTruthManifest(entries=(
            GroundTruthEntry(kind="a", machines=("m1", "m2")),
            GroundTruthEntry(kind="b", machines=("m2",), jobs=("j1",)),
        ))
        assert manifest.kinds() == ["a", "b"]
        assert manifest.machines() == {"m1", "m2"}
        assert manifest.machines("b") == {"m2"}
        assert manifest.jobs() == {"j1"}
        assert len(manifest.of_kind("a")) == 1
