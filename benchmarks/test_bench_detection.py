"""E9 — detection effectiveness implied by the case study.

The paper argues that BatchLens lets analysts *find* the anomalous jobs and
machines that flat metric dashboards only show as colour.  This benchmark
makes that claim measurable on traces with known injected anomalies:

* machine-level recall/precision of the BatchLens analysis layer (thrashing
  detector + spike detector) vs. the static threshold-monitor baseline;
* job-level attribution: does root-cause ranking name the injected hot job /
  the terminated jobs, which the baseline cannot do at all;
* the DESIGN.md detector ablation (threshold vs. z-score vs. EWMA).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.detectors import EwmaDetector, RollingZScoreDetector, ThresholdDetector
from repro.analysis.rootcause import rank_root_causes
from repro.analysis.spikes import largest_spike
from repro.analysis.thrashing import cluster_thrashing_report
from repro.baselines.threshold_monitor import ThresholdMonitor
from repro.cluster.hierarchy import BatchHierarchy
from repro.trace.synthetic import generate_trace

from benchmarks.conftest import bench_config, report


def machine_prf(predicted: set, truth: set) -> tuple[float, float]:
    if not predicted:
        return 0.0, 0.0 if truth else 1.0
    tp = len(predicted & truth)
    return tp / len(predicted), (tp / len(truth)) if truth else 1.0


class TestThrashingDetectionQuality:
    def test_batchlens_vs_threshold_baseline_over_seeds(self, benchmark):
        def evaluate():
            rows = []
            for seed in range(3):
                bundle = generate_trace(bench_config("thrashing", seed=seed,
                                                     num_machines=48, num_jobs=40))
                truth = set(bundle.meta["thrashing"]["machines"])
                window = tuple(bundle.meta["thrashing"]["window"])

                detected = set(cluster_thrashing_report(bundle.usage))
                lens_p, lens_r = machine_prf(detected, truth)

                monitor = ThresholdMonitor(cpu_threshold=95.0, mem_threshold=95.0,
                                           disk_threshold=95.0)
                monitor.ingest(monitor.scan_pipeline(bundle.usage).run())
                base_p, base_r = machine_prf(monitor.alerted_machines(window), truth)
                rows.append((lens_p, lens_r, base_p, base_r))
            return np.asarray(rows)

        rows = benchmark.pedantic(evaluate, rounds=1, iterations=1)
        lens_p, lens_r, base_p, base_r = rows.mean(axis=0)
        report("E9: thrashing-machine detection (mean over 3 seeds)", {
            "BatchLens precision": round(float(lens_p), 2),
            "BatchLens recall": round(float(lens_r), 2),
            "threshold-baseline precision": round(float(base_p), 2),
            "threshold-baseline recall": round(float(base_r), 2),
        })
        # shape of the paper's claim: the hierarchy-aware analysis recovers the
        # injected anomaly at least as well as naive thresholding
        assert lens_r >= base_r - 0.1
        assert lens_r >= 0.5


class TestHotJobAttribution:
    def test_root_cause_names_the_hot_job(self, benchmark):
        def evaluate():
            hits = 0
            seeds = range(3)
            for seed in seeds:
                bundle = generate_trace(bench_config("hotjob", seed=100 + seed,
                                                     num_machines=48, num_jobs=40))
                hot_id = bundle.meta["hot_job_id"]
                hierarchy = BatchHierarchy.from_bundle(bundle)
                machines = bundle.machines_of_job(hot_id)
                instances = bundle.instances_of_job(hot_id)
                window = (min(i.start_timestamp for i in instances),
                          max(i.end_timestamp for i in instances))
                candidates = rank_root_causes(bundle, hierarchy, machines, window,
                                              top_n=3)
                if candidates and hot_id in {c.job_id for c in candidates}:
                    hits += 1
            return hits, len(list(seeds))

        hits, total = benchmark.pedantic(evaluate, rounds=1, iterations=1)
        report("E9: hot-job attribution", {
            "hot job in top-3 root causes": f"{hits}/{total}",
        })
        assert hits >= total - 1

    def test_spike_visible_on_hot_machines(self, benchmark, hotjob_bundle):
        hot_id = hotjob_bundle.meta["hot_job_id"]
        machines = hotjob_bundle.machines_of_job(hot_id)
        store = hotjob_bundle.usage

        def count_spiking():
            return sum(1 for m in machines
                       if largest_spike(store.series(m, "cpu"),
                                        min_prominence=10.0) is not None)

        spiking = benchmark(count_spiking)
        report("E9: hot-job spike visibility", {
            "machines with a detectable CPU spike": f"{spiking}/{len(machines)}",
        })
        assert spiking >= len(machines) // 2


class TestDetectorAblation:
    def test_threshold_vs_zscore_vs_ewma(self, benchmark, thrashing_bundle):
        """The DESIGN.md detector ablation, run per machine on the mem series."""
        truth = set(thrashing_bundle.meta["thrashing"]["machines"])
        store = thrashing_bundle.usage

        def run_all():
            results = {}
            detectors = {
                "threshold": ThresholdDetector(90.0),
                "zscore": RollingZScoreDetector(window=10, z_threshold=3.0),
                "ewma": EwmaDetector(alpha=0.3, deviation_threshold=20.0),
            }
            for name, detector in detectors.items():
                flagged = set()
                for machine_id in store.machine_ids:
                    if detector.detect(store.series(machine_id, "mem"),
                                       metric="mem", subject=machine_id):
                        flagged.add(machine_id)
                results[name] = machine_prf(flagged, truth)
            return results

        results = benchmark.pedantic(run_all, rounds=1, iterations=1)
        report("E9: detector ablation (precision, recall on mem)", {
            name: (round(p, 2), round(r, 2)) for name, (p, r) in results.items()})
        # every detector should recover at least part of the injected anomaly
        assert max(r for _, r in results.values()) >= 0.5
