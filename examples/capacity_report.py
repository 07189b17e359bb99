#!/usr/bin/env python3
"""Capacity report: BatchLens views vs. the baseline tooling, side by side.

Run with::

    python examples/capacity_report.py [--scenario hotjob] [--seed 11]

The paper's motivation is that existing monitoring (flat per-machine
dashboards, threshold alerts, raw tables) shows *that* machines are busy but
not *which batch jobs* make them busy.  This example produces, from the same
trace:

* the plain-text tabular report (busiest machines, largest/longest jobs);
* the threshold monitor's alert list;
* the flat Grafana-style dashboard (heat maps + cluster averages);
* the BatchLens dashboard with the batch hierarchy and linked views;

and then prints what the baselines *cannot* answer — the per-job attribution
that the BatchLens analysis layer provides.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro import BatchLens, TraceConfig
from repro.analysis.rootcause import rank_root_causes
from repro.baselines.flat_dashboard import FlatDashboard
from repro.baselines.tabular import TabularReport
from repro.baselines.threshold_monitor import ThresholdMonitor


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", default="hotjob",
                        choices=["healthy", "hotjob", "thrashing"])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--output-dir", type=Path,
                        default=Path("examples/output/capacity_report"))
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    args.output_dir.mkdir(parents=True, exist_ok=True)

    lens = BatchLens.generate(TraceConfig(scenario=args.scenario, seed=args.seed))
    bundle = lens.bundle
    start, end = lens.time_extent
    timestamp = (start + end) / 2

    print("=" * 72)
    print("Baseline 1: raw tabular report")
    print("=" * 72)
    print(TabularReport(bundle, top_n=8).report(timestamp))

    print("\n" + "=" * 72)
    print("Baseline 2: threshold monitor (90 % static thresholds)")
    print("=" * 72)
    monitor = ThresholdMonitor()
    alerts = monitor.ingest(monitor.scan_pipeline(bundle.usage).run())
    print(f"{len(alerts)} alert(s) on {len(monitor.alerted_machines())} machine(s)")
    for alert in alerts[:10]:
        print(f"  {alert.machine_id} {alert.metric} >= threshold from "
              f"t={alert.start:.0f}s to t={alert.end:.0f}s (peak {alert.peak:.0f}%)")
    if len(alerts) > 10:
        print(f"  ... and {len(alerts) - 10} more")

    print("\nWriting dashboards ...")
    flat_path = FlatDashboard.from_bundle(bundle).save(
        args.output_dir / "flat_dashboard.html")
    lens_path = lens.save_dashboard(timestamp, args.output_dir / "batchlens.html")
    print(f"  flat baseline: {flat_path}")
    print(f"  BatchLens:     {lens_path}")

    print("\n" + "=" * 72)
    print("What the baselines cannot answer: which job is responsible?")
    print("=" * 72)
    alerted = sorted(monitor.alerted_machines())
    if not alerted:
        print("No machine crossed the alert threshold in this trace; "
              "try --scenario thrashing.")
        return
    candidates = rank_root_causes(bundle, lens.hierarchy, alerted, (start, end))
    hot_job_id = bundle.meta.get("hot_job_id")
    for candidate in candidates:
        marker = "  <-- injected hot job" if candidate.job_id == hot_job_id else ""
        print("  " + candidate.explain() + marker)


if __name__ == "__main__":
    main()
