#!/usr/bin/env python3
"""Quickstart: generate a trace, explore it, export a BatchLens dashboard.

Run with::

    python examples/quickstart.py [--output-dir examples/output] [--seed 7]
    python examples/quickstart.py --scenario "diurnal(amplitude=40)+network-storm"

This walks through the basic public API in under a minute:

1. generate a synthetic Alibaba-style trace — ``--scenario`` accepts the
   paper's regimes (``healthy``/``hotjob``/``thrashing``), any registered
   fault injector, or a composed spec stacking several injectors
   (``python -m repro scenarios`` lists them);
2. look at the §II-style dataset statistics;
3. classify the cluster regime at one timestamp and print the injected
   ground truth (which machines/jobs/windows are anomalous);
4. run the declarative detection pipeline (:mod:`repro.pipeline`): one
   ``Pipeline`` names its source, its detector stack (a composed spec such
   as ``"threshold+flatline"``, exactly like scenario specs) and its
   sinks, then executes every detector as one vectorized engine pass and
   scores the verdict against the injected ground truth — new detection
   work is a config change, not new glue code; the cluster-topology
   detectors (``sync_break``/``imbalance``/``sla_risk``) join the same
   spec grammar but judge the whole store at once;
5. show that the very same run is reachable from pure data via
   ``Pipeline.from_spec`` (what ``python -m repro pipeline spec.json``
   executes), and that ``"mode": "streaming"`` folds the identical
   detector stack through the incremental engine chunk by chunk — same
   events, chunk size only buys wall-clock time;
5b. make reruns free with the content-hashed result cache: a
   ``"result_cache"`` block (CLI ``--result-cache DIR``) stores each
   finished verdict in an on-disk ledger keyed by the source's content
   identity × detector spec, so an unchanged rerun restores it without
   touching the engine — and an interrupted scenario sweep resumes at
   the first uncomputed cell (``sweep_scenarios``);
6. stand the same streaming fold up as a resident service
   (:mod:`repro.serve`, CLI ``repro serve``): a tenant registered over
   JSON-HTTP and fed the trace in frame batches reaches the identical
   verdicts over the wire;
7. render the hierarchical bubble chart, a per-job line chart and the
   timeline, and assemble everything into a self-contained interactive
   HTML dashboard.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro import BatchLens, BatchLensError, TraceConfig


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output-dir", type=Path,
                        default=Path("examples/output/quickstart"),
                        help="where to write the SVG/HTML artefacts")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--scenario", default="hotjob",
                        help="registered scenario name, fault-injector name, "
                             "or composed spec such as "
                             "'diurnal(amplitude=40)+network-storm' "
                             "(see `python -m repro scenarios`)")
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    args.output_dir.mkdir(parents=True, exist_ok=True)

    print(f"Generating a synthetic trace (scenario={args.scenario}, "
          f"seed={args.seed}) ...")
    lens = BatchLens.generate(TraceConfig(seed=args.seed),
                              scenario=args.scenario)

    stats = lens.stats()
    print("\nDataset statistics (compare with §II of the paper):")
    print(f"  jobs: {stats.num_jobs}, tasks: {stats.num_tasks}, "
          f"instances: {stats.num_instances}, machines: {stats.num_machines}")
    print(f"  single-task job fraction: {stats.single_task_job_fraction:.2f} "
          f"(paper: 0.75)")
    print(f"  multi-instance task fraction: "
          f"{stats.multi_instance_task_fraction:.2f} (paper: 0.94)")

    start, end = lens.time_extent
    timestamp = (start + end) / 2
    assessment = lens.snapshot(timestamp)
    print(f"\nCluster snapshot: {assessment.summary()}")

    manifest = lens.ground_truth()
    if manifest:
        print("\nInjected ground truth (scenario engine manifest):")
        for entry in manifest:
            where = (f"{len(entry.machines)} machine(s)" if entry.machines
                     else f"{len(entry.jobs)} job(s)")
            window = ("whole trace" if entry.window is None else
                      f"t={entry.window[0]:.0f}..{entry.window[1]:.0f}s")
            print(f"  {entry.kind}: {where}, {window}; expected detector: "
                  f"{', '.join(entry.detectors)}")

    print("\nDeclarative detection pipeline (source -> detectors -> sinks; "
          "one vectorized engine pass per detector):")
    run = lens.pipeline(detectors="ewma+flatline+threshold+zscore",
                        sinks=("score",)).run()
    for detection in run.detections:
        flagged = detection.result.flagged_machines()
        print(f"  {detection.label}: {detection.result.num_events} event(s) "
              f"on {len(flagged)} machine(s)")
    if run.scores:
        print("Ground-truth scores (precision/recall per injected anomaly):")
        for scored in run.scores:
            print(f"  {scored.entry.kind}: "
                  f"precision {scored.result.precision:.2f}, "
                  f"recall {scored.result.recall:.2f}")

    # The cluster-topology detectors — the paper's cross-machine payload —
    # are opt-in parts of the same spec grammar: `sync_break` flags machines
    # decoupling from their peer group's shared utilisation rhythm (the
    # Fig. 3(b) synchronisation observation, inverted), `imbalance`
    # attributes load-balance excursions to the outlier machines driving
    # them, and `sla_risk` paints SLA-violating jobs over their execution
    # windows.  Unlike the per-machine detectors above, each sees the WHOLE
    # store in one block pass and declares itself non-shardable; a sharded
    # execution block routes them around the shard plan (they sweep the
    # full store once, in-process), so stacks mixing both kinds stay
    # bit-identical to an unsharded run on every backend × shard count.
    print("\nCluster-topology detectors (whole-store, non-shardable):")
    cluster_run = lens.pipeline(detectors="flatline+sync_break+imbalance",
                                sinks=()).run()
    for detection in cluster_run.detections:
        flagged = detection.result.flagged_machines()
        print(f"  {detection.label}: {detection.result.num_events} event(s) "
              f"on {len(flagged)} machine(s)")

    # The same run as pure data — this dict could live in a JSON file and
    # run via `python -m repro pipeline spec.json`.
    from repro import Pipeline

    spec = {
        "source": {"kind": "synthetic", "scenario": args.scenario,
                   "seed": args.seed},
        "detectors": "ewma+flatline+threshold+zscore",
        "sinks": ["score", "report"],
    }
    report = Pipeline.from_spec(spec).run().outputs["report"]
    report_path = args.output_dir / "pipeline_report.md"
    report_path.write_text(report, encoding="utf-8")
    print(f"\nSpec-driven pipeline report written to {report_path}")

    # Scaling the same run up is a config change too.  An "execution" block
    # shards the store along the machine axis into zero-copy views and
    # sweeps them on a thread (or process) pool — verdicts are bit-identical
    # to the serial pass, only the wall-clock changes.  The CLI spelling is
    # `repro detect trace/ --workers 8 --timings`.
    sharded_spec = dict(spec, sinks=[],
                        execution={"backend": "threads", "workers": 4})
    sharded = Pipeline.from_spec(sharded_spec).run()
    timings = sharded.timings
    print(f"Sharded run (threads x4): {sharded.num_events} event(s) — same "
          f"verdict, detect took {timings['detect_s'] * 1000:.1f} ms "
          f"(total {timings['total_s'] * 1000:.1f} ms)")

    # For trace directories on disk, `load_trace(dir, cache=True)` (CLI:
    # --cache; spec: {"kind": "trace-dir", "path": ..., "cache": true})
    # maintains a columnar binary sidecar under <dir>/.repro-cache keyed by
    # a content hash of the CSVs: the first load parses and warms the
    # cache, every later load skips CSV parsing entirely until a table
    # file's bytes change.  A stat ledger (size + mtime_ns, git-style)
    # makes the warm-path check itself nearly free — the CSVs are only
    # re-hashed when their stats move.

    # Out-of-core: when the dense (machines, metrics, samples) matrix is
    # bigger than RAM, add mmap=True (CLI: --mmap; spec: {"kind":
    # "trace-dir", "path": ..., "cache": true, "mmap": true}).  The warm
    # load then opens the sidecar's usage matrix via np.load(mmap_mode="r")
    # instead of reading it: nothing is resident until a detector touches
    # it, and only the touched pages ever are.  The zero-copy machine
    # shards become windows into the file, and under the process backend —
    #   repro detect trace/ --mmap --backend process --shards 8
    # — each worker reopens the sidecar by path and pages in only its own
    # rows, so no process ever holds the full matrix (benchmarks/
    # test_bench_mmap.py pins a >=2x peak-RSS gap at 4096 machines).
    # Verdicts stay bit-identical to the in-RAM run — mmap, like sharding
    # and caching, only buys memory and wall-clock.  Mmap-backed stores
    # are read-only; materialise a mutable in-RAM one with
    # MetricStore.from_dense(store.machine_ids, store.timestamps,
    # store.metrics, store.data.copy()).  `--storage float32` halves the
    # sidecar on disk (goldens pin verdict parity).

    # Reruns are free: a "result_cache" block (CLI: --result-cache DIR)
    # adds a content-hashed ledger over whole runs.  Each finished verdict
    # is stored under a key hashed from the source's content identity (a
    # trace-dir's stat-ledger fingerprint, or a synthetic scenario + seed)
    # × the canonical detector spec — execution options are deliberately
    # NOT in the key, since sharding never changes a verdict.  A repeat
    # run over unchanged inputs restores the full RunResult from disk
    # without touching the engine; change one byte of a trace CSV and the
    # key changes, so there is no invalidation logic to get wrong.
    # `run.timings["result_cache"]` says which path you got (`repro
    # detect trace/ --result-cache ledger/ --timings` prints it, and the
    # verdict header gains a "(cached)" tag on hits); `repro cache stats
    # DIR` / `repro cache prune DIR --max-bytes N` manage the ledger.
    ledger = args.output_dir / "ledger"
    cached_spec = dict(spec, sinks=["score"],
                      result_cache={"dir": str(ledger)})
    miss = Pipeline.from_spec(cached_spec).run()
    hit = Pipeline.from_spec(cached_spec).run()
    print(f"\nResult cache: first run {miss.timings['result_cache']} "
          f"({miss.timings['total_s'] * 1000:.1f} ms), rerun "
          f"{hit.timings['result_cache']} "
          f"({hit.timings['total_s'] * 1000:.1f} ms) — same verdict, "
          f"{hit.num_events} event(s)")

    # The same ledger makes scoring sweeps resumable.  sweep_scenarios
    # runs one scored pipeline per scenario × seed cell; with cache_dir
    # every finished cell is one ledger entry, so an interrupted sweep
    # (a raise from the progress callback here stands in for ctrl-C)
    # resumes with its completed prefix restored from disk and computes
    # only the cells it never reached.
    from repro.scenarios.scoring import sweep_scenarios

    sweep_grid = ["hotjob", "thrashing", "memory-thrash"]

    class _Interrupted(Exception):
        pass

    def _stop_after_one(cell):
        raise _Interrupted

    try:
        sweep_scenarios(sweep_grid, cache_dir=ledger, progress=_stop_after_one)
    except _Interrupted:
        pass
    resumed = sweep_scenarios(sweep_grid, cache_dir=ledger)
    print("Resumed sweep: " + ", ".join(
        f"{cell.scenario} ({'cached' if cell.cached else 'computed'}, "
        f"worst F1 {cell.worst_f1:.2f})" for cell in resumed))

    # Streaming (the paper's §VI real-time future work) is the same spec
    # with "mode": "streaming" — the source is folded through the online
    # monitor AND the same detector stack, incrementally.  The invariants
    # to remember:
    #   * incremental == full-window rescan: the engine carries each
    #     detector's tail context (EWMA forecast, rolling warm-up, open
    #     run-lengths) across chunk boundaries, so the events below are
    #     bit-identical to the batch run above — for ANY chunk size;
    #   * chunk size only buys wall-clock: a bigger "chunk" amortises the
    #     per-chunk overhead (and `--chunk` on `repro monitor`/`repro
    #     pipeline` does the same from the CLI); threshold alerts are
    #     chunk-invariant too, while regime/thrashing assessments run once
    #     per chunk, so a smaller chunk only tightens their latency.
    # Storage behind this is a preallocated mirrored ring buffer
    # (StreamingMetricStore), whose zero-copy `window_view()` feeds every
    # offline view and detector with live data.
    streaming_spec = dict(spec, sinks=["alerts"],
                          mode="streaming",
                          streaming={"threshold": 92.0, "chunk": 64})
    live = Pipeline.from_spec(streaming_spec).run()
    print(f"\nStreaming run (chunk=64): {live.num_events} event(s) — same "
          f"verdict as batch; alerts by kind: "
          f"{live.outputs['alerts'] or 'none'}")

    # Detection-as-a-service: the same streaming fold, resident.  `repro
    # serve` keeps one multi-tenant server process up (stdlib JSON over
    # HTTP); each tenant is its own ring buffer + incremental detector
    # states + alert log, created from a PR-3-style spec dict.  The wire
    # is pure transport: frames POSTed in any batching produce verdicts
    # bit-identical to the local streaming run above (tests/
    # test_serve_golden.py pins this per detector × scenario × batch
    # size), and ?cursor=N&wait=S long-polls resume from monotonic alert
    # seq ids without re-delivery.  On-demand /detect sweeps are cached
    # too, keyed on the request × the tenant's window version (its
    # incarnation and ring append count) — a repeat sweep over an
    # unchanged window never copies the ring or reaches the executor
    # (size via --detect-cache-size; any ingest moves the version).  In production you would run `repro serve --port 8377` and
    # point ServeClient at it; here the server lives in-process on an
    # ephemeral port.
    from repro.serve import DetectionServer, ServeClient

    with DetectionServer(port=0) as server:
        with ServeClient(server.host, server.port) as client:
            client.create_tenant({"id": "quickstart",
                                  "machines": lens.store.machine_ids,
                                  "detectors": spec["detectors"],
                                  "streaming": {"threshold": 92.0}})
            client.stream_store("quickstart", lens.store, batch_size=64)
            summary = client.summary("quickstart")
            print(f"\nServed tenant 'quickstart': "
                  f"{summary['num_samples']} sample(s) over "
                  f"{summary['machines']} machine(s), "
                  f"{summary['num_alerts']} alert(s), "
                  f"{summary['num_events']} event(s) — same verdicts as "
                  f"the local streaming run, over HTTP")
            swept = client.detect("quickstart")
            again = client.detect("quickstart")
            print(f"On-demand /detect: {len(swept['detections'])} "
                  f"detector(s) swept cold (cached={swept['cached']}); the "
                  f"repeat over the unchanged window is a cache hit "
                  f"(cached={again['cached']}), no executor round-trip")

    # Crash and restart: give the server a --state-dir and tenants become
    # durable.  Every ingested batch is journaled (WAL) before it is
    # applied and the live pipeline state is snapshotted periodically, so
    # a server that dies mid-stream — `kill -9`, power loss, anything —
    # recovers every tenant bit-identical on restart: same alert seq ids,
    # same events, same detector states.  Snapshots fire on a sample
    # cadence (--snapshot-every) or as soon as the journal outgrows a
    # byte budget (--snapshot-bytes), whichever comes first, so replay
    # time stays bounded however lopsided the ingest batching is.  The client side is two calls:
    # ask the recovered tenant how many samples it durably holds, then
    # re-feed only the remainder (`resume_stream_store`).  In production:
    #   repro serve --port 8377 --state-dir /var/lib/repro   # run 1
    #   ... server crashes mid-ingest ...
    #   repro serve --port 8377 --state-dir /var/lib/repro   # run 2:
    #   "recovered 1 tenant(s)" — clients just resume.
    # Here the "crash" is simply abandoning the first server process.
    import tempfile

    with tempfile.TemporaryDirectory() as state_dir:
        half = len(lens.store.timestamps) // 128 * 64   # a batch boundary
        with DetectionServer(port=0, state_dir=state_dir) as server:
            with ServeClient(server.host, server.port) as client:
                client.create_tenant({"id": "durable",
                                      "machines": lens.store.machine_ids,
                                      "detectors": spec["detectors"],
                                      "streaming": {"threshold": 92.0}})
                client.stream_store("durable",
                                    lens.store.sample_slice(0, half),
                                    batch_size=64)
        # The first server is gone; the journal and snapshot are not.
        with DetectionServer(port=0, state_dir=state_dir) as server:
            with ServeClient(server.host, server.port) as client:
                client.resume_stream_store("durable", lens.store,
                                           batch_size=64)
                recovered = client.summary("durable")
                print(f"Durable tenant across a restart: "
                      f"{recovered['num_samples']} sample(s), "
                      f"{recovered['num_alerts']} alert(s) — identical to "
                      f"the never-crashed run ({summary['num_alerts']} "
                      f"alert(s) on tenant 'quickstart')")

    jobs = lens.active_jobs(timestamp)
    print(f"\n{len(jobs)} job(s) active at t={timestamp:.0f}s; the busiest:")
    for row in jobs[:5]:
        print(f"  {row['job_id']}: {row['num_tasks']} task(s) on "
              f"{row['num_machines']} node(s), mean CPU {row['mean_cpu']:.0f}%")

    print("\nRendering charts ...")
    bubble_path = lens.bubble_chart(timestamp, max_jobs=15).save(
        args.output_dir / "bubble_chart.svg")
    busiest_job = jobs[0]["job_id"]
    lines_path = lens.job_lines(busiest_job, metric="cpu").save(
        args.output_dir / f"{busiest_job}_cpu.svg")
    timeline_path = lens.timeline(selected_timestamp=timestamp).save(
        args.output_dir / "timeline.svg")

    dashboard_path = lens.save_dashboard(timestamp,
                                         args.output_dir / "batchlens.html")

    print("Artefacts written:")
    for path in (bubble_path, lines_path, timeline_path, dashboard_path):
        print(f"  {path}")
    print("\nOpen the HTML file in a browser: hover a node to highlight the "
          "same machine in every panel, click a job bubble to jump to its "
          "line charts.")


if __name__ == "__main__":
    try:
        main()
    except BatchLensError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)
