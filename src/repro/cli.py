"""Command-line interface.

The CLI wraps the most common workflows so a trace can be explored without
writing Python::

    python -m repro generate --scenario hotjob --output-dir trace/
    python -m repro validate trace/
    python -m repro stats trace/
    python -m repro dashboard trace/ --timestamp 9000 --output batchlens.html
    python -m repro report trace/ --timestamp 9000
    python -m repro figures trace/ --job job_1042 --output-dir figs/
    python -m repro scenarios
    python -m repro detect --synthetic --scenario "memory-thrash+network-storm"
    python -m repro detect --synthetic --scenario hotjob --json
    python -m repro detect trace/ --detectors "threshold(threshold=85)+flatline"
    python -m repro detect trace/ --workers 8 --timings --cache
    python -m repro detect trace/ --mmap --backend process --shards 8
    python -m repro detect trace/ --result-cache results/ --timings
    python -m repro cache stats results/
    python -m repro cache prune results/ --max-bytes 50000000
    python -m repro monitor --synthetic --scenario thrashing
    python -m repro monitor --synthetic --scenario "diurnal+network-storm"
    python -m repro monitor --synthetic --scenario thrashing --chunk 256
    python -m repro compare --synthetic --scenario thrashing
    python -m repro pipeline spec.json
    python -m repro serve --host 127.0.0.1 --port 8377 --backend threads
    python -m repro sla trace/
    python -m repro experiments --seed 2022 --output EXPERIMENTS_generated.md

Every sub-command accepts either a directory of Alibaba-format CSVs or
``--synthetic`` to generate a trace on the fly.  The detection
sub-commands (``detect``, ``monitor``, ``compare``) are thin adapters over
the declarative pipeline (:mod:`repro.pipeline`); ``pipeline`` runs a full
spec — a JSON file or inline JSON — end to end.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.sla import SlaPolicy, cluster_sla_report, summarize_sla
from repro.app.batchlens import BatchLens
from repro.app.export import case_study_narrative, export_job_figures
from repro.config import TraceConfig, paper_scale_config
from repro.errors import BatchLensError
from repro.report.comparison import comparison_to_dict
from repro.report.experiments import render_experiments, run_experiment_suite
from repro.trace.loader import load_trace
from repro.trace.records import TraceBundle
from repro.trace.synthetic import generate_trace
from repro.trace.validate import validate_bundle
from repro.trace.writer import write_trace


def _add_trace_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("trace_dir", nargs="?", default=None,
                        help="directory holding the Alibaba-format CSV tables")
    parser.add_argument("--synthetic", action="store_true",
                        help="generate a synthetic trace instead of loading one")
    parser.add_argument("--scenario", default="hotjob",
                        help="scenario for --synthetic: a registered name or a "
                             "composed spec such as 'diurnal+network-storm' "
                             "(see `repro scenarios`; default: hotjob)")
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--paper-scale", action="store_true",
                        help="synthetic trace at 1300 machines / 24 h")
    parser.add_argument("--cache", action="store_true",
                        help="maintain the columnar binary sidecar cache of "
                             "the trace directory (repeat loads skip CSV "
                             "parsing; invalidated by content hash)")
    parser.add_argument("--mmap", action="store_true",
                        help="open the cached dense usage matrix "
                             "memory-mapped: read-only windows into the "
                             "sidecar file instead of RAM, so peak RSS "
                             "stays bounded on clusters bigger than memory "
                             "(implies --cache)")
    parser.add_argument("--storage", choices=("float64", "float32"),
                        default="float64",
                        help="dtype the sidecar cache stores the dense "
                             "usage matrix in; float32 halves the file and "
                             "page-cache footprint (implies --cache)")


def _resolve_bundle(args: argparse.Namespace) -> TraceBundle:
    if args.trace_dir and not args.synthetic:
        mmap = getattr(args, "mmap", False)
        storage = getattr(args, "storage", "float64")
        cache = (getattr(args, "cache", False) or mmap
                 or storage != "float64")
        return load_trace(args.trace_dir, cache=cache, mmap=mmap,
                          storage=storage)
    if args.paper_scale:
        config = paper_scale_config(scenario=args.scenario, seed=args.seed)
    else:
        config = TraceConfig(scenario=args.scenario, seed=args.seed)
    return generate_trace(config)


def _source_spec_from_args(args: argparse.Namespace):
    """The declarative :class:`~repro.pipeline.SourceSpec` of the CLI flags.

    Unlike :func:`_resolve_bundle` this does not load or generate anything:
    the pipeline resolves the source itself, which lets a result-cache hit
    skip the load entirely.
    """
    from repro.pipeline import SourceSpec

    if args.trace_dir and not args.synthetic:
        mmap = getattr(args, "mmap", False)
        storage = getattr(args, "storage", "float64")
        cache = (getattr(args, "cache", False) or mmap
                 or storage != "float64")
        return SourceSpec(kind="trace-dir", path=str(args.trace_dir),
                          cache=cache, mmap=mmap, storage=storage)
    return SourceSpec(kind="synthetic", scenario=args.scenario,
                      seed=args.seed, paper_scale=args.paper_scale)


def _result_cache_from_args(args: argparse.Namespace):
    """ResultCacheOptions for ``--result-cache DIR``, or None."""
    from repro.pipeline import ResultCacheOptions

    if getattr(args, "result_cache", None) is None:
        return None
    return ResultCacheOptions(dir=str(args.result_cache))


def _add_execution_flags(parser: argparse.ArgumentParser) -> None:
    """Sharded-execution knobs shared by `detect` and `pipeline`."""
    parser.add_argument("--backend", default=None,
                        choices=["serial", "threads", "process"],
                        help="execution backend for the detector sweeps "
                             "(default: serial; threads/process shard the "
                             "store along the machine axis)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker count for a parallel backend (default: "
                             "one per core; implies --backend threads when "
                             "no backend is given)")
    parser.add_argument("--shards", type=int, default=None,
                        help="machine shards per sweep (default: the worker "
                             "count)")
    parser.add_argument("--timings", action="store_true",
                        help="print the run's source/detect/sinks/total "
                             "wall-clock timings (and the result-cache "
                             "state when one is configured)")
    parser.add_argument("--result-cache", type=Path, default=None,
                        help="content-hashed run-result cache directory: a "
                             "rerun over an unchanged trace with the same "
                             "detectors restores the stored result instead "
                             "of sweeping the engine (see `repro cache`)")


def _execution_from_args(args: argparse.Namespace, base=None):
    """ExecutionOptions from CLI flags, or None when all flags defaulted.

    With ``base`` (a spec's execution block), each given flag overrides
    its field and ungiven flags keep the spec's choice — ``--shards 4``
    must not silently swap a configured process pool for threads, and a
    spec that explicitly pins ``"backend": "serial"`` keeps it.  Without a
    base, the flags stand alone (``--workers``/``--shards`` without
    ``--backend`` resolve to the threads backend, ExecutionOptions' own
    defaulting — as does a base whose backend was itself only implied).
    """
    from repro.pipeline import ExecutionOptions

    if args.backend is None and args.workers is None and args.shards is None:
        return None
    if base is None or (base == ExecutionOptions()
                        and not base.explicit_backend):
        return ExecutionOptions(backend=args.backend, shards=args.shards,
                                workers=args.workers)
    backend = args.backend
    if backend is None and base.explicit_backend:
        backend = base.backend
    return ExecutionOptions(
        backend=backend,
        shards=args.shards if args.shards is not None else base.shards,
        workers=args.workers if args.workers is not None else base.workers)


def _print_timings(result) -> None:
    """One-line `--timings` rendering of RunResult.timings."""
    order = ("source_s", "detect_s", "sinks_s", "cache_s", "total_s")
    parts = [f"{name[:-2]} {result.timings[name] * 1000:.1f} ms"
             for name in order if name in result.timings]
    state = result.timings.get("result_cache")
    if state is not None:
        parts.append(f"result_cache {state}")
    print("timings: " + ", ".join(parts))


def _default_timestamp(bundle: TraceBundle, timestamp: float | None) -> float:
    if timestamp is not None:
        return timestamp
    start, end = bundle.time_range()
    return (start + end) / 2


# -- sub-commands -------------------------------------------------------------------
def cmd_generate(args: argparse.Namespace) -> int:
    if args.paper_scale:
        config = paper_scale_config(scenario=args.scenario, seed=args.seed)
    else:
        config = TraceConfig(scenario=args.scenario, seed=args.seed)
    bundle = generate_trace(config)
    written = write_trace(bundle, args.output_dir, compress=args.compress)
    print(f"scenario={args.scenario} seed={args.seed}")
    for table, rows in written.items():
        print(f"  {table}: {rows} rows")
    print(f"trace written to {args.output_dir}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    bundle = _resolve_bundle(args)
    report = validate_bundle(bundle)
    for warning in report.warnings:
        print(f"WARNING: {warning}")
    for error in report.errors:
        print(f"ERROR: {error}")
    print(f"{len(report.errors)} error(s), {len(report.warnings)} warning(s)")
    return 0 if report.ok else 1


def cmd_stats(args: argparse.Namespace) -> int:
    bundle = _resolve_bundle(args)
    lens = BatchLens.from_bundle(bundle)
    stats = lens.stats()
    start, end = lens.time_extent
    print(f"time extent: {start:.0f}s .. {end:.0f}s "
          f"({(end - start) / 3600:.1f} h)")
    for key, value in stats.as_dict().items():
        if isinstance(value, float):
            print(f"  {key}: {value:.3f}")
        else:
            print(f"  {key}: {value}")
    return 0


def cmd_dashboard(args: argparse.Namespace) -> int:
    bundle = _resolve_bundle(args)
    lens = BatchLens.from_bundle(bundle)
    timestamp = _default_timestamp(bundle, args.timestamp)
    path = lens.save_dashboard(timestamp, args.output,
                               max_jobs=args.max_jobs,
                               max_line_panels=args.max_line_panels)
    print(f"dashboard for t={timestamp:.0f}s written to {path}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    bundle = _resolve_bundle(args)
    timestamp = _default_timestamp(bundle, args.timestamp)
    print(case_study_narrative(bundle, timestamp))
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    bundle = _resolve_bundle(args)
    job_id = args.job
    if job_id is None:
        counts: dict[str, int] = {}
        for inst in bundle.instances:
            counts[inst.job_id] = counts.get(inst.job_id, 0) + 1
        job_id = max(counts, key=counts.get)
        print(f"no --job given; using the largest job {job_id}")
    for path in export_job_figures(bundle, job_id, args.output_dir):
        print(f"  {path}")
    return 0


def cmd_monitor(args: argparse.Namespace) -> int:
    """Replay a trace through the online monitor (the §VI real-time extension).

    A thin adapter over a streaming-mode :class:`~repro.pipeline.Pipeline`
    with sample cadence — alert-for-alert identical to the pre-pipeline
    replay loop.  With ``--chunk N`` the trace is instead folded through
    the incremental engine ``N`` samples at a time (threshold alerts are
    identical to the sample cadence; regime/thrashing are assessed once
    per chunk).
    """
    from repro.pipeline import Pipeline, StreamingOptions

    # Options before the source: a bad --threshold or --window-samples
    # fails before the trace is loaded or generated.
    streaming = StreamingOptions(
        threshold=args.threshold, window_samples=args.window_samples,
        cadence="sample" if args.chunk is None else "catch-up",
        chunk=args.chunk)
    result = Pipeline.from_bundle(_resolve_bundle(args), mode="streaming",
                                  plans=(), sinks=(),
                                  streaming=streaming).run()
    if args.chunk is not None:
        print(f"folded {result.num_samples} samples through the incremental "
              f"monitor ({args.chunk} per chunk)")
        monitor = result.monitor
        regime = monitor.current_regime if monitor is not None else None
        print(f"final regime: {regime.value if regime is not None else None}")
        counts = result.alerts_by_kind()
        if counts:
            print("alerts by kind:")
            for kind, count in sorted(counts.items()):
                print(f"  {kind}: {count}")
        else:
            print("no alerts raised")
        return 0
    report, manager = result.replay, result.alert_manager
    if report is None:
        print("trace carries no samples to replay")
        return 0
    print(f"replayed {report.samples_replayed} samples "
          f"({report.duration_s / 3600:.1f} h of trace time)")
    print(f"final regime: {report.final_regime}; "
          f"mean CPU {report.mean_cpu:.0f}%, p95 CPU {report.p95_cpu:.0f}%")
    if report.alerts_by_kind:
        print("alerts by kind:")
        for kind, count in sorted(report.alerts_by_kind.items()):
            print(f"  {kind}: {count}")
    else:
        print("no alerts raised")
    lines = manager.summary_lines(limit=args.max_alerts)
    if lines:
        print(f"most urgent pending alerts (top {len(lines)}):")
        for line in lines:
            print(f"  {line}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Compare BatchLens detection quality against the threshold baseline.

    A thin adapter over a :class:`~repro.pipeline.Pipeline` whose
    ``comparison`` sink produces the report; ``--json`` emits the
    machine-readable form for CI.  ``--result-cache`` is accepted for
    flag symmetry with ``detect``/``pipeline``, but a plans-built
    pipeline carries no detector spec so comparison runs always bypass
    the cache (the comparison itself re-sweeps inside its sink).
    """
    from repro.pipeline import Pipeline

    result = Pipeline(
        _source_spec_from_args(args), plans=(),
        sinks=({"kind": "comparison", "threshold": args.threshold},),
        result_cache=_result_cache_from_args(args)).run()
    comparison = result.outputs["comparison"]
    text = (json.dumps(comparison_to_dict(comparison), indent=2) if args.json
            else result.outputs["comparison_markdown"])
    if args.output is not None:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"comparison written to {args.output}")
    else:
        print(text)
    return 0


def cmd_sla(args: argparse.Namespace) -> int:
    """Evaluate every job of a trace against the SLA policy."""
    bundle = _resolve_bundle(args)
    policy = SlaPolicy(max_runtime_stretch=args.max_stretch,
                       saturation_level=args.saturation_level)
    reports = cluster_sla_report(bundle, policy=policy)
    summary = summarize_sla(reports)
    print(f"{summary.violated_jobs}/{summary.total_jobs} job(s) in violation "
          f"({summary.violation_rate * 100:.0f}%)")
    for kind, count in sorted(summary.violations_by_kind.items()):
        print(f"  {kind}: {count} job(s)")
    violated = [r for r in reports.values() if r.violated]
    for job_report in sorted(violated, key=lambda r: r.job_id)[:args.max_jobs]:
        reasons = "; ".join(v.detail for v in job_report.violations)
        print(f"  {job_report.job_id}: {reasons}")
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    """Sweep the cluster with the detection engine and score the manifest.

    A thin adapter over a batch :class:`~repro.pipeline.Pipeline`: every
    detector of ``--detectors`` (default: the per-machine stack
    ``ewma+flatline+threshold+zscore``) judges every machine in one
    vectorized array pass, and when the trace carries a ground-truth
    manifest the ``score`` sink turns every entry into a precision/recall
    row.  The cluster-topology detectors (``sync_break``, ``imbalance``,
    ``sla_risk``) are opt-in via the spec — they sweep the whole store at
    once and are routed around any ``--backend``/``--shards`` plan, so
    mixed stacks still match an unsharded run bit for bit.  ``--json``
    emits the machine-readable run summary instead of the pretty-printed
    tables.  With ``--result-cache DIR`` a rerun over an unchanged trace
    restores the stored result without loading the trace or sweeping the
    engine (the summary line notes ``(cached)``).
    """
    from repro.pipeline import Pipeline

    source = _source_spec_from_args(args)
    run = Pipeline(source, detectors=args.detectors,
                   metrics=(args.metric,),
                   sinks=({"kind": "score"},),
                   execution=_execution_from_args(args),
                   result_cache=_result_cache_from_args(args)).run()
    if run.empty:
        raise BatchLensError("trace carries no server-usage data to sweep")
    cached = run.timings.get("result_cache") == "hit"
    if args.json:
        payload = run.to_dict()
        payload["scenario"] = (str(args.scenario)
                               if source.kind == "synthetic" else "unknown")
        print(json.dumps(payload, indent=2))
        return 0
    print(f"engine sweep on {args.metric!r}: {len(run.machine_ids)} "
          f"machine(s), {run.num_samples} sample(s)"
          + (" (cached)" if cached else ""))
    if args.timings:
        _print_timings(run)
    for detection in run.detections:
        flagged = detection.result.flagged_machines()
        print(f"  {detection.label}: {detection.result.num_events} event(s) on "
              f"{len(flagged)} machine(s)")

    scored = run.scores
    if not scored:
        print("\nno ground-truth manifest to score (generate with --synthetic "
              "and a composed --scenario)")
        return 0
    print("\nper-detector precision/recall vs. injected ground truth:")
    header = (f"  {'anomaly':<20} {'detector':<20} {'prec':>6} {'recall':>6} "
              f"{'f1':>6} {'tp':>4} {'fp':>4} {'fn':>4}")
    print(header)
    print("  " + "-" * (len(header) - 2))
    worst_f1 = 1.0
    for entry in scored:
        result = entry.result
        worst_f1 = min(worst_f1, result.f1)
        print(f"  {entry.entry.kind:<20} {entry.detector:<20} "
              f"{result.precision:>6.2f} {result.recall:>6.2f} "
              f"{result.f1:>6.2f} {result.true_positives:>4} "
              f"{result.false_positives:>4} {result.false_negatives:>4}")
    print(f"\n{len(scored)} entr{'y' if len(scored) == 1 else 'ies'} scored; "
          f"worst F1 {worst_f1:.2f}")
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    """Run a full declarative pipeline spec end to end.

    ``spec`` is a path to a JSON spec file, inline JSON, or a shorthand
    (an existing trace directory, or a scenario spec for a synthetic
    source).  Prints the Markdown run report, or the JSON summary with
    ``--json``.
    """
    from repro.pipeline import Pipeline
    from repro.report.pipeline import render_run_markdown

    text = args.spec
    path = Path(text)
    if path.is_file():
        text = path.read_text(encoding="utf-8")
    pipeline = Pipeline.from_spec(text)
    execution = _execution_from_args(args, base=pipeline.execution)
    if execution is not None:
        from repro.errors import PipelineError

        if pipeline.mode == "streaming":
            raise PipelineError(
                "--backend/--workers/--shards apply to batch pipelines "
                "only; this spec runs in streaming mode")
        pipeline.execution = execution
    if args.chunk is not None:
        from dataclasses import replace

        from repro.errors import PipelineError

        if pipeline.mode != "streaming":
            raise PipelineError(
                "--chunk applies to streaming pipelines only; this spec "
                "runs in batch mode")
        pipeline.streaming = replace(pipeline.streaming, chunk=args.chunk)
    override = _result_cache_from_args(args)
    if override is not None:
        pipeline.result_cache = override
    result = pipeline.run()
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    elif "report" in result.outputs:
        print(result.outputs["report"])
    else:
        print(render_run_markdown(result))
    if args.timings and not args.json:
        _print_timings(result)
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or prune a run-result cache directory.

    ``stats`` prints the entry count and byte total; ``prune --max-bytes N``
    evicts least-recently-used entries (hits refresh recency) until the
    ledger fits the budget.
    """
    from repro.pipeline import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.cache_command == "prune":
        stats = cache.prune(args.max_bytes)
        print(f"evicted {stats['evicted']} entr"
              f"{'y' if stats['evicted'] == 1 else 'ies'}; "
              f"{stats['entries']} left ({stats['bytes']} bytes)")
        return 0
    stats = cache.stats()
    print(f"{stats['entries']} entr{'y' if stats['entries'] == 1 else 'ies'}, "
          f"{stats['bytes']} bytes in {args.cache_dir}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the resident multi-tenant detection service until signalled.

    Binds immediately (``--port 0`` picks an ephemeral port, printed on
    the ``serving on`` line), then blocks until SIGTERM or SIGINT.  Either
    signal drains gracefully: tenants close (waking long-poll
    subscribers), in-flight requests finish, the shared worker pool joins
    every worker — no leaked processes — and the command exits 0.
    """
    import signal
    import threading

    from repro.serve import DetectionServer
    from repro.serve.persist import DEFAULT_SNAPSHOT_EVERY
    from repro.serve.server import DEFAULT_DETECT_CACHE_SIZE

    snapshot_every = (DEFAULT_SNAPSHOT_EVERY if args.snapshot_every is None
                      else args.snapshot_every)
    detect_cache_size = (DEFAULT_DETECT_CACHE_SIZE
                         if args.detect_cache_size is None
                         else args.detect_cache_size)
    server = DetectionServer(args.host, args.port, backend=args.backend,
                             workers=args.workers,
                             max_tenants=args.max_tenants,
                             state_dir=args.state_dir, fsync=args.fsync,
                             snapshot_every=snapshot_every,
                             snapshot_bytes=args.snapshot_bytes,
                             detect_timeout_s=args.detect_timeout,
                             detect_cache_size=detect_cache_size)
    stop = threading.Event()
    previous = {}

    def _on_signal(signum, frame):  # noqa: ARG001 - signal signature
        stop.set()

    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, _on_signal)
    try:
        server.start()
        if args.state_dir is not None:
            print(f"recovered {len(server.recovered)} tenant(s) from "
                  f"{args.state_dir}", flush=True)
            if server.registry.skipped:
                print(f"skipped unrecoverable tenant(s): "
                      f"{', '.join(server.registry.skipped)}", flush=True)
        print(f"serving on {server.host}:{server.port} "
              f"(backend={args.backend}, max_tenants={args.max_tenants})",
              flush=True)
        stop.wait()
        print("draining...", flush=True)
        server.close()
        print("shutdown complete", flush=True)
    finally:
        server.close()
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return 0


def cmd_scenarios(args: argparse.Namespace) -> int:
    """List registered scenarios, fault injectors and composition syntax."""
    from repro.scenarios import SCENARIO_ALIASES, list_injectors

    print("scenario aliases (paper case-study regimes):")
    for name in sorted(SCENARIO_ALIASES):
        scenario = SCENARIO_ALIASES[name]
        print(f"  {name}: {scenario.description}")
    print("\nregistered fault injectors (composable with '+'):")
    for info in list_injectors():
        extra = ""
        if info.detectors:
            extra = f" [detector: {', '.join(info.detectors)}]"
        print(f"  {info.name}: {info.summary}{extra}")
    print("\ncompose injectors into one scenario, with optional parameters:")
    print("  --scenario 'diurnal(amplitude=40)+network-storm'")
    print("  --scenario 'background(cpu_offset=35)+maintenance-drain'")

    from repro.pipeline import list_detectors, sink_names

    print("\nregistered detectors (composable with '+', see `repro detect "
          "--detectors`):")
    for info in list_detectors():
        marker = "" if info.in_default else " [cluster detector, opt-in]"
        print(f"  {info.name}: {info.summary}{marker}")
    print("\nregistered pipeline sinks (for `repro pipeline` specs):")
    print(f"  {', '.join(sink_names())}")
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    """Run the paper-claim vs. measured experiment suite."""
    records = run_experiment_suite(paper_scale=args.paper_scale, seed=args.seed)
    markdown = render_experiments(records)
    if args.output is not None:
        Path(args.output).write_text(markdown, encoding="utf-8")
        print(f"experiment report written to {args.output}")
    else:
        print(markdown)
    mismatches = sum(1 for record in records if not record.matches)
    print(f"{len(records) - mismatches}/{len(records)} claims hold")
    return 0 if mismatches == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BatchLens: visual analytics for batch jobs in cloud systems")
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="write a synthetic trace to CSVs")
    generate.add_argument("--output-dir", type=Path, required=True)
    generate.add_argument("--scenario", default="hotjob",
                          help="registered scenario name or composed spec "
                               "(see `repro scenarios`)")
    generate.add_argument("--seed", type=int, default=2022)
    generate.add_argument("--paper-scale", action="store_true")
    generate.add_argument("--compress", action="store_true",
                          help="gzip the CSV tables")
    generate.set_defaults(func=cmd_generate)

    validate = sub.add_parser("validate", help="check a trace against the schema "
                                               "and structural invariants")
    _add_trace_source(validate)
    validate.set_defaults(func=cmd_validate)

    stats = sub.add_parser("stats", help="print dataset statistics (paper §II)")
    _add_trace_source(stats)
    stats.set_defaults(func=cmd_stats)

    dashboard = sub.add_parser("dashboard", help="export the linked-view dashboard")
    _add_trace_source(dashboard)
    dashboard.add_argument("--timestamp", type=float, default=None)
    dashboard.add_argument("--output", type=Path, default=Path("batchlens.html"))
    dashboard.add_argument("--max-jobs", type=int, default=18)
    dashboard.add_argument("--max-line-panels", type=int, default=4)
    dashboard.set_defaults(func=cmd_dashboard)

    report = sub.add_parser("report", help="print the case-study narrative")
    _add_trace_source(report)
    report.add_argument("--timestamp", type=float, default=None)
    report.set_defaults(func=cmd_report)

    figures = sub.add_parser("figures", help="export Fig. 2-style charts for a job")
    _add_trace_source(figures)
    figures.add_argument("--job", default=None)
    figures.add_argument("--output-dir", type=Path, default=Path("figures"))
    figures.set_defaults(func=cmd_figures)

    monitor = sub.add_parser("monitor", help="replay a trace through the online "
                                             "monitor (real-time extension)")
    _add_trace_source(monitor)
    monitor.add_argument("--threshold", type=float, default=92.0,
                         help="utilisation alert threshold in percent")
    monitor.add_argument("--window-samples", type=int, default=128)
    monitor.add_argument("--max-alerts", type=int, default=10,
                         help="how many pending alerts to print")
    monitor.add_argument("--chunk", type=int, default=None,
                         help="fold the trace through the incremental "
                              "engine this many samples at a time instead "
                              "of replaying sample by sample")
    monitor.set_defaults(func=cmd_monitor)

    compare = sub.add_parser("compare", help="BatchLens vs. baseline detection "
                                             "quality on one trace")
    _add_trace_source(compare)
    compare.add_argument("--threshold", type=float, default=95.0,
                         help="baseline alert threshold in percent")
    compare.add_argument("--output", type=Path, default=None,
                         help="write the Markdown report here instead of stdout")
    compare.add_argument("--json", action="store_true",
                         help="emit the machine-readable comparison for CI")
    compare.add_argument("--result-cache", type=Path, default=None,
                         help="accepted for symmetry with detect/pipeline; "
                              "comparison runs carry no detector spec and "
                              "always bypass the result cache")
    compare.set_defaults(func=cmd_compare)

    sla = sub.add_parser("sla", help="evaluate every job against the SLA policy")
    _add_trace_source(sla)
    sla.add_argument("--max-stretch", type=float, default=2.0,
                     help="allowed instance-runtime stretch over the task median")
    sla.add_argument("--saturation-level", type=float, default=90.0)
    sla.add_argument("--max-jobs", type=int, default=10,
                     help="how many violated jobs to list")
    sla.set_defaults(func=cmd_sla)

    detect = sub.add_parser(
        "detect", help="vectorized cluster-wide detection sweep and "
                       "ground-truth precision/recall table")
    _add_trace_source(detect)
    detect.add_argument("--metric", default="cpu",
                        help="metric the engine sweep judges (default: cpu)")
    detect.add_argument("--detectors", default=None,
                        help="composed detector spec such as "
                             "'threshold(threshold=85)+flatline' or "
                             "'flatline+sync_break+imbalance' "
                             "(default: every default-stack detector; "
                             "cluster detectors are opt-in)")
    detect.add_argument("--json", action="store_true",
                        help="emit the machine-readable run summary for CI")
    _add_execution_flags(detect)
    detect.set_defaults(func=cmd_detect)

    pipeline = sub.add_parser(
        "pipeline", help="run a declarative pipeline spec "
                         "(JSON file, inline JSON, or shorthand) end to end")
    pipeline.add_argument("spec",
                          help="path to a JSON spec file, inline JSON, an "
                               "existing trace directory, or a scenario spec "
                               "for a synthetic source")
    pipeline.add_argument("--json", action="store_true",
                          help="emit the machine-readable run summary for CI")
    pipeline.add_argument("--chunk", type=int, default=None,
                          help="streaming mode: feed the monitor and "
                               "detector streams this many samples at a "
                               "time through the incremental engine")
    _add_execution_flags(pipeline)
    pipeline.set_defaults(func=cmd_pipeline)

    serve = sub.add_parser(
        "serve", help="run the resident multi-tenant detection service "
                      "(JSON over HTTP; SIGTERM/SIGINT drain gracefully)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8377,
                       help="listen port; 0 picks an ephemeral port "
                            "(printed on startup)")
    serve.add_argument("--backend", default="threads",
                       choices=["serial", "threads", "process"],
                       help="shared worker-pool backend for batch /detect "
                            "requests (default: threads)")
    serve.add_argument("--workers", type=int, default=None,
                       help="worker count for the shared pool (default: one "
                            "per core)")
    serve.add_argument("--max-tenants", type=int, default=64,
                       help="tenant capacity (default: 64)")
    serve.add_argument("--state-dir", type=Path, default=None,
                       help="directory for durable tenant state (spec + "
                            "frame journal + snapshots); a restarted server "
                            "recovers every tenant from it bit-identically")
    serve.add_argument("--fsync", action="store_true",
                       help="fsync journal appends and snapshots (survives "
                            "power loss, not just process crashes)")
    serve.add_argument("--snapshot-every", type=int, default=None,
                       help="ring-snapshot cadence in ingested samples "
                            "(default: 1024); smaller means faster recovery, "
                            "more write amplification")
    serve.add_argument("--snapshot-bytes", type=int, default=0,
                       help="also snapshot (and truncate the journal) as "
                            "soon as a tenant's journal file crosses this "
                            "many bytes, whatever the sample cadence says "
                            "(default: 0 = size trigger off); bounds journal "
                            "growth for wide tenants")
    serve.add_argument("--detect-cache-size", type=int, default=None,
                       help="per-server LRU capacity for cached /detect "
                            "responses, one per tenant x request at its "
                            "newest window version (default: 128; 0 "
                            "disables caching)")
    serve.add_argument("--detect-timeout", type=float, default=120.0,
                       help="per-unit wall-clock budget for batch /detect "
                            "sweeps; a hung worker returns an error instead "
                            "of wedging the request (default: 120s)")
    serve.set_defaults(func=cmd_serve)

    cache = sub.add_parser(
        "cache", help="inspect or prune a run-result cache directory")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser(
        "stats", help="print the cache's entry count and byte total")
    cache_stats.add_argument("cache_dir", type=Path,
                             help="the --result-cache directory")
    cache_stats.set_defaults(func=cmd_cache)
    cache_prune = cache_sub.add_parser(
        "prune", help="evict least-recently-used entries until the cache "
                      "fits a byte budget")
    cache_prune.add_argument("cache_dir", type=Path,
                             help="the --result-cache directory")
    cache_prune.add_argument("--max-bytes", type=int, required=True,
                             help="byte budget the cache must fit after "
                                  "pruning")
    cache_prune.set_defaults(func=cmd_cache)
    cache.set_defaults(func=cmd_cache)

    scenarios = sub.add_parser(
        "scenarios", help="list registered scenarios and fault injectors")
    scenarios.set_defaults(func=cmd_scenarios)

    experiments = sub.add_parser(
        "experiments", help="run the paper-claim vs. measured experiment suite")
    experiments.add_argument("--seed", type=int, default=2022)
    experiments.add_argument("--paper-scale", action="store_true")
    experiments.add_argument("--output", type=Path, default=None,
                             help="write the Markdown report here instead of stdout")
    experiments.set_defaults(func=cmd_experiments)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point used by ``python -m repro`` and the console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BatchLensError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
