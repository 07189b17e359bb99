"""The unified declarative pipeline: source → detectors → sinks.

One :class:`Pipeline` object captures an entire detection workflow the way
one scenario spec captures an entire workload: a **source** (trace
directory, synthetic scenario spec, or an in-memory bundle/store), a
**detector stack** (a composed spec string such as
``"threshold(threshold=85)+flatline"`` resolved by the detector registry),
an execution **mode**, and **sinks** consuming the verdict.  Batch mode
executes every detector × metric through the vectorized
:class:`~repro.analysis.engine.DetectionEngine` in one array pass each;
streaming mode folds the source through one
:class:`~repro.stream.session.StreamSession` — the online monitor and the
*same* detector stack on the engine's incremental protocol — either
block-wise (``{"mode": "streaming", "chunk": 256}``) or replayed sample by
sample; detector events are bit-identical to batch either way.
Either way :meth:`Pipeline.run` returns one :class:`RunResult`.

Typical use::

    from repro.pipeline import Pipeline

    # declarative — everything is data
    result = Pipeline.from_spec({
        "source": {"kind": "synthetic",
                   "scenario": "machine-failure+network-storm", "seed": 5},
        "detectors": "threshold+flatline",
        "sinks": ["score", "report"],
    }).run()
    result.flagged_machines()          # who was flagged
    result.scores                      # precision/recall vs. ground truth
    result.outputs["report"]           # rendered Markdown

    # programmatic — wrap data you already hold
    result = Pipeline.from_bundle(bundle, detectors="ewma").run()

Every detection consumer in the repository — ``BatchLens.pipeline``, the
threshold-monitor baseline, the manifest scoring runners and the ``repro
detect`` / ``repro monitor`` / ``repro compare`` sub-commands — is a thin
adapter over this class; new consumers (and future sharded or multi-backend
executors) should slot in behind :meth:`Pipeline.run` instead of re-plumbing
source→store→detector→report by hand.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.errors import PipelineError
from repro.pipeline.detectors import (
    canonical_detector_spec,
    default_detector_spec,
    resolve_detectors,
)
from repro.pipeline.spec import (
    MODES,
    DetectorPlan,
    ExecutionOptions,
    ResultCacheOptions,
    SourceSpec,
    StreamingOptions,
    normalise_sinks,
    reject_unknown_keys,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.detectors import AnomalyEvent
    from repro.analysis.engine import EngineResult
    from repro.metrics.store import MetricStore
    from repro.trace.records import TraceBundle


def compile_plans(detectors, metrics: "tuple[str, ...]",
                  ) -> "tuple[tuple[DetectorPlan, ...], str | None]":
    """Cross a detector stack × metrics into concrete plans.

    ``detectors`` is a composed spec string (``"ewma+threshold"``), a
    ``{name: instance}`` mapping, or ``None`` for the registry default.
    Returns ``(plans, spec_string)`` where ``spec_string`` is the canonical
    detector spec when one was given (else ``None``).  Labels follow the
    pipeline convention — ``name``, ``name#2`` for repeats, ``label@metric``
    when more than one metric is planned — so any consumer using this
    helper (``Pipeline``, the detection service) produces identical labels
    for identical specs.
    """
    spec_string: str | None = None
    if detectors is None:
        detectors = default_detector_spec()
    if isinstance(detectors, str):
        spec_string = canonical_detector_spec(detectors)
        stack = resolve_detectors(spec_string)
    elif isinstance(detectors, Mapping):
        stack = list(detectors.items())
    else:
        raise PipelineError(
            f"detectors must be a composed spec string or a "
            f"{{name: instance}} mapping, got {detectors!r}")
    plans: list[DetectorPlan] = []
    seen: dict[str, int] = {}
    for name, instance in stack:
        occurrence = seen.get(name, 0)
        seen[name] = occurrence + 1
        for metric in metrics:
            label = name if occurrence == 0 else f"{name}#{occurrence + 1}"
            if len(metrics) > 1:
                label = f"{label}@{metric}"
            plans.append(DetectorPlan(label=label, name=name,
                                      metric=metric, detector=instance))
    return tuple(plans), spec_string


@dataclass(frozen=True)
class DetectorRun:
    """One detector's cluster-wide verdict inside a pipeline run."""

    label: str
    name: str
    metric: str
    result: "EngineResult"


@dataclass
class RunResult:
    """Everything one :meth:`Pipeline.run` produced.

    An empty source (no usage data, zero samples) yields an empty
    ``RunResult`` — no detections, no events, no alerts — never an error.
    Events are materialised lazily from the underlying
    :class:`~repro.analysis.engine.EngineResult` blocks, so a caller that
    only wants flagged machines or scores never pays for event objects.
    """

    mode: str
    metrics: tuple[str, ...] = ()
    machine_ids: tuple[str, ...] = ()
    num_samples: int = 0
    detections: tuple[DetectorRun, ...] = ()
    scores: tuple = ()                      # ScoredEntry rows (score sink)
    alerts: tuple = ()                      # MonitorAlert rows (streaming)
    monitor: object | None = None           # OnlineMonitor (streaming)
    replay: object | None = None            # ReplayReport (sample cadence)
    alert_manager: object | None = None     # AlertManager (streaming)
    outputs: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    @property
    def empty(self) -> bool:
        return self.num_samples == 0

    @property
    def num_events(self) -> int:
        return sum(run.result.num_events for run in self.detections)

    def events(self) -> "list[AnomalyEvent]":
        """All detections' events, in plan order then (machine, start)."""
        out: list = []
        for run in self.detections:
            out.extend(run.result.events())
        return out

    def detection(self, label: str) -> DetectorRun:
        for run in self.detections:
            if run.label == label:
                return run
        raise PipelineError(
            f"no detection labelled {label!r}; ran: "
            f"{[run.label for run in self.detections]}")

    def flagged_machines(self, label: str | None = None, *,
                         window: tuple[float, float] | None = None) -> set[str]:
        """Machines flagged by one detection (or any, when ``label`` is None).

        ``window`` filters the counted events by overlap — the same
        semantics the ground-truth scoring runners use.
        """
        runs = (self.detections if label is None
                else (self.detection(label),))
        flagged: set[str] = set()
        for run in runs:
            flagged |= run.result.flagged_machines(window)
        if label is None and self.alerts:
            flagged |= {alert.subject for alert in self.alerts
                        if alert.subject != "cluster"}
        return flagged

    def alerts_by_kind(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for alert in self.alerts:
            counts[alert.kind] = counts.get(alert.kind, 0) + 1
        return counts

    def to_dict(self) -> dict:
        """JSON-safe summary (the ``--json`` CLI surface)."""
        from repro.report.pipeline import run_result_to_dict

        return run_result_to_dict(self)


class _LazySource:
    """Deferred ``(bundle, store)`` resolution for the sink pass.

    On a result-cache hit the engine never runs, and most sinks (score
    restored from the entry, json, alerts) never read the source either —
    so the trace is only loaded/generated the moment a sink that declared
    ``needs_source`` actually runs.  On a miss the source is already
    materialised and simply wrapped.
    """

    def __init__(self, pipeline: "Pipeline", bundle=None, store=None,
                 resolved: bool = False) -> None:
        self._pipeline = pipeline
        self._bundle = bundle
        self._store = store
        self._resolved = resolved

    def get(self):
        if not self._resolved:
            self._bundle, self._store = self._pipeline._resolve_source()
            self._resolved = True
        return self._bundle, self._store


class Pipeline:
    """One spec-driven detection workflow: source → detectors → sinks."""

    def __init__(self, source: SourceSpec, *,
                 detectors: "str | Mapping[str, object] | None" = None,
                 plans: "tuple[DetectorPlan, ...] | None" = None,
                 metrics: "tuple[str, ...] | str" = ("cpu",),
                 mode: str = "batch",
                 sinks=("score",),
                 streaming: StreamingOptions | None = None,
                 execution: ExecutionOptions | None = None,
                 result_cache: ResultCacheOptions | None = None) -> None:
        if not isinstance(source, SourceSpec):
            raise PipelineError(
                f"source must be a SourceSpec, got {source!r}; use "
                f"Pipeline.from_spec / from_bundle / from_store")
        if mode not in MODES:
            raise PipelineError(
                f"unknown pipeline mode {mode!r}; expected one of {list(MODES)}")
        if isinstance(metrics, str):
            metrics = (metrics,)
        self.source = source
        self.mode = mode
        self.metrics = tuple(metrics)
        self.streaming = streaming if streaming is not None else StreamingOptions()
        self.execution = execution if execution is not None else ExecutionOptions()
        if mode == "streaming" and self.execution != ExecutionOptions():
            # Streaming folds the store through one sequential monitor;
            # silently ignoring a requested parallel backend would be worse
            # than saying so.
            raise PipelineError(
                "execution options (sharded backends/workers) apply to "
                "batch mode only; streaming runs are sequential")
        self.sinks = normalise_sinks(sinks)
        from repro.pipeline.sinks import validate_sinks

        validate_sinks(self.sinks)
        self.result_cache = result_cache
        self._detector_spec: str | None = None
        if plans is not None:
            if detectors is not None:
                raise PipelineError("pass either 'detectors' or 'plans', not both")
            self.plans = tuple(plans)
        else:
            self.plans, self._detector_spec = compile_plans(detectors,
                                                            self.metrics)

    # -- construction ---------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: "dict | str") -> "Pipeline":
        """Build a pipeline declaratively from a dict (or string) spec.

        A string spec is either JSON text (when it starts with ``{``), an
        existing trace directory, or a scenario spec for a synthetic
        source — ``Pipeline.from_spec("diurnal+network-storm")`` is the
        one-line scored-batch form.
        """
        if isinstance(spec, str):
            text = spec.strip()
            if text.startswith("{"):
                try:
                    spec = json.loads(text)
                except json.JSONDecodeError as exc:
                    raise PipelineError(
                        f"pipeline spec is not valid JSON: {exc}") from None
            else:
                spec = {"source": SourceSpec.from_shorthand(text).to_dict()}
        if not isinstance(spec, Mapping):
            raise PipelineError(
                f"pipeline spec must be a mapping or string, got {spec!r}")
        reject_unknown_keys(spec, {"source", "mode", "detectors", "metrics",
                                   "sinks", "streaming", "execution",
                                   "result_cache"}, "pipeline spec key")
        if "source" not in spec:
            raise PipelineError("pipeline spec needs a 'source'")
        source = spec["source"]
        if isinstance(source, str):
            source = SourceSpec.from_shorthand(source)
        else:
            source = SourceSpec.from_dict(source)
        detectors = spec.get("detectors")
        if isinstance(detectors, (list, tuple)):
            detectors = "+".join(detectors)
        metrics = spec.get("metrics", ("cpu",))
        if isinstance(metrics, str):
            metrics = (metrics,)
        streaming = spec.get("streaming")
        execution = spec.get("execution")
        result_cache = spec.get("result_cache")
        return cls(source,
                   detectors=detectors,
                   metrics=tuple(metrics),
                   mode=str(spec.get("mode", "batch")),
                   sinks=spec.get("sinks", ("score",)),
                   streaming=(StreamingOptions.from_dict(streaming)
                              if streaming is not None else None),
                   execution=(ExecutionOptions.from_dict(execution)
                              if execution is not None else None),
                   result_cache=(ResultCacheOptions.from_dict(result_cache)
                                 if result_cache is not None else None))

    @classmethod
    def from_bundle(cls, bundle: "TraceBundle", **kwargs) -> "Pipeline":
        """Wrap an already-loaded or freshly-generated bundle."""
        return cls(SourceSpec(kind="bundle", bundle=bundle), **kwargs)

    @classmethod
    def from_store(cls, store: "MetricStore", **kwargs) -> "Pipeline":
        """Wrap a bare metric store (no batch hierarchy, no manifest)."""
        return cls(SourceSpec(kind="store", store=store), **kwargs)

    # -- spec round-trip ------------------------------------------------------
    def to_spec(self) -> dict:
        """The canonical dict spec (``Pipeline.from_spec(p.to_spec()) == p``).

        Only spec-buildable pipelines serialise: the source must be
        ``trace-dir`` or ``synthetic`` and the detectors must have come from
        a composed spec string (explicit instances and hand-built plans
        carry live objects a dict cannot express).
        """
        if self._detector_spec is None:
            raise PipelineError(
                "this pipeline was built from detector instances; only "
                "spec-string detectors serialise to a spec")
        spec: dict = {
            "source": self.source.to_dict(),
            "mode": self.mode,
            "detectors": self._detector_spec,
            "metrics": list(self.metrics),
            "sinks": [dict(sink) for sink in self.sinks],
        }
        if self.mode == "streaming":
            spec["streaming"] = self.streaming.to_dict()
        if self.execution != ExecutionOptions():
            spec["execution"] = self.execution.to_dict()
        if self.result_cache is not None:
            spec["result_cache"] = self.result_cache.to_dict()
        return spec

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pipeline):
            return NotImplemented
        try:
            return self.to_spec() == other.to_spec()
        except PipelineError:
            return self is other

    __hash__ = None  # mutable-ish; equality is by spec

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Pipeline(mode={self.mode!r}, source={self.source.kind!r}, "
                f"plans={[plan.label for plan in self.plans]}, "
                f"sinks={[sink['kind'] for sink in self.sinks]})")

    # -- source resolution ----------------------------------------------------
    def _resolve_source(self) -> "tuple[TraceBundle | None, MetricStore | None]":
        """Materialise the source into ``(bundle, store)``.

        ``bundle`` is ``None`` for bare-store sources (scoring and report
        sinks that need the batch hierarchy or manifest will say so).
        """
        source = self.source
        if source.kind == "bundle":
            return source.bundle, source.bundle.usage
        if source.kind == "store":
            return None, source.store
        if source.kind == "trace-dir":
            from repro.trace.loader import load_trace

            bundle = load_trace(source.path, cache=source.cache,
                                mmap=source.mmap, storage=source.storage)
            return bundle, bundle.usage
        # synthetic
        from repro.trace.synthetic import generate_trace

        config = self._synthetic_config()
        bundle = generate_trace(config, scenario=source.scenario,
                                seed=source.seed)
        return bundle, bundle.usage

    def _synthetic_config(self):
        from repro.config import (
            ClusterConfig,
            TraceConfig,
            UsageConfig,
            WorkloadConfig,
            paper_scale_config,
        )

        source = self.source
        if source.paper_scale:
            return paper_scale_config()
        overrides = dict(source.config)
        kwargs = {}
        if "num_machines" in overrides:
            kwargs["cluster"] = ClusterConfig(
                num_machines=overrides["num_machines"])
        if "num_jobs" in overrides:
            kwargs["workload"] = WorkloadConfig(num_jobs=overrides["num_jobs"])
        if "resolution_s" in overrides:
            kwargs["usage"] = UsageConfig(
                resolution_s=overrides["resolution_s"])
        if "horizon_s" in overrides:
            kwargs["horizon_s"] = overrides["horizon_s"]
        return TraceConfig(**kwargs)

    # -- result cache ---------------------------------------------------------
    def _wants_scores(self) -> bool:
        """Whether a ``score`` sink is attached (part of the cache key)."""
        return any(sink["kind"] == "score" for sink in self.sinks)

    def _cache_key(self) -> "str | None":
        """This run's content-addressed cache key, or ``None`` for bypass.

        Only deterministic, spec-expressible batch runs cache: streaming
        runs re-derive alerts live, instance-built detectors
        (``_detector_spec is None``) have no canonical spelling, and
        in-memory bundle/store sources have no durable identity.
        Execution options are deliberately absent — backend/workers/
        shards/mmap are golden-pinned to change wall-clock only.
        """
        if self.mode != "batch" or self._detector_spec is None:
            return None
        from repro.pipeline.resultcache import run_key, source_key

        identity = source_key(self.source)
        if identity is None:
            return None
        return run_key(identity, detectors=self._detector_spec,
                       metrics=self.metrics, mode=self.mode,
                       scored=self._wants_scores())

    # -- execution ------------------------------------------------------------
    def run(self) -> RunResult:
        """Execute the pipeline end to end and return one :class:`RunResult`.

        An empty source (no usage table, or zero samples) yields an empty
        result — callers never special-case "trace too small".  Sinks run
        either way, so every spec-requested output is produced.

        With a ``result_cache`` configured, the run first derives its
        content-addressed key (:meth:`_cache_key`): a **hit** restores
        the full verdict from the ledger — the source is not resolved,
        the engine never runs, and a scored entry also skips the
        ``score`` sink — while a **miss** runs normally and then writes
        the entry (best-effort).  Runs the cache cannot key (streaming
        mode, in-memory sources, instance-built detectors) **bypass** it.
        ``result.timings`` records the outcome (``result_cache:
        hit|miss|bypass`` and ``cache_s``); the cache never changes
        results — cached and uncached runs are bit-identical
        (golden-pinned).
        """
        started = time.perf_counter()
        cache = key = None
        restored = None
        cache_state: str | None = None
        cache_s = 0.0
        if self.result_cache is not None and self.result_cache.enabled:
            from repro.pipeline.resultcache import ResultCache

            cache_started = time.perf_counter()
            key = self._cache_key()
            if key is None:
                cache_state = "bypass"
            else:
                cache = ResultCache(self.result_cache.dir)
                restored = cache.load(key)
                cache_state = "hit" if restored is not None else "miss"
            cache_s = time.perf_counter() - cache_started

        if restored is not None:
            result = restored
            result.timings.update({"source_s": 0.0, "detect_s": 0.0})
            skip: tuple[str, ...] = ()
            if self._wants_scores():
                # The entry carried the precision/recall rows (scored is
                # in the key), so the expensive score_bundle pass is
                # skipped; the sink's output contract still holds.
                result.outputs["score"] = result.scores
                skip = ("score",)
            sink_started = time.perf_counter()
            self._run_sinks(result, _LazySource(self), skip=skip)
            result.timings["sinks_s"] = time.perf_counter() - sink_started
        else:
            bundle, store = self._resolve_source()
            source_s = time.perf_counter() - started - cache_s
            if store is None or store.num_samples == 0:
                # Degenerate source: no detections/alerts, but the sinks
                # still run so spec-requested outputs (report, json, ...)
                # are always produced — sinks that genuinely need samples
                # say so.
                result = RunResult(mode=self.mode,
                                   metrics=self.metrics,
                                   machine_ids=(tuple(store.machine_ids)
                                                if store is not None else ()))
            elif self.mode == "batch":
                result = self._run_batch(bundle, store)
            else:
                result = self._run_streaming(bundle, store)
            detect_s = time.perf_counter() - started - cache_s - source_s
            result.timings.update({"source_s": source_s,
                                   "detect_s": detect_s})
            sink_started = time.perf_counter()
            self._run_sinks(result, _LazySource(self, bundle=bundle,
                                                store=store, resolved=True))
            result.timings["sinks_s"] = time.perf_counter() - sink_started
            if cache is not None and key is not None:
                store_started = time.perf_counter()
                cache.store(key, result, scored=self._wants_scores())
                cache_s += time.perf_counter() - store_started
        if cache_state is not None:
            result.timings["result_cache"] = cache_state
            result.timings["cache_s"] = cache_s
        result.timings["total_s"] = time.perf_counter() - started
        return result

    def _run_batch(self, bundle, store: "MetricStore") -> RunResult:
        # Cluster detectors (detect_cluster) receive the bundle plus a
        # hierarchy built once per run; row-independent detectors never
        # see either, so store-only pipelines keep working unchanged.
        hierarchy = None
        if bundle is not None and any(
                hasattr(plan.detector, "detect_cluster")
                for plan in self.plans):
            from repro.cluster.hierarchy import BatchHierarchy

            hierarchy = BatchHierarchy.from_bundle(bundle)
        if self.execution.sharded and self.plans:
            from repro.analysis.shard import ShardExecutor

            executor = ShardExecutor(self.execution.backend,
                                     workers=self.execution.workers)
            results = executor.run_many(
                store, [(plan.detector, plan.metric) for plan in self.plans],
                shards=self.execution.shards,
                hierarchy=hierarchy, bundle=bundle)
            detections = tuple(
                DetectorRun(label=plan.label, name=plan.name,
                            metric=plan.metric, result=result)
                for plan, result in zip(self.plans, results))
        else:
            from repro.analysis.engine import DetectionEngine

            engine = DetectionEngine(detectors={})
            detections = tuple(
                DetectorRun(label=plan.label, name=plan.name,
                            metric=plan.metric,
                            result=engine.run(store, plan.detector,
                                              metric=plan.metric,
                                              hierarchy=hierarchy,
                                              bundle=bundle))
                for plan in self.plans)
        return RunResult(mode="batch", metrics=self.metrics,
                         machine_ids=tuple(store.machine_ids),
                         num_samples=store.num_samples,
                         detections=detections)

    def _run_streaming(self, bundle, store: "MetricStore") -> RunResult:
        from repro.stream import MonitorConfig, StreamSession, TraceReplayer

        options = self.streaming
        config = MonitorConfig(utilisation_threshold=options.threshold)
        replay = None
        if options.cadence == "sample":
            if bundle is None:
                raise PipelineError(
                    "sample-cadence streaming replays a full trace bundle; "
                    "a bare metric store only supports cadence='catch-up'")
            # One step: the monitor sees each sample, the detectors one chunk.
            replayer = TraceReplayer(bundle, plans=self.plans,
                                     monitor_config=config,
                                     window_samples=options.window_samples,
                                     samples_per_step=store.num_samples)
            replay = replayer.run_to_end()
            session = replayer.session
        else:
            session = StreamSession(store.machine_ids, self.plans,
                                    config=config,
                                    window_samples=options.window_samples)
            chunk = options.chunk or store.num_samples
            for lo in range(0, store.num_samples, chunk):
                session.ingest(store.sample_slice(
                    lo, min(lo + chunk, store.num_samples)))
        detections = tuple(
            DetectorRun(label=plan.label, name=plan.name, metric=plan.metric,
                        result=state.result())
            for plan, state in zip(self.plans, session.states))
        return RunResult(mode="streaming", metrics=self.metrics,
                         machine_ids=tuple(store.machine_ids),
                         num_samples=store.num_samples,
                         detections=detections, alerts=tuple(session.alerts),
                         monitor=session.monitor, replay=replay,
                         alert_manager=session.manager)

    def _run_sinks(self, result: RunResult, source: _LazySource, *,
                   skip: "tuple[str, ...]" = ()) -> None:
        from repro.pipeline.sinks import run_sink, sink_needs_source

        for sink in self.sinks:
            if sink["kind"] in skip:
                continue
            bundle, store = (source.get()
                             if sink_needs_source(sink["kind"])
                             else (None, None))
            run_sink(sink, result, bundle=bundle, store=store, pipeline=self)


__all__ = [
    "DetectorRun",
    "Pipeline",
    "RunResult",
    "compile_plans",
]
