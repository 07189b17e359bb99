"""Declarative pipeline specifications.

A *pipeline spec* is the data form of one end-to-end detection run: where
the trace comes from (**source**), which detectors judge it (**detectors**,
a composed spec string resolved by :mod:`repro.pipeline.detectors`), how it
executes (**mode**: one vectorized batch pass or a streaming catch-up), and
what happens to the verdict (**sinks**).  The canonical shape::

    {
        "source": {"kind": "synthetic",
                   "scenario": "memory-thrash+network-storm", "seed": 7},
        "mode": "batch",                      # or "streaming"
        "detectors": "threshold(threshold=85)+flatline",
        "metrics": ["cpu"],
        "sinks": [{"kind": "score"}, {"kind": "report"}],
    }

Sources
-------
``{"kind": "trace-dir", "path": ...}``
    load the Alibaba-format CSV tables under ``path``;
``{"kind": "synthetic", "scenario": ..., "seed": ..., "paper_scale": ...,
"config": {...}}``
    generate a trace on the fly — ``scenario`` accepts everything the
    scenario registry resolves, and the optional ``config`` block
    (``num_machines`` / ``num_jobs`` / ``horizon_s`` / ``resolution_s``)
    sizes the cluster;
``bundle`` / ``store``
    programmatic sources carrying an in-memory
    :class:`~repro.trace.records.TraceBundle` or
    :class:`~repro.metrics.store.MetricStore`; these cannot appear in a
    serialised spec (they are what :meth:`Pipeline.from_bundle` /
    :meth:`Pipeline.from_store` build).

Streaming options
-----------------
``{"threshold": 92.0, "window_samples": 128, "cadence": "catch-up",
"chunk": 256}`` — both cadences fold the source through one
:class:`~repro.stream.session.StreamSession`, the online monitor *and*
the detector stack, whose events are bit-identical to a batch run.
``cadence="catch-up"`` judges ``chunk`` samples at a time (the whole
trace when ``chunk`` is absent); ``cadence="sample"`` replays sample by
sample through the :class:`~repro.stream.replay.TraceReplayer`
(alert-for-alert identical to a live feed, used by ``repro monitor``).

Execution options
-----------------
``{"backend": "threads", "shards": 8, "workers": 8}`` — how batch mode
executes its detector sweeps.  The default is one serial pass; ``threads``
/ ``process`` shard the store along the machine axis into zero-copy views
and sweep them on a pool (:mod:`repro.analysis.shard`).  Shard verdicts
merge deterministically, so every backend × shard count is bit-identical
to the serial path; the knob only changes wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from repro.errors import PipelineError
from repro.metrics.store import MAX_WINDOW_SAMPLES
from repro.stream.monitor import check_utilisation_threshold
from repro.stream.session import CADENCES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.metrics.store import MetricStore
    from repro.trace.records import TraceBundle

SOURCE_KINDS = ("trace-dir", "synthetic", "bundle", "store")
MODES = ("batch", "streaming")


def _as_int(value, field_name: str) -> int:
    """Spec-value coercion with a one-line error (never a raw ValueError)."""
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise PipelineError(f"{field_name} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise PipelineError(
            f"{field_name} must be an integer, got {value!r}") from None


def _as_float(value, field_name: str) -> float:
    if isinstance(value, bool):
        raise PipelineError(f"{field_name} must be a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError):
        raise PipelineError(
            f"{field_name} must be a number, got {value!r}") from None


def _as_bool(value, field_name: str) -> bool:
    """Only JSON ``true``/``false``: ``bool("false")`` is ``True``."""
    if not isinstance(value, bool):
        raise PipelineError(
            f"{field_name} must be true or false, got {value!r}")
    return value


def reject_unknown_keys(raw: Mapping, known: set, what: str) -> None:
    """A spec key outside ``known`` is an error, never silently ignored."""
    unknown = set(raw) - known
    if unknown:
        raise PipelineError(f"unknown {what}(s) {sorted(unknown)}; expected "
                            f"{sorted(known)}")

#: ``config`` keys a synthetic source accepts, mapped onto
#: :class:`~repro.config.TraceConfig` when the trace is generated.
SYNTHETIC_CONFIG_KEYS = ("num_machines", "num_jobs", "horizon_s", "resolution_s")
#: The keys each serialisable source kind accepts in a spec.
_SOURCE_KEYS = {
    "trace-dir": {"kind", "path", "cache", "mmap", "storage"},
    "synthetic": {"kind", "scenario", "seed", "paper_scale", "config"},
}


@dataclass(frozen=True)
class SourceSpec:
    """Where a pipeline's trace comes from."""

    kind: str
    path: str | None = None
    scenario: str | None = None
    seed: int | None = None
    paper_scale: bool = False
    config: tuple[tuple[str, int], ...] = ()
    #: trace-dir only: reuse/maintain the columnar binary sidecar cache
    #: (:mod:`repro.trace.cache`), skipping CSV parsing on repeat loads.
    cache: bool = False
    #: trace-dir only, requires ``cache``: serve the dense usage matrix as
    #: a read-only memory map of the sidecar instead of materialising it.
    mmap: bool = False
    #: trace-dir only, ``"float32"`` requires ``cache``: the dtype the
    #: sidecar stores the dense usage matrix in.
    storage: str = "float64"
    #: In-memory sources (not spec-serialisable).
    bundle: "TraceBundle | None" = field(default=None, compare=False)
    store: "MetricStore | None" = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in SOURCE_KINDS:
            raise PipelineError(
                f"unknown source kind {self.kind!r}; expected one of "
                f"{list(SOURCE_KINDS)}")
        if self.kind == "trace-dir" and not self.path:
            raise PipelineError("trace-dir source needs a 'path'")
        if self.kind == "bundle" and self.bundle is None:
            raise PipelineError("bundle source needs a TraceBundle")
        if self.kind == "store" and self.store is None:
            raise PipelineError("store source needs a MetricStore")
        for key, _ in self.config:
            if key not in SYNTHETIC_CONFIG_KEYS:
                raise PipelineError(
                    f"unknown synthetic config key {key!r}; expected one of "
                    f"{list(SYNTHETIC_CONFIG_KEYS)}")
        if self.storage not in ("float64", "float32"):
            raise PipelineError(
                f"unknown source storage dtype {self.storage!r}; expected "
                f"'float64' or 'float32'")
        if self.mmap or self.storage != "float64":
            option = "mmap" if self.mmap else "storage"
            if self.kind != "trace-dir":
                raise PipelineError(
                    f"source option {option!r} applies to trace-dir "
                    f"sources only")
            if not self.cache:
                raise PipelineError(
                    f"source option {option!r} requires \"cache\": true — "
                    f"the memory-mapped/converted matrix lives in the "
                    f"sidecar cache")

    @property
    def serialisable(self) -> bool:
        return self.kind in ("trace-dir", "synthetic")

    def to_dict(self) -> dict:
        if not self.serialisable:
            raise PipelineError(
                f"a {self.kind!r} source holds in-memory data and cannot be "
                f"serialised to a spec")
        if self.kind == "trace-dir":
            out = {"kind": "trace-dir", "path": str(self.path)}
            if self.cache:
                out["cache"] = True
            if self.mmap:
                out["mmap"] = True
            if self.storage != "float64":
                out["storage"] = self.storage
            return out
        out: dict = {"kind": "synthetic",
                     "scenario": self.scenario or "healthy"}
        if self.seed is not None:
            out["seed"] = self.seed
        if self.paper_scale:
            out["paper_scale"] = True
        if self.config:
            out["config"] = dict(self.config)
        return out

    @classmethod
    def from_dict(cls, raw: Mapping) -> "SourceSpec":
        if not isinstance(raw, Mapping):
            raise PipelineError(f"source spec must be a mapping, got {raw!r}")
        kind = raw.get("kind")
        known = _SOURCE_KEYS.get(kind) if isinstance(kind, str) else None
        if known is None:
            raise PipelineError(
                f"unknown source kind {kind!r}; a spec accepts one of "
                f"{sorted(_SOURCE_KEYS)}")
        reject_unknown_keys(raw, known, f"{kind} source key")
        if kind == "trace-dir":
            return cls(kind="trace-dir", path=str(raw.get("path", "")) or None,
                       cache=_as_bool(raw.get("cache", False), "source.cache"),
                       mmap=_as_bool(raw.get("mmap", False), "source.mmap"),
                       storage=str(raw.get("storage", "float64")))
        config = raw.get("config", {})
        if not isinstance(config, Mapping):
            raise PipelineError(
                f"synthetic source 'config' must be a mapping, got "
                f"{config!r}")
        seed = raw.get("seed")
        return cls(kind="synthetic",
                   scenario=raw.get("scenario"),
                   seed=None if seed is None else _as_int(seed, "seed"),
                   paper_scale=_as_bool(raw.get("paper_scale", False),
                                        "source.paper_scale"),
                   config=tuple(sorted(
                       (str(k), _as_int(v, f"config.{k}"))
                       for k, v in config.items())))

    @classmethod
    def from_shorthand(cls, text: str) -> "SourceSpec":
        """An existing directory is a trace dir; anything else a scenario."""
        if Path(text).is_dir():
            return cls(kind="trace-dir", path=text)
        return cls(kind="synthetic", scenario=text)


@dataclass(frozen=True)
class StreamingOptions:
    """Tunables of a streaming-mode run.

    Both cadences run the detector stack, with events equal to batch.
    ``chunk`` (catch-up cadence only) feeds the source ``chunk`` samples
    at a time: detector events and threshold alerts are *chunk-invariant*
    — any chunk size, including the whole trace, gives the same verdict —
    while regime/thrashing assessments run once per chunk, so a smaller
    chunk only tightens assessment latency and a larger one only buys
    wall-clock time.
    """

    threshold: float = 92.0
    window_samples: int = 128
    cadence: str = "catch-up"
    chunk: int | None = None

    def __post_init__(self) -> None:
        if self.cadence not in CADENCES:
            raise PipelineError(
                f"unknown streaming cadence {self.cadence!r}; expected one "
                f"of {list(CADENCES)}")
        check_utilisation_threshold(self.threshold, name="streaming.threshold",
                                    error=PipelineError)
        if not 2 <= self.window_samples <= MAX_WINDOW_SAMPLES:
            raise PipelineError(
                f"streaming.window_samples must be between 2 and "
                f"{MAX_WINDOW_SAMPLES}, got {self.window_samples}")
        if self.chunk is not None:
            if self.chunk < 1:
                raise PipelineError(
                    f"streaming.chunk must be at least 1, got {self.chunk}")
            if self.cadence != "catch-up":
                raise PipelineError(
                    "streaming.chunk applies to the catch-up cadence only; "
                    "cadence='sample' already folds one sample at a time")

    def to_dict(self) -> dict:
        out = {"threshold": self.threshold,
               "window_samples": self.window_samples,
               "cadence": self.cadence}
        if self.chunk is not None:
            out["chunk"] = self.chunk
        return out

    @classmethod
    def from_dict(cls, raw: Mapping) -> "StreamingOptions":
        if not isinstance(raw, Mapping):
            raise PipelineError(
                f"streaming options must be a mapping, got {raw!r}")
        reject_unknown_keys(raw, {"threshold", "window_samples", "cadence",
                                  "chunk"}, "streaming option")
        chunk = raw.get("chunk")
        return cls(threshold=_as_float(raw.get("threshold", 92.0),
                                       "streaming.threshold"),
                   window_samples=_as_int(raw.get("window_samples", 128),
                                          "streaming.window_samples"),
                   cadence=str(raw.get("cadence", "catch-up")),
                   chunk=(None if chunk is None
                          else _as_int(chunk, "streaming.chunk")))


@dataclass(frozen=True)
class ExecutionOptions:
    """How a batch pipeline executes its detector sweeps.

    The default (serial backend, no shards) is the classic one-pass sweep.
    Anything else routes through the shard executor
    (:class:`~repro.analysis.shard.ShardExecutor`): the store is split
    along the machine axis into ``shards`` zero-copy views (default: one
    per worker) and swept on ``backend`` with at most ``workers`` workers
    (default: one per core).  Results are merged deterministically —
    events, flagged machines and scores are bit-identical to the serial
    path for every backend and shard count.

    Asking for ``workers`` or ``shards`` without naming a backend is a
    request for parallelism: the backend then resolves to ``threads``
    (mirroring the CLI, where ``--workers`` alone implies ``--backend
    threads``); an explicit ``backend="serial"`` always wins.
    """

    backend: str | None = None
    shards: int | None = None
    workers: int | None = None

    def __post_init__(self) -> None:
        from repro.analysis.shard import BACKENDS

        # Remember whether the caller named the backend: an explicitly
        # pinned "serial" must survive CLI flag merging, while an absent
        # backend resolves from the other fields (not a dataclass field,
        # so it never affects equality).
        object.__setattr__(self, "_backend_pinned", self.backend is not None)
        if self.backend is None:
            resolved = ("threads" if self.workers is not None
                        or self.shards is not None else "serial")
            object.__setattr__(self, "backend", resolved)
        if self.backend not in BACKENDS:
            raise PipelineError(
                f"unknown execution backend {self.backend!r}; expected one "
                f"of {list(BACKENDS)}")
        if self.shards is not None and self.shards < 1:
            raise PipelineError(
                f"execution.shards must be at least 1, got {self.shards}")
        if self.workers is not None and self.workers < 1:
            raise PipelineError(
                f"execution.workers must be at least 1, got {self.workers}")

    @property
    def sharded(self) -> bool:
        """True when the sweep should go through the shard executor."""
        return self.backend != "serial" or (self.shards or 1) > 1

    @property
    def explicit_backend(self) -> bool:
        """True when the backend was named rather than resolved."""
        return self._backend_pinned

    def to_dict(self) -> dict:
        out: dict = {"backend": self.backend}
        if self.shards is not None:
            out["shards"] = self.shards
        if self.workers is not None:
            out["workers"] = self.workers
        return out

    @classmethod
    def from_dict(cls, raw: Mapping) -> "ExecutionOptions":
        if not isinstance(raw, Mapping):
            raise PipelineError(
                f"execution options must be a mapping, got {raw!r}")
        reject_unknown_keys(raw, {"backend", "shards", "workers"},
                            "execution option")
        shards = raw.get("shards")
        workers = raw.get("workers")
        backend = raw.get("backend")
        return cls(backend=None if backend is None else str(backend),
                   shards=(None if shards is None
                           else _as_int(shards, "execution.shards")),
                   workers=(None if workers is None
                            else _as_int(workers, "execution.workers")))


@dataclass(frozen=True)
class ResultCacheOptions:
    """Where (and whether) finished run results are cached on disk.

    ``{"result_cache": {"dir": "...", "enabled": true}}`` in a pipeline
    spec points :meth:`Pipeline.run` at a content-addressed ledger
    (:mod:`repro.pipeline.resultcache`): a rerun whose source bytes,
    detector spec and metrics are unchanged restores its verdict from
    disk instead of sweeping the engine.  ``enabled: false`` keeps the
    directory in the spec while forcing every run to recompute (and stop
    writing entries) — useful for A/B-ing the cache itself.
    """

    dir: str
    enabled: bool = True

    def __post_init__(self) -> None:
        if not self.dir or not isinstance(self.dir, (str, Path)):
            raise PipelineError(
                f"result_cache needs a 'dir' (the cache directory), got "
                f"{self.dir!r}")
        object.__setattr__(self, "dir", str(self.dir))

    def to_dict(self) -> dict:
        out: dict = {"dir": self.dir}
        if not self.enabled:
            out["enabled"] = False
        return out

    @classmethod
    def from_dict(cls, raw: Mapping) -> "ResultCacheOptions":
        if not isinstance(raw, Mapping):
            raise PipelineError(
                f"result_cache options must be a mapping, got {raw!r}")
        reject_unknown_keys(raw, {"dir", "enabled"}, "result_cache option")
        if "dir" not in raw:
            raise PipelineError("result_cache needs a 'dir'")
        return cls(dir=str(raw["dir"]),
                   enabled=_as_bool(raw.get("enabled", True),
                                    "result_cache.enabled"))


@dataclass(frozen=True)
class DetectorPlan:
    """One resolved unit of batch work: a detector judging one metric."""

    label: str
    name: str
    metric: str
    detector: object = field(compare=False)


def normalise_sinks(sinks) -> tuple[dict, ...]:
    """Normalise a sink list (strings or mappings) to ``{"kind": ...}`` dicts.

    Validation against the sink registry happens in
    :mod:`repro.pipeline.sinks` when the pipeline is built; this only fixes
    the shape so specs round-trip canonically.  A bare string is one sink
    name (``"sinks": "report"``), mirroring how ``detectors`` accepts a
    bare spec string.
    """
    if isinstance(sinks, str):
        sinks = (sinks,)
    out: list[dict] = []
    for sink in sinks:
        if isinstance(sink, str):
            out.append({"kind": sink})
        elif isinstance(sink, Mapping):
            if "kind" not in sink:
                raise PipelineError(f"sink spec {dict(sink)!r} has no 'kind'")
            out.append({str(k): v for k, v in sink.items()})
        else:
            raise PipelineError(
                f"sink spec must be a name or mapping, got {sink!r}")
    return tuple(out)


__all__ = [
    "CADENCES",
    "MODES",
    "SOURCE_KINDS",
    "SYNTHETIC_CONFIG_KEYS",
    "DetectorPlan",
    "ExecutionOptions",
    "ResultCacheOptions",
    "SourceSpec",
    "StreamingOptions",
    "normalise_sinks",
]
