"""``repro.pipeline`` — the unified declarative detection pipeline.

One spec-driven surface for every detection workflow: a **source** (trace
directory, synthetic scenario spec, or in-memory bundle/store), a
**detector stack** (composed spec strings such as
``"threshold(threshold=85)+flatline"``, resolved by a registry exactly
parallel to :mod:`repro.scenarios`), an execution **mode** (one vectorized
batch pass through the :class:`~repro.analysis.engine.DetectionEngine`, or
a streaming fold through :class:`~repro.stream.session.StreamSession`)
and **sinks** (ground-truth scoring, Markdown/JSON reports, alert
summaries, dashboards).

::

    from repro.pipeline import Pipeline

    result = Pipeline.from_spec({
        "source": {"kind": "synthetic",
                   "scenario": "diurnal+network-storm", "seed": 7},
        "detectors": "threshold+flatline",
        "sinks": ["score", "report"],
    }).run()

New workloads and backends are config changes, not new glue code:
``BatchLens.pipeline``, the threshold-monitor baseline, the manifest scoring
runners and the ``repro detect`` / ``monitor`` / ``compare`` sub-commands
are all thin adapters over :class:`Pipeline`.
"""

from repro.pipeline.core import DetectorRun, Pipeline, RunResult, compile_plans
from repro.pipeline.resultcache import ResultCache, run_key, source_key
from repro.pipeline.detectors import (
    DetectorInfo,
    canonical_detector_spec,
    default_detector_names,
    default_detector_spec,
    detector_names,
    get_detector,
    list_detectors,
    parse_detector_spec,
    register_detector,
    resolve_detectors,
)
from repro.pipeline.sinks import register_sink, sink_names, sink_needs_source
from repro.pipeline.spec import (
    DetectorPlan,
    ExecutionOptions,
    ResultCacheOptions,
    SourceSpec,
    StreamingOptions,
)

__all__ = [
    "DetectorInfo",
    "DetectorPlan",
    "DetectorRun",
    "ExecutionOptions",
    "Pipeline",
    "ResultCache",
    "ResultCacheOptions",
    "RunResult",
    "SourceSpec",
    "StreamingOptions",
    "canonical_detector_spec",
    "compile_plans",
    "default_detector_names",
    "default_detector_spec",
    "detector_names",
    "get_detector",
    "list_detectors",
    "parse_detector_spec",
    "register_detector",
    "register_sink",
    "resolve_detectors",
    "run_key",
    "sink_names",
    "sink_needs_source",
    "source_key",
]
