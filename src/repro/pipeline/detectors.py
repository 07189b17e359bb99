"""The detector registry: string specs resolving to detector factories.

Exactly parallel to the scenario registry (:mod:`repro.scenarios.registry`):
where a workload is named by a composed spec such as
``"diurnal+network-storm"``, a detector stack is named by a composed spec
such as::

    "threshold(threshold=85)+flatline"
    "ewma(alpha=0.3,deviation_threshold=12)+zscore(window=8)"

Grammar and parameter parsing are shared with the scenario spec parser
(:func:`repro.scenarios.spec.parse_scenario_spec`): ``name(key=value,...)``
parts joined with ``+``.  This registry is the one table of detector names:
it holds the four per-series detectors of :mod:`repro.analysis.detectors`
(``threshold``, ``zscore``, ``ewma``, ``flatline``) and the three cluster
detectors of :mod:`repro.analysis.cluster_detectors`; third-party
detectors join via :func:`register_detector` and immediately become
addressable from pipeline specs, the CLI, the service and
:class:`~repro.analysis.engine.DetectionEngine`.

Unknown names raise :class:`~repro.errors.PipelineError` listing the
registered names — a typo is a one-line message, never a traceback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.analysis.detectors import (
    EwmaDetector,
    FlatlineDetector,
    RollingZScoreDetector,
    ThresholdDetector,
)
from repro.errors import BatchLensError, PipelineError
from repro.scenarios.spec import parse_scenario_spec


@dataclass(frozen=True)
class DetectorInfo:
    """Registry row for one detector factory."""

    name: str
    factory: Callable[..., object]
    summary: str
    #: Whether a pipeline with no explicit ``detectors`` spec runs this
    #: detector.  Cluster detectors register with ``in_default=False``:
    #: they are opt-in via spec strings, so adding one never silently
    #: changes what a default pipeline reports.
    in_default: bool = True


_DETECTORS: dict[str, DetectorInfo] = {}


def register_detector(name: str, factory: Callable[..., object],
                      summary: str = "", *, in_default: bool = True) -> None:
    """Register (or replace) a detector factory under ``name``.

    ``factory(**kwargs)`` must return a detector exposing ``detect`` /
    ``detect_block`` (subclassing
    :class:`~repro.analysis.detectors.BlockDetector` gives both for free)
    or ``detect_cluster`` (a whole-store
    :class:`~repro.analysis.cluster_detectors.ClusterDetector`).  Pass
    ``in_default=False`` to keep the detector out of the implicit
    all-detectors stack while remaining addressable from specs.
    """
    if not name or "+" in name or "(" in name:
        raise PipelineError(f"invalid detector name {name!r}")
    _DETECTORS[name] = DetectorInfo(name=name, factory=factory,
                                    summary=summary, in_default=in_default)


def detector_names() -> list[str]:
    """Registered detector names, sorted."""
    return sorted(_DETECTORS)


def default_detector_names() -> list[str]:
    """Names a no-spec pipeline runs (``in_default`` registrations), sorted."""
    return [name for name in detector_names() if _DETECTORS[name].in_default]


def default_detector_spec() -> str:
    """The composed spec equivalent to "run every default detector"."""
    return "+".join(default_detector_names())


def list_detectors() -> list[DetectorInfo]:
    """Registry rows of every detector, sorted by name."""
    return [_DETECTORS[name] for name in detector_names()]


def get_detector(name: str, **kwargs) -> object:
    """Instantiate one registered detector."""
    try:
        info = _DETECTORS[name]
    except KeyError:
        raise PipelineError(
            f"unknown detector {name!r}; registered: "
            f"{detector_names()}") from None
    try:
        return info.factory(**kwargs)
    except TypeError as exc:
        raise PipelineError(
            f"detector {name!r} rejected parameters {kwargs!r}: {exc}") from None


register_detector(
    "threshold", ThresholdDetector,
    "samples exceeding a static utilisation threshold")
register_detector(
    "zscore", RollingZScoreDetector,
    "samples whose rolling z-score exceeds a cut-off")
register_detector(
    "ewma", EwmaDetector,
    "samples deviating strongly from an EWMA forecast")
register_detector(
    "flatline", FlatlineDetector,
    "sustained stretches at (effectively) zero — dead machines")


def _register_cluster_detectors() -> None:
    """Register the whole-store topology detectors (opt-in, non-default).

    Imported lazily to keep this module importable before the analysis
    subpackage finishes initialising.
    """
    from repro.analysis.cluster_detectors import (
        ImbalanceDetector,
        SlaRiskDetector,
        SyncBreakDetector,
    )

    register_detector(
        "sync_break", SyncBreakDetector,
        "machines decoupling from their job/cluster peer group "
        "(job-synchronisation collapse)", in_default=False)
    register_detector(
        "imbalance", ImbalanceDetector,
        "cluster-wide load-balance excursions, attributed to outlier "
        "machines", in_default=False)
    register_detector(
        "sla_risk", SlaRiskDetector,
        "machines executing SLA-violating jobs over their execution "
        "windows", in_default=False)


_register_cluster_detectors()


def parse_detector_spec(spec: str) -> list[tuple[str, dict]]:
    """Parse a composed detector spec into ``(name, kwargs)`` parts.

    Names are validated against the registry here (unlike the scenario
    parser, which defers resolution), so a malformed or unknown spec fails
    with one actionable message before any data is touched.
    """
    try:
        parts = parse_scenario_spec(spec)
    except BatchLensError as exc:
        raise PipelineError(f"malformed detector spec {spec!r}: {exc}") from None
    out: list[tuple[str, dict]] = []
    for part in parts:
        if part.name not in _DETECTORS:
            raise PipelineError(
                f"unknown detector {part.name!r} in spec {spec!r}; "
                f"registered: {detector_names()}")
        out.append((part.name, dict(part.kwargs)))
    return out


def resolve_detectors(spec: str) -> list[tuple[str, object]]:
    """Instantiate every part of a composed detector spec, in order.

    Returns ``(name, detector_instance)`` pairs; duplicate names are allowed
    (two thresholds at different levels) and keep their spec order.
    """
    return [(name, get_detector(name, **kwargs))
            for name, kwargs in parse_detector_spec(spec)]


def canonical_detector_spec(spec: str) -> str:
    """Normalise a detector spec string (validates, strips whitespace)."""
    parts = []
    for name, kwargs in parse_detector_spec(spec):
        if kwargs:
            inner = ",".join(f"{k}={v}" for k, v in kwargs.items())
            parts.append(f"{name}({inner})")
        else:
            parts.append(name)
    return "+".join(parts)


__all__ = [
    "DetectorInfo",
    "canonical_detector_spec",
    "default_detector_names",
    "default_detector_spec",
    "detector_names",
    "get_detector",
    "list_detectors",
    "parse_detector_spec",
    "register_detector",
    "resolve_detectors",
]
