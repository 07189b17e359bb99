"""Scoring detectors against ground-truth manifests.

For every :class:`~repro.scenarios.groundtruth.GroundTruthEntry` of a
generated bundle, :func:`score_bundle` runs the detector the entry names,
collects the machines (or jobs, or samples) the detector flags, and reduces
both sides to a precision/recall
:class:`~repro.analysis.ensemble.EvaluationResult`.  This replaces eyeballed
assertions: a detector either recovers the injected anomaly or it does not,
and the number says which.

Detector runners are looked up by the entry's first ``detectors`` name; new
injectors can ship their own runner via :func:`register_runner`.

Mask-based runners (flatline, disk-burst, drain, sync_break, imbalance)
sweep the whole cluster in one
:class:`~repro.analysis.engine.DetectionEngine` pass
(:func:`~repro.analysis.ensemble.flag_machines`) instead of looping
``store.series`` machine by machine; the flagged-machine sets are
identical to the legacy loop (every surface shares one numerical path).
The spike runner is block-level too: one
:func:`~repro.analysis.spikes.block_peaks` pass over the CPU block, then
:func:`~repro.analysis.spikes.block_prominences` for the in-window peaks
only — bit-identical to per-machine
:func:`~repro.analysis.spikes.detect_spikes` calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.analysis.detectors import EwmaDetector, FlatlineDetector, ThresholdDetector
from repro.analysis.ensemble import (
    EvaluationResult,
    evaluate_events,
    evaluate_machine_sets,
    flag_machines,
)
from repro.analysis.sla import SlaPolicy, cluster_sla_report
from repro.analysis.spikes import block_peaks, block_prominences
from repro.analysis.thrashing import ThrashingConfig, cluster_thrashing_report
from repro.errors import SimulationError
from repro.scenarios.groundtruth import GroundTruthEntry, GroundTruthManifest, manifest_from_meta
from repro.trace.records import TraceBundle


@dataclass(frozen=True)
class ScoredEntry:
    """One manifest entry together with the detector's verdict on it."""

    entry: GroundTruthEntry
    detector: str
    #: Machines/jobs the detector flagged (empty for sample-level scoring).
    predicted: tuple[str, ...]
    result: EvaluationResult

    def to_dict(self) -> dict:
        """JSON-safe round-trip form (result-cache entries carry these)."""
        return {"entry": self.entry.to_dict(), "detector": self.detector,
                "predicted": list(self.predicted),
                "result": self.result.to_dict()}

    @classmethod
    def from_dict(cls, raw: dict) -> "ScoredEntry":
        """Inverse of :meth:`to_dict`; malformed rows raise (callers treat
        that as "cache entry absent")."""
        return cls(entry=GroundTruthEntry.from_dict(raw["entry"]),
                   detector=str(raw["detector"]),
                   predicted=tuple(str(p) for p in raw["predicted"]),
                   result=EvaluationResult.from_dict(raw["result"]))


def _window_of(entry: GroundTruthEntry,
               bundle: TraceBundle) -> tuple[float, float]:
    if entry.window is not None:
        return entry.window
    start, end = bundle.time_range()
    return (float(start), float(end))


def _score_machines(entry: GroundTruthEntry, predicted: set[str],
                    detector: str) -> ScoredEntry:
    result = evaluate_machine_sets(predicted, set(entry.machines))
    return ScoredEntry(entry=entry, detector=detector,
                       predicted=tuple(sorted(predicted)), result=result)


# -- runners ------------------------------------------------------------------
def _run_spike(bundle: TraceBundle, entry: GroundTruthEntry) -> ScoredEntry:
    """Machines whose CPU spikes (by prominence) inside the truth window."""
    store = bundle.usage
    t0, t1 = _window_of(entry, bundle)
    prominence = max(12.0, 0.5 * float(entry.params.get("peak_boost", 30.0)))
    # One kernel pass over the block; only in-window peaks pay for their
    # prominence.
    block = store.metric_block("cpu")
    rows, cols = block_peaks(block)
    at = store.timestamps[cols]
    inside = (at >= t0) & (at <= t1)
    rows, cols = rows[inside], cols[inside]
    spiking = rows[block_prominences(block, rows, cols) >= prominence]
    machine_ids = store.machine_ids
    predicted = {machine_ids[row] for row in np.unique(spiking).tolist()}
    return _score_machines(entry, predicted, "spike")


def _run_thrashing(bundle: TraceBundle, entry: GroundTruthEntry) -> ScoredEntry:
    """Machines with a detected thrashing window overlapping the truth window.

    The watermark self-calibrates to the injected memory ceiling: the climb
    toward the ceiling is linear over the window, so a watermark at 80 % of
    the ceiling catches the episode even on clusters without background
    load (where memory starts far below the default watermark).  A long
    reference window keeps the pre-thrash CPU level as the comparison point
    — with the default short window the gradual collapse itself drags the
    reference down and masks the drop.
    """
    t0, t1 = _window_of(entry, bundle)
    ceiling = float(entry.params.get("mem_ceiling", 97.0))
    config = ThrashingConfig(mem_watermark=min(85.0, 0.8 * ceiling),
                             reference_window=16)
    report = cluster_thrashing_report(bundle.usage, config=config)
    predicted = {machine_id for machine_id, windows in report.items()
                 if any(w.start <= t1 and w.end >= t0 for w in windows)}
    return _score_machines(entry, predicted, "thrashing")


def _run_runtime_stretch(bundle: TraceBundle,
                         entry: GroundTruthEntry) -> ScoredEntry:
    """Jobs the SLA runtime-stretch objective flags (job-level truth)."""
    threshold = float(entry.params.get("min_effect_stretch", 1.25))
    policy = SlaPolicy(max_runtime_stretch=max(1.0, 0.98 * threshold))
    reports = cluster_sla_report(bundle, policy=policy)
    predicted = {job_id for job_id, report in reports.items()
                 if any(v.kind == "runtime-stretch" for v in report.violations)}
    result = evaluate_machine_sets(predicted, set(entry.jobs))
    return ScoredEntry(entry=entry, detector="runtime-stretch",
                       predicted=tuple(sorted(predicted)), result=result)


def _run_flatline(bundle: TraceBundle, entry: GroundTruthEntry) -> ScoredEntry:
    """Machines flatlining at zero inside the truth window."""
    t0, t1 = _window_of(entry, bundle)
    detector = FlatlineDetector(epsilon=0.5, min_samples=3)
    predicted = flag_machines(bundle.usage, detector, metric="cpu",
                              window=(t0, t1))
    return _score_machines(entry, predicted, "flatline")


def _run_disk_burst(bundle: TraceBundle, entry: GroundTruthEntry) -> ScoredEntry:
    """Machines whose disk series shows violent bursts inside the window.

    Bursty storms defeat a rolling z-score (the window statistics adapt to
    the storm itself); the EWMA forecast residual keeps firing on every
    burst, so that is the detector scored here.
    """
    t0, t1 = _window_of(entry, bundle)
    threshold = max(10.0, 0.5 * float(entry.params.get("disk_boost", 45.0)))
    detector = EwmaDetector(alpha=0.3, deviation_threshold=threshold)
    predicted = flag_machines(bundle.usage, detector, metric="disk",
                              window=(t0, t1))
    return _score_machines(entry, predicted, "disk-burst")


def _run_drain(bundle: TraceBundle, entry: GroundTruthEntry) -> ScoredEntry:
    """Machines whose memory collapses to the drain residual in the window.

    Job gaps carve CPU valleys on healthy machines too, so CPU valley
    prominence alone cannot separate a drain from an idle stretch.  Memory
    can: every live machine keeps its background memory baseline, while a
    drained machine falls to ``residual`` of it — far below the fleet floor.
    The flatline detector with a calibrated epsilon captures exactly that.
    """
    t0, t1 = _window_of(entry, bundle)
    level = float(entry.params.get("drained_mem_level", 3.0))
    detector = FlatlineDetector(epsilon=max(1.0, 2.0 * level), min_samples=2)
    predicted = flag_machines(bundle.usage, detector, metric="mem",
                              window=(t0, t1))
    return _score_machines(entry, predicted, "drain")


def _run_outlier(bundle: TraceBundle, entry: GroundTruthEntry) -> ScoredEntry:
    """Machines whose window-mean CPU is a positive outlier across the fleet.

    Instantaneous snapshots (``outlier_machines``) are noisy — a single job
    bump can mask a skewed machine at one probe.  Averaging each machine
    over the skew window first integrates the persistent offset away from
    transient job load, then the cross-machine z-score separates cleanly.
    """
    store = bundle.usage
    t0, t1 = _window_of(entry, bundle)
    windowed = store.window(t0 + 0.1 * (t1 - t0), t1)
    if windowed.num_samples == 0:
        raise SimulationError("outlier scoring window holds no samples")
    # zero-copy (machines, samples) view — one reduction instead of a
    # per-machine series-copy loop
    values = windowed.metric_block("cpu").mean(axis=1)
    mu = float(values.mean()) if values.size else 0.0
    sd = float(values.std()) if values.size else 0.0
    predicted: set[str] = set()
    if sd > 1e-9:
        predicted = {machine_id
                     for machine_id, value in zip(windowed.machine_ids, values)
                     if (value - mu) / sd >= 1.5}
    return _score_machines(entry, predicted, "outlier")


def _run_aggregate_threshold(bundle: TraceBundle,
                             entry: GroundTruthEntry) -> ScoredEntry:
    """Sample-level scoring of the cluster-mean series vs. the peak window.

    The threshold self-calibrates from the manifest: out-of-window mean plus
    a fraction of the declared amplitude.
    """
    store = bundle.usage
    t0, t1 = _window_of(entry, bundle)
    amplitude = float(entry.params.get("amplitude", 30.0))
    aggregate = store.aggregate("cpu", "mean")
    outside = (aggregate.timestamps < t0) | (aggregate.timestamps > t1)
    if not np.any(outside):
        raise SimulationError("aggregate-threshold scoring needs out-of-window "
                              "samples to calibrate against")
    base = float(np.mean(aggregate.values[outside]))
    detector = ThresholdDetector(threshold=min(100.0, base + 0.3 * amplitude))
    events = detector.detect(aggregate, metric="cpu", subject="cluster")
    result = evaluate_events(events, (t0, t1), aggregate)
    return ScoredEntry(entry=entry, detector="aggregate-threshold",
                       predicted=(), result=result)


def _run_sync_break(bundle: TraceBundle, entry: GroundTruthEntry) -> ScoredEntry:
    """Machines decoupling from the fleet's shared rhythm in the window.

    The entry carries the calibrated detector parameters: a failed machine's
    rolling correlation against the cluster mean collapses to exactly zero
    (dead rows have no variance), so a tight ``break_threshold`` with a long
    ``min_run`` separates genuine decoupling from transient dips on healthy
    machines.  ``min_run`` is a sample count, so it is rescaled to the truth
    window: a failed machine stays decorrelated for essentially the whole
    window while healthy dips stay short relative to it, which keeps the
    separation independent of trace resolution and horizon.
    """
    from repro.analysis.cluster_detectors import SyncBreakDetector

    store = bundle.usage
    t0, t1 = _window_of(entry, bundle)
    in_window = int(np.sum((store.timestamps >= t0) & (store.timestamps <= t1)))
    detector = SyncBreakDetector(
        window=int(entry.params.get("window", 8)),
        break_threshold=float(entry.params.get("break_threshold", 0.05)),
        min_run=max(int(entry.params.get("min_run", 10)), in_window // 4))
    predicted = flag_machines(bundle.usage, detector, metric="cpu",
                              window=(t0, t1))
    return _score_machines(entry, predicted, "sync_break")


def _run_imbalance(bundle: TraceBundle, entry: GroundTruthEntry) -> ScoredEntry:
    """Machines driving cluster-wide load-imbalance excursions in the window.

    Scores on the metric the entry names (a network storm skews ``disk``):
    the detector flags samples where the cross-machine coefficient of
    variation spikes AND attributes them to the machines sitting z-sigma
    above the fleet at those instants.
    """
    from repro.analysis.cluster_detectors import ImbalanceDetector

    t0, t1 = _window_of(entry, bundle)
    metric = str(entry.params.get("metric", "disk"))
    predicted = flag_machines(bundle.usage, ImbalanceDetector(),
                              metric=metric, window=(t0, t1))
    return _score_machines(entry, predicted, "imbalance")


_RUNNERS: dict[str, Callable[[TraceBundle, GroundTruthEntry], ScoredEntry]] = {
    "spike": _run_spike,
    "thrashing": _run_thrashing,
    "runtime-stretch": _run_runtime_stretch,
    "flatline": _run_flatline,
    "disk-burst": _run_disk_burst,
    "drain": _run_drain,
    "outlier": _run_outlier,
    "aggregate-threshold": _run_aggregate_threshold,
    "sync_break": _run_sync_break,
    "imbalance": _run_imbalance,
}


def register_runner(name: str,
                    runner: Callable[[TraceBundle, GroundTruthEntry],
                                     ScoredEntry]) -> None:
    """Register (or replace) a detector runner for manifest scoring."""
    _RUNNERS[name] = runner


def runner_names() -> list[str]:
    return sorted(_RUNNERS)


def score_entry(bundle: TraceBundle, entry: GroundTruthEntry) -> ScoredEntry:
    """Score one manifest entry with the detector it declares."""
    if not entry.detectors:
        raise SimulationError(
            f"ground-truth entry {entry.kind!r} declares no detector")
    name = entry.detectors[0]
    try:
        runner = _RUNNERS[name]
    except KeyError:
        raise SimulationError(
            f"no scoring runner registered for detector {name!r}; "
            f"known: {runner_names()}") from None
    return runner(bundle, entry)


def score_bundle(bundle: TraceBundle, *,
                 manifest: GroundTruthManifest | None = None) -> list[ScoredEntry]:
    """Score every ground-truth entry of a bundle.

    Returns one :class:`ScoredEntry` per manifest entry (empty list when the
    bundle carries no manifest).
    """
    if manifest is None:
        manifest = manifest_from_meta(bundle.meta)
    return [score_entry(bundle, entry) for entry in manifest]


@dataclass(frozen=True)
class SweepCell:
    """One finished cell of a detector × scenario scoring sweep."""

    scenario: str
    seed: int
    #: True when the cell was restored from the result-cache ledger
    #: instead of recomputed — a resumed sweep shows its completed
    #: prefix as cached.
    cached: bool
    scores: tuple[ScoredEntry, ...]

    @property
    def worst_f1(self) -> float:
        return min((s.result.f1 for s in self.scores), default=1.0)


def sweep_scenarios(scenarios, *, seeds=(2022,), detectors=None,
                    metrics=("cpu",), cache_dir=None,
                    progress=None) -> "list[SweepCell]":
    """Score a detector stack over a scenario × seed grid, resumably.

    Each cell runs one scored batch :class:`~repro.pipeline.Pipeline`
    over the synthetic scenario.  With ``cache_dir`` every finished cell
    is one result-cache ledger entry keyed on its generative spec —
    interrupt the sweep anywhere and the rerun restores every completed
    cell from disk (``cell.cached``) and resumes computing at the first
    uncomputed one; no cell is ever recomputed.  ``detectors`` is a
    composed spec string (``None`` uses the registry default stack);
    ``progress``, when given, receives each :class:`SweepCell` as it
    finishes (raise from it to interrupt the sweep).
    """
    from repro.pipeline import Pipeline

    cells: list[SweepCell] = []
    for scenario in scenarios:
        for seed in seeds:
            spec: dict = {
                "source": {"kind": "synthetic", "scenario": str(scenario),
                           "seed": int(seed)},
                "metrics": list(metrics),
                "sinks": ["score"],
            }
            if detectors is not None:
                spec["detectors"] = detectors
            if cache_dir is not None:
                spec["result_cache"] = {"dir": str(cache_dir)}
            result = Pipeline.from_spec(spec).run()
            cell = SweepCell(
                scenario=str(scenario), seed=int(seed),
                cached=result.timings.get("result_cache") == "hit",
                scores=tuple(result.scores))
            cells.append(cell)
            if progress is not None:
                progress(cell)
    return cells


def scorecard(bundle: TraceBundle) -> dict[str, EvaluationResult]:
    """Precision/recall per injected anomaly kind (worst entry per kind)."""
    out: dict[str, EvaluationResult] = {}
    for scored in score_bundle(bundle):
        kind = scored.entry.kind
        if kind not in out or scored.result.f1 < out[kind].f1:
            out[kind] = scored.result
    return out


__all__ = [
    "ScoredEntry",
    "SweepCell",
    "register_runner",
    "runner_names",
    "score_bundle",
    "score_entry",
    "scorecard",
    "sweep_scenarios",
]
