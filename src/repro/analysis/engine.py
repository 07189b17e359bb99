"""Cluster-wide vectorized detection engine.

The paper positions BatchLens for large-scale clusters and real-time use;
looping ``detector.detect(store.series(machine_id, metric))`` over every
machine copies one series at a time out of a dense ``(machines, metrics,
samples)`` array that is tailor-made for whole-cluster passes.  The
:class:`DetectionEngine` closes that gap: it hands a detector the zero-copy
``(machines, samples)`` block of one metric
(:meth:`repro.metrics.store.MetricStore.metric_block`) and lets the
detector's array-level :meth:`~repro.analysis.detectors.BlockDetector.detect_block`
judge every machine in one NumPy pass.  Events for all machines come out of
a single vectorized run-length encoding, bit-identical to the legacy
per-series loop (both surfaces share the same numerical kernels).

Typical use::

    from repro.analysis.engine import DetectionEngine

    engine = DetectionEngine()
    result = engine.run(store, "threshold", metric="cpu")
    result.events()                        # AnomalyEvents for every machine
    result.flagged_machines(window=(t0, t1))

    for name, res in engine.run_all(store, metric="cpu").items():
        print(name, res.num_events)

    # incremental: judge only newly-arrived samples, same verdict
    state = engine.stream(store.machine_ids, "threshold")
    engine.run_incremental(state, chunk)   # MetricStore chunk or raw block
    state.events()                         # == engine.run(...) over the prefix

Every detection consumer in the repository — the scenario scoring runners,
ensemble voting, the threshold-monitor baseline, the online monitor's batch
catch-up and the ``repro detect`` CLI — scores through this engine instead
of hand-rolled per-machine loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.analysis.detectors import (
    AnomalyEvent,
    BlockDetection,
    _as_block,
    _run_max,
    events_to_block,
    mask_runs,
)
from repro.errors import SeriesError
from repro.metrics.store import MetricStore


def _resolve_detector(detector) -> object:
    """Accept a registered detector name or a ready detector instance.

    Names resolve through the one registry, :mod:`repro.pipeline.detectors`
    (which imports this package, hence the local import); an unknown name
    raises its :class:`~repro.errors.PipelineError`.
    """
    if isinstance(detector, str):
        from repro.pipeline.detectors import get_detector

        return get_detector(detector)
    return detector


def detector_kind(detector) -> str:
    """The ``AnomalyEvent.kind`` a detector emits (class-name fallback).

    The one shared derivation — the pipeline adapters reuse it so a plan
    label always matches the event kind the engine stamps.
    """
    return str(getattr(detector, "kind", type(detector).__name__.lower()))


@dataclass(frozen=True)
class EngineResult:
    """One detector's cluster-wide verdict on one metric of a store."""

    detector: str
    metric: str
    machine_ids: tuple[str, ...]
    block: BlockDetection
    _events: list[AnomalyEvent] = field(default=None, repr=False)  # type: ignore[assignment]

    @property
    def timestamps(self) -> np.ndarray:
        return self.block.timestamps

    @property
    def mask(self) -> np.ndarray:
        """Post-filter ``(machines, samples)`` anomaly flags."""
        return self.block.mask

    @property
    def scores(self) -> np.ndarray:
        """Raw per-sample ``(machines, samples)`` anomaly scores."""
        return self.block.scores

    @property
    def num_events(self) -> int:
        return self.block.num_runs

    def events(self) -> list[AnomalyEvent]:
        """All machines' events, in (machine, start) order."""
        if self._events is None:
            object.__setattr__(
                self, "_events",
                self.block.events(subjects=self.machine_ids,
                                  metric=self.metric, kind=self.detector))
        return list(self._events)

    def events_for(self, machine_id: str) -> list[AnomalyEvent]:
        """Events of one machine (same order the per-series loop emits)."""
        return [e for e in self.events() if e.subject == machine_id]

    def flagged_machines(self,
                         window: tuple[float, float] | None = None) -> set[str]:
        """Machines with at least one event (overlapping ``window``)."""
        rows = self.block.flagged_rows(window)
        return {self.machine_ids[row] for row in rows.tolist()}

    def event_counts(self) -> dict[str, int]:
        """``{machine_id: number of events}`` for machines with events."""
        rows, counts = np.unique(self.block.rows, return_counts=True)
        return {self.machine_ids[row]: int(count)
                for row, count in zip(rows.tolist(), counts.tolist())}


@dataclass(frozen=True)
class StreamChunk:
    """What one :meth:`DetectionEngine.run_incremental` call surfaced.

    ``opened_rows`` / ``opened_starts`` name the runs that *began* inside
    this chunk (row index plus chunk-local sample index) — the rising
    edges an alerting consumer reacts to immediately.  Runs merely
    continuing across the chunk boundary are not re-reported, which is
    exactly the online monitor's once-per-episode semantics.
    """

    opened_rows: np.ndarray
    opened_starts: np.ndarray
    #: Runs that closed inside (or just before) this chunk, post keep-filter.
    num_closed: int


@dataclass(frozen=True)
class StreamResult:
    """Frozen verdict of one finished incremental sweep.

    Exposes the same event-level surface as :class:`EngineResult`
    (``events`` / ``num_events`` / ``flagged_machines`` / ``event_counts``)
    from O(runs) state instead of a full per-sample mask — the streaming
    pipeline's detections carry these.
    """

    detector: str
    metric: str
    machine_ids: tuple[str, ...]
    rows: np.ndarray
    start_ts: np.ndarray
    end_ts: np.ndarray
    scores_arr: np.ndarray

    @property
    def num_events(self) -> int:
        return int(self.rows.shape[0])

    def events(self) -> list[AnomalyEvent]:
        """All machines' events, in (machine, start) order — the order a
        batch :meth:`DetectionEngine.run` over the same samples emits."""
        return [
            AnomalyEvent(start=float(start), end=float(end),
                         metric=self.metric, subject=self.machine_ids[row],
                         kind=self.detector, score=float(score))
            for row, start, end, score in zip(
                self.rows.tolist(), self.start_ts.tolist(),
                self.end_ts.tolist(), self.scores_arr.tolist())
        ]

    def events_for(self, machine_id: str) -> list[AnomalyEvent]:
        return [e for e in self.events() if e.subject == machine_id]

    def flagged_machines(self,
                         window: tuple[float, float] | None = None) -> set[str]:
        rows = self.rows
        if window is not None and rows.size:
            rows = rows[(self.start_ts <= window[1])
                        & (self.end_ts >= window[0])]
        return {self.machine_ids[row] for row in np.unique(rows).tolist()}

    def event_counts(self) -> dict[str, int]:
        rows, counts = np.unique(self.rows, return_counts=True)
        return {self.machine_ids[row]: int(count)
                for row, count in zip(rows.tolist(), counts.tolist())}


class StreamState:
    """Cross-chunk state of one incremental detector × metric sweep.

    Holds the detector's own warm-up context (EWMA forecast, rolling
    z-score tail) plus the engine-level run bookkeeping: for every machine
    row, the *open* run touching the latest sample (start/extent/score so
    far) and the archive of runs that already closed.  The invariant —
    golden-pinned — is that after any sequence of
    :meth:`DetectionEngine.run_incremental` chunks, :meth:`events` equals
    a single batch :meth:`DetectionEngine.run` over the concatenated
    samples, bit for bit and in the same order.
    """

    def __init__(self, detector: object, *, metric: str,
                 machine_ids: Sequence[str],
                 archive_runs: bool = True) -> None:
        num_rows = len(machine_ids)
        self.detector = detector
        self.kind = detector_kind(detector)
        self.metric = metric
        self.machine_ids = tuple(machine_ids)
        #: With ``archive_runs=False`` closed runs are counted and
        #: keep-filtered but not stored — an endless consumer that only
        #: reacts to rising edges (the online monitor) keeps O(machines)
        #: state instead of growing one archive entry per episode forever.
        #: ``events()``/``result()`` then cover only the still-open runs.
        self.archive_runs = archive_runs
        make_state = getattr(detector, "make_stream_state", None)
        if make_state is None or not hasattr(detector, "_stream_mask"):
            raise SeriesError(
                f"detector {type(detector).__name__} does not support "
                f"incremental streaming (no make_stream_state/_stream_mask)")
        self._det_state = make_state(num_rows)
        self.samples_seen = 0
        self.last_timestamp: float | None = None
        self.open_mask = np.zeros(num_rows, dtype=bool)
        self._open_start_ts = np.zeros(num_rows, dtype=np.float64)
        self._open_last_ts = np.zeros(num_rows, dtype=np.float64)
        self._open_start_idx = np.zeros(num_rows, dtype=np.intp)
        self._open_len = np.zeros(num_rows, dtype=np.intp)
        self._open_score = np.zeros(num_rows, dtype=np.float64)
        self._closed: list[tuple[np.ndarray, ...]] = []

    # -- chunk folding ---------------------------------------------------------
    def _record_closed(self, rows: np.ndarray, start_ts: np.ndarray,
                       end_ts: np.ndarray, start_idx: np.ndarray,
                       lengths: np.ndarray, scores: np.ndarray) -> int:
        """Archive closed runs surviving the detector's span filter."""
        keep = self.detector._keep_run_spans(end_ts - start_ts, lengths)
        if keep is not None:
            rows, start_ts, end_ts, start_idx, scores = (
                rows[keep], start_ts[keep], end_ts[keep], start_idx[keep],
                scores[keep])
        if rows.size and self.archive_runs:
            self._closed.append((rows.copy(), start_ts.copy(), end_ts.copy(),
                                 start_idx.copy(), scores.copy()))
        return int(rows.size)

    def _advance(self, timestamps: np.ndarray,
                 values: np.ndarray) -> StreamChunk:
        mask, scores = self.detector._stream_mask(self._det_state,
                                                  timestamps, values)
        rows, starts, ends = mask_runs(mask)
        rscores = _run_max(scores, rows, starts, ends)
        n = values.shape[1]
        prev_open = self.open_mask
        # Open runs the chunk's first sample does not extend closed at their
        # last flagged sample (the final sample of an earlier chunk).
        closing = np.flatnonzero(prev_open & ~mask[:, 0])
        num_closed = 0
        if closing.size:
            num_closed += self._record_closed(
                closing, self._open_start_ts[closing],
                self._open_last_ts[closing], self._open_start_idx[closing],
                self._open_len[closing], self._open_score[closing])
        if rows.size:
            cont = (starts == 0) & prev_open[rows]
            run_start_ts = np.where(cont, self._open_start_ts[rows],
                                    timestamps[starts])
            run_start_idx = np.where(cont, self._open_start_idx[rows],
                                     self.samples_seen + starts)
            run_len = np.where(cont, self._open_len[rows], 0) + (ends - starts)
            run_score = np.where(
                cont, np.maximum(self._open_score[rows], rscores), rscores)
            run_end_ts = timestamps[ends - 1]
            still_open = ends == n
            closed_now = ~still_open
            if np.any(closed_now):
                num_closed += self._record_closed(
                    rows[closed_now], run_start_ts[closed_now],
                    run_end_ts[closed_now], run_start_idx[closed_now],
                    run_len[closed_now], run_score[closed_now])
            self.open_mask = np.zeros_like(prev_open)
            orow = rows[still_open]
            self.open_mask[orow] = True
            self._open_start_ts[orow] = run_start_ts[still_open]
            self._open_last_ts[orow] = run_end_ts[still_open]
            self._open_start_idx[orow] = run_start_idx[still_open]
            self._open_len[orow] = run_len[still_open]
            self._open_score[orow] = run_score[still_open]
            opened_rows = rows[~cont]
            opened_starts = starts[~cont]
        else:
            self.open_mask = np.zeros_like(prev_open)
            opened_rows = np.empty(0, dtype=np.intp)
            opened_starts = np.empty(0, dtype=np.intp)
        self.samples_seen += n
        self.last_timestamp = float(timestamps[-1])
        return StreamChunk(opened_rows=opened_rows,
                           opened_starts=opened_starts,
                           num_closed=num_closed)

    # -- batch-equivalent views ------------------------------------------------
    def _all_runs(self) -> tuple[np.ndarray, ...]:
        """Closed runs plus the open ones (peeked, span-filtered), sorted in
        the batch engine's row-major (row, start) order."""
        parts = list(self._closed)
        open_rows = np.flatnonzero(self.open_mask)
        if open_rows.size:
            start_ts = self._open_start_ts[open_rows]
            end_ts = self._open_last_ts[open_rows]
            keep = self.detector._keep_run_spans(end_ts - start_ts,
                                                 self._open_len[open_rows])
            chunk = (open_rows, start_ts, end_ts,
                     self._open_start_idx[open_rows],
                     self._open_score[open_rows])
            if keep is not None:
                chunk = tuple(arr[keep] for arr in chunk)
            if chunk[0].size:
                parts.append(chunk)
        if not parts:
            empty_f = np.empty(0, dtype=np.float64)
            return (np.empty(0, dtype=np.intp), empty_f, empty_f,
                    np.empty(0, dtype=np.intp), empty_f)
        rows, start_ts, end_ts, start_idx, scores = (
            np.concatenate([part[i] for part in parts]) for i in range(5))
        order = np.lexsort((start_idx, rows))
        return (rows[order], start_ts[order], end_ts[order],
                start_idx[order], scores[order])

    @property
    def num_events(self) -> int:
        return int(self._all_runs()[0].shape[0])

    def events(self) -> list[AnomalyEvent]:
        """Events so far — identical to a batch sweep over every sample fed."""
        return self.result().events()

    def flagged_machines(self,
                         window: tuple[float, float] | None = None) -> set[str]:
        return self.result().flagged_machines(window)

    def result(self) -> StreamResult:
        """Frozen snapshot of the sweep (safe to keep past further chunks)."""
        rows, start_ts, end_ts, _start_idx, scores = self._all_runs()
        return StreamResult(detector=self.kind, metric=self.metric,
                            machine_ids=self.machine_ids, rows=rows,
                            start_ts=start_ts, end_ts=end_ts,
                            scores_arr=scores)


class DetectionEngine:
    """Run detectors across an entire :class:`MetricStore` in one array pass.

    ``detectors`` maps names to detector instances; it defaults to one
    default-configured instance of every default detector in the registry
    (:func:`~repro.pipeline.detectors.default_detector_names`).  A name
    passed to :meth:`run` or :meth:`stream` is looked up in this map first
    and then in the registry.  Detectors without an array-level
    ``detect_block`` (third-party per-series implementations) are still
    accepted — the engine falls back to an internal per-series sweep that
    produces the identical result shape.
    """

    def __init__(self, detectors: Mapping[str, object] | None = None) -> None:
        if detectors is None:
            from repro.pipeline.detectors import (
                default_detector_names,
                get_detector,
            )

            detectors = {name: get_detector(name)
                         for name in default_detector_names()}
        self.detectors = dict(detectors)

    # -- core pass -------------------------------------------------------------
    def run(self, store: MetricStore, detector="threshold", *,
            metric: str = "cpu",
            window: tuple[float, float] | None = None,
            hierarchy=None, bundle=None) -> EngineResult:
        """One detector, one metric, every machine — in a single pass.

        ``detector`` is a name (looked up in this engine's detectors, then
        in the global registry) or a detector instance.  ``window``
        restricts the sweep itself to a zero-copy time slice of the store —
        detectors only see the windowed samples, so stateful warm-ups
        (rolling windows, EWMA) restart at the slice edge.  To sweep the
        full history and merely *filter* the resulting events by a window
        (the scoring semantics), use :meth:`flag_machines` or
        ``run(...).flagged_machines(window)`` instead.

        ``hierarchy`` / ``bundle`` are optional cluster context, forwarded
        to detectors implementing ``detect_cluster`` (whole-store
        :class:`~repro.analysis.cluster_detectors.ClusterDetector`
        analyses); row-independent block detectors never see them.

        An empty or single-sample store is a valid input: the sweep simply
        returns an event-less result (never an error), which is what the
        pipeline's empty-``RunResult`` contract builds on.
        """
        if isinstance(detector, str) and detector in self.detectors:
            detector = self.detectors[detector]
        detector = _resolve_detector(detector)
        if window is not None:
            store = store.window(window[0], window[1])
        block_values = store.metric_block(metric)
        if block_values.size == 0:
            # An empty or machine-less store is a valid degenerate sweep:
            # the verdict is simply "no events anywhere".  Short-circuiting
            # here keeps the contract independent of whether a (possibly
            # third-party) detector tolerates zero-length input.
            block = BlockDetection.from_mask(
                store.timestamps,
                np.zeros(block_values.shape, dtype=bool),
                np.zeros(block_values.shape, dtype=np.float64))
        elif hasattr(detector, "detect_cluster"):
            block = detector.detect_cluster(store, metric=metric,
                                            hierarchy=hierarchy,
                                            bundle=bundle)
        elif hasattr(detector, "detect_block"):
            block = detector.detect_block(store.timestamps, block_values)
        else:
            block = self._per_series_block(detector, store, metric)
        return EngineResult(detector=detector_kind(detector), metric=metric,
                            machine_ids=tuple(store.machine_ids), block=block)

    def run_all(self, store: MetricStore, *,
                metric: str = "cpu",
                window: tuple[float, float] | None = None) -> dict[str, EngineResult]:
        """Every configured detector over one metric of the store."""
        return {name: self.run(store, instance, metric=metric, window=window)
                for name, instance in self.detectors.items()}

    def flag_machines(self, store: MetricStore, detector, *,
                      metric: str = "cpu",
                      window: tuple[float, float] | None = None) -> set[str]:
        """Machines on which ``detector`` reports at least one event.

        ``window`` restricts the *counted events* to ones overlapping the
        interval (the full store is still swept), matching how the scoring
        runners evaluate detections against an injected anomaly window.
        """
        return self.run(store, detector, metric=metric).flagged_machines(window)

    # -- incremental pass ------------------------------------------------------
    def stream(self, machine_ids: Sequence[str], detector="threshold", *,
               metric: str = "cpu") -> StreamState:
        """Open an incremental sweep over a fixed machine population.

        The returned :class:`StreamState` is fed chunk by chunk through
        :meth:`run_incremental`; at any chunk boundary its ``events()`` /
        ``flagged_machines()`` equal a batch :meth:`run` over every sample
        fed so far.  Detectors must implement the incremental surface
        (every built-in does); per-series-only third-party detectors raise
        here, before any data is touched.
        """
        if isinstance(detector, str) and detector in self.detectors:
            detector = self.detectors[detector]
        detector = _resolve_detector(detector)
        return StreamState(detector, metric=metric, machine_ids=machine_ids)

    def run_incremental(self, state: StreamState, block,
                        timestamps: np.ndarray | None = None) -> StreamChunk:
        """Fold one chunk of newly-arrived samples into an incremental sweep.

        ``block`` is either a :class:`MetricStore` chunk (the state's
        metric is extracted as a zero-copy view) or a raw ``(machines,
        samples)`` value block with explicit ``timestamps``.  Only the new
        samples are judged — the state carries every detector's tail
        context across the boundary — yet the accumulated verdict stays
        bit-identical to a full-window rescan.
        """
        if isinstance(block, MetricStore):
            if tuple(block.machine_ids) != state.machine_ids:
                raise SeriesError(
                    "incremental chunk's machines do not match the stream "
                    "state")
            timestamps = block.timestamps
            values = block.metric_block(state.metric)
        else:
            if timestamps is None:
                raise SeriesError(
                    "run_incremental needs timestamps alongside a raw "
                    "value block")
            values = block
        timestamps = np.asarray(timestamps, dtype=np.float64)
        values = _as_block(values)
        if values.shape[0] != len(state.machine_ids):
            raise SeriesError(
                f"chunk has {values.shape[0]} row(s) but the stream state "
                f"tracks {len(state.machine_ids)} machine(s)")
        if timestamps.shape[0] != values.shape[1]:
            raise SeriesError(
                f"chunk has {values.shape[1]} samples but "
                f"{timestamps.shape[0]} timestamps")
        if timestamps.shape[0] == 0:
            return StreamChunk(opened_rows=np.empty(0, dtype=np.intp),
                               opened_starts=np.empty(0, dtype=np.intp),
                               num_closed=0)
        if timestamps.shape[0] > 1 and np.any(np.diff(timestamps) <= 0):
            raise SeriesError("chunk timestamps must be strictly increasing")
        if (state.last_timestamp is not None
                and timestamps[0] <= state.last_timestamp):
            raise SeriesError(
                f"timestamp {timestamps[0]} is not after "
                f"{state.last_timestamp}")
        return state._advance(timestamps, values)

    # -- fallback for per-series-only detectors ---------------------------------
    def _per_series_block(self, detector, store: MetricStore,
                          metric: str) -> BlockDetection:
        """Reconstruct a block verdict from per-series ``detect`` calls.

        Overlapping or touching events merge into one run (see
        :func:`~repro.analysis.detectors.events_to_block`).
        """
        machine_ids = store.machine_ids
        return events_to_block(
            store.timestamps, store.num_machines,
            lambda row: detector.detect(store.series(machine_ids[row], metric),
                                        metric=metric,
                                        subject=machine_ids[row]))


def merge_engine_results(results: "Sequence[EngineResult]") -> EngineResult:
    """Merge machine-axis shard verdicts into one cluster-wide result.

    ``results`` must come from the same detector and metric over disjoint
    machine shards of one store, ordered by machine row (the order the
    shard planner in :mod:`repro.analysis.shard` emits).  Because every
    shard's runs are already row-major and shards arrive in row order, a
    plain concatenation — with run row indices offset by the preceding
    shards' machine counts — reproduces the unsharded sweep bit for bit:
    same mask, same scores, same run order, hence identical events.
    """
    if not results:
        raise SeriesError("merge_engine_results needs at least one result")
    if len(results) == 1:
        return results[0]
    first = results[0]
    for other in results[1:]:
        if (other.detector, other.metric) != (first.detector, first.metric):
            raise SeriesError(
                f"cannot merge sweeps of different detectors/metrics: "
                f"({first.detector!r}, {first.metric!r}) vs "
                f"({other.detector!r}, {other.metric!r})")
        if not np.array_equal(other.block.timestamps, first.block.timestamps):
            raise SeriesError("cannot merge sweeps on different time grids")
    machine_ids = tuple(mid for result in results
                        for mid in result.machine_ids)
    blocks = [result.block for result in results]
    offsets = np.cumsum([0] + [block.mask.shape[0] for block in blocks[:-1]])
    block = BlockDetection(
        timestamps=first.block.timestamps,
        mask=np.vstack([block.mask for block in blocks]),
        scores=np.vstack([block.scores for block in blocks]),
        rows=np.concatenate([block.rows + offset
                             for block, offset in zip(blocks, offsets)]),
        starts=np.concatenate([block.starts for block in blocks]),
        ends=np.concatenate([block.ends for block in blocks]),
        run_scores=np.concatenate([block.run_scores for block in blocks]))
    return EngineResult(detector=first.detector, metric=first.metric,
                        machine_ids=machine_ids, block=block)


#: Shared default engine for the one-line call sites (scoring runners,
#: baselines).  Engines are stateless apart from their detector instances,
#: so one default-configured instance is safe to share.
_DEFAULT_ENGINE: DetectionEngine | None = None


def default_engine() -> DetectionEngine:
    """The shared default-configured :class:`DetectionEngine`."""
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = DetectionEngine()
    return _DEFAULT_ENGINE


def detect_cluster(store: MetricStore, detector="threshold", *,
                   metric: str = "cpu",
                   window: tuple[float, float] | None = None) -> list[AnomalyEvent]:
    """One-shot convenience: cluster-wide events of one detector."""
    return default_engine().run(store, detector, metric=metric,
                                window=window).events()


__all__ = [
    "DetectionEngine",
    "EngineResult",
    "StreamChunk",
    "StreamResult",
    "StreamState",
    "default_engine",
    "detect_cluster",
    "detector_kind",
    "merge_engine_results",
]
