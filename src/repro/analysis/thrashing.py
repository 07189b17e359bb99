"""Thrashing detection.

The Fig. 3(c) finding: "the compute node is suffering thrashing while the
virtual memory is overused ... eventually thrashing forces the CPU
utilisation to decrease and the whole system is not making any progress."
A machine is considered thrashing while its memory utilisation stays above
a high watermark *and* its CPU utilisation has dropped well below its own
recent level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.detectors import mask_runs
from repro.errors import SeriesError
from repro.metrics.series import TimeSeries
from repro.metrics.store import MetricStore


@dataclass(frozen=True)
class ThrashingWindow:
    """One detected thrashing interval on one machine."""

    machine_id: str
    start: float
    end: float
    peak_mem: float
    min_cpu: float
    cpu_drop: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class ThrashingConfig:
    """Tunable thresholds of the detector."""

    mem_watermark: float = 85.0
    #: CPU must fall below this fraction of its pre-window mean.
    cpu_drop_fraction: float = 0.6
    #: Number of samples used for the pre-window CPU reference level.
    reference_window: int = 8
    #: Minimum duration of a reported thrashing interval, in seconds.
    min_duration_s: float = 0.0

    def validate(self) -> None:
        if not 0.0 < self.mem_watermark <= 100.0:
            raise SeriesError("mem_watermark must be in (0, 100]")
        if not 0.0 < self.cpu_drop_fraction < 1.0:
            raise SeriesError("cpu_drop_fraction must be in (0, 1)")
        if self.reference_window < 1:
            raise SeriesError("reference_window must be at least 1")


def detect_thrashing(cpu: TimeSeries, mem: TimeSeries, *,
                     machine_id: str = "",
                     config: ThrashingConfig | None = None) -> list[ThrashingWindow]:
    """Detect thrashing intervals on one machine from its CPU and memory series."""
    config = config if config is not None else ThrashingConfig()
    config.validate()
    if len(cpu) == 0 or len(mem) == 0:
        return []
    if len(cpu) != len(mem) or not np.array_equal(cpu.timestamps, mem.timestamps):
        raise SeriesError("cpu and mem series must share the same timestamps")

    timestamps = cpu.timestamps
    cpu_values = cpu.values
    mem_values = mem.values
    n = timestamps.shape[0]

    # Reference CPU level: trailing mean over the most recent *healthy* samples
    # (memory below the watermark).  Using only healthy samples keeps the
    # reference at the pre-thrash level instead of collapsing along with the
    # CPU during the thrash window itself.
    reference = np.empty(n)
    healthy_recent: list[float] = []
    for i in range(n):
        if healthy_recent:
            reference[i] = float(np.mean(healthy_recent))
        else:
            reference[i] = cpu_values[i]
        if mem_values[i] < config.mem_watermark:
            healthy_recent.append(float(cpu_values[i]))
            if len(healthy_recent) > config.reference_window:
                healthy_recent.pop(0)

    mask = (mem_values >= config.mem_watermark) & (
        cpu_values <= config.cpu_drop_fraction * np.maximum(reference, 1e-9))

    windows: list[ThrashingWindow] = []
    start_index: int | None = None
    for i, flagged in enumerate(mask):
        if flagged and start_index is None:
            start_index = i
        elif not flagged and start_index is not None:
            windows.append(_make_window(machine_id, timestamps, cpu_values,
                                        mem_values, reference, start_index, i))
            start_index = None
    if start_index is not None:
        windows.append(_make_window(machine_id, timestamps, cpu_values,
                                    mem_values, reference, start_index, n))
    return [w for w in windows if w.duration >= config.min_duration_s]


def _make_window(machine_id: str, timestamps: np.ndarray, cpu: np.ndarray,
                 mem: np.ndarray, reference: np.ndarray, lo: int,
                 hi: int) -> ThrashingWindow:
    segment = slice(lo, hi)
    ref = float(np.mean(reference[segment]))
    min_cpu = float(np.min(cpu[segment]))
    return ThrashingWindow(
        machine_id=machine_id,
        start=float(timestamps[lo]),
        end=float(timestamps[hi - 1]),
        peak_mem=float(np.max(mem[segment])),
        min_cpu=min_cpu,
        cpu_drop=max(0.0, ref - min_cpu),
    )


#: Cells (machines × samples) one slab of :func:`thrashing_mask_block`
#: sweeps at a time.  The sweep's temporaries scale with the slab, not
#: with the block, so a wide ring or a long trace stays bounded.
_SWEEP_CELLS = 8192


def _healthy_reference(cpu: np.ndarray, healthy: np.ndarray,
                       window: int) -> np.ndarray:
    """The healthy-CPU reference of :func:`detect_thrashing` for a slab.

    At sample ``i`` the per-series buffer holds the row's last
    ``c = min(h, window)`` healthy CPU values, ``h`` being the number of
    healthy samples before ``i``.  Packing each row's healthy values in
    order makes that buffer a run of ``c`` values starting at ``h - c``.

    The sum keeps ``np.mean``'s float order on the buffer: 8 accumulators
    (value ``j`` feeds accumulator ``j % 8`` while ``j < c - c % 8``), a
    fixed 8-way tree, then the remaining ``c % 8`` values in turn.  After
    ``m`` accumulator steps, accumulator ``k`` of a run starting at ``s``
    is ``0.0 + v[s + k] + v[s + k + 8] + ...``, so one strided sum and
    three shifted adds over the packed values give every run's tree at
    once, and a gather picks each sample's.  Every sample's sum sees the
    per-series operations in their order: the reference is
    *bit-identical* to :func:`detect_thrashing` for ``window`` up to 128.
    """
    num_rows, num_samples = cpu.shape
    before = np.cumsum(healthy, axis=1) - healthy
    count = np.minimum(before, window)
    full = count - count % 8
    per_row = before[:, -1] + healthy[:, -1]
    start = (before - count) + (np.cumsum(per_row) - per_row)[:, np.newaxis]
    # Every row's healthy values, row after row; the zero tail keeps every
    # shifted add and gather below in range.
    values = np.concatenate([cpu[healthy], np.zeros(window + 8)])
    total = np.zeros((num_rows, num_samples), dtype=np.float64)
    strided = 0.0 + values   # from +0.0, as np.add.reduce starts
    for steps in range(1, int(full.max()) // 8 + 1):
        if steps > 1:
            strided = strided[:-8] + values[8 * (steps - 1):]
        pairs = strided[:-1] + strided[1:]
        quads = pairs[:-2] + pairs[2:]
        tree = quads[:-4] + quads[4:]
        total = np.where(full == 8 * steps, tree[start], total)
    remainder = count - full
    cells = np.flatnonzero(remainder)
    if cells.size:
        sums = total.ravel()[cells]
        first = (start + full).ravel()[cells]
        left = remainder.ravel()[cells]
        for j in range(int(left.max())):
            sums = sums + np.where(j < left, values[first + j], 0.0)
        np.put(total, cells, sums)
    return np.where(count > 0, total / np.maximum(count, 1), cpu)


def thrashing_mask_block(timestamps: np.ndarray, cpu_block: np.ndarray,
                         mem_block: np.ndarray, *,
                         config: ThrashingConfig | None = None,
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized per-sample thrashing flags for a whole machine block.

    ``cpu_block`` / ``mem_block`` are ``(machines, samples)`` value blocks
    (zero-copy :meth:`~repro.metrics.store.MetricStore.metric_block`
    views).  Returns ``(mask, reference)`` where ``mask[row, i]`` is True
    exactly when :func:`detect_thrashing` would flag machine ``row`` at
    sample ``i``.

    The healthy-CPU reference recurrence is swept vectorized across
    machines *and* samples (:func:`_healthy_reference`): one exclusive
    ``cumsum`` of the healthy flags locates every sample's reference
    buffer among the row's healthy values, so a slab of at most
    :data:`_SWEEP_CELLS` cells costs a few dozen array steps
    (``reference_window / 8`` rounds of them), not a Python step per
    sample.  Reference and mask are bit-identical to
    :func:`detect_thrashing` for ``reference_window`` up to 128; beyond
    NumPy's pairwise block size the reference means agree only to float
    rounding — far past the default of 8 and any plausible tuning.
    """
    config = config if config is not None else ThrashingConfig()
    config.validate()
    num_rows, num_samples = cpu_block.shape
    reference = np.empty((num_rows, num_samples), dtype=np.float64)
    if num_samples:
        step = max(1, _SWEEP_CELLS // num_samples)
        for lo in range(0, num_rows, step):
            hi = min(lo + step, num_rows)
            reference[lo:hi] = _healthy_reference(
                cpu_block[lo:hi], mem_block[lo:hi] < config.mem_watermark,
                config.reference_window)
    mask = (mem_block >= config.mem_watermark) & (
        cpu_block <= config.cpu_drop_fraction * np.maximum(reference, 1e-9))
    return mask, reference


def thrashing_windows_block(timestamps: np.ndarray, cpu_block: np.ndarray,
                            mem_block: np.ndarray,
                            machine_ids: "list[str] | tuple[str, ...]", *,
                            config: ThrashingConfig | None = None,
                            ) -> dict[str, list[ThrashingWindow]]:
    """Cluster-wide thrashing windows from one vectorized block scan.

    One :func:`thrashing_mask_block` pass plus a vectorized run-length
    encoding replace the per-machine Python loops; the per-window summary
    statistics reuse :func:`_make_window` on the few detected runs, so the
    returned windows are bit-identical to per-series
    :func:`detect_thrashing` calls.  Machines without windows are absent
    from the result.
    """
    config = config if config is not None else ThrashingConfig()
    mask, reference = thrashing_mask_block(timestamps, cpu_block, mem_block,
                                           config=config)
    rows, starts, ends = mask_runs(mask)
    report: dict[str, list[ThrashingWindow]] = {}
    for row, lo, hi in zip(rows.tolist(), starts.tolist(), ends.tolist()):
        window = _make_window(machine_ids[row], timestamps, cpu_block[row],
                              mem_block[row], reference[row], lo, hi)
        if window.duration >= config.min_duration_s:
            report.setdefault(machine_ids[row], []).append(window)
    return report


def cluster_thrashing_report(store: MetricStore, *,
                             config: ThrashingConfig | None = None) -> dict[str, list[ThrashingWindow]]:
    """Run the detector over every machine of a store.

    Returns only machines with at least one detected window.  The sweep is
    one vectorized block scan (:func:`thrashing_windows_block`) over
    zero-copy metric views — window-for-window identical to per-machine
    :func:`detect_thrashing` calls, without the per-series loop or copies.
    """
    if store.num_samples == 0 or store.num_machines == 0:
        return {}
    return thrashing_windows_block(store.timestamps,
                                   store.metric_block("cpu"),
                                   store.metric_block("mem"),
                                   store.machine_ids, config=config)


def thrashing_fraction(store: MetricStore, timestamp: float, *,
                       config: ThrashingConfig | None = None,
                       report: dict[str, list[ThrashingWindow]] | None = None,
                       ) -> float:
    """Fraction of machines thrashing at one timestamp (regime classification).

    ``report`` optionally reuses an already-computed
    :func:`cluster_thrashing_report` of the same store/config (the online
    monitor shares one window scan between its regime and thrashing
    checks).
    """
    if report is None:
        report = cluster_thrashing_report(store, config=config)
    if store.num_machines == 0:
        return 0.0
    affected = sum(
        1 for windows in report.values()
        if any(w.start <= timestamp <= w.end for w in windows))
    return affected / store.num_machines
