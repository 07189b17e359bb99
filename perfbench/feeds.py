"""Seeded inputs for the serve workloads, encoded once before timing.

Every tenant is fed from a one-day scenario trace, replayed with shifted
timestamps when a run needs more samples than a day holds.  Sample ``g``
of a tenant's stream carries trace column ``(offset + g) % PERIOD`` at
timestamp ``T0 + g * RESOLUTION_S``, so the stream is endless, strictly
increasing, and reproducible from the seed alone.

Request bodies are JSON assembled from pieces encoded here: the frames of
every batch position of the day, and the timestamp list of every batch
the run may send.  The timed loops only join pre-encoded bytes; they
never call ``tolist`` or ``json.dumps``.
"""

from __future__ import annotations

import json

import numpy as np

RESOLUTION_S = 300
PERIOD = 24 * 3600 // RESOLUTION_S           # 288 samples: one day
T0 = 1_700_000_000

INGEST_SCENARIO = "diurnal+memory-thrash+hotjob"
INGEST_THRESHOLD = 85.0
INGEST_TENANTS = 4
INGEST_MACHINES = 32
INGEST_BATCH = 8
INGEST_WINDOW = 128
#: Ingest rings start 64 samples short of the 1024-sample snapshot cadence,
#: so every tenant snapshots early in the timed phase.
INGEST_PREFILL = 960

#: Wide tenants whose ``/detect`` replies always exceed one loopback
#: segment (64 KB) while alert polls stay below it, so each route sits on
#: one side of the server's delayed-ACK stall for every seed.
MIXED_SCENARIO = "diurnal+network-storm+hotjob"
MIXED_THRESHOLD = 100.0
MIXED_TENANTS = 2
MIXED_MACHINES = 256
MIXED_BATCH = 32
MIXED_WINDOW = 256


#: Independent scenario days one feed's machines are drawn from.
PARTS = 4


def day_trace(scenario: str, num_machines: int,
              seed: int) -> "tuple[list[str], np.ndarray]":
    """``(machine_ids, data[machines, metrics, PERIOD])`` of one scenario day.

    Machine slice ``k`` comes from the ``k``-th of :data:`PARTS` independent
    traces of the full cluster, so where the seed happens to put the
    anomalies averages out over the slices: the amount of work per request
    varies less from seed to seed than in any single trace.
    """
    from repro.config import ClusterConfig, METRICS, TraceConfig, UsageConfig
    from repro.trace.synthetic import generate_trace

    ids: list[str] = []
    blocks = []
    size = num_machines // PARTS
    for part in range(PARTS):
        usage = generate_trace(TraceConfig(
            cluster=ClusterConfig(num_machines=num_machines),
            usage=UsageConfig(resolution_s=RESOLUTION_S),
            horizon_s=PERIOD * RESOLUTION_S, scenario=scenario,
            seed=seed * PARTS + part)).usage
        if tuple(usage.metrics) != tuple(METRICS) or usage.num_samples < PERIOD:
            raise ValueError("scenario trace does not cover one day of "
                             "every wire metric")
        rows = slice(part * size, (part + 1) * size)
        ids += list(usage.machine_ids[rows])
        blocks.append(usage.data[rows, :, :PERIOD])
    return ids, np.ascontiguousarray(np.concatenate(blocks), dtype=np.float64)


def period_frames(data: np.ndarray, batch: int) -> "list[bytes]":
    """The JSON ``frames`` value of every ``batch``-sample day position."""
    return [json.dumps(data[:, :, lo:lo + batch].transpose(2, 0, 1).tolist()
                       ).encode() for lo in range(0, PERIOD, batch)]


class Feed:
    """One tenant's endless, pre-encoded sample stream."""

    def __init__(self, tenant_id: str, machine_ids: "list[str]",
                 data: np.ndarray, frames: "list[bytes]", *, offset: int,
                 batch: int, window: int, threshold: float,
                 max_batches: int, prefill: int | None = None) -> None:
        prefill = window if prefill is None else prefill
        if PERIOD % batch or offset % batch or prefill % batch:
            raise ValueError("batch must tile the day, offset and prefill")
        self.tenant_id = tenant_id
        self.machine_ids = machine_ids
        self.data = data
        self.offset = offset
        self.batch = batch
        self.window = window
        self.spec = {"id": tenant_id, "machines": machine_ids,
                     "streaming": {"threshold": threshold,
                                   "window_samples": window}}
        #: The ring prefill (at least ``window`` samples) in one request.
        self.prefill_samples = prefill
        self.prefill = self.body_for(0, prefill)
        self._frames = frames
        # Day position of the first timed batch (the prefill came before).
        self._first = (offset + prefill) // batch
        self._stamps = [self._stamps_json(prefill + k * batch, batch)
                        for k in range(max_batches)]
        self.sent = 0   # timed batches handed out

    @staticmethod
    def _stamps_json(first: int, count: int) -> bytes:
        return ", ".join(str(T0 + (first + j) * RESOLUTION_S)
                         for j in range(count)).encode()

    def next_body(self) -> "bytes | None":
        """The next timed batch body, or ``None`` when the pre-encoded
        supply is exhausted (the loop then stops, nothing fails)."""
        k = self.sent
        if k >= len(self._stamps):
            return None
        self.sent += 1
        frames = self._frames[(self._first + k) % len(self._frames)]
        return b"".join((b'{"timestamps": [', self._stamps[k],
                         b'], "frames": ', frames, b"}"))

    def block(self, lo: int, hi: int) -> "tuple[np.ndarray, np.ndarray]":
        """``(timestamps, block[machines, metrics, samples])`` of stream
        samples ``lo..hi`` — the reference a local run checks against."""
        cols = [(self.offset + g) % PERIOD for g in range(lo, hi)]
        stamps = np.asarray([T0 + g * RESOLUTION_S for g in range(lo, hi)],
                            dtype=np.float64)
        return stamps, np.ascontiguousarray(self.data[:, :, cols])

    def body_for(self, lo: int, hi: int) -> bytes:
        """Encode stream samples ``lo..hi`` as one body (setup/top-up only)."""
        stamps, block = self.block(lo, hi)
        return json.dumps({"timestamps": stamps.tolist(),
                           "frames": block.transpose(2, 0, 1).tolist()}
                          ).encode()


def ingest_feeds(seed: int, max_batches: int) -> "list[Feed]":
    """4 tenants × 32 machines, 8-sample batches, 128-sample rings."""
    machine_ids, data = day_trace(INGEST_SCENARIO,
                                  INGEST_TENANTS * INGEST_MACHINES,
                                  seed * 2 + 1)
    feeds = []
    for i in range(INGEST_TENANTS):
        rows = slice(i * INGEST_MACHINES, (i + 1) * INGEST_MACHINES)
        tenant_data = np.ascontiguousarray(data[rows])
        feeds.append(Feed(f"ingest-{i}", machine_ids[rows], tenant_data,
                          period_frames(tenant_data, INGEST_BATCH), offset=0,
                          batch=INGEST_BATCH, window=INGEST_WINDOW,
                          threshold=INGEST_THRESHOLD,
                          max_batches=max_batches, prefill=INGEST_PREFILL))
    return feeds


def mixed_feeds(seed: int, max_batches: int) -> "list[Feed]":
    """2 tenants × 256 machines, 32-sample batches, 256-sample rings.

    Both tenants replay one day; the second starts about half a day in."""
    machine_ids, data = day_trace(MIXED_SCENARIO, MIXED_MACHINES,
                                  seed * 2 + 2)
    half = (PERIOD // 2) // MIXED_BATCH * MIXED_BATCH
    frames = period_frames(data, MIXED_BATCH)
    return [Feed(f"mixed-{i}", machine_ids, data, frames, offset=i * half,
                 batch=MIXED_BATCH, window=MIXED_WINDOW,
                 threshold=MIXED_THRESHOLD, max_batches=max_batches)
            for i in range(MIXED_TENANTS)]
