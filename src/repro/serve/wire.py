"""The wire encoding shared by the detection server and its client.

Everything the service moves is JSON.  Alerts and events already carry
canonical encodings (``MonitorAlert.to_dict`` / ``ManagedAlert.to_dict`` /
``AnomalyEvent.to_dict``); this module supplies the remaining piece — the
**frame payload** that carries usage samples from an agent to a tenant's
ring.  Two shapes are accepted:

single sample
    ``{"timestamp": t, "frame": [[v per metric] per machine]}``
batched samples
    ``{"timestamps": [t, ...], "frames": [frame, ...]}`` — one frame per
    timestamp, strictly increasing.

Each frame is a ``(machines, metrics)`` row-major nested list in the
tenant's machine order and the canonical :data:`repro.config.METRICS`
metric order.  Batching is purely a transport decision: the incremental
engine's chunk-invariance guarantee means any re-batching of the same
samples produces bit-identical detector verdicts, so agents can buffer
as aggressively as their latency budget allows.

JSON floats survive the trip exactly: ``json.dumps`` emits the shortest
decimal that round-trips to the same IEEE double, so a value decoded on
the server is bit-identical to the one the client held — the golden
wire == local tests rely on this.
"""

from __future__ import annotations

import numpy as np

from repro.config import METRICS
from repro.errors import ServeError
from repro.metrics.store import MetricStore


def payload_to_block(payload: dict,
                     num_machines: int) -> "tuple[np.ndarray, np.ndarray]":
    """Decode a frame payload into ``(timestamps, block)``.

    ``block`` comes back in the store layout — ``(machines, metrics,
    samples)`` float64 — ready for :meth:`MetricStore.from_dense`.
    Malformed payloads raise :class:`ServeError` naming the defect.  The
    batch's timestamps must be finite and strictly increasing — checked
    here, before a durable tenant journals the batch, because a journaled
    ``inf`` would refuse every later frame, across restarts too.  Value
    ranges and ordering against the ring's newest sample are left to the
    ring, whose rejection rolls a durable tenant's journal back.
    """
    if not isinstance(payload, dict):
        raise ServeError(f"frame payload must be an object, got {payload!r}")
    if "frame" in payload or "timestamp" in payload:
        if "frames" in payload or "timestamps" in payload:
            raise ServeError(
                "frame payload mixes single-sample keys (timestamp/frame) "
                "with batch keys (timestamps/frames); send one shape")
        if "frame" not in payload or "timestamp" not in payload:
            raise ServeError(
                "single-sample payload needs both 'timestamp' and 'frame'")
        frames = [payload["frame"]]
        timestamps = [payload["timestamp"]]
    else:
        if "frames" not in payload or "timestamps" not in payload:
            raise ServeError(
                "frame payload needs 'timestamps' + 'frames' (batch) or "
                "'timestamp' + 'frame' (single sample)")
        frames = payload["frames"]
        timestamps = payload["timestamps"]
    try:
        ts = np.asarray(timestamps, dtype=np.float64)
        stacked = np.asarray(frames, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ServeError(f"frame payload is not numeric: {exc}") from None
    if ts.ndim != 1:
        raise ServeError(
            f"'timestamps' must be a flat list, got shape {ts.shape}")
    bad = np.flatnonzero(~np.isfinite(ts))
    if bad.size:
        raise ServeError(f"frame timestamps must be finite; timestamps"
                         f"[{bad[0]}] is {ts[bad[0]]}")
    bad = np.flatnonzero(np.diff(ts) <= 0) + 1
    if bad.size:
        raise ServeError(f"frame timestamps must be strictly increasing; "
                         f"timestamps[{bad[0]}] = {ts[bad[0]]} is not after "
                         f"{ts[bad[0] - 1]}")
    expected = (ts.shape[0], num_machines, len(METRICS))
    if stacked.shape != expected:
        raise ServeError(
            f"frames shape {stacked.shape} does not match "
            f"(samples={expected[0]}, machines={expected[1]}, "
            f"metrics={expected[2]}); metric order is {list(METRICS)}")
    # (samples, machines, metrics) → the store's (machines, metrics, samples).
    return ts, np.ascontiguousarray(stacked.transpose(1, 2, 0))


def block_to_payload(timestamps: np.ndarray, block: np.ndarray) -> dict:
    """Encode a ``(machines, metrics, samples)`` block as a batch payload."""
    stacked = np.asarray(block, dtype=np.float64).transpose(2, 0, 1)
    return {"timestamps": np.asarray(timestamps, dtype=np.float64).tolist(),
            "frames": stacked.tolist()}


def store_to_payloads(store: MetricStore, batch_size: int) -> "list[dict]":
    """Cut an offline store into frame payloads of ``batch_size`` samples.

    The client-side feeder for tests, the quickstart and the soak
    benchmark: replaying every payload in order through ``POST
    /tenants/<id>/frames`` reproduces the store sample-for-sample.
    Requires the canonical metric set — a tenant's ring always carries
    all of :data:`~repro.config.METRICS`.
    """
    if batch_size < 1:
        raise ServeError(f"batch_size must be at least 1, got {batch_size}")
    if tuple(store.metrics) != tuple(METRICS):
        raise ServeError(
            f"store metrics {list(store.metrics)} are not the wire metric "
            f"set {list(METRICS)}")
    payloads = []
    for lo in range(0, store.num_samples, batch_size):
        piece = store.sample_slice(lo, min(lo + batch_size, store.num_samples))
        payloads.append(block_to_payload(piece.timestamps, piece.data))
    return payloads


__all__ = [
    "block_to_payload",
    "payload_to_block",
    "store_to_payloads",
]
