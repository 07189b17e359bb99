"""The wire encoding shared by the detection server and its client.

Everything the service moves is JSON.  Alerts and events already carry
canonical encodings (``MonitorAlert.to_dict`` / ``ManagedAlert.to_dict`` /
``AnomalyEvent.to_dict``); this module supplies the two remaining pieces:
the ``/detect`` reply body (:func:`detect_reply`, below) and the **frame
payload** that carries usage samples from an agent to a tenant's ring.
Two frame shapes are accepted:

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

A ``/detect`` reply is the largest body the service writes (a 256-machine
window's default stack is about 150 KB).  :func:`detect_reply` encodes it
straight from each verdict's run arrays to the bytes ``json.dumps`` writes
for the equivalent dict of ``AnomalyEvent.to_dict`` lists — same key
order, separators, ``ensure_ascii`` escapes and float text — without
building an event object or a dict per event.
"""

from __future__ import annotations

import json
from typing import Iterable

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


#: ``json.dumps``'s text for the floats ``float.__repr__`` cannot spell.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

_EVENT = ('{"start": %%s, "end": %%s, "metric": %s, "subject": %%s, '
          '"kind": %s, "score": %%s, "detail": ""}')
_DETECTION = ('{"label": %s, "name": %s, "metric": %s, "events": [%s], '
              '"flagged_machines": [%s]}')
_REPLY = '{"tenant": %s, "num_samples": %s, "cached": false, "detections": [%s]}'


class _Texts:
    """Per-reply memo of JSON texts: each distinct string goes through
    ``json.dumps`` once, and each distinct timestamp grid through
    ``float.__repr__`` once (a reply's detections share one window)."""

    def __init__(self) -> None:
        self._strings: "dict[str, str]" = {}
        self._grids: "dict[bytes, list[str]]" = {}

    def string(self, text: str) -> str:
        encoded = self._strings.get(text)
        if encoded is None:
            encoded = self._strings[text] = json.dumps(text)
        return encoded

    def grid(self, timestamps: np.ndarray) -> "list[str]":
        timestamps = np.asarray(timestamps, dtype=np.float64)
        key = timestamps.tobytes()
        texts = self._grids.get(key)
        if texts is None:
            texts = self._grids[key] = _float_texts(timestamps)
        return texts


def _float_texts(values: np.ndarray) -> "list[str]":
    """``json.dumps``'s text of each value: ``float.__repr__``, with
    ``NaN`` / ``Infinity`` / ``-Infinity`` for the non-finite ones."""
    values = np.asarray(values, dtype=np.float64)
    texts = list(map(float.__repr__, values.tolist()))
    for index in np.flatnonzero(~np.isfinite(values)).tolist():
        texts[index] = _NON_FINITE[texts[index]]
    return texts


def _detection_text(label: str, name: str, metric: str, result,
                    texts: _Texts) -> str:
    block = result.block
    ids = result.machine_ids
    rows = block.rows.tolist()
    subjects = {row: texts.string(ids[row]) for row in set(rows)}
    stamps = texts.grid(block.timestamps)
    # metric and kind are fixed per detection: bake them into the event
    # template ('%' doubled), leaving the four per-event fields.
    template = _EVENT % (texts.string(result.metric).replace("%", "%%"),
                         texts.string(result.detector).replace("%", "%%"))
    events = ", ".join(map(template.__mod__, zip(
        map(stamps.__getitem__, block.starts.tolist()),
        map(stamps.__getitem__, (block.ends - 1).tolist()),
        map(subjects.__getitem__, rows),
        _float_texts(block.run_scores))))
    flagged = ", ".join(map(texts.string, sorted(result.flagged_machines())))
    return _DETECTION % (texts.string(label), texts.string(name),
                         texts.string(metric), events, flagged)


def detect_reply(tenant_id: str, num_samples: int,
                 detections: "Iterable[tuple[str, str, str, object]]",
                 ) -> bytes:
    """The ``POST /detect`` body, marked ``"cached": false``.

    ``detections`` yields one ``(label, name, metric, result)`` per plan,
    ``result`` an :class:`~repro.analysis.engine.EngineResult`.  The bytes
    equal ``json.dumps(reply).encode()`` of::

        {"tenant": tenant_id, "num_samples": num_samples, "cached": False,
         "detections": [{"label": label, "name": name, "metric": metric,
                         "events": [e.to_dict() for e in result.events()],
                         "flagged_machines": sorted(
                             result.flagged_machines())}, ...]}

    built from the run arrays (``rows``, ``starts``, ``ends``,
    ``run_scores``, ``timestamps``) without materialising an event.
    """
    texts = _Texts()
    body = _REPLY % (
        texts.string(tenant_id), int.__repr__(num_samples),
        ", ".join(_detection_text(label, name, metric, result, texts)
                  for label, name, metric, result in detections))
    return body.encode("ascii")


def mark_cached(body: bytes) -> bytes:
    """A :func:`detect_reply` body with its flag set to ``"cached": true``.

    The flag is the first ``"cached": false`` in the body: only the tenant
    id's JSON string precedes it, and an encoded string cannot hold that
    text (its quotes are escaped)."""
    return body.replace(b'"cached": false', b'"cached": true', 1)


__all__ = [
    "block_to_payload",
    "detect_reply",
    "mark_cached",
    "payload_to_block",
    "store_to_payloads",
]
