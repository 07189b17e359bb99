"""The ``/detect`` reply: encoded once from the run arrays, cached as bytes.

:func:`repro.serve.wire.detect_reply` writes a ``/detect`` body straight
from each verdict's run arrays.  :func:`legacy_reply` below is the path it
replaced — one ``AnomalyEvent.to_dict`` per event, then ``json.dumps`` of
the reply dict — and every body the server writes must equal it byte for
byte: for the default stack, every registered detector alone, ad-hoc
stacks, machine ids that JSON has to escape, and a window without events.
A window-cache hit must return its miss's bytes with only the
``"cached"`` flag changed, without running any JSON encoding.
"""

from __future__ import annotations

import http.client
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.detectors import AnomalyEvent, BlockDetection
from repro.analysis.engine import DetectionEngine, EngineResult
from repro.pipeline.core import compile_plans
from repro.pipeline.detectors import detector_names
from repro.serve import DetectionServer, ServeClient
from repro.serve.wire import detect_reply, mark_cached

#: Ids JSON must escape: non-ASCII, quotes, backslashes, control
#: characters, a line separator, an astral character and a lone surrogate.
ESCAPED_MACHINES = ["m-0", "naïve-é", 'quo"te', "back\\slash",
                    "ctl\x01\x1f\n\t", "機械-5", "line\u2028sep",
                    "emoji-\U0001F600", "lone-\ud800", "%s-%d"]


def legacy_reply(tenant, body: dict) -> bytes:
    """The reply as the dict-plus-``json.dumps`` path built it."""
    detectors = body.get("detectors", tenant.spec.detectors)
    if isinstance(detectors, list):
        detectors = "+".join(detectors)
    metrics = body.get("metrics", tenant.spec.metrics)
    if isinstance(metrics, str):
        metrics = (metrics,)
    plans, _ = compile_plans(detectors, tuple(metrics))
    window = tenant.snapshot()
    engine = DetectionEngine(detectors={})
    detections = []
    for plan in plans:
        result = engine.run(window, plan.detector, metric=plan.metric)
        detections.append({
            "label": plan.label, "name": plan.name, "metric": plan.metric,
            "events": [event.to_dict() for event in result.events()],
            "flagged_machines": sorted(result.flagged_machines())})
    return json.dumps({"tenant": tenant.spec.tenant_id,
                       "num_samples": window.num_samples, "cached": False,
                       "detections": detections}).encode("utf-8")


def post_raw(server, path: str, body: bytes) -> "tuple[int, bytes]":
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.request("POST", path, body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def busy_frames(num_samples: int, num_machines: int, *, seed: int):
    """Frames on which every default detector fires somewhere."""
    rng = np.random.default_rng(seed)
    ts = 60.0 + 60.0 * np.arange(num_samples, dtype=np.float64)
    frames = rng.uniform(20.0, 60.0, size=(num_samples, num_machines, 3))
    frames[num_samples // 2:, ::2, 0] = 99.0        # threshold, ewma
    frames[num_samples // 3:num_samples // 3 + 3, 1::3, :] += 35.0
    frames[-8:, 1, :] = 0.0                         # flatline
    return ts, np.clip(frames, 0.0, 100.0)


@pytest.fixture(scope="module")
def server():
    """Every ``/detect`` here is a fresh sweep: the window cache is off."""
    with DetectionServer(port=0, backend="threads", workers=2,
                         detect_cache_size=0) as srv:
        with ServeClient(srv.host, srv.port) as client:
            client.create_tenant({"id": "esc", "machines": ESCAPED_MACHINES,
                                  "metrics": ["cpu", "mem"]})
            client.ingest_frames("esc", *busy_frames(
                48, len(ESCAPED_MACHINES), seed=1))
            client.create_tenant({"id": "calm", "machines": ["a", "b", "c"]})
            ts = 60.0 + 60.0 * np.arange(30, dtype=np.float64)
            client.ingest_frames("calm", ts, np.full((30, 3, 3), 40.0))
        yield srv


STACKS = [
    pytest.param({}, id="tenant-stack"),
    pytest.param({"detectors": None}, id="registry-default"),
    *[pytest.param({"detectors": name}, id=name)
      for name in detector_names()],
    pytest.param({"detectors": "threshold+threshold(threshold=50)"},
                 id="repeated-detector"),
    pytest.param({"detectors": ["ewma", "zscore(window=8)"],
                  "metrics": ["cpu", "mem", "disk"]}, id="several-metrics"),
    pytest.param({"detectors": "flatline+ewma", "metrics": "disk"},
                 id="one-metric-string"),
]


class TestServedBodiesMatchDumps:
    @pytest.mark.parametrize("body", STACKS)
    def test_body_is_byte_identical(self, server, body):
        tenant = server.registry.get("esc")
        status, raw = post_raw(server, "/tenants/esc/detect",
                               json.dumps(body).encode())
        assert status == 200
        assert raw == legacy_reply(tenant, body)

    def test_every_escaped_id_is_a_subject(self, server):
        status, raw = post_raw(server, "/tenants/esc/detect",
                               b'{"detectors": "threshold"}')
        assert status == 200
        subjects = {event["subject"]
                    for detection in json.loads(raw)["detections"]
                    for event in detection["events"]}
        assert set(ESCAPED_MACHINES[::2]) <= subjects
        assert raw.isascii()

    @pytest.mark.parametrize("body", STACKS[:3])
    def test_window_without_events(self, server, body):
        tenant = server.registry.get("calm")
        status, raw = post_raw(server, "/tenants/calm/detect",
                               json.dumps(body).encode())
        assert status == 200
        assert raw == legacy_reply(tenant, body)
        assert b'"events": []' in raw
        assert b'"flagged_machines": []' in raw


@pytest.fixture()
def cached_server():
    with DetectionServer(port=0, backend="threads", workers=2) as srv:
        with ServeClient(srv.host, srv.port) as client:
            client.create_tenant({"id": "hit", "machines": ESCAPED_MACHINES})
            client.ingest_frames("hit", *busy_frames(
                40, len(ESCAPED_MACHINES), seed=2))
        yield srv


class TestHitBytes:
    def test_hit_equals_miss_but_for_the_flag(self, cached_server):
        _, miss = post_raw(cached_server, "/tenants/hit/detect", b"{}")
        _, hit = post_raw(cached_server, "/tenants/hit/detect", b"{}")
        assert b'"cached": false' in miss
        assert hit == miss.replace(b'"cached": false', b'"cached": true', 1)
        assert hit == mark_cached(miss)

    def test_hit_runs_no_json_encoding(self, cached_server, monkeypatch):
        _, miss = post_raw(cached_server, "/tenants/hit/detect", b"{}")

        def boom(*args, **kwargs):
            raise AssertionError("a cache hit encoded JSON")

        monkeypatch.setattr(json, "dumps", boom)
        monkeypatch.setattr(AnomalyEvent, "to_dict", boom)
        status, hit = post_raw(cached_server, "/tenants/hit/detect", b"{}")
        assert status == 200
        assert hit == mark_cached(miss)


# -- the encoder against json.dumps, on drawn run arrays -----------------------
SPECIAL_FLOATS = [float("inf"), float("-inf"), float("nan"), -0.0, 0.0,
                  5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -1e16,
                  9999999999999998.0, 1.0000000000000002e16, 1e16 + 2.0,
                  0.1, 1e-7, 1e22, 123456789.0]
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(),
                   st.floats(min_value=9e15, max_value=1.1e16),
                   st.floats(min_value=-1e-307, max_value=1e-307))


@st.composite
def drawn_results(draw):
    machine_ids = tuple(draw(st.lists(st.text(min_size=1, max_size=6),
                                      min_size=1, max_size=5, unique=True)))
    num_samples = draw(st.integers(min_value=1, max_value=10))
    timestamps = np.asarray(draw(st.lists(FLOATS, min_size=num_samples,
                                          max_size=num_samples)))
    runs = draw(st.lists(st.tuples(
        st.integers(0, len(machine_ids) - 1),
        st.integers(0, num_samples - 1),
        st.integers(1, num_samples), FLOATS), max_size=12))
    runs = [(row, min(lo, hi - 1), hi, score) for row, lo, hi, score in runs]
    shape = (len(machine_ids), num_samples)
    block = BlockDetection(
        timestamps=timestamps, mask=np.zeros(shape, dtype=bool),
        scores=np.zeros(shape),
        rows=np.asarray([run[0] for run in runs], dtype=np.int64),
        starts=np.asarray([run[1] for run in runs], dtype=np.int64),
        ends=np.asarray([run[2] for run in runs], dtype=np.int64),
        run_scores=np.asarray([run[3] for run in runs], dtype=np.float64))
    return EngineResult(detector=draw(st.text(max_size=6)),
                        metric=draw(st.text(max_size=6)),
                        machine_ids=machine_ids, block=block)


class TestEncoderProperty:
    @settings(max_examples=150, deadline=None)
    @given(tenant_id=st.text(max_size=8),
           num_samples=st.integers(min_value=0, max_value=2 ** 40),
           detections=st.lists(st.tuples(st.text(max_size=6),
                                         st.text(max_size=6),
                                         st.text(max_size=6),
                                         drawn_results()), max_size=3))
    def test_equals_dumps_of_the_event_dicts(self, tenant_id, num_samples,
                                             detections):
        reply = {"tenant": tenant_id, "num_samples": num_samples,
                 "cached": False,
                 "detections": [
                     {"label": label, "name": name, "metric": metric,
                      "events": [e.to_dict() for e in result.events()],
                      "flagged_machines": sorted(result.flagged_machines())}
                     for label, name, metric, result in detections]}
        body = detect_reply(tenant_id, num_samples, detections)
        assert body == json.dumps(reply).encode("utf-8")
        reply["cached"] = True
        assert mark_cached(body) == json.dumps(reply).encode("utf-8")
