"""Tests for the detection service: wire encodings, tenants, endpoints.

Every server here binds port 0 (an ephemeral port) and is used in-process
— readiness is the bound socket, so there are no fixed ports and no
sleeps anywhere in the suite.
"""

from __future__ import annotations

import http.client
import json
import logging
import threading
import time

import numpy as np
import pytest

from repro.analysis.detectors import AnomalyEvent
from repro.errors import SeriesError, ServeError, UnknownTenantError
from repro.serve import DetectionServer, ServeClient
from repro.serve.tenants import TenantRegistry, TenantSpec
from repro.serve.wire import block_to_payload, payload_to_block, store_to_payloads
from repro.stream.monitor import MonitorAlert

MACHINES = ["m-0", "m-1", "m-2"]


def make_frames(num_samples: int, num_machines: int = 3, *, seed: int = 0,
                start: float = 60.0):
    """(timestamps, frames) with frames in wire (samples, machines, metrics)."""
    rng = np.random.default_rng(seed)
    ts = start + 60.0 * np.arange(num_samples, dtype=np.float64)
    frames = rng.uniform(5.0, 60.0, size=(num_samples, num_machines, 3))
    return ts, frames


@pytest.fixture(scope="module")
def server():
    with DetectionServer(port=0, backend="threads", workers=2) as srv:
        yield srv


@pytest.fixture()
def client(server):
    with ServeClient(server.host, server.port) as c:
        yield c


# -- canonical encodings ------------------------------------------------------
class TestWireEncodings:
    def test_monitor_alert_round_trip(self):
        alert = MonitorAlert(timestamp=120.0, kind="threshold", subject="m-1",
                             detail="cpu reached 99%", severity="critical")
        raw = json.loads(json.dumps(alert.to_dict()))
        assert MonitorAlert.from_dict(raw) == alert

    def test_anomaly_event_round_trip(self):
        event = AnomalyEvent(start=60.0, end=240.0, metric="cpu",
                             subject="m-2", kind="ewma", score=3.25,
                             detail="sustained deviation")
        raw = json.loads(json.dumps(event.to_dict()))
        assert AnomalyEvent.from_dict(raw) == event

    @pytest.mark.parametrize("raw", [{}, {"start": "x", "end": 1.0},
                                     {"start": 0.0}])
    def test_malformed_event_rejected(self, raw):
        with pytest.raises(SeriesError):
            AnomalyEvent.from_dict(raw)

    def test_block_payload_round_trip(self):
        ts, frames = make_frames(5)
        _, block = payload_to_block(
            {"timestamps": ts.tolist(), "frames": frames.tolist()}, 3)
        payload = block_to_payload(ts, block)
        ts2, block2 = payload_to_block(json.loads(json.dumps(payload)), 3)
        assert np.array_equal(ts, ts2)
        assert np.array_equal(block, block2)

    def test_single_sample_payload(self):
        ts, frames = make_frames(1)
        decoded_ts, block = payload_to_block(
            {"timestamp": float(ts[0]), "frame": frames[0].tolist()}, 3)
        assert decoded_ts.shape == (1,)
        assert block.shape == (3, 3, 1)

    @pytest.mark.parametrize("payload", [
        [],                                               # not an object
        {"timestamps": [1.0]},                            # missing frames
        {"timestamp": 1.0},                               # missing frame
        {"timestamp": 1.0, "frames": [[[1.0] * 3] * 3]},  # mixed shapes
        {"timestamps": [1.0], "frames": [[[1.0] * 2] * 3]},   # bad metric axis
        {"timestamps": [1.0], "frames": [[["x"] * 3] * 3]},   # non-numeric
        {"timestamps": [[1.0]], "frames": [[[1.0] * 3] * 3]},  # nested ts
    ])
    def test_malformed_frame_payload_rejected(self, payload):
        with pytest.raises(ServeError):
            payload_to_block(payload, 3)

    @pytest.mark.parametrize("payload", [
        {"timestamp": float("inf"), "frame": [[1.0] * 3] * 3},
        {"timestamps": [float("-inf")], "frames": [[[1.0] * 3] * 3]},
        {"timestamps": [float("nan"), 5.0], "frames": [[[1.0] * 3] * 3] * 2},
        {"timestamps": [5.0, float("nan")], "frames": [[[1.0] * 3] * 3] * 2},
        {"timestamps": [5.0, 5.0], "frames": [[[1.0] * 3] * 3] * 2},
        {"timestamps": [6.0, 5.0], "frames": [[[1.0] * 3] * 3] * 2},
    ])
    def test_bad_frame_timestamps_rejected(self, payload):
        with pytest.raises(ServeError, match="frame timestamps must be"):
            payload_to_block(payload, 3)

    def test_store_to_payloads_covers_every_sample(self, healthy_bundle):
        store = healthy_bundle.usage
        payloads = store_to_payloads(store, 7)
        total = sum(len(p["timestamps"]) for p in payloads)
        assert total == store.num_samples
        assert all(len(p["timestamps"]) <= 7 for p in payloads)

    def test_store_to_payloads_rejects_bad_batch(self, healthy_bundle):
        with pytest.raises(ServeError):
            store_to_payloads(healthy_bundle.usage, 0)


# -- tenant spec validation ---------------------------------------------------
class TestTenantSpec:
    def test_defaults_fill_in(self):
        spec = TenantSpec.from_dict({"machines": MACHINES}, default_id="t1")
        assert spec.tenant_id == "t1"
        assert spec.detectors == "ewma+flatline+threshold+zscore"
        assert spec.metrics == ("cpu",)
        assert spec.streaming.cadence == "catch-up"

    def test_round_trips_through_dict(self):
        spec = TenantSpec.from_dict(
            {"id": "prod", "machines": MACHINES, "detectors": "ewma+threshold",
             "metrics": ["cpu", "mem"]}, default_id="x")
        again = TenantSpec.from_dict(spec.to_dict(), default_id="y")
        assert again == spec

    @pytest.mark.parametrize("raw,needle", [
        ({}, "machines"),
        ({"machines": []}, "machines"),
        ({"machines": ["a", "a"]}, "unique"),
        ({"machines": MACHINES, "mode": "batch"}, "streaming"),
        ({"machines": MACHINES, "metrics": ["gpu"]}, "gpu"),
        ({"machines": MACHINES, "detectors": 7}, "spec string"),
        ({"machines": MACHINES, "id": "a/b"}, "path separators"),
        ({"machines": MACHINES, "id": ".."}, "path separators"),
        ({"machines": MACHINES, "id": "."}, "path separators"),
        ({"machines": MACHINES, "id": ""}, "path separators"),
        ({"machines": MACHINES, "id": "a\\b"}, "path separators"),
        ({"machines": MACHINES, "id": "x" * 129}, "path separators"),
        ({"machines": MACHINES, "bogus": 1}, "bogus"),
        ({"machines": MACHINES,
          "streaming": {"cadence": "sample"}}, "cadence"),
        ({"machines": MACHINES, "streaming": {"chunk": 8}}, "chunk"),
    ])
    def test_invalid_specs_rejected_with_context(self, raw, needle):
        with pytest.raises(ServeError) as excinfo:
            TenantSpec.from_dict(raw, default_id="t1")
        assert needle in str(excinfo.value)

    def test_pipeline_only_keys_named_explicitly(self):
        with pytest.raises(ServeError) as excinfo:
            TenantSpec.from_dict(
                {"machines": MACHINES, "source": {"kind": "synthetic"},
                 "sinks": ["score"]}, default_id="t1")
        message = str(excinfo.value)
        assert "source" in message and "sinks" in message

    def test_unknown_detector_lists_registered_names(self):
        from repro.errors import PipelineError

        with pytest.raises(PipelineError) as excinfo:
            TenantSpec.from_dict({"machines": MACHINES, "detectors": "nope"},
                                 default_id="t1")
        assert "ewma" in str(excinfo.value)


# -- registry -----------------------------------------------------------------
class TestTenantRegistry:
    def test_auto_ids_and_lookup(self):
        registry = TenantRegistry()
        first = registry.create({"machines": MACHINES})
        second = registry.create({"machines": MACHINES})
        assert [first.spec.tenant_id, second.spec.tenant_id] == ["t1", "t2"]
        assert registry.get("t1") is first
        assert registry.ids() == ["t1", "t2"]

    def test_duplicate_id_rejected(self):
        registry = TenantRegistry()
        registry.create({"id": "x", "machines": MACHINES})
        with pytest.raises(ServeError, match="already exists"):
            registry.create({"id": "x", "machines": MACHINES})

    def test_unknown_tenant_lists_registered(self):
        registry = TenantRegistry()
        registry.create({"id": "alpha", "machines": MACHINES})
        with pytest.raises(UnknownTenantError, match="alpha"):
            registry.get("beta")

    def test_capacity_bound(self):
        registry = TenantRegistry(max_tenants=1)
        registry.create({"machines": MACHINES})
        with pytest.raises(ServeError, match="capacity"):
            registry.create({"machines": MACHINES})

    def test_delete_closes_tenant(self):
        registry = TenantRegistry()
        tenant = registry.create({"id": "x", "machines": MACHINES})
        registry.delete("x")
        assert tenant.closed
        with pytest.raises(UnknownTenantError):
            registry.get("x")

    def test_close_all_refuses_new_tenants(self):
        registry = TenantRegistry()
        tenant = registry.create({"machines": MACHINES})
        registry.close_all()
        assert tenant.closed
        with pytest.raises(ServeError, match="draining"):
            registry.create({"machines": MACHINES})


# -- HTTP endpoints -----------------------------------------------------------
class TestEndpoints:
    def test_health(self, client):
        body = client.health()
        assert body["status"] == "ok"

    def test_tenant_lifecycle(self, client):
        spec = client.create_tenant({"id": "life", "machines": MACHINES})
        assert spec["id"] == "life"
        assert "life" in client.tenants()
        assert client.delete_tenant("life") == {"deleted": "life"}
        assert "life" not in client.tenants()

    def test_bad_spec_is_400_with_message(self, client):
        with pytest.raises(ServeError, match="machines"):
            client.create_tenant({"id": "broken"})

    def test_unknown_tenant_is_404(self, client):
        with pytest.raises(UnknownTenantError, match="unknown tenant"):
            client.summary("never-registered")

    def test_unknown_route_is_400(self, client):
        with pytest.raises(ServeError, match="no route"):
            client._request("GET", "/bogus/route")

    def test_non_json_body_is_400(self, server, client):
        import http.client

        conn = http.client.HTTPConnection(server.host, server.port, timeout=5)
        conn.request("POST", "/tenants", body=b"not json{",
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        body = json.loads(response.read())
        conn.close()
        assert response.status == 400
        assert "JSON" in body["error"]

    @pytest.mark.parametrize("length", ["-1", "abc"])
    def test_malformed_content_length_is_400(self, server, length, capsys):
        import socket

        request = (f"POST /tenants HTTP/1.1\r\nHost: test\r\n"
                   f"Content-Length: {length}\r\n\r\n").encode("ascii")
        with socket.create_connection((server.host, server.port),
                                      timeout=10) as sock:
            started = time.perf_counter()
            sock.sendall(request)
            reply = b""
            while chunk := sock.recv(65536):   # the server closes: EOF
                reply += chunk
            elapsed = time.perf_counter() - started
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0] == b"HTTP/1.1 400 Bad Request"
        assert "Content-Length" in json.loads(body)["error"]
        # Answered at once, not after the handler's 5 s socket timeout.
        assert elapsed < 2.5
        assert "Traceback" not in capsys.readouterr().err

    def test_ingest_and_cursor_walk(self, client):
        client.create_tenant({"id": "walk", "machines": MACHINES})
        ts, frames = make_frames(12, seed=3)
        frames[6:, 1, 0] = 99.0   # m-1 cpu breaches the default threshold
        reply = client.ingest_frames("walk", ts, frames)
        assert reply["ingested"] == 12
        assert reply["total_samples"] == 12
        assert reply["alerts"], "threshold breach must alert"
        # Walk the log with a cursor: no duplicates, no gaps.
        first = client.alerts("walk", cursor=0)
        seqs = [entry["seq"] for entry in first["alerts"]]
        assert seqs == list(range(1, len(seqs) + 1))
        again = client.alerts("walk", cursor=first["cursor"])
        assert again["alerts"] == []
        client.delete_tenant("walk")

    def test_ingest_rejects_stale_timestamps(self, client):
        client.create_tenant({"id": "stale", "machines": MACHINES})
        ts, frames = make_frames(4, seed=4)
        client.ingest_frames("stale", ts, frames)
        with pytest.raises(ServeError, match="not after"):
            client.ingest_frames("stale", ts, frames)
        client.delete_tenant("stale")

    def test_ingest_rejects_out_of_range_values(self, client):
        client.create_tenant({"id": "range", "machines": MACHINES})
        ts, frames = make_frames(2, seed=5)
        frames[0, 0, 0] = 250.0
        with pytest.raises(ServeError, match="outside"):
            client.ingest_frames("range", ts, frames)
        client.delete_tenant("range")

    def test_batching_cannot_change_verdicts(self, client):
        """Chunk-invariance over the wire: 1-sample vs 5-sample requests."""
        ts, frames = make_frames(10, seed=6)
        frames[4:, 2, 0] = 97.0
        client.create_tenant({"id": "one", "machines": MACHINES})
        client.create_tenant({"id": "five", "machines": MACHINES})
        for i in range(10):
            client.ingest_frames("one", ts[i:i + 1], frames[i:i + 1])
        for lo in range(0, 10, 5):
            client.ingest_frames("five", ts[lo:lo + 5], frames[lo:lo + 5])
        events_one = client.events("one")["detections"]
        events_five = client.events("five")["detections"]
        assert events_one == events_five
        client.delete_tenant("one")
        client.delete_tenant("five")

    def test_long_poll_wakes_on_ingest(self, server, client):
        client.create_tenant({"id": "poll", "machines": MACHINES})
        got: dict = {}

        def subscriber():
            with ServeClient(server.host, server.port) as sub:
                got.update(sub.alerts("poll", cursor=0, wait=20.0))

        thread = threading.Thread(target=subscriber)
        thread.start()
        ts, frames = make_frames(3, seed=7)
        frames[:, 0, 0] = 99.0   # alert on the very first batch
        client.ingest_frames("poll", ts, frames)
        thread.join(timeout=20.0)
        assert not thread.is_alive()
        assert got["alerts"], "long-poll must return the fresh alerts"
        client.delete_tenant("poll")

    def test_long_poll_wakes_on_delete(self, server, client):
        client.create_tenant({"id": "doomed", "machines": MACHINES})
        tenant = server.registry.get("doomed")
        result: dict = {}

        def subscriber():
            with ServeClient(server.host, server.port) as sub:
                result.update(sub.alerts("doomed", cursor=0, wait=20.0))

        thread = threading.Thread(target=subscriber)
        thread.start()
        # Delete only once the subscriber is genuinely parked on the
        # tenant's condition — otherwise the request would race the delete
        # and correctly 404.
        deadline = time.monotonic() + 10.0
        while not tenant.cond._waiters:  # noqa: SLF001 - test sync only
            assert time.monotonic() < deadline, "subscriber never parked"
            time.sleep(0.005)
        client.delete_tenant("doomed")
        thread.join(timeout=20.0)
        assert not thread.is_alive()
        assert result["closed"] is True, "delete must wake parked subscribers"

    def test_detect_matches_local_engine(self, client):
        from repro.analysis.engine import DetectionEngine
        from repro.config import METRICS
        from repro.metrics.store import MetricStore

        client.create_tenant({"id": "det", "machines": MACHINES})
        ts, frames = make_frames(20, seed=8)
        frames[10:, 0, 1] = 96.0
        client.ingest_frames("det", ts, frames)
        body = client.detect("det", detectors="threshold", metrics=["mem"])
        local_store = MetricStore.from_dense(
            MACHINES, ts, METRICS,
            np.ascontiguousarray(frames.transpose(1, 2, 0)))
        local = DetectionEngine(detectors={}).run(local_store, "threshold",
                                                  metric="mem")
        (detection,) = body["detections"]
        assert detection["label"] == "threshold"
        assert detection["events"] == [e.to_dict() for e in local.events()]
        assert detection["flagged_machines"] == sorted(
            local.flagged_machines())
        client.delete_tenant("det")

    def test_detect_on_empty_tenant_is_400(self, client):
        client.create_tenant({"id": "empty", "machines": MACHINES})
        with pytest.raises(ServeError, match="no samples"):
            client.detect("empty")
        client.delete_tenant("empty")

    def test_alert_views(self, client):
        client.create_tenant({"id": "views", "machines": MACHINES})
        ts, frames = make_frames(8, seed=9)
        frames[2:, 0, 0] = 99.0
        client.ingest_frames("views", ts, frames)
        log = client.alerts("views", view="log")
        managed = client.alerts("views", view="managed")
        pending = client.alerts("views", view="pending")
        assert log["alerts"]
        # The manager dedups, so the managed view never exceeds the log.
        assert len(managed["alerts"]) <= len(log["alerts"])
        assert all("occurrences" in r for r in managed["alerts"])
        assert pending["alerts"]
        with pytest.raises(ServeError, match="view"):
            client.alerts("views", view="bogus")
        client.delete_tenant("views")

    def test_unknown_view_answers_before_the_long_poll(self, client):
        client.create_tenant({"id": "badview", "machines": MACHINES})
        started = time.perf_counter()
        with pytest.raises(ServeError, match="unknown alert view"):
            client.alerts("badview", view="bogus", wait=2.0)
        assert time.perf_counter() - started < 1.0   # not after the wait
        client.delete_tenant("badview")

    def test_concurrent_tenants_do_not_interleave_state(self, server):
        """Interleaved ingest across threads: per-tenant totals stay exact."""
        ids = [f"iso-{i}" for i in range(4)]
        with ServeClient(server.host, server.port) as admin:
            for tenant_id in ids:
                admin.create_tenant({"id": tenant_id, "machines": MACHINES})
        errors: list = []

        def feed(tenant_id: str, seed: int) -> None:
            try:
                with ServeClient(server.host, server.port) as c:
                    ts, frames = make_frames(30, seed=seed)
                    for lo in range(0, 30, 3):
                        c.ingest_frames(tenant_id, ts[lo:lo + 3],
                                        frames[lo:lo + 3])
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=feed, args=(tid, i))
                   for i, tid in enumerate(ids)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        with ServeClient(server.host, server.port) as admin:
            for tenant_id in ids:
                assert admin.summary(tenant_id)["num_samples"] == 30
                admin.delete_tenant(tenant_id)


def request_raw(server, method: str, path: str,
                body: dict | None = None) -> "tuple[int, dict]":
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.request(method, path,
                     body=None if body is None else json.dumps(body).encode(),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


BAD_STACKS = [
    ({"detectors": [1]}, "detectors"),
    ({"detectors": ["ewma", None]}, "detectors"),
    ({"detectors": {"a": 1}}, "detectors"),
    ({"metrics": 5}, "metrics"),
    ({"metrics": None}, "metrics"),
    ({"metrics": []}, "metrics"),
    ({"metrics": ["cpu", 7]}, "metrics"),
]


class TestStackValidation:
    """Tenant creation and ``/detect`` check ``detectors`` and ``metrics``
    alike: a bad value is a 400 naming its key, before anything is
    created, journaled, cached or swept."""

    @pytest.mark.parametrize("raw,key", BAD_STACKS)
    def test_tenant_creation(self, tmp_path, raw, key):
        with DetectionServer(port=0, state_dir=tmp_path / "state") as srv:
            status, body = request_raw(srv, "POST", "/tenants",
                                       {"id": "bad", "machines": MACHINES,
                                        **raw})
            assert len(srv.registry) == 0
            assert not srv.registry.state.tenant_root("bad").exists()
        assert status == 400
        assert f"'{key}'" in body["error"]

    @pytest.mark.parametrize("raw,key", BAD_STACKS)
    def test_detect(self, raw, key):
        with DetectionServer(port=0) as srv, \
                ServeClient(srv.host, srv.port) as client:
            client.create_tenant({"id": "t1", "machines": MACHINES})
            client.ingest_frames("t1", *make_frames(12))
            sweeps = []
            srv.executor.run_many = lambda *a, **k: sweeps.append(a)
            status, body = request_raw(srv, "POST", "/tenants/t1/detect", raw)
            assert sweeps == []
            assert len(srv.detect_cache) == 0
            assert srv.detect_cache.hits + srv.detect_cache.misses == 0
        assert status == 400
        assert f"'{key}'" in body["error"]


class TestServerLifecycle:
    def test_port_zero_binds_ephemeral(self):
        with DetectionServer(port=0) as srv:
            assert srv.port != 0

    def test_close_is_idempotent_and_safe_without_start(self):
        server = DetectionServer(port=0)
        server.close()
        server.close()

    def test_requests_after_close_fail(self):
        server = DetectionServer(port=0).start()
        host, port = server.host, server.port
        server.close()
        client = ServeClient(host, port, timeout=2.0)
        with pytest.raises((ServeError, OSError)):
            client.health()
        client.close()

    def test_draining_server_rejects_new_tenants(self):
        server = DetectionServer(port=0).start()
        server.registry.close_all()
        with ServeClient(server.host, server.port) as client:
            with pytest.raises(ServeError, match="draining"):
                client.create_tenant({"machines": MACHINES})
        server.close()


class TestErrorLogging:
    """Every 5xx the service answers is logged; 4xx replies stay quiet."""

    @staticmethod
    def status_of(server, method: str, path: str) -> int:
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=10.0)
        try:
            conn.request(method, path)
            response = conn.getresponse()
            response.read()
            return response.status
        finally:
            conn.close()

    @staticmethod
    def server_records(caplog):
        return [record for record in caplog.records
                if record.name == "repro.serve.server"]

    def test_handler_exception_logs_one_error_with_traceback(
            self, monkeypatch, caplog):
        with DetectionServer(port=0) as server:
            def boom():
                raise RuntimeError("registry exploded")

            monkeypatch.setattr(server.registry, "ids", boom)
            with caplog.at_level(logging.DEBUG, logger="repro.serve.server"):
                assert self.status_of(server, "GET", "/tenants") == 500
        records = self.server_records(caplog)
        assert len(records) == 1
        record = records[0]
        assert record.levelno == logging.ERROR
        assert "GET /tenants" in record.getMessage()
        assert record.exc_info is not None
        assert "registry exploded" in str(record.exc_info[1])

    def test_unavailable_logs_one_warning_without_traceback(self, caplog):
        with DetectionServer(port=0) as server:
            server.registry.close_all()
            with caplog.at_level(logging.DEBUG, logger="repro.serve.server"):
                assert self.status_of(server, "POST", "/tenants") == 503
        records = self.server_records(caplog)
        assert [record.levelno for record in records] == [logging.WARNING]
        assert "POST /tenants" in records[0].getMessage()
        assert records[0].exc_info is None

    def test_client_errors_log_nothing(self, caplog):
        with DetectionServer(port=0) as server:
            with caplog.at_level(logging.DEBUG, logger="repro.serve.server"):
                assert self.status_of(server, "GET", "/tenants/nope") == 404
                assert self.status_of(server, "GET", "/no-such-route") == 400
        assert self.server_records(caplog) == []


class TestPoisonedTimestamps:
    """A batch with timestamps the ring could never order is refused
    before a durable tenant journals it, so it cannot brick the tenant."""

    @pytest.mark.parametrize("bad", [[float("inf")], [float("nan"), 5.0]])
    def test_rejected_before_the_journal(self, tmp_path, bad):
        state = tmp_path / "state"
        ts, frames = make_frames(6, seed=7)
        with DetectionServer(port=0, state_dir=state) as srv, \
                ServeClient(srv.host, srv.port) as client:
            client.create_tenant({"id": "t1", "machines": MACHINES})
            client.ingest_frames("t1", ts[:3], frames[:3])
            journal = state / "tenants" / "t1" / "journal.wal"
            size = journal.stat().st_size
            with pytest.raises(ServeError, match="finite"):
                client.ingest_frames("t1", bad, frames[3:3 + len(bad)])
            assert journal.stat().st_size == size
            assert client.ingest_frames("t1", ts[3:],
                                        frames[3:])["total_samples"] == 6
            events = client.events("t1")
        with DetectionServer(port=0, state_dir=state) as srv, \
                ServeClient(srv.host, srv.port) as client:
            assert srv.recovered == ["t1"]
            summary = client.summary("t1")
            assert summary["num_samples"] == 6
            assert summary["latest_timestamp"] == float(ts[-1])
            assert client.events("t1") == events
