"""Tests for the serve-layer /detect response cache and the byte-based
journal-compaction trigger.

The detect cache is keyed on the request (canonical detector spec ×
metrics) plus the tenant's **window version** — (tenant incarnation, ring
append count): a repeat sweep over an unchanged window must skip the
executor entirely and return the identical response, any ring append
must change the version (even one made by an ingest that then failed),
a re-created tenant must never hit its deleted namesake's entries, and
each (tenant, request) keeps only its newest version.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ServeError
from repro.serve import DetectionServer, ServeClient
from repro.serve.persist import TenantPersistence

MACHINES = ["m-0", "m-1", "m-2"]


def make_frames(num_samples: int, num_machines: int = 3, *, seed: int = 0,
                start: float = 60.0):
    rng = np.random.default_rng(seed)
    ts = start + 60.0 * np.arange(num_samples, dtype=np.float64)
    frames = rng.uniform(5.0, 95.0, size=(num_samples, num_machines, 3))
    return ts, frames


@pytest.fixture()
def server():
    with DetectionServer(port=0, backend="threads", workers=2) as srv:
        yield srv


@pytest.fixture()
def client(server):
    with ServeClient(server.host, server.port) as c:
        yield c


def fill_tenant(client, tenant_id="t1", *, seed=0):
    client.create_tenant({"id": tenant_id, "machines": MACHINES})
    ts, frames = make_frames(24, seed=seed)
    client.ingest_frames(tenant_id, ts, frames)
    return ts, frames


class TestDetectCache:
    def test_repeat_detect_is_cached_and_identical(self, client):
        fill_tenant(client)
        first = client.detect("t1")
        second = client.detect("t1")
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["detections"] == first["detections"]
        assert second["num_samples"] == first["num_samples"]

    def test_hit_skips_the_executor(self, server, client, monkeypatch):
        fill_tenant(client)
        calls = []
        original = server.executor.run_many

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(server.executor, "run_many", counting)
        client.detect("t1")
        assert len(calls) == 1
        client.detect("t1")
        client.detect("t1")
        assert len(calls) == 1          # hits never reach the pool
        assert server.detect_cache.hits == 2
        assert server.detect_cache.misses == 1

    def test_ingest_changes_the_key(self, client):
        ts, frames = fill_tenant(client)
        assert client.detect("t1")["cached"] is False
        assert client.detect("t1")["cached"] is True
        client.ingest_frames("t1", [float(ts[-1] + 60.0)], frames[:1])
        fresh = client.detect("t1")
        assert fresh["cached"] is False

    def test_request_overrides_change_the_key(self, client):
        fill_tenant(client)
        client.detect("t1")
        assert client.detect("t1")["cached"] is True
        by_stack = client.detect("t1", detectors="ewma")
        assert by_stack["cached"] is False
        by_metric = client.detect("t1", metrics=["mem"])
        assert by_metric["cached"] is False
        # ...and each override caches independently.
        assert client.detect("t1", detectors="ewma")["cached"] is True

    def test_tenants_do_not_share_entries(self, client):
        fill_tenant(client, "t1", seed=0)
        fill_tenant(client, "t2", seed=0)   # same window bytes, other tenant
        client.detect("t1")
        assert client.detect("t2")["cached"] is False

    def test_lru_evicts_beyond_capacity(self):
        with DetectionServer(port=0, detect_cache_size=1) as srv, \
                ServeClient(srv.host, srv.port) as client:
            fill_tenant(client, "t1", seed=0)
            fill_tenant(client, "t2", seed=1)
            client.detect("t1")
            client.detect("t2")              # evicts t1's entry
            assert client.detect("t1")["cached"] is False

    def test_cache_disabled_with_size_zero(self):
        with DetectionServer(port=0, detect_cache_size=0) as srv, \
                ServeClient(srv.host, srv.port) as client:
            assert srv.detect_cache is None
            fill_tenant(client)
            assert client.detect("t1")["cached"] is False
            assert client.detect("t1")["cached"] is False

    def test_negative_cache_size_rejected(self):
        with pytest.raises(ServeError):
            DetectionServer(port=0, detect_cache_size=-1)

    def test_recreated_tenant_misses(self, client):
        """Same id, same sample count, other data: a new incarnation."""
        fill_tenant(client, "t1", seed=0)
        client.detect("t1")
        assert client.detect("t1")["cached"] is True
        client.delete_tenant("t1")
        fill_tenant(client, "t1", seed=1)
        fresh = client.detect("t1")
        assert fresh["cached"] is False
        with DetectionServer(port=0, detect_cache_size=0) as srv, \
                ServeClient(srv.host, srv.port) as other:
            fill_tenant(other, "t1", seed=1)
            assert fresh["detections"] == other.detect("t1")["detections"]

    def test_one_entry_per_tenant_and_request(self, server, client):
        """Superseded window versions are replaced, not kept beside."""
        stamps = {}
        for tenant_id in ("t1", "t2"):
            ts, _ = fill_tenant(client, tenant_id)
            stamps[tenant_id] = float(ts[-1])
        _, frames = make_frames(20, seed=5)
        for cycle in range(20):
            for tenant_id in ("t1", "t2"):
                stamps[tenant_id] += 60.0
                client.ingest_frames(tenant_id, [stamps[tenant_id]],
                                     frames[cycle:cycle + 1])
                assert client.detect(tenant_id)["cached"] is False
                assert client.detect(tenant_id, detectors="ewma")[
                    "cached"] is False
        assert len(server.detect_cache) == 4
        assert client.detect("t2", detectors="ewma")["cached"] is True

    def test_failed_ingest_after_ring_append_misses(self, server, client,
                                                    monkeypatch):
        """The ring moved though the ingest seq did not: the version moves."""
        ts, frames = fill_tenant(client)
        client.detect("t1")
        assert client.detect("t1")["cached"] is True
        tenant = server.registry.get("t1")

        def boom(*args, **kwargs):
            raise RuntimeError("detector state failed mid-ingest")

        monkeypatch.setattr(tenant.session.engine, "run_incremental", boom)
        with pytest.raises(ServeError, match="mid-ingest"):
            client.ingest_frames("t1", [float(ts[-1] + 60.0)], frames[:1])
        monkeypatch.undo()
        fresh = client.detect("t1")
        assert fresh["cached"] is False
        assert fresh["num_samples"] == len(ts) + 1

    def test_older_version_never_replaces_newer(self):
        from repro.serve.server import _DetectCache

        cache = _DetectCache(4)
        request = ("t1", "threshold", ("cpu",))
        cache.put((request, (1, 30)), {"n": 30})
        cache.put((request, (1, 24)), {"n": 24})   # a slower, older sweep
        assert cache.get((request, (1, 30))) == {"n": 30}
        assert cache.get((request, (1, 24))) is None
        cache.put((request, (2, 24)), {"n": "re-created"})
        assert cache.get((request, (2, 24))) == {"n": "re-created"}
        assert len(cache) == 1


class TestSnapshotBytes:
    def test_journal_growth_is_bounded(self, tmp_path):
        """With the byte trigger armed the journal snapshots + truncates."""
        kwargs = dict(port=0, snapshot_every=10**9)
        sizes = {}
        for name, extra in (("off", {}), ("on", {"snapshot_bytes": 2048})):
            state = tmp_path / name
            with DetectionServer(state_dir=state, **kwargs, **extra) as srv, \
                    ServeClient(srv.host, srv.port) as client:
                ts, frames = make_frames(40)
                client.create_tenant({"id": "t1", "machines": MACHINES})
                for i in range(len(ts)):
                    client.ingest_frames("t1", [float(ts[i])], frames[i:i + 1])
                tenant_dir = state / "tenants" / "t1"
                sizes[name] = (tenant_dir / "journal.wal").stat().st_size
                snapshotted = (tenant_dir / "snapshot.bin").exists()
            assert snapshotted == (name == "on")
        assert sizes["on"] < sizes["off"]
        assert sizes["on"] <= 2048 + 256    # at most one frame past the line

    def test_recovery_after_byte_triggered_snapshots(self, tmp_path):
        state = tmp_path / "state"
        with DetectionServer(port=0, state_dir=state, snapshot_every=10**9,
                             snapshot_bytes=1024) as srv, \
                ServeClient(srv.host, srv.port) as client:
            ts, frames = make_frames(40, seed=3)
            client.create_tenant({"id": "t1", "machines": MACHINES})
            for i in range(len(ts)):
                client.ingest_frames("t1", [float(ts[i])], frames[i:i + 1])
            before = client.detect("t1")
        with DetectionServer(port=0, state_dir=state) as srv, \
                ServeClient(srv.host, srv.port) as client:
            assert srv.recovered == ["t1"]
            after = client.detect("t1")
        assert after["detections"] == before["detections"]
        assert after["num_samples"] == before["num_samples"]

    def test_negative_snapshot_bytes_rejected(self, tmp_path):
        with pytest.raises(ServeError):
            TenantPersistence(tmp_path, snapshot_bytes=-1)

    def test_snapshot_due_dual_trigger(self, tmp_path):
        root = tmp_path / "t1"
        root.mkdir()
        persist = TenantPersistence(root, snapshot_every=4, snapshot_bytes=64)
        persist.append(0, np.array([60.0]), np.zeros((3, 3, 1)))
        assert persist.snapshot_due(1)       # byte trigger
        assert persist.snapshot_due(4)       # cadence trigger
        assert not persist.snapshot_due(0)   # nothing new since snapshot
        slim_root = tmp_path / "t2"
        slim_root.mkdir()
        slim = TenantPersistence(slim_root, snapshot_every=0,
                                 snapshot_bytes=10**6)
        slim.append(0, np.array([60.0]), np.zeros((3, 3, 1)))
        assert not slim.snapshot_due(3)      # journal below the line
