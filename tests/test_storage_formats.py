"""Files an earlier build wrote still load: the on-disk formats are pinned.

``tests/fixtures/storage_v1/`` holds one of each durable store, written
by the code before ``repro.storage`` existed, with the ``generate.py``
that made them beside it: a trace dir with its sidecar cache, one
result-cache entry, and a serve state dir whose tenant has a snapshot
and a journal tail.  Each test copies the fixture to a temporary
directory first (a load may rewrite the stat ledger, and recovery
commits a fresh snapshot), then checks that today's code reads the old
files as the hit they are, equal to a fresh computation.

A failure here means every deployed cache or state dir would stop
loading.  Change a format only together with a reader for the old one.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.pipeline import Pipeline
from repro.serve.persist import FrameJournal, ServerStateDir
from repro.serve.tenants import TenantRegistry
from repro.serve.wire import store_to_payloads
from repro.trace import loader
from repro.trace.cache import CACHE_VERSION
from repro.trace.loader import load_trace
from tests.test_resultcache import assert_runs_identical
from tests.test_trace_cache import assert_bundles_identical

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "storage_v1"


@pytest.fixture()
def fixture_copy(tmp_path):
    """A private copy of the fixture and its ``fixture.json`` recipe."""
    copy = tmp_path / "storage_v1"
    shutil.copytree(FIXTURE, copy)
    recipe = json.loads((copy / "fixture.json").read_text(encoding="utf-8"))
    return copy, recipe


def test_the_fixture_holds_every_store():
    """Guard against a regeneration that silently drops a store."""
    sidecar = FIXTURE / "trace" / ".repro-cache"
    assert sorted(p.name for p in sidecar.iterdir()) == [
        "stats.json", "trace.npz", "usage.npy"]
    assert json.loads((sidecar / "stats.json").read_text())["version"] == (
        CACHE_VERSION)
    assert len(list((FIXTURE / "results").glob("*.npz"))) == 1
    tenant = FIXTURE / "state" / "tenants" / "fx"
    assert (tenant / "snapshot.bin").is_file()
    assert FrameJournal.read_records(tenant / "journal.wal", 12, 3)


def test_trace_sidecar_serves_a_cached_load(fixture_copy, monkeypatch):
    copy, _ = fixture_copy
    trace_dir = copy / "trace"

    def no_parse(*args, **kwargs):
        raise AssertionError("the sidecar must serve this load")

    with monkeypatch.context() as patch:
        patch.setattr(loader, "_load_records", no_parse)
        patch.setattr(loader, "_load_usage_store", no_parse)
        warm = load_trace(trace_dir, cache=True)
    assert_bundles_identical(warm, load_trace(trace_dir))


def test_result_cache_entry_hits(fixture_copy):
    copy, recipe = fixture_copy
    source = {"kind": "trace-dir", "path": str(copy / "trace")}
    cached = Pipeline.from_spec({
        **recipe["pipeline"], "source": source,
        "result_cache": {"dir": str(copy / "results")}}).run()
    assert cached.timings["result_cache"] == "hit"
    fresh = Pipeline.from_spec({**recipe["pipeline"], "source": source}).run()
    assert fresh.flagged_machines()
    assert_runs_identical(cached, fresh)


def test_state_dir_recovers_equal_to_a_live_replay(fixture_copy):
    copy, recipe = fixture_copy
    registry = TenantRegistry(state=ServerStateDir(
        copy / "state", snapshot_every=recipe["snapshot_every"]))
    try:
        assert registry.recover() == [recipe["tenant"]["id"]]
        assert registry.skipped == []
        recovered = registry.get(recipe["tenant"]["id"])

        live = TenantRegistry().create(recipe["tenant"])
        payloads = store_to_payloads(load_trace(copy / "trace").usage,
                                     recipe["batch"])
        assert len(payloads) == recipe["batches"]
        for payload in payloads:
            live.ingest(payload)

        assert recovered.summary() == live.summary()
        assert recovered.events() == live.events()
        for view in ("log", "managed"):
            assert (recovered.alerts(cursor=0, view=view)
                    == live.alerts(cursor=0, view=view))
        assert recovered.alerts(cursor=0)["alerts"]
    finally:
        registry.close_all()
