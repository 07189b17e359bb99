"""Tests for :class:`repro.stream.session.StreamSession`, the one stream fold."""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.errors import SeriesError
from repro.serve.tenants import TenantRegistry
from repro.serve.wire import block_to_payload
from repro.stream.monitor import MonitorConfig
from repro.stream.session import StreamSession

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
SESSION = SRC / "stream" / "session.py"

#: Calls only ``repro/stream/session.py`` may make: building a monitor
#: and folding a detector state.
FOLD_CALLS = ("OnlineMonitor", "run_incremental")


def hot_batch() -> dict:
    """Three samples of a 2-machine tenant; m1's CPU crosses 80%."""
    block = np.full((2, 3, 3), 20.0)
    block[0, 0, 1:] = 95.0
    return block_to_payload(np.array([0.0, 60.0, 120.0]), block)


def make_tenant():
    return TenantRegistry().create({"id": "a", "machines": ["m1", "m2"],
                                    "streaming": {"threshold": 80.0}})


class TestFailedFold:
    def test_the_batch_alerts_when_it_folds(self):
        reply = make_tenant().ingest(hot_batch())
        assert reply["cursor"] > 0

    def test_a_failed_fold_leaves_no_trace(self, monkeypatch):
        tenant = make_tenant()

        def boom(*args, **kwargs):
            raise RuntimeError("detector state failed")

        monkeypatch.setattr(tenant.session.engine, "run_incremental", boom)
        with pytest.raises(RuntimeError, match="detector state failed"):
            tenant.ingest(hot_batch())
        log = tenant.alerts(cursor=0)
        assert log["cursor"] == 0 and log["alerts"] == []
        assert tenant.alerts(view="managed")["alerts"] == []
        assert tenant.summary()["num_alerts"] == 0


class TestCadence:
    def test_unknown_cadence_rejected(self):
        with pytest.raises(SeriesError, match="cadence"):
            StreamSession(["m1"], cadence="yearly")

    def test_chunk_columns_follow_the_monitor_order(self, thrashing_bundle):
        store = thrashing_bundle.usage
        config = MonitorConfig(utilisation_threshold=90.0)
        sessions = [StreamSession(order, config=config, cadence="sample")
                    for order in (store.machine_ids,
                                  list(reversed(store.machine_ids)))]
        for session in sessions:
            session.ingest(store)
        aligned, reordered = (
            sorted((a.timestamp, a.subject, a.detail)
                   for a in session.monitor.alerts_of_kind("threshold"))
            for session in sessions)
        assert aligned and reordered == aligned


def _fold_calls(tree: ast.AST) -> "list[str]":
    """Every ``OnlineMonitor(...)`` or ``.run_incremental(...)`` call."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None)
        if name in FOLD_CALLS:
            found.append(f"{name} (line {node.lineno})")
    return found


def test_only_the_session_builds_the_fold():
    """Every stream folds through ``repro.stream.session.StreamSession``."""
    offenders = {}
    for path in sorted(SRC.rglob("*.py")):
        if path == SESSION:
            continue
        found = _fold_calls(ast.parse(path.read_text("utf-8")))
        if found:
            offenders[str(path.relative_to(SRC.parent))] = found
    assert offenders == {}, (
        "build the monitor and fold detector states through StreamSession")
    assert _fold_calls(ast.parse(SESSION.read_text("utf-8")))
