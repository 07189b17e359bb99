"""Benchmark-side tracing: timers wrapped around the system's public calls.

A :class:`Recorder` keeps spans in memory — ``(name, start, end, id,
parent, request, info)`` — and the ``install_*`` functions wrap each
traced function *at every place it is looked up*: ``tenants.py``,
``monitor.py`` and ``server.py`` import ``payload_to_block``,
``cluster_thrashing_report`` and ``compile_plans`` by name, so wrapping
only the defining module would miss those calls.  Parents are tracked per
thread; every span under one ``DetectionServer.handle`` call (or one
offline op) carries that request's id.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time

_MISSING = object()


class Recorder:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: request id -> (kind, label): a route and client rid for served
        #: requests, an op type for offline ops.
        self.requests: dict[int, tuple] = {}
        self._local = threading.local()
        self._span_ids = itertools.count(1)
        self._request_ids = itertools.count(1)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_request(self, kind: str, label) -> int:
        """Open a request scope on this thread; spans inside inherit its id."""
        request = next(self._request_ids)
        self.requests[request] = (kind, label)
        self._stack().append((0, request, kind))
        return request

    def end_request(self) -> None:
        self._stack().pop()

    def wrap(self, fn, name, *, info=None, request=None):
        """``fn`` timed as span ``name``.

        ``name`` may be a callable of the parent span's name (one function
        charged to different layers by caller).  ``info(args, kwargs,
        result)`` attaches a small number (bytes, samples, hit).
        ``request(args, kwargs)`` makes the span open a request scope and
        returns its ``(kind, label)``.
        """
        recorder = self

        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            parent_id, req, parent_name = stack[-1] if stack else (0, 0, None)
            span_name = name(parent_name) if callable(name) else name
            if request is not None:
                req = next(recorder._request_ids)
                recorder.requests[req] = request(args, kwargs)
            span_id = next(recorder._span_ids)
            stack.append((span_id, req, span_name))
            result = _MISSING
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = None
                if info is not None and result is not _MISSING:
                    extra = info(args, kwargs, result)
                recorder.spans.append((span_name, start, end, span_id,
                                       parent_id, req, extra))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    def dump(self, path) -> None:
        payload = {"spans": self.spans,
                   "requests": {str(k): v for k, v in self.requests.items()}}
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)


def load_dump(path) -> "tuple[list[tuple], dict[int, tuple]]":
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    return ([tuple(span) for span in payload["spans"]],
            {int(k): tuple(v) for k, v in payload["requests"].items()})


def _patch_function(recorder: Recorder, sites, attr: str, name, **kw) -> None:
    """Wrap one function at its defining module and every by-name import."""
    original = getattr(sites[0], attr)
    for module in sites:
        if getattr(module, attr) is not original:
            raise RuntimeError(f"{module.__name__}.{attr} is not the function "
                               f"defined in {sites[0].__name__}")
        setattr(module, attr, recorder.wrap(original, name, **kw))


def _patch_method(recorder: Recorder, cls, attr: str, name, **kw) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(recorder.wrap(raw.__func__, name, **kw)))
    else:
        setattr(cls, attr, recorder.wrap(raw, name, **kw))


def install_offline(recorder: Recorder) -> None:
    """Trace the offline path: CLI → pipeline → trace load / result cache →
    batch engine → scoring."""
    import repro.cli
    import repro.pipeline.core as core
    import repro.pipeline.resultcache as resultcache
    import repro.scenarios.scoring as scoring
    import repro.trace.cache as cache
    import repro.trace.loader as loader
    from repro.analysis.engine import DetectionEngine

    _patch_function(recorder, [loader, repro.cli], "load_trace",
                    "trace.load_trace")
    # The result cache keys a trace dir on the same stat-ledger
    # fingerprint; under its key span that call is charged to the cache.
    _patch_function(recorder, [cache], "resolve_fingerprint",
                    lambda parent: ("pipeline.resultcache.fingerprint"
                                    if parent == "pipeline.resultcache.key"
                                    else "trace.resolve_fingerprint"))
    _patch_function(recorder, [cache], "load_trace_cache",
                    "trace.load_trace_cache")
    _patch_function(recorder, [cache], "save_trace_cache",
                    "trace.save_trace_cache")
    _patch_function(recorder, [core], "compile_plans",
                    "pipeline.compile_plans")
    _patch_function(recorder, [resultcache], "source_key",
                    "pipeline.resultcache.key")
    _patch_method(recorder, core.Pipeline, "run", "pipeline.run")
    _patch_method(recorder, resultcache.ResultCache, "load",
                  "pipeline.resultcache.load",
                  info=lambda a, k, r: int(r is not None))
    _patch_method(recorder, resultcache.ResultCache, "store",
                  "pipeline.resultcache.store")
    _patch_method(recorder, DetectionEngine, "run", "analysis.engine.run")
    _patch_function(recorder, [scoring], "score_bundle",
                    "scenarios.score_bundle")
    _patch_function(recorder, [repro.cli], "main", "cli.main")


def _num_samples(args, kwargs, result) -> int:
    store = args[1] if len(args) > 1 else kwargs.get("store")
    return int(store.num_samples)


def _scanned(args, kwargs, result) -> int:
    store = args[0] if args else kwargs.get("store")
    return int(store.num_samples)


def _route(args, kwargs) -> tuple:
    method, parts, query = args[1], args[2], args[3]
    route = parts[2] if len(parts) == 3 else "/".join(parts[:1])
    return (f"{method} {route}", query.get("rid"))


def install_serve(recorder: Recorder) -> None:
    """Trace the serve path: handle → tenant → wire / journal / monitor /
    detector states / alerts, the /detect route, and recovery."""
    import repro.analysis.patterns as patterns
    import repro.analysis.thrashing as thrashing
    import repro.pipeline.core as core
    import repro.serve.server as server
    import repro.serve.tenants as tenants
    import repro.serve.wire as wire
    import repro.stream.monitor as monitor
    from repro.analysis.engine import DetectionEngine
    from repro.analysis.shard import ShardExecutor
    from repro.serve.persist import TenantPersistence
    from repro.stream.alerts import AlertManager

    _patch_method(recorder, server.DetectionServer, "handle", "serve.handle",
                  request=_route)
    _patch_function(recorder, [wire, tenants], "payload_to_block",
                    "serve.wire.payload_to_block")
    _patch_function(recorder, [core, tenants, server], "compile_plans",
                    "pipeline.compile_plans")
    _patch_function(recorder, [server], "_detect_window_key",
                    "serve.detect.window_key")
    _patch_method(recorder, server._DetectCache, "get",
                  "serve.detect_cache.get",
                  info=lambda a, k, r: int(r is not None))
    _patch_method(recorder, tenants.Tenant, "ingest", "serve.tenant.ingest")
    _patch_method(recorder, tenants.Tenant, "snapshot",
                  "serve.tenant.snapshot")
    _patch_method(recorder, tenants.Tenant, "alerts", "serve.tenant.alerts")
    _patch_method(recorder, tenants.Tenant, "recover",
                  "serve.tenant.recover")
    _patch_method(recorder, TenantPersistence, "append",
                  "serve.persist.append",
                  info=lambda a, k, r: int(a[2].nbytes + a[3].nbytes + 20))
    _patch_method(recorder, TenantPersistence, "write_snapshot",
                  "serve.persist.write_snapshot",
                  info=lambda a, k, r: int(os.path.getsize(
                      a[0].snapshot_path)))
    _patch_method(recorder, TenantPersistence, "load", "serve.persist.load",
                  info=lambda a, k, r: len(r[1]))
    _patch_method(recorder, monitor.OnlineMonitor, "catch_up",
                  "stream.monitor.catch_up", info=_num_samples)
    _patch_function(recorder, [thrashing, monitor],
                    "cluster_thrashing_report",
                    "analysis.thrashing.cluster_thrashing_report",
                    info=_scanned)
    _patch_function(recorder, [patterns, monitor], "classify_regime",
                    "analysis.patterns.classify_regime")
    _patch_method(recorder, DetectionEngine, "run_incremental",
                  "analysis.engine.run_incremental")
    _patch_method(recorder, AlertManager, "ingest_many",
                  "stream.alerts.ingest_many")
    _patch_method(recorder, ShardExecutor, "run_many",
                  "analysis.shard.run_many")
    # Retries are only visible where a pooled pass hands back failed units.
    _patch_method(recorder, ShardExecutor, "_pooled_pass",
                  "analysis.shard.pooled_pass",
                  info=lambda a, k, r: len(r))
