"""The resident detection service: JSON over HTTP in front of tenants.

:class:`DetectionServer` binds a :class:`ThreadingHTTPServer` (stdlib —
no new dependencies) the moment it is constructed, so readiness is the
bound socket itself: tests and tooling pass ``port=0``, read the
ephemeral port back from :attr:`DetectionServer.port`, and never sleep.
``start()`` spins the accept loop up on a background thread; ``close()``
drains — close every tenant (waking long-polls), stop accepting, join the
in-flight handler threads, then shut the shared worker pool down with
``wait=True`` so no process worker outlives the server.

Routes (all bodies JSON)::

    GET    /health                     liveness + tenant count
    GET    /tenants                    registered tenant ids
    POST   /tenants                    create tenant from a spec dict
    GET    /tenants/<id>               == /tenants/<id>/summary
    DELETE /tenants/<id>               close + forget the tenant
    POST   /tenants/<id>/frames        ingest samples (single or batched)
    GET    /tenants/<id>/alerts        ?cursor=N&wait=S&view=log|managed|pending
    GET    /tenants/<id>/events        accumulated detector events
    GET    /tenants/<id>/summary       counts, flagged machines, digest
    POST   /tenants/<id>/detect        batch sweep over the ring window

Error mapping: :class:`UnknownTenantError` → 404,
:class:`ServiceUnavailableError` (draining, worker pool gone) → **503
with a ``Retry-After`` header** — transient conditions a client should
retry, not argue with — any other :class:`BatchLensError` (bad spec,
malformed payload) → 400, everything else → 500; the body is always
``{"error": message}`` with the exception text verbatim — the same
actionable messages the CLI prints at exit code 2.  Every 5xx is also
logged on the ``repro.serve.server`` logger: a 500 at ERROR with its
traceback, a 503 at WARNING without one.  4xx replies (the caller's
mistake) stay quiet, and there is no access log.

With ``state_dir`` set, every tenant is **durable**
(:mod:`repro.serve.persist`): specs, a write-ahead frame journal and
periodic snapshots live under the directory, recovery runs before the
socket binds, and a SIGKILLed server restarted on the same state dir
serves bit-identical alerts, events and seq ids.

Heavy batch sweeps (``POST /detect``) multiplex one **shared**
:class:`~repro.analysis.shard.ShardExecutor` pool across all tenants
(``ShardExecutor.start()`` makes the pool persistent), so N tenants cost
one pool, not N.  A sweep's reply is encoded once, straight from the run
arrays (:func:`~repro.serve.wire.detect_reply`), and the window cache
holds that encoded body: a repeated ``/detect`` over an unchanged window
writes the stored bytes and runs no JSON encoding at all.
"""

from __future__ import annotations

import json
import logging
import threading
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.analysis.shard import ShardExecutor
from repro.errors import (
    BatchLensError,
    ServeError,
    ServiceUnavailableError,
    UnknownTenantError,
)
from repro.pipeline.core import compile_plans
from repro.serve.persist import DEFAULT_SNAPSHOT_EVERY, ServerStateDir
from repro.serve.tenants import (
    Tenant,
    TenantRegistry,
    check_alert_view,
    validate_stack,
)
from repro.serve.wire import detect_reply, mark_cached

_log = logging.getLogger(__name__)

#: Upper bound on one long-poll wait; clients re-arm with their cursor.
MAX_POLL_WAIT_S = 30.0

#: Default bound on the in-memory ``/detect`` reply cache (entries).
DEFAULT_DETECT_CACHE_SIZE = 128


def _detect_window_key(tenant: Tenant, detectors: str,
                       metrics: "tuple[str, ...]") -> "tuple[tuple, tuple]":
    """``(request, window version)`` of one ``/detect`` request.

    The request is (tenant id, canonical detector spec, metrics); the
    version is the tenant's :meth:`~repro.serve.tenants.Tenant.window_version`
    — (incarnation, ring append count) — which changes with every ring
    append, so a repeated sweep over an unchanged window hits and any
    ingested frame misses, without hashing or copying the ring.
    """
    return ((tenant.spec.tenant_id, detectors, tuple(metrics)),
            tenant.window_version())


class _DetectCache:
    """Bounded LRU of encoded ``/detect`` reply bodies, keyed by window
    version.

    The server stores each miss's body already marked ``"cached": true``,
    so a hit hands back the stored bytes as they are: no dict, no JSON
    encoding, no copy.  A key is ``(request, version)``, and each request
    keeps only its newest version: a lookup hits only on an equal version,
    and ``put`` replaces an older version but never a newer one.
    Superseded bodies therefore never pile up — the cache holds at most one
    body per live (tenant, request) window — and ``size`` bounds the number
    of requests, least recently *hit* evicted first.  Thread-safe (handler
    threads share it)."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, tuple[tuple, bytes]]" = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: "tuple[tuple, tuple]") -> bytes | None:
        request, version = key
        with self._lock:
            entry = self._entries.get(request)
            if entry is None or entry[0] != version:
                self.misses += 1
                return None
            self._entries.move_to_end(request)   # most recently used
            self.hits += 1
            return entry[1]

    def put(self, key: "tuple[tuple, tuple]", value: bytes) -> None:
        request, version = key
        with self._lock:
            entry = self._entries.get(request)
            if entry is not None and entry[0] > version:
                return   # a newer window's body is already cached
            self._entries[request] = (version, value)
            self._entries.move_to_end(request)
            while len(self._entries) > self.size:
                self._entries.popitem(last=False)


class _ServeHTTPServer(ThreadingHTTPServer):
    # Non-daemon handler threads + block_on_close: server_close() joins
    # every in-flight request — that IS the drain.
    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True
    app: "DetectionServer" = None  # type: ignore[assignment]


class _Handler(BaseHTTPRequestHandler):
    # Keep-alive with explicit Content-Length on every response.
    protocol_version = "HTTP/1.1"
    # Idle keep-alive connections release their handler thread after this
    # many seconds, so a drain never waits on a client that merely kept
    # its socket open.
    timeout = 5.0

    server: _ServeHTTPServer

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # no access log; _dispatch logs every 5xx on the module logger

    # -- plumbing --------------------------------------------------------------
    def _send_json(self, status: int, body: "dict | bytes",
                   headers: dict | None = None) -> None:
        # A bytes body is already encoded JSON (a /detect reply).
        data = (body if isinstance(body, bytes)
                else json.dumps(body).encode("utf-8"))
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def _read_json(self) -> dict:
        # Always consume the body (keep-alive would otherwise read it as
        # the next request line), then parse.  A malformed length leaves
        # the body's end unknown, so that connection closes after the 400.
        declared = (self.headers.get("Content-Length") or "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            self.close_connection = True
            raise ServeError(
                f"Content-Length must be a non-negative integer, got "
                f"{declared!r}")
        length = int(declared)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServeError(f"request body is not valid JSON: {exc}") from None
        if not isinstance(body, dict):
            raise ServeError(
                f"request body must be a JSON object, got {type(body).__name__}")
        return body

    def _dispatch(self, method: str) -> None:
        split = urlsplit(self.path)
        parts = [p for p in split.path.split("/") if p]
        query = {key: values[-1]
                 for key, values in parse_qs(split.query).items()}
        headers: dict | None = None
        try:
            # The body is consumed even when parsing fails, so keep-alive
            # never reads a stale payload as the next request line.
            body = self._read_json() if method in ("POST", "DELETE") else {}
            status, payload = self.server.app.handle(method, parts, query,
                                                     body)
        except UnknownTenantError as exc:
            status, payload = 404, {"error": str(exc)}
        except ServiceUnavailableError as exc:
            # The request was fine, the moment was not: 503 + Retry-After
            # tells a draining-time caller to back off, where a closed
            # socket would read as a hard connection reset.
            status, payload = 503, {"error": str(exc)}
            headers = {"Retry-After": str(max(1, round(exc.retry_after_s)))}
            _log.warning("%s %s -> 503: %s", method, self.path, exc)
        except BatchLensError as exc:
            status, payload = 400, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - wire boundary
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
            _log.exception("%s %s -> 500", method, self.path)
        if self.close_connection:   # this reply ends the connection
            headers = {**(headers or {}), "Connection": "close"}
        self._send_json(status, payload, headers)

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def do_DELETE(self) -> None:
        self._dispatch("DELETE")


class DetectionServer:
    """One multi-tenant detection service bound to one socket."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 backend: str = "threads", workers: int | None = None,
                 max_tenants: int = 64, state_dir=None, fsync: bool = False,
                 snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
                 snapshot_bytes: int = 0,
                 detect_timeout_s: float | None = 120.0,
                 detect_cache_size: int = DEFAULT_DETECT_CACHE_SIZE) -> None:
        state = (ServerStateDir(state_dir, fsync=fsync,
                                snapshot_every=snapshot_every,
                                snapshot_bytes=snapshot_bytes)
                 if state_dir is not None else None)
        if detect_cache_size < 0:
            raise ServeError(f"detect_cache_size must be non-negative, got "
                             f"{detect_cache_size}")
        #: Window-versioned ``/detect`` response cache (``None`` when
        #: disabled with ``detect_cache_size=0``).
        self.detect_cache = (_DetectCache(detect_cache_size)
                             if detect_cache_size > 0 else None)
        self.registry = TenantRegistry(max_tenants=max_tenants, state=state)
        #: Tenant ids resumed from ``state_dir`` before the socket bound —
        #: recovery is complete (and bit-identical) before the first
        #: request can observe partial state.
        self.recovered = self.registry.recover() if state is not None else []
        # Persistent pool shared by every tenant's /detect requests; the
        # per-unit timeout keeps one hung worker from wedging the service.
        self.executor = ShardExecutor(backend, workers=workers,
                                      unit_timeout_s=detect_timeout_s).start()
        self.httpd = _ServeHTTPServer((host, port), _Handler)
        self.httpd.app = self
        self._thread: threading.Thread | None = None
        self._closed = False

    # -- lifecycle -------------------------------------------------------------
    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (the ephemeral one when constructed with 0)."""
        return self.httpd.server_address[1]

    def start(self) -> "DetectionServer":
        """Run the accept loop on a background thread; returns ``self``."""
        if self._closed:
            raise ServeError("server already closed")
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.httpd.serve_forever,
                name=f"repro-serve:{self.port}", daemon=True)
            self._thread.start()
        return self

    def close(self) -> None:
        """Drain and shut down; idempotent, safe even if never started.

        Order matters: closing tenants first wakes parked long-polls so
        handler threads can finish; ``shutdown`` stops the accept loop
        (only valid once ``serve_forever`` ran); ``server_close`` joins
        the remaining handler threads; the shared pool goes last, after
        no request can submit to it — ``wait=True`` reaps every worker
        process.
        """
        if self._closed:
            return
        self._closed = True
        self.registry.close_all()
        if self._thread is not None:
            self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.executor.shutdown(wait=True)

    def __enter__(self) -> "DetectionServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- routing ---------------------------------------------------------------
    def handle(self, method: str, parts: "list[str]", query: dict,
               body: dict) -> "tuple[int, dict | bytes]":
        """Route one request; returns ``(status, payload)``.

        The payload is a JSON-able dict, or for ``POST /detect`` the reply
        body already encoded as JSON bytes."""
        if parts == ["health"] and method == "GET":
            return 200, {"status": "draining" if self._closed else "ok",
                         "tenants": len(self.registry)}
        if parts == ["tenants"]:
            if method == "GET":
                return 200, {"tenants": self.registry.ids()}
            if method == "POST":
                tenant = self.registry.create(body)
                return 201, {"tenant": tenant.spec.to_dict()}
        if len(parts) >= 2 and parts[0] == "tenants":
            tenant_id = parts[1]
            if len(parts) == 2:
                if method == "GET":
                    return 200, self.registry.get(tenant_id).summary()
                if method == "DELETE":
                    self.registry.delete(tenant_id)
                    return 200, {"deleted": tenant_id}
            elif len(parts) == 3:
                tenant = self.registry.get(tenant_id)
                action = parts[2]
                if action == "frames" and method == "POST":
                    return 200, tenant.ingest(body)
                if action == "alerts" and method == "GET":
                    return 200, self._alerts(tenant, query)
                if action == "events" and method == "GET":
                    return 200, tenant.events()
                if action == "summary" and method == "GET":
                    return 200, tenant.summary()
                if action == "detect" and method == "POST":
                    return 200, self._detect(tenant, body)
        raise ServeError(
            f"no route {method} /{'/'.join(parts)}; see repro.serve.server "
            f"for the endpoint table")

    # -- endpoint bodies -------------------------------------------------------
    def _alerts(self, tenant: Tenant, query: dict) -> dict:
        try:
            cursor = int(query.get("cursor", 0))
            wait = float(query["wait"]) if "wait" in query else None
        except ValueError as exc:
            raise ServeError(f"bad alert query parameter: {exc}") from None
        view = query.get("view", "log")
        check_alert_view(view)   # before a long-poll parks this thread
        if wait is not None and wait > 0 and view != "pending":
            tenant.wait_for_alerts(cursor, min(wait, MAX_POLL_WAIT_S))
        return tenant.alerts(cursor=cursor, view=view)

    def _detect(self, tenant: Tenant, body: dict) -> bytes:
        """One batch sweep over the tenant's ring window, as reply bytes.

        Defaults to the tenant's own detectors × metrics; the body may
        override either (``{"detectors": "ewma", "metrics": ["mem"]}``)
        to run ad-hoc stacks — including batch-only detectors the
        incremental path cannot host — against the live window.  The
        sweep runs on the server-wide shared pool, outside the tenant
        lock, so ingest continues while it computes.

        The reply is encoded once from the run arrays
        (:func:`~repro.serve.wire.detect_reply`), byte-identical to
        ``json.dumps`` of the equivalent dict.  Replies are cached keyed
        on the request (canonical detector spec × metrics) plus the
        **window version** — the tenant's incarnation and ring append
        count: a repeated sweep over an unchanged window skips the ring
        copy, the :class:`~repro.analysis.shard.ShardExecutor` round-trip
        and all encoding, and returns the stored body marked
        ``"cached": true``.  Every ring append moves the version, so stale
        hits are impossible by construction; a body is cached only under
        the version its copy was taken at.
        """
        if self._closed:
            raise ServiceUnavailableError(
                "server is draining; the shared worker pool is shutting "
                "down — retry after the restart", retry_after_s=1.0)
        unknown = set(body) - {"detectors", "metrics"}
        if unknown:
            raise ServeError(
                f"unknown detect key(s) {sorted(unknown)}; expected "
                f"['detectors', 'metrics']")
        detectors, metrics = validate_stack(
            body.get("detectors", tenant.spec.detectors),
            body.get("metrics", tenant.spec.metrics))
        plans, spec_string = compile_plans(detectors, metrics)
        key = None
        if self.detect_cache is not None:
            key = _detect_window_key(tenant, spec_string, metrics)
            cached = self.detect_cache.get(key)
            if cached is not None:
                return cached
        snapshot = tenant.snapshot()   # copy — sweep needs no tenant lock
        if key is not None and tenant.window_version() != key[1]:
            key = None   # an ingest landed after the lookup: not key's window
        results = self.executor.run_many(
            snapshot, [(plan.detector, plan.metric) for plan in plans])
        reply = detect_reply(
            tenant.spec.tenant_id, snapshot.num_samples,
            [(plan.label, plan.name, plan.metric, result)
             for plan, result in zip(plans, results)])
        if key is not None:
            self.detect_cache.put(key, mark_cached(reply))
        return reply


__all__ = [
    "DetectionServer",
    "MAX_POLL_WAIT_S",
]
