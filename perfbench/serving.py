"""The serve phases: durable small-batch ingest, and mixed reads + writes.

Both run ``repro serve`` in its own process and time requests over real
keep-alive sockets, closed loop: a connection sends its next request
only after the previous reply arrived.  At most ``nproc`` connections.

``ingest``  4 tenants × 32 machines (128-sample rings, threshold 85) under
            ``--state-dir`` (fsync off, default 1024-sample snapshots);
            two connections each round-robin their 2 tenants with
            8-sample ``POST /frames``.  Afterwards every tenant is topped
            up to a fixed journal tail, the server gets SIGTERM and is
            restarted on copies of its state dir (``recover_s``).
``mixed``   2 tenants × 256 machines (256-sample rings), no state dir, one
            tenant per connection; each repeats 4 × 32-sample frames,
            2 × ``/detect`` (the second a window-cache hit by
            construction), 1 × ``GET /alerts?cursor=c``.
"""

from __future__ import annotations

import itertools
import json
import shutil
import threading
import time
from pathlib import Path

from common import BenchError, ServerProcess, median
from feeds import Feed
from httpconn import Connection

#: Batches every ingest tenant gets after its last snapshot, so recovery
#: replays the same journal tail whatever the timed phase's throughput.
TAIL_BATCHES = 8


class OpLog:
    """One connection's timed ops: latencies per kind, failures, rids."""

    def __init__(self) -> None:
        self.times: dict[str, list[float]] = {}
        self.records: list[tuple] = []   # (rid, kind, rtt_s)
        self.attempted = 0
        self.failed = 0
        self.http_errors = 0
        self.errors: list[str] = []
        self.alerts = 0
        self.samples = 0       # machine-samples ingested
        self.ingests = 0

    def fail(self, kind: str, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{kind}: {message}")

    def merge(self, other: "OpLog") -> None:
        for kind, values in other.times.items():
            self.times.setdefault(kind, []).extend(values)
        self.records.extend(other.records)
        for name in ("attempted", "failed", "http_errors", "alerts",
                     "samples", "ingests"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.errors.extend(other.errors[:5 - len(self.errors)])


class Tenant:
    """Client-side expectations for one tenant: totals and alert cursors."""

    def __init__(self, feed: Feed, total: int, cursor: int) -> None:
        self.feed = feed
        self.total = total
        self.cursor = cursor          # latest alert seq seen in replies
        self.poll_cursor = cursor     # where the next /alerts poll starts

    @property
    def base(self) -> str:
        return f"/tenants/{self.feed.tenant_id}"


def _check_ingest(tenant: Tenant, reply: dict, samples: int) -> int:
    """Validate one frames reply; returns the number of alerts it carried."""
    tenant.total += samples
    if reply.get("ingested") != samples or reply.get("total_samples") != tenant.total:
        raise ValueError(f"total {reply.get('total_samples')} != "
                         f"expected {tenant.total}")
    seqs = [entry["seq"] for entry in reply["alerts"]]
    expected = list(range(tenant.cursor + 1, tenant.cursor + 1 + len(seqs)))
    if seqs != expected or reply["cursor"] != tenant.cursor + len(seqs):
        raise ValueError(f"alert seqs {seqs[:3]}.. not dense after "
                         f"{tenant.cursor}")
    tenant.cursor += len(seqs)
    return len(seqs)


class Driver:
    """Runs timed ops on one connection and books them into an OpLog."""

    def __init__(self, server: ServerProcess, rids, traced: bool) -> None:
        self.conn = Connection(server.host, server.port)
        self.log = OpLog()
        self._rids = rids
        self._traced = traced

    def op(self, kind: str, method: str, path: str, body: bytes = b""):
        """One timed request; returns the reply bytes, or None on failure."""
        rid = next(self._rids)
        if self._traced:
            path += ("&" if "?" in path else "?") + f"rid={rid}"
        self.log.attempted += 1
        try:
            status, reply, rtt = self.conn.request(method, path, body)
        except OSError as exc:
            self.log.fail(kind, f"{type(exc).__name__}: {exc}")
            raise
        if status // 100 != 2:
            self.log.http_errors += 1
            self.log.fail(kind, f"HTTP {status}: {reply[:200]!r}")
            return None
        self.log.times.setdefault(kind, []).append(rtt)
        self.log.records.append((rid, kind, rtt))
        return reply

    def ingest(self, tenant: Tenant) -> bool:
        body = tenant.feed.next_body()
        if body is None:
            return False
        reply = self.op("frames", "POST", tenant.base + "/frames", body)
        if reply is not None:
            samples = tenant.feed.batch
            try:
                self.log.alerts += _check_ingest(tenant, json.loads(reply),
                                                 samples)
            except (ValueError, KeyError, TypeError) as exc:
                self.log.fail("frames", str(exc))
            self.log.samples += samples * len(tenant.feed.machine_ids)
            self.log.ingests += 1
        return True

    def close(self) -> None:
        self.conn.close()


def _run_threads(targets) -> None:
    errors: list[BaseException] = []

    def guard(fn):
        def run():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)
        return run

    threads = [threading.Thread(target=guard(fn)) for fn in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
        if thread.is_alive():
            raise BenchError("a client connection never finished")
    if errors:
        raise BenchError(f"client connection failed: {errors[0]!r}")


def _request_json(conn: Connection, method: str, path: str,
                  body: bytes = b"") -> dict:
    status, reply, _ = conn.request(method, path, body)
    if status // 100 != 2:
        raise BenchError(f"{method} {path} -> HTTP {status}: {reply[:300]!r}")
    return json.loads(reply)


class ServePhase:
    """Set-up, timed loop and checks of one serve workload shape."""

    def __init__(self, name: str, feeds: "list[Feed]", work: Path, *,
                 durable: bool, traced: bool, connections: int) -> None:
        self.name = name
        self.feeds = feeds
        self.work = work
        self.durable = durable
        self.traced = traced
        self.connections = max(1, min(connections, len(feeds)))
        self.server: ServerProcess | None = None
        self.tenants: list[Tenant] = []
        self.setups: list[float] = []
        self.span_files: list[Path] = []
        self.recover_span_files: list[Path] = []
        self.recover_s: list[float] = []
        self.log = OpLog()
        self.checks_attempted = 0
        self.checks_failed = 0
        self.check_errors: list[str] = []
        self.wall_s = 0.0
        self.generator_cpu_s = 0.0
        self.peak_rss_mb = 0.0
        self._rids = itertools.count(1)
        self._lock = threading.Lock()
        self._round = 0

    # -- set-up ----------------------------------------------------------------
    def _paths(self, tag: str) -> "tuple[Path | None, Path | None]":
        state = self.work / f"{self.name}-{tag}-state" if self.durable else None
        spans = self.work / f"{self.name}-{tag}-spans.json" if self.traced else None
        return state, spans

    def _setup_once(self) -> None:
        self._round += 1
        state, spans = self._paths(f"setup{self._round}")
        started = time.perf_counter()
        server = ServerProcess(state_dir=state, spans=spans)
        try:
            conn = Connection(server.host, server.port)
            try:
                for feed in self.feeds:
                    _request_json(conn, "POST", "/tenants",
                                  json.dumps(feed.spec).encode())
                tenants = []
                for feed in self.feeds:
                    reply = _request_json(conn, "POST",
                                          f"/tenants/{feed.tenant_id}/frames",
                                          feed.prefill)
                    if reply["total_samples"] != feed.prefill_samples:
                        raise BenchError(f"prefill of {feed.tenant_id} "
                                         f"landed {reply['total_samples']}")
                    tenants.append(Tenant(feed, feed.prefill_samples,
                                          reply["cursor"]))
            finally:
                conn.close()
        except BaseException:
            server.kill()
            raise
        self.setups.append(time.perf_counter() - started)
        self.server, self.tenants = server, tenants
        self.state_dir, self.spans_path = state, spans

    def setup(self, repeats: int) -> float:
        """Set up ``repeats`` times from scratch; the last one stays up."""
        for _ in range(repeats):
            if self.server is not None:   # a discarded set-up: no drain
                self.kill()
                if self.state_dir is not None:
                    shutil.rmtree(self.state_dir, ignore_errors=True)
            self._setup_once()
        return median(self.setups)

    # -- timed loops -----------------------------------------------------------
    def _timed(self, loops) -> None:
        """Run one round's client loops; wall and CPU add up over rounds."""
        cpu = time.process_time()
        started = time.perf_counter()
        _run_threads(loops)
        self.wall_s += time.perf_counter() - started
        self.generator_cpu_s += time.process_time() - cpu

    def run_ingest(self, seconds: float) -> None:
        """Round-robin 8-sample frames over each connection's tenants."""
        stop_at = time.perf_counter() + seconds
        drivers = [Driver(self.server, self._rids, self.traced)
                   for _ in range(self.connections)]
        groups = [self.tenants[i::self.connections]
                  for i in range(self.connections)]

        def loop(driver: Driver, tenants: "list[Tenant]"):
            def run():
                for tenant in itertools.cycle(tenants):
                    if time.perf_counter() >= stop_at:
                        return
                    if not driver.ingest(tenant):
                        return
            return run

        try:
            self._timed([loop(d, g) for d, g in zip(drivers, groups)])
        finally:
            for driver in drivers:
                driver.close()
                self.log.merge(driver.log)

    def run_mixed(self, seconds: float, min_cycles: int,
                  max_seconds: float) -> None:
        """Cycles of 4 × frames, a /detect miss + hit, one alerts poll."""
        started = time.perf_counter()
        drivers = [Driver(self.server, self._rids, self.traced)
                   for _ in range(self.connections)]
        groups = [self.tenants[i::self.connections]
                  for i in range(self.connections)]

        def cycle(driver: Driver, tenant: Tenant) -> bool:
            for _ in range(4):
                if not driver.ingest(tenant):
                    return False
            path = tenant.base + "/detect"
            miss = driver.op("detect_miss", "POST", path, b"{}")
            hit = driver.op("detect_hit", "POST", path, b"{}")
            if miss is not None and hit is not None:
                if (b'"cached": false' not in miss or hit != miss.replace(
                        b'"cached": false', b'"cached": true', 1)):
                    driver.log.fail("detect_hit",
                                    "window-cache hit differs from its miss")
            reply = driver.op("alerts", "GET",
                              f"{tenant.base}/alerts?cursor={tenant.poll_cursor}")
            if reply is not None:
                try:
                    _check_poll(tenant, json.loads(reply))
                except (ValueError, KeyError, TypeError) as exc:
                    driver.log.fail("alerts", str(exc))
            return True

        def loop(driver: Driver, tenants: "list[Tenant]"):
            def run():
                cycles = 0
                while True:
                    elapsed = time.perf_counter() - started
                    if elapsed >= max_seconds or (elapsed >= seconds
                                                  and cycles >= min_cycles):
                        return
                    for tenant in tenants:
                        if not cycle(driver, tenant):
                            return
                    cycles += 1
            return run

        try:
            self._timed([loop(d, g) for d, g in zip(drivers, groups)])
        finally:
            for driver in drivers:
                driver.close()
                self.log.merge(driver.log)

    # -- checks ----------------------------------------------------------------
    def _check(self, label: str, ok: bool, detail: str = "") -> None:
        with self._lock:
            self.checks_attempted += 1
            if not ok:
                self.checks_failed += 1
                if len(self.check_errors) < 5:
                    self.check_errors.append(f"{label}: {detail}")

    def check_totals(self, conn: Connection) -> None:
        for tenant in self.tenants:
            summary = _request_json(conn, "GET", tenant.base + "/summary")
            self._check(f"{tenant.feed.tenant_id} sample total",
                        summary["num_samples"] == tenant.total,
                        f"{summary['num_samples']} != {tenant.total}")

    def check_detect(self, conn: Connection) -> None:
        """A final /detect equals a local batch run over the same window."""
        from repro.analysis.engine import DetectionEngine
        from repro.config import METRICS
        from repro.metrics.store import MetricStore
        from repro.pipeline.core import compile_plans

        for tenant in self.tenants:
            reply = _request_json(conn, "POST", tenant.base + "/detect", b"{}")
            feed = tenant.feed
            lo = max(0, tenant.total - feed.window)
            stamps, block = feed.block(lo, tenant.total)
            store = MetricStore.from_dense(feed.machine_ids, stamps, METRICS,
                                           block)
            plans, _ = compile_plans(None, ("cpu",))
            engine = DetectionEngine(detectors={})
            local = []
            for plan in plans:
                result = engine.run(store, plan.detector, metric=plan.metric)
                local.append({"label": plan.label, "name": plan.name,
                              "metric": plan.metric,
                              "events": [e.to_dict() for e in result.events()],
                              "flagged_machines": sorted(
                                  result.flagged_machines())})
            local = json.loads(json.dumps(local))
            self._check(f"{feed.tenant_id} /detect == local batch",
                        reply["detections"] == local
                        and reply["num_samples"] == tenant.total - lo,
                        "served detections differ from the local sweep")

    # -- durability ------------------------------------------------------------
    def top_up(self, snapshot_every: int) -> None:
        """Give every tenant the same journal tail: fill to the next
        snapshot, then ``TAIL_BATCHES`` 8-sample batches (not timed)."""
        def feed_group(tenants: "list[Tenant]"):
            def run():
                conn = Connection(self.server.host, self.server.port)
                try:
                    for tenant in tenants:
                        self._top_up_tenant(conn, tenant, snapshot_every)
                finally:
                    conn.close()
            return run

        _run_threads([feed_group(self.tenants[i::self.connections])
                      for i in range(self.connections)])

    def _top_up_tenant(self, conn: Connection, tenant: Tenant,
                       snapshot_every: int) -> None:
        sizes = []
        since = tenant.total % snapshot_every
        if since:
            sizes.append(snapshot_every - since)
        sizes += [tenant.feed.batch] * TAIL_BATCHES
        for size in sizes:
            body = tenant.feed.body_for(tenant.total, tenant.total + size)
            reply = _request_json(conn, "POST", tenant.base + "/frames", body)
            try:
                _check_ingest(tenant, reply, size)
                ok, detail = True, ""
            except (ValueError, KeyError) as exc:
                ok, detail = False, str(exc)
            self._check(f"{tenant.feed.tenant_id} top-up", ok, detail)

    def restart_and_verify(self, restarts: int) -> None:
        """SIGTERM, then restart on copies of the state dir ``restarts``
        times; every recovered tenant must match its pre-restart state."""
        conn = Connection(self.server.host, self.server.port)
        try:
            before = {t.feed.tenant_id: (
                _request_json(conn, "GET", t.base + "/summary"),
                _request_json(conn, "GET", t.base + "/events"))
                for t in self.tenants}
        finally:
            conn.close()
        self.stop_server()
        copies = [self.state_dir]
        for i in range(1, restarts):
            copy = self.work / f"{self.name}-recover{i}-state"
            shutil.copytree(self.state_dir, copy)
            copies.append(copy)
        for i, state in enumerate(copies):
            spans = (self.work / f"{self.name}-recover{i}-spans.json"
                     if self.traced else None)
            server = ServerProcess(state_dir=state, spans=spans)
            try:
                self.recover_s.append(server.ready_s)
                conn = Connection(server.host, server.port)
                try:
                    for tenant in self.tenants:
                        tid = tenant.feed.tenant_id
                        after = (_request_json(conn, "GET",
                                               tenant.base + "/summary"),
                                 _request_json(conn, "GET",
                                               tenant.base + "/events"))
                        self._check(f"{tid} recovered state", after == before[tid],
                                    "summary/events differ after restart")
                finally:
                    conn.close()
                if spans is not None:
                    server.stop()     # the traced launcher dumps at drain
                else:
                    server.kill()
            except BaseException:
                server.kill()
                raise
            if spans is not None:
                self.recover_span_files.append(spans)

    def stop_server(self) -> None:
        """Record the live server's peak RSS, then drain it."""
        if self.server is None:
            return
        server, self.server = self.server, None
        try:
            self.peak_rss_mb = server.peak_rss_mb()
            server.stop()
        except BaseException:
            server.kill()
            raise
        if self.spans_path is not None:
            self.span_files.append(self.spans_path)

    def kill(self) -> None:
        if self.server is not None:
            self.server.kill()
            self.server = None

    # -- results ---------------------------------------------------------------
    @property
    def attempted(self) -> int:
        return self.log.attempted + self.checks_attempted

    @property
    def failed(self) -> int:
        return self.log.failed + self.checks_failed

    @property
    def errors(self) -> "list[str]":
        return self.log.errors + self.check_errors


def _check_poll(tenant: Tenant, reply: dict) -> None:
    seqs = [entry["seq"] for entry in reply["alerts"]]
    start = tenant.poll_cursor
    if seqs != list(range(start + 1, start + 1 + len(seqs))):
        raise ValueError(f"polled seqs {seqs[:3]}.. not dense after {start}")
    if reply["cursor"] != tenant.cursor:
        raise ValueError(f"poll cursor {reply['cursor']} != ingest cursor "
                         f"{tenant.cursor}")
    tenant.poll_cursor = reply["cursor"]
