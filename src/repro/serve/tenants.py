"""Tenant state for the detection service: spec, live state, registry.

One **tenant** is one independent monitored cluster: its own machine
population, detector stack, sliding-window ring and alert history.  The
server holds many of them behind a :class:`TenantRegistry`; requests for
different tenants run concurrently, requests for the same tenant are
serialized by its condition lock — exactly the ingest-ordering guarantee
a single :class:`~repro.stream.session.StreamSession` needs.

A tenant folds each ingest through a
:class:`~repro.stream.session.StreamSession`, as the streaming
:class:`~repro.pipeline.Pipeline` does, with plans from the same
:func:`~repro.pipeline.core.compile_plans`, so a scenario fed over the
wire in any batching produces bit-identical detector events and
threshold alerts to that pipeline — the golden tests pin this.

Tenants can be **durable**: constructed with a
:class:`~repro.serve.persist.TenantPersistence` handle, every ingest is
write-ahead journaled before it is applied and periodically snapshotted,
and :meth:`Tenant.recover` rebuilds the identical live state after a
crash by restoring the snapshot and replaying the journal tail through
the very same apply path — recovery *is* ingest, so bit-identity is the
chunk-preservation of the journal, not a parallel code path.
"""

from __future__ import annotations

import itertools
import re
import threading
from dataclasses import dataclass

from repro.config import METRICS
from repro.errors import (
    BatchLensError,
    ServeError,
    ServiceUnavailableError,
    UnknownTenantError,
)
from repro.metrics.store import MetricStore
from repro.pipeline.core import compile_plans
from repro.pipeline.detectors import canonical_detector_spec, default_detector_spec
from repro.pipeline.spec import StreamingOptions
from repro.serve.wire import payload_to_block
from repro.stream.alerts import AlertManager, AlertPolicy
from repro.stream.monitor import MonitorConfig
from repro.stream.session import StreamSession

#: A tenant id doubles as its on-disk directory name under the server's
#: ``--state-dir``, so the charset is locked down hard: one path-safe
#: component, never ``.`` or ``..`` (which would resolve *outside* the
#: tenants directory and turn create/delete into an rmtree of the whole
#: state dir).  The dot-only forms are excluded by requiring at least one
#: non-dot character.
_TENANT_ID_RE = re.compile(r"^(?=.*[A-Za-z0-9_+-])[A-Za-z0-9._+-]{1,128}$")

#: Numbers every :class:`Tenant` built in this process, so a deleted and
#: re-created tenant id never shares a window version with its namesake.
_INCARNATIONS = itertools.count(1)

#: The views ``GET /tenants/<id>/alerts`` serves (see :meth:`Tenant.alerts`).
_ALERT_VIEWS = ("log", "managed", "pending")


def check_alert_view(view: str) -> None:
    """Reject an alert view :meth:`Tenant.alerts` does not serve."""
    if view not in _ALERT_VIEWS:
        raise ServeError(f"unknown alert view {view!r}; expected one of "
                         f"{list(_ALERT_VIEWS)}")


def validate_stack(detectors, metrics) -> "tuple[str, tuple[str, ...]]":
    """Check the ``detectors`` and ``metrics`` of a request body.

    Tenant creation and ``POST /detect`` share this check, so both reject
    the same bodies with a :class:`ServeError` naming the key, before
    anything is created, journaled, cached or swept.  ``detectors`` is a
    composed spec string or a list of spec strings (``None``: the registry
    default); ``metrics`` is one metric name or a non-empty list of them.
    Returns ``(spec string, metrics)``; detector names are resolved later,
    by :func:`~repro.pipeline.core.compile_plans` or
    :func:`~repro.pipeline.detectors.canonical_detector_spec`.
    """
    if detectors is None:
        detectors = default_detector_spec()
    if (isinstance(detectors, (list, tuple))
            and all(isinstance(name, str) for name in detectors)):
        detectors = "+".join(detectors)
    if not isinstance(detectors, str):
        raise ServeError(
            f"'detectors' must be a composed spec string or a list of "
            f"detector spec strings, got {detectors!r}")
    if isinstance(metrics, str):
        metrics = (metrics,)
    if (not isinstance(metrics, (list, tuple)) or not metrics
            or not all(isinstance(m, str) and m in METRICS for m in metrics)):
        raise ServeError(
            f"'metrics' must be a metric name or a non-empty list of them, "
            f"drawn from {list(METRICS)}, got {metrics!r}")
    return detectors, tuple(metrics)


@dataclass(frozen=True)
class TenantSpec:
    """Validated declarative description of one tenant.

    The wire form (``POST /tenants``) is the PR-3 pipeline spec dialect
    restricted to what a resident stream can honour: machines + detectors
    + detection metrics + streaming options.  Batch-only keys (``source``,
    ``sinks``, ``execution``) are rejected by name so a pasted pipeline
    spec fails with an actionable message instead of silently dropping
    keys.
    """

    tenant_id: str
    machines: tuple[str, ...]
    detectors: str
    metrics: tuple[str, ...]
    streaming: StreamingOptions

    @classmethod
    def from_dict(cls, raw: dict, *, default_id: str) -> "TenantSpec":
        if not isinstance(raw, dict):
            raise ServeError(f"tenant spec must be an object, got {raw!r}")
        known = {"id", "machines", "detectors", "metrics", "streaming", "mode"}
        unknown = set(raw) - known
        if unknown:
            pipeline_only = unknown & {"source", "sinks", "execution"}
            if pipeline_only:
                raise ServeError(
                    f"tenant spec key(s) {sorted(pipeline_only)} are "
                    f"batch-pipeline options; a tenant is its own source "
                    f"(frames arrive over the wire) and has no sinks or "
                    f"sharded batch execution — expected keys {sorted(known)}")
            raise ServeError(
                f"unknown tenant spec key(s) {sorted(unknown)}; expected "
                f"{sorted(known)}")
        mode = raw.get("mode", "streaming")
        if mode != "streaming":
            raise ServeError(
                f"tenant mode must be 'streaming' (a resident tenant is "
                f"always a stream), got {mode!r}")
        machines = raw.get("machines")
        if (not isinstance(machines, (list, tuple)) or not machines
                or not all(isinstance(m, str) and m for m in machines)):
            raise ServeError(
                "tenant spec needs 'machines': a non-empty list of "
                "machine-id strings")
        if len(set(machines)) != len(machines):
            raise ServeError("tenant machine ids must be unique")
        detectors, metrics = validate_stack(raw.get("detectors"),
                                            raw.get("metrics", ("cpu",)))
        detectors = canonical_detector_spec(detectors)
        streaming = raw.get("streaming")
        streaming = (StreamingOptions.from_dict(streaming)
                     if streaming is not None else StreamingOptions())
        if streaming.cadence != "catch-up":
            raise ServeError(
                f"tenant streaming cadence must be 'catch-up' (sample "
                f"cadence replays a trace bundle, which never crosses the "
                f"wire), got {streaming.cadence!r}")
        if streaming.chunk is not None:
            raise ServeError(
                "tenant streaming must not set 'chunk': the server folds "
                "each ingest request as one chunk, so chunking is the "
                "client's batch size (and cannot change detector verdicts)")
        tenant_id = raw.get("id", default_id)
        if not isinstance(tenant_id, str) or not _TENANT_ID_RE.match(tenant_id):
            raise ServeError(
                f"tenant id must be 1-128 characters drawn from letters, "
                f"digits, '.', '_', '+' and '-' (with at least one non-dot "
                f"character — ids double as state-dir directory names, so "
                f"'.', '..' and path separators are rejected), got "
                f"{tenant_id!r}")
        return cls(tenant_id=tenant_id, machines=tuple(machines),
                   detectors=detectors, metrics=metrics, streaming=streaming)

    def to_dict(self) -> dict:
        return {"id": self.tenant_id, "machines": list(self.machines),
                "detectors": self.detectors, "metrics": list(self.metrics),
                "streaming": self.streaming.to_dict()}


class Tenant:
    """Live detection state of one registered tenant.

    All mutable state is guarded by ``self.cond`` (a condition around one
    lock): ingest, queries and snapshots take it, and ingest notifies it
    so long-poll alert subscribers wake the moment their cursor is
    satisfiable.
    """

    def __init__(self, spec: TenantSpec, *, persist=None) -> None:
        self.spec = spec
        self.plans, _ = compile_plans(spec.detectors, spec.metrics)
        #: Entry i of ``session.alerts`` has seq i + 1: the default alert
        #: cursor walks that log.  The manager keeps "info" alerts too;
        #: operators filter via the managed and pending views.
        self.session = StreamSession(
            spec.machines, self.plans,
            config=MonitorConfig(
                utilisation_threshold=spec.streaming.threshold),
            window_samples=spec.streaming.window_samples,
            manager=AlertManager(policy=AlertPolicy(min_severity="info")))
        self.cond = threading.Condition()
        self.closed = False
        self._close_reason: str | None = None
        self.num_samples = 0
        #: Durable state handle (:class:`TenantPersistence`), or ``None``
        #: for a memory-only tenant (no ``--state-dir``).
        self.persist = persist
        #: This process's number for this tenant object (never reused).
        self.incarnation = next(_INCARNATIONS)
        self._ingest_seq = 0
        self._samples_since_snapshot = 0

    # -- ingest ----------------------------------------------------------------
    def ingest(self, payload: dict) -> dict:
        """Fold one frames payload into the ring + every detector state.

        Durable tenants journal the decoded batch **before** applying it
        (write-ahead), so every acknowledged batch survives any kill
        point; the batch boundary itself is preserved in the journal
        because the regime/thrashing assessments run once per chunk —
        replay must re-chunk exactly as the live server did.

        The WAL invariant is *journal == applied batches, unique seqs*:
        if applying the batch fails after its record was appended, the
        record is rolled back (journal truncated to its pre-append size)
        so the unacknowledged batch never resurfaces on recovery and its
        seq is free for the retry.  If even the rollback fails, the
        tenant is closed — appending again would duplicate the orphan
        record's seq, and recovery's contiguity scan would then silently
        drop every later acknowledged batch.
        """
        timestamps, block = payload_to_block(payload,
                                             len(self.spec.machines))
        with self.cond:
            self._check_open()
            if self.persist is not None:
                mark = self.persist.journal.size()
                self.persist.append(self._ingest_seq + 1, timestamps, block)
                try:
                    response = self._apply(timestamps, block)
                except BaseException:
                    try:
                        self.persist.journal.rewind(mark)
                    except Exception:
                        self.close(reason="journal rollback failed")
                    raise
            else:
                response = self._apply(timestamps, block)
            if (self.persist is not None
                    and self.persist.snapshot_due(
                        self._samples_since_snapshot)):
                self.persist.write_snapshot(self._snapshot_state())
                self._samples_since_snapshot = 0
            self.cond.notify_all()
            return response

    def _apply(self, timestamps, block) -> dict:
        """The deterministic ingest step (shared by the wire and replay)."""
        chunk = MetricStore.from_dense(list(self.spec.machines),
                                       timestamps, METRICS, block)
        base = len(self.session.alerts)
        new_alerts = self.session.ingest(chunk)
        self.num_samples += chunk.num_samples
        self._ingest_seq += 1
        self._samples_since_snapshot += chunk.num_samples
        return {"tenant": self.spec.tenant_id,
                "ingested": chunk.num_samples,
                "total_samples": self.num_samples,
                "cursor": len(self.session.alerts),
                "alerts": [{"seq": base + i + 1, "alert": a.to_dict()}
                           for i, a in enumerate(new_alerts)]}

    # -- durability ------------------------------------------------------------
    def _snapshot_state(self) -> dict:
        """Everything a restarted server needs, as one picklable dict."""
        session = self.session
        return {"version": 1, "seq": self._ingest_seq,
                "num_samples": self.num_samples, "monitor": session.monitor,
                "states": session.states, "manager": session.manager,
                "alert_log": session.alerts}

    def _restore_state(self, state: dict) -> None:
        self.session.monitor = state["monitor"]
        self.session.states = state["states"]
        self.session.manager = state["manager"]
        # ``alert_log`` is the log handed out; snapshots from before the
        # session kept it apart from the monitor's own list.
        self.session.monitor.alerts = state["alert_log"]
        self.num_samples = int(state["num_samples"])
        self._ingest_seq = int(state["seq"])

    @classmethod
    def recover(cls, spec: TenantSpec, persist) -> "Tenant":
        """Rebuild a tenant from its state dir: snapshot + journal replay.

        Replay feeds each journal record — one original ingest batch —
        through the exact :meth:`_apply` path live ingest uses, so the
        recovered tenant is bit-identical to one that never crashed.
        Recovery ends by committing a fresh snapshot and truncating the
        journal, so a torn tail (which read as absent) cannot sit in
        front of future appends.
        """
        tenant = cls(spec, persist=persist)
        state, tail = persist.load(len(spec.machines), len(METRICS))
        if state is not None:
            tenant._restore_state(state)
        for _seq, timestamps, block in tail:
            tenant._apply(timestamps, block)
        # One writer per tenant dir: a leftover temp file is a dead one's.
        for leftover in persist.root.glob("*.tmp"):
            leftover.unlink(missing_ok=True)
        if state is not None or tail or persist.journal.path.exists():
            persist.write_snapshot(tenant._snapshot_state())
        tenant._samples_since_snapshot = 0
        return tenant

    # -- queries ---------------------------------------------------------------
    def alerts(self, *, cursor: int = 0, view: str = "log") -> dict:
        """Alerts after ``cursor``, in one of three views.

        ``log``
            the raw monitor-alert log (every alert, exactly as a local
            streaming run would collect them) — entry seqs are dense, so
            a subscriber resuming from its last seen seq never misses or
            re-reads one;
        ``managed``
            the :class:`AlertManager` history (deduplicated records with
            manager seqs) via :meth:`AlertManager.alerts_since`;
        ``pending``
            the manager's unacknowledged records, most urgent first
            (cursor ignored).
        """
        check_alert_view(view)
        if cursor < 0:
            raise ServeError(f"alert cursor must be non-negative, got {cursor}")
        with self.cond:
            log, manager = self.session.alerts, self.session.manager
            if view == "log":
                entries = [{"seq": i + 1, "alert": a.to_dict()}
                           for i, a in enumerate(log[cursor:], start=cursor)]
                new_cursor = len(log)
            elif view == "managed":
                records = manager.alerts_since(cursor)
                entries = [r.to_dict() for r in records]
                new_cursor = (records[-1].seq if records
                              else max(cursor, manager.last_seq))
            else:   # "pending"
                entries = [r.to_dict() for r in manager.pending()]
                new_cursor = cursor
            return {"tenant": self.spec.tenant_id, "view": view,
                    "cursor": new_cursor, "alerts": entries,
                    "closed": self.closed}

    def wait_for_alerts(self, cursor: int, timeout_s: float) -> None:
        """Block until the log grows past ``cursor``, closes, or times out."""
        deadline = (threading.TIMEOUT_MAX if timeout_s is None
                    else timeout_s)
        with self.cond:
            self.cond.wait_for(
                lambda: self.closed or len(self.session.alerts) > cursor,
                timeout=deadline)

    def events(self) -> dict:
        """Every plan's accumulated detector events (batch-identical)."""
        with self.cond:
            detections = [
                {"label": plan.label, "name": plan.name,
                 "metric": plan.metric,
                 "events": [e.to_dict() for e in state.events()]}
                for plan, state in zip(self.plans, self.session.states)]
        return {"tenant": self.spec.tenant_id, "detections": detections}

    def summary(self) -> dict:
        with self.cond:
            session = self.session
            flagged: set[str] = set()
            for state in session.states:
                flagged |= state.flagged_machines()
            info = {"tenant": self.spec.tenant_id,
                    "machines": len(self.spec.machines),
                    "detectors": [plan.label for plan in self.plans],
                    "metrics": list(self.spec.metrics),
                    "num_samples": self.num_samples,
                    "window_samples": self.spec.streaming.window_samples,
                    "num_alerts": len(session.alerts),
                    "alerts_by_kind": session.manager.digest(),
                    "num_events": sum(
                        len(state.events()) for state in session.states),
                    "flagged_machines": sorted(flagged),
                    "closed": self.closed}
            if self.num_samples:
                info["latest_timestamp"] = session.monitor.store.latest_timestamp
            return info

    def window_version(self) -> "tuple[int, int]":
        """``(incarnation, ring append count)``: changes whenever the ring does.

        The count is the ring's own (not the ingest seq), so an ingest
        that appended to the ring and then failed still moves it; the
        incarnation tells a re-created tenant from its deleted namesake.
        Versions of one tenant id only ever grow.
        """
        with self.cond:
            self._check_open()
            return self.incarnation, self.session.monitor.store.total_samples

    def snapshot(self) -> MetricStore:
        """Independent copy of the ring window (for batch ``/detect``)."""
        with self.cond:
            self._check_open()
            if not self.num_samples:
                raise ServeError(
                    f"tenant {self.spec.tenant_id!r} has no samples yet; "
                    f"ingest frames before requesting a batch detect")
            return self.session.monitor.store.snapshot_store()

    # -- lifecycle -------------------------------------------------------------
    def close(self, *, reason: str = "deleted") -> None:
        """Mark the tenant dead and wake every long-poll subscriber.

        ``reason`` shapes the error later requests see: ``"deleted"`` is
        a client mistake (400), ``"draining"`` is the server's own
        shutdown — mapped to 503 + ``Retry-After`` so well-behaved
        agents back off and retry the restarted server.
        """
        with self.cond:
            self.closed = True
            self._close_reason = reason
            self.cond.notify_all()
        if self.persist is not None:
            self.persist.close()

    def _check_open(self) -> None:
        if self.closed:
            if self._close_reason == "draining":
                raise ServiceUnavailableError(
                    f"tenant {self.spec.tenant_id!r} is draining with the "
                    f"server; retry after the restart", retry_after_s=1.0)
            raise ServeError(
                f"tenant {self.spec.tenant_id!r} is closed "
                f"({self._close_reason})")


class TenantRegistry:
    """Thread-safe id → :class:`Tenant` map with a capacity bound.

    The registry lock only guards the map itself — per-tenant work happens
    under each tenant's own condition, so ingest for different tenants
    never contends here beyond the dictionary lookup.
    """

    def __init__(self, *, max_tenants: int = 64, state=None) -> None:
        if max_tenants < 1:
            raise ServeError(
                f"max_tenants must be at least 1, got {max_tenants}")
        self.max_tenants = max_tenants
        #: Durable mirror (:class:`~repro.serve.persist.ServerStateDir`),
        #: or ``None`` for a memory-only registry.
        self.state = state
        self._lock = threading.Lock()
        self._tenants: dict[str, Tenant] = {}
        self._next_id = 1
        self._closed = False
        self.skipped: list[str] = []

    def recover(self) -> "list[str]":
        """Resume every tenant stored in the state dir; returns their ids.

        Tenants whose spec no longer validates (e.g. a detector renamed
        between versions) or whose snapshot is unreadable are skipped,
        not fatal — recovery brings back everything it can prove,
        reports the rest via :attr:`skipped` and writes nothing to their
        files; :meth:`create` refuses a skipped id while its files exist.
        """
        self.skipped = []
        if self.state is None:
            return []
        with self._lock:
            for spec_raw, persist in self.state.stored_tenants():
                try:
                    spec = TenantSpec.from_dict(
                        spec_raw, default_id=spec_raw.get("id", ""))
                    tenant = Tenant.recover(spec, persist)
                except BatchLensError:
                    self.skipped.append(str(spec_raw.get("id")))
                    continue
                self._tenants[spec.tenant_id] = tenant
            self.skipped.extend(getattr(self.state, "skipped", []))
            # Default ids must not land on (and wipe) a skipped tenant.
            for tenant_id in [*self._tenants, *self.skipped]:
                if tenant_id.startswith("t") and tenant_id[1:].isdigit():
                    self._next_id = max(self._next_id,
                                        int(tenant_id[1:]) + 1)
            return sorted(self._tenants)

    def create(self, raw_spec: dict) -> Tenant:
        with self._lock:
            if self._closed:
                raise ServiceUnavailableError(
                    "server is draining; no new tenants — retry after the "
                    "restart", retry_after_s=1.0)
            spec = TenantSpec.from_dict(raw_spec,
                                        default_id=f"t{self._next_id}")
            if spec.tenant_id in self._tenants:
                raise ServeError(
                    f"tenant {spec.tenant_id!r} already exists; delete it "
                    f"first or pick another id")
            if len(self._tenants) >= self.max_tenants:
                raise ServeError(
                    f"tenant capacity {self.max_tenants} reached")
            if spec.tenant_id in self.skipped:
                root = self.state.tenant_root(spec.tenant_id)
                if root.exists():
                    raise ServeError(
                        f"tenant {spec.tenant_id!r} was skipped on recovery "
                        f"and its files are kept in {root}; move that "
                        f"directory away to re-create the id")
            # Build the live tenant first: a spec its monitor or ring
            # rejects must leave nothing behind in the state dir.
            tenant = Tenant(spec)
            if self.state is not None:
                tenant.persist = self.state.create(spec.to_dict())
            self._tenants[spec.tenant_id] = tenant
            self._next_id += 1
            return tenant

    def get(self, tenant_id: str) -> Tenant:
        with self._lock:
            tenant = self._tenants.get(tenant_id)
            if tenant is None:
                raise UnknownTenantError(tenant_id, list(self._tenants))
            return tenant

    def delete(self, tenant_id: str) -> Tenant:
        with self._lock:
            tenant = self._tenants.pop(tenant_id, None)
            if tenant is None:
                raise UnknownTenantError(tenant_id, list(self._tenants))
        tenant.close(reason="deleted")
        if self.state is not None:
            self.state.remove(tenant_id)
        return tenant

    def ids(self) -> "list[str]":
        with self._lock:
            return sorted(self._tenants)

    def __len__(self) -> int:
        with self._lock:
            return len(self._tenants)

    def close_all(self) -> None:
        """Drain: refuse new tenants, close (and wake) every live one.

        Durable tenants stay on disk — a drain is a restart in waiting,
        and the next ``repro serve --state-dir`` resumes the fleet.
        """
        with self._lock:
            self._closed = True
            tenants = list(self._tenants.values())
        for tenant in tenants:
            tenant.close(reason="draining")


__all__ = [
    "Tenant",
    "TenantRegistry",
    "TenantSpec",
    "check_alert_view",
    "validate_stack",
]
