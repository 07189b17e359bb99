"""Per-layer metrics from a traced run, and the layer map as data.

``LAYER_MAP`` names, for every per-layer metric, the layer (module) it
times, the phase and op it is taken over, and the end-to-end metrics and
workloads it should move.  A later change that claims a gain cites this
map instead of re-deriving it.  Values are per op of the named op unless
the ``per`` field says otherwise; a self time is a span's duration minus
the time its child spans cover.
"""

from __future__ import annotations

from collections import defaultdict

from common import mean

OFF, MIX = "offline-detect", "serve-mixed"
#: The durable small-batch ingest phase reports its ``ingest_*`` on
#: offline-detect (serve-mixed reports its own wide-batch ingest).
ING = OFF

#: name -> (layer, phase, per, moves)
#: phase "serve" means the run's own serve phase (the ingest phase for the
#: offline-detect workload); "ingest"/"mixed" name the only phase that has
#: the layer at work.
LAYER_MAP: dict[str, tuple] = {
    "trace.resolve_fingerprint.ms": (
        "repro.trace.cache", "offline", "warm op",
        [("detect_warm_p50_ms", OFF)]),
    "trace.load_trace_cache.ms": (
        "repro.trace.cache", "offline", "warm op",
        [("detect_warm_p50_ms", OFF)]),
    "trace.load_trace.self_ms": (
        "repro.trace.loader", "offline", "warm op",
        [("detect_warm_p50_ms", OFF)]),
    "trace.csv_parse.ms": (
        "repro.trace.loader", "offline", "cold op",
        [("detect_cold_p50_ms", OFF)]),
    "trace.save_trace_cache.ms": (
        "repro.trace.cache", "offline", "cold op",
        [("detect_cold_p50_ms", OFF)]),
    "trace.calls_on_cached": (
        "repro.trace", "offline", "cached op",
        [("detect_cached_p50_ms", OFF)]),
    "pipeline.compile_plans.ms": (
        "repro.pipeline.core", "offline", "warm op",
        [("detect_warm_p50_ms", OFF), ("detect_cached_p50_ms", OFF)]),
    "pipeline.run.self_ms": (
        "repro.pipeline.core", "offline", "warm op",
        [("detect_warm_p50_ms", OFF), ("detect_cached_p50_ms", OFF)]),
    "cli.detect.self_ms": (
        "repro.cli", "offline", "warm op",
        [("detect_warm_p50_ms", OFF), ("detect_cached_p50_ms", OFF)]),
    "pipeline.resultcache.key.ms": (
        "repro.pipeline.resultcache", "offline", "cached op",
        [("detect_cached_p50_ms", OFF)]),
    "pipeline.resultcache.load.ms": (
        "repro.pipeline.resultcache", "offline", "cached op",
        [("detect_cached_p50_ms", OFF)]),
    "pipeline.resultcache.store.ms": (
        "repro.pipeline.resultcache", "offline", "cold op",
        [("detect_cold_p50_ms", OFF)]),
    "pipeline.resultcache.hit_ratio": (
        "repro.pipeline.resultcache", "offline", "lookup (cold + cached)",
        [("detect_cached_p50_ms", OFF), ("detect_cold_p50_ms", OFF)]),
    "analysis.engine.run.ms": (
        "repro.analysis.engine", "offline", "warm op",
        [("detect_warm_p50_ms", OFF), ("score_p50_ms", OFF)]),
    "analysis.engine.run.calls": (
        "repro.analysis.engine", "offline", "scored op",
        [("score_p50_ms", OFF)]),
    "scenarios.score_bundle.ms": (
        "repro.scenarios.scoring", "offline", "scored op",
        [("score_p50_ms", OFF)]),
    "scenarios.score_bundle.share": (
        "repro.scenarios.scoring", "offline", "scored op (ratio)",
        [("score_p50_ms", OFF)]),
    "serve.transport.frames.ms": (
        "repro.serve.server", "serve", "frames request",
        [("ingest_p50_ms", ING), ("ingest_p50_ms", MIX)]),
    "serve.transport.detect.ms": (
        "repro.serve.server", "mixed", "detect request",
        [("detect_req_p50_ms", MIX), ("detect_hit_p50_ms", MIX)]),
    "serve.transport.alerts.ms": (
        "repro.serve.server", "mixed", "alerts request",
        [("alerts_poll_p50_ms", MIX)]),
    "serve.handle.frames.ms": (
        "repro.serve.server", "serve", "frames request",
        [("ingest_p50_ms", ING), ("ingest_p50_ms", MIX)]),
    "serve.handle.detect.ms": (
        "repro.serve.server", "mixed", "detect request",
        [("detect_req_p50_ms", MIX), ("detect_hit_p50_ms", MIX)]),
    "serve.handle.alerts.ms": (
        "repro.serve.server", "mixed", "alerts request",
        [("alerts_poll_p50_ms", MIX)]),
    "serve.http.errors": (
        "repro.serve.server", "all serve", "run (count)",
        [("ingest_p50_ms", ING), ("ingest_p50_ms", MIX)]),
    "serve.wire.payload_to_block.ms": (
        "repro.serve.wire", "serve", "frames request",
        [("ingest_p50_ms", MIX)]),
    "stream.monitor.catch_up.self_ms": (
        "repro.stream.monitor", "serve", "frames request",
        [("ingest_p50_ms", ING), ("ingest_samples_per_s", ING),
         ("recover_s", ING)]),
    "analysis.thrashing.cluster_thrashing_report.ms": (
        "repro.analysis.thrashing", "serve", "frames request",
        [("ingest_p50_ms", ING), ("ingest_samples_per_s", ING),
         ("recover_s", ING)]),
    "analysis.thrashing.share_of_tenant_ingest": (
        "repro.analysis.thrashing", "serve", "frames request (ratio)",
        [("ingest_p50_ms", ING)]),
    "analysis.patterns.classify_regime.ms": (
        "repro.analysis.patterns", "serve", "frames request",
        [("ingest_p50_ms", ING), ("ingest_samples_per_s", ING),
         ("recover_s", ING)]),
    "analysis.thrashing.scanned_per_new_sample": (
        "repro.analysis.thrashing", "serve",
        "frames requests (window samples rescanned / new samples)",
        [("ingest_p50_ms", ING), ("ingest_samples_per_s", ING),
         ("recover_s", ING)]),
    "analysis.engine.run_incremental.ms": (
        "repro.analysis.engine", "serve", "frames request",
        [("ingest_p50_ms", MIX)]),
    "stream.alerts.ingest_many.ms": (
        "repro.stream.alerts", "serve", "frames request",
        [("ingest_p90_ms", ING)]),
    "serve.alerts_per_ingest": (
        "repro.stream.alerts", "serve", "frames request (count)",
        [("ingest_p90_ms", ING)]),
    "serve.persist.append.ms": (
        "repro.serve.persist", "ingest", "frames request",
        [("ingest_p90_ms", ING), ("ingest_samples_per_s", ING)]),
    "serve.persist.journal_bytes": (
        "repro.serve.persist", "ingest", "frames request",
        [("ingest_p90_ms", ING), ("ingest_samples_per_s", ING)]),
    "serve.persist.write_snapshot.ms": (
        "repro.serve.persist", "ingest", "snapshot call",
        [("ingest_p90_ms", ING), ("ingest_samples_per_s", ING)]),
    "serve.persist.write_snapshot.calls": (
        "repro.serve.persist", "ingest", "timed phase (count)",
        [("ingest_p90_ms", ING), ("ingest_samples_per_s", ING)]),
    "serve.persist.snapshot_bytes": (
        "repro.serve.persist", "ingest", "snapshot call",
        [("ingest_p90_ms", ING), ("ingest_samples_per_s", ING)]),
    "serve.persist.load.ms": (
        "repro.serve.persist", "ingest", "recovered tenant",
        [("recover_s", ING)]),
    "serve.tenant.recover.replay_ms": (
        "repro.serve.tenants", "ingest", "recovered tenant",
        [("recover_s", ING)]),
    "serve.persist.replayed_records": (
        "repro.serve.persist", "ingest", "recovered tenant (count)",
        [("recover_s", ING)]),
    "serve.tenant.ingest.self_ms": (
        "repro.serve.tenants", "serve", "frames request",
        [("ingest_p50_ms", ING), ("ingest_p50_ms", MIX)]),
    "serve.tenant.snapshot.ms": (
        "repro.serve.tenants", "mixed", "detect request",
        [("detect_req_p50_ms", MIX), ("detect_hit_p50_ms", MIX)]),
    "serve.tenant.alerts.ms": (
        "repro.serve.tenants", "mixed", "alerts request",
        [("alerts_poll_p50_ms", MIX)]),
    "serve.detect.self_ms": (
        "repro.serve.server", "mixed", "detect request",
        [("detect_hit_p50_ms", MIX), ("detect_req_p50_ms", MIX)]),
    "serve.detect.compile_plans.ms": (
        "repro.pipeline.core", "mixed", "detect request",
        [("detect_hit_p50_ms", MIX), ("detect_req_p50_ms", MIX)]),
    "serve.detect.window_key.ms": (
        "repro.serve.server", "mixed", "detect request",
        [("detect_hit_p50_ms", MIX), ("detect_req_p50_ms", MIX)]),
    "serve.detect.cache_lookup.ms": (
        "repro.serve.server", "mixed", "detect request",
        [("detect_hit_p50_ms", MIX), ("detect_req_p50_ms", MIX)]),
    "serve.detect_cache.hit_ratio": (
        "repro.serve.server", "mixed", "detect request (ratio)",
        [("detect_hit_p50_ms", MIX), ("detect_req_p50_ms", MIX)]),
    "analysis.shard.run_many.ms": (
        "repro.analysis.shard", "mixed", "detect miss",
        [("detect_req_p50_ms", MIX)]),
    "analysis.shard.retries": (
        "repro.analysis.shard", "mixed", "timed phase (count)",
        [("detect_req_p50_ms", MIX)]),
}

# -- span arithmetic -----------------------------------------------------------
def _child_time(spans) -> "dict[int, float]":
    """Per span id: the time its child spans cover (ids are per process)."""
    children: dict[int, float] = defaultdict(float)
    for _name, start, end, _span_id, parent, _req, _info in spans:
        if parent:
            children[parent] += end - start
    return children


def _by_request(spans):
    groups = defaultdict(list)
    for span in spans:
        if span[5]:
            groups[span[5]].append(span)
    return groups


def _sum(spans, name, *, self_time=False, children=None) -> float:
    total = 0.0
    for span in spans:
        if span[0] == name:
            dur = span[2] - span[1]
            total += dur - children.get(span[3], 0.0) if self_time else dur
    return total


def _info(spans, name) -> "tuple[float, int]":
    values = [span[6] for span in spans if span[0] == name]
    return float(sum(v or 0 for v in values)), len(values)


def _per_op(groups, reqs, name, **kw) -> float:
    """Mean over the given requests of the summed span time, in ms."""
    if not reqs:
        return 0.0
    return 1000.0 * sum(_sum(groups[r], name, **kw) for r in reqs) / len(reqs)


# -- offline -------------------------------------------------------------------
def offline_metrics(spans, requests, op_times) -> dict:
    children = _child_time(spans)
    groups = _by_request(spans)
    ops = defaultdict(list)
    for req, (kind, label) in requests.items():
        if kind == "offline":
            ops[label].append(req)
    warm, cold, cached, scored = (ops[k] for k in ("warm", "cold", "cached",
                                                   "scored"))
    out = {
        "trace.resolve_fingerprint.ms": _per_op(groups, warm,
                                                "trace.resolve_fingerprint"),
        "trace.load_trace_cache.ms": _per_op(groups, warm,
                                             "trace.load_trace_cache"),
        "trace.load_trace.self_ms": _per_op(groups, warm, "trace.load_trace",
                                            self_time=True, children=children),
        "trace.csv_parse.ms": _per_op(groups, cold, "trace.load_trace",
                                      self_time=True, children=children),
        "trace.save_trace_cache.ms": _per_op(groups, cold,
                                             "trace.save_trace_cache"),
        "pipeline.compile_plans.ms": _per_op(groups, warm,
                                             "pipeline.compile_plans"),
        "pipeline.run.self_ms": _per_op(groups, warm, "pipeline.run",
                                        self_time=True, children=children),
        "pipeline.resultcache.key.ms": _per_op(groups, cached,
                                               "pipeline.resultcache.key"),
        "pipeline.resultcache.load.ms": _per_op(groups, cached,
                                                "pipeline.resultcache.load"),
        "pipeline.resultcache.store.ms": _per_op(groups, cold,
                                                 "pipeline.resultcache.store"),
        "analysis.engine.run.ms": _per_op(groups, warm, "analysis.engine.run"),
        "scenarios.score_bundle.ms": _per_op(groups, scored,
                                             "scenarios.score_bundle"),
    }
    # cli.detect.self_ms: ``main`` minus its ``Pipeline.run``.
    main_ms = _per_op(groups, warm, "cli.main")
    run_ms = _per_op(groups, warm, "pipeline.run")
    out["cli.detect.self_ms"] = main_ms - run_ms
    lookups = [s for r in cold + cached for s in groups[r]
               if s[0] == "pipeline.resultcache.load"]
    out["pipeline.resultcache.hit_ratio"] = (
        sum(s[6] for s in lookups) / len(lookups) if lookups else 0.0)
    out["analysis.engine.run.calls"] = (
        sum(1 for r in scored for s in groups[r]
            if s[0] == "analysis.engine.run") / max(1, len(scored)))
    scored_s = sum(op_times.get("scored", []))
    out["scenarios.score_bundle.share"] = (
        sum(_sum(groups[r], "scenarios.score_bundle") for r in scored)
        / scored_s if scored_s else 0.0)
    out["trace.calls_on_cached"] = (
        sum(1 for r in cached for s in groups[r] if s[0].startswith("trace."))
        / max(1, len(cached)))
    return out


# -- serve ---------------------------------------------------------------------
_ROUTES = {"POST frames": "frames", "POST detect": "detect",
           "GET alerts": "alerts"}


def _timed_requests(requests, records):
    """``{route: [(req, rtt_s)]}`` for the requests the client timed."""
    rtt = {rid: seconds for rid, _kind, seconds in records}
    out = defaultdict(list)
    for req, (route, rid) in requests.items():
        if route in _ROUTES and rid is not None and int(rid) in rtt:
            out[_ROUTES[route]].append((req, rtt[int(rid)]))
    return out


def serve_metrics(spans, requests, log) -> dict:
    """Metrics of one serve phase's traced server (timed requests only)."""
    children = _child_time(spans)
    groups = _by_request(spans)
    timed = _timed_requests(requests, log.records)
    out: dict[str, float] = {}
    for route in ("frames", "detect", "alerts"):
        reqs = timed.get(route, [])
        handle = [1000.0 * _sum(groups[r], "serve.handle") for r, _ in reqs]
        out[f"serve.handle.{route}.ms"] = mean(handle)
        out[f"serve.transport.{route}.ms"] = mean(
            1000.0 * seconds - h for (_, seconds), h in zip(reqs, handle))
    frames = [r for r, _ in timed.get("frames", [])]
    for name, span in (
            ("serve.wire.payload_to_block.ms", "serve.wire.payload_to_block"),
            ("analysis.thrashing.cluster_thrashing_report.ms",
             "analysis.thrashing.cluster_thrashing_report"),
            ("analysis.patterns.classify_regime.ms",
             "analysis.patterns.classify_regime"),
            ("analysis.engine.run_incremental.ms",
             "analysis.engine.run_incremental"),
            ("stream.alerts.ingest_many.ms", "stream.alerts.ingest_many"),
            ("serve.persist.append.ms", "serve.persist.append")):
        out[name] = _per_op(groups, frames, span)
    out["stream.monitor.catch_up.self_ms"] = _per_op(
        groups, frames, "stream.monitor.catch_up", self_time=True,
        children=children)
    out["serve.tenant.ingest.self_ms"] = _per_op(
        groups, frames, "serve.tenant.ingest", self_time=True,
        children=children)
    frame_spans = [s for r in frames for s in groups[r]]
    scanned, _ = _info(frame_spans, "analysis.thrashing.cluster_thrashing_report")
    new, _ = _info(frame_spans, "stream.monitor.catch_up")
    out["analysis.thrashing.scanned_per_new_sample"] = scanned / new if new else 0.0
    ingest_s = _sum(frame_spans, "serve.tenant.ingest")
    out["analysis.thrashing.share_of_tenant_ingest"] = (
        _sum(frame_spans, "analysis.thrashing.cluster_thrashing_report")
        / ingest_s if ingest_s else 0.0)
    journal, _ = _info(frame_spans, "serve.persist.append")
    out["serve.persist.journal_bytes"] = journal / len(frames) if frames else 0.0
    snap_bytes, snaps = _info(frame_spans, "serve.persist.write_snapshot")
    out["serve.persist.write_snapshot.calls"] = float(snaps)
    out["serve.persist.write_snapshot.ms"] = (
        1000.0 * _sum(frame_spans, "serve.persist.write_snapshot") / snaps
        if snaps else 0.0)
    out["serve.persist.snapshot_bytes"] = snap_bytes / snaps if snaps else 0.0
    out["serve.alerts_per_ingest"] = log.alerts / log.ingests if log.ingests else 0.0
    out["serve.http.errors"] = float(log.http_errors)

    detects = [r for r, _ in timed.get("detect", [])]
    polls = [r for r, _ in timed.get("alerts", [])]
    out["serve.tenant.snapshot.ms"] = _per_op(groups, detects,
                                              "serve.tenant.snapshot")
    out["serve.tenant.alerts.ms"] = _per_op(groups, polls, "serve.tenant.alerts")
    out["serve.detect.self_ms"] = _per_op(groups, detects, "serve.handle",
                                          self_time=True, children=children)
    out["serve.detect.compile_plans.ms"] = _per_op(groups, detects,
                                                   "pipeline.compile_plans")
    out["serve.detect.window_key.ms"] = _per_op(groups, detects,
                                                "serve.detect.window_key")
    out["serve.detect.cache_lookup.ms"] = _per_op(groups, detects,
                                                  "serve.detect_cache.get")
    detect_spans = [s for r in detects for s in groups[r]]
    hits, lookups = _info(detect_spans, "serve.detect_cache.get")
    out["serve.detect_cache.hit_ratio"] = hits / lookups if lookups else 0.0
    misses = [r for r in detects
              if any(s[0] == "analysis.shard.run_many" for s in groups[r])]
    out["analysis.shard.run_many.ms"] = _per_op(groups, misses,
                                                "analysis.shard.run_many")
    retries, _ = _info(detect_spans, "analysis.shard.pooled_pass")
    out["analysis.shard.retries"] = retries
    return out


def recovery_metrics(dumps) -> dict:
    """Per recovered tenant: snapshot load, journal replay, records.

    ``dumps`` holds one span list per restarted server process."""
    load_ms, replay_ms, records = [], [], []
    for spans in dumps:
        by_parent = defaultdict(list)
        for span in spans:
            by_parent[span[4]].append(span)
        for span in spans:
            if span[0] != "serve.tenant.recover":
                continue
            kids = by_parent[span[3]]
            load = sum(k[2] - k[1] for k in kids
                       if k[0] == "serve.persist.load")
            snap = sum(k[2] - k[1] for k in kids
                       if k[0] == "serve.persist.write_snapshot")
            load_ms.append(1000.0 * load)
            replay_ms.append(1000.0 * (span[2] - span[1] - load - snap))
            records.extend(k[6] for k in kids
                           if k[0] == "serve.persist.load")
    return {"serve.persist.load.ms": mean(load_ms),
            "serve.tenant.recover.replay_ms": mean(replay_ms),
            "serve.persist.replayed_records": mean(records)}
