"""Soak benchmark: the detection service under sustained multi-tenant load.

N tenants (each its own machine fleet and detector stack) are fed frame
batches concurrently from N client threads over real HTTP — the
deployment shape the serve layer exists for.  Measured: end-to-end ingest
throughput in machine-samples/s and the round-trip latency percentiles of
ingest requests, split out for the requests that surfaced alerts (alerts
ride the ingest response, so that round trip *is* the alert latency).
Results land in ``BENCH_results.json`` via ``record_result``.

Correctness is asserted alongside the numbers: every tenant must end with
exactly its own sample count and its own verdicts (cross-tenant leakage
would show up as wrong totals or missing/foreign alerts).

The ``serve/detect_reply`` row times building one ``/detect`` reply for a
wide window: the encoder that writes it from the run arrays against the
dict-plus-``json.dumps`` path it replaced (:func:`legacy_detect_reply`).
Both run the same verdicts in one process, so the ratio is host-stable
enough to gate (CI's ``detect-reply-gate`` job): equal bytes and at least
1.5× faster.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np

from benchmarks.conftest import best_of, record_result, report, synthetic_cluster
from repro.analysis.engine import DetectionEngine, EngineResult
from repro.config import ClusterConfig, TraceConfig, UsageConfig
from repro.pipeline.core import compile_plans
from repro.serve import DetectionServer, ServeClient
from repro.serve.wire import detect_reply, store_to_payloads
from repro.trace.synthetic import generate_trace

NUM_TENANTS = 8
NUM_MACHINES = 32
#: Long enough to cover synthetic_cluster's hot-spike window (120-150).
NUM_SAMPLES = 160
BATCH_SIZE = 8
#: Spikes push hot machines to base+45 (clipped at 100); 85% catches them.
THRESHOLD = 85.0


def percentile(samples: "list[float]", q: float) -> float:
    return float(np.percentile(np.asarray(samples), q)) if samples else 0.0


def test_serve_soak_multi_tenant():
    stores = {f"soak-{i}": synthetic_cluster(NUM_MACHINES, NUM_SAMPLES,
                                             seed=3000 + i)
              for i in range(NUM_TENANTS)}
    latencies: dict[str, list[float]] = {tid: [] for tid in stores}
    alert_latencies: list[float] = []
    alert_counts: dict[str, int] = {}
    errors: list = []

    with DetectionServer(port=0, backend="threads", workers=4) as server:
        with ServeClient(server.host, server.port) as admin:
            for tenant_id, store in stores.items():
                admin.create_tenant({"id": tenant_id,
                                     "machines": store.machine_ids,
                                     "streaming": {"threshold": THRESHOLD}})
        assert len(server.registry) == NUM_TENANTS

        barrier = threading.Barrier(NUM_TENANTS)

        def feed(tenant_id: str) -> None:
            try:
                payloads = store_to_payloads(stores[tenant_id], BATCH_SIZE)
                with ServeClient(server.host, server.port,
                                 timeout=60.0) as client:
                    barrier.wait()   # line every tenant up before the clock
                    count = 0
                    for payload in payloads:
                        started = time.perf_counter()
                        reply = client._request(
                            "POST", f"/tenants/{tenant_id}/frames", payload)
                        elapsed = time.perf_counter() - started
                        latencies[tenant_id].append(elapsed)
                        if reply["alerts"]:
                            alert_latencies.append(elapsed)
                            count += len(reply["alerts"])
                    alert_counts[tenant_id] = count
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append((tenant_id, exc))

        threads = [threading.Thread(target=feed, args=(tid,))
                   for tid in stores]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        assert errors == [], f"soak feeders failed: {errors}"

        # Per-tenant isolation: exact totals, own alert log, no bleed.
        with ServeClient(server.host, server.port) as admin:
            for tenant_id, store in stores.items():
                summary = admin.summary(tenant_id)
                assert summary["num_samples"] == NUM_SAMPLES
                assert summary["machines"] == NUM_MACHINES
                assert summary["num_alerts"] == alert_counts[tenant_id]

    total_machine_samples = NUM_TENANTS * NUM_MACHINES * NUM_SAMPLES
    all_latencies = [value for per_tenant in latencies.values()
                     for value in per_tenant]
    rows = {
        "tenants": NUM_TENANTS,
        "machines_per_tenant": NUM_MACHINES,
        "samples_per_tenant": NUM_SAMPLES,
        "frame_batch_size": BATCH_SIZE,
        "wall_clock_s": round(wall, 3),
        "machine_samples_per_s": round(total_machine_samples / wall, 1),
        "requests": len(all_latencies),
        "ingest_p50_ms": round(percentile(all_latencies, 50) * 1e3, 2),
        "ingest_p95_ms": round(percentile(all_latencies, 95) * 1e3, 2),
        "ingest_p99_ms": round(percentile(all_latencies, 99) * 1e3, 2),
        "alerts": sum(alert_counts.values()),
        "alert_p50_ms": round(percentile(alert_latencies, 50) * 1e3, 2),
        "alert_p95_ms": round(percentile(alert_latencies, 95) * 1e3, 2),
    }
    report("serve soak: 8 concurrent tenants over HTTP", rows)
    record_result(
        "serve_soak_multi_tenant",
        wall_clock_s=wall,
        throughput=total_machine_samples / wall,
        throughput_unit="machine-samples/s",
        tenants=NUM_TENANTS,
        machines_per_tenant=NUM_MACHINES,
        samples_per_tenant=NUM_SAMPLES,
        frame_batch_size=BATCH_SIZE,
        ingest_p50_ms=rows["ingest_p50_ms"],
        ingest_p95_ms=rows["ingest_p95_ms"],
        ingest_p99_ms=rows["ingest_p99_ms"],
        alert_p50_ms=rows["alert_p50_ms"],
        alert_p95_ms=rows["alert_p95_ms"],
        alerts=rows["alerts"],
    )
    assert sum(alert_counts.values()) > 0, (
        "soak scenario must raise alerts (hot machines are injected)")


def test_serve_shared_pool_detect_across_tenants():
    """Batch /detect from many tenants multiplexes one persistent pool."""
    with DetectionServer(port=0, backend="threads", workers=4) as server:
        stores = {f"pool-{i}": synthetic_cluster(NUM_MACHINES, NUM_SAMPLES,
                                                 seed=4000 + i)
                  for i in range(4)}
        with ServeClient(server.host, server.port) as admin:
            for tenant_id, store in stores.items():
                # Ring sized to the whole feed, so /detect sweeps it all.
                admin.create_tenant({
                    "id": tenant_id, "machines": store.machine_ids,
                    "streaming": {"window_samples": NUM_SAMPLES}})
                admin.stream_store(tenant_id, store, batch_size=32)
        pool_before = server.executor._pool
        assert pool_before is not None, "server pool must be persistent"
        results: dict[str, dict] = {}
        errors: list = []

        def sweep(tenant_id: str) -> None:
            try:
                with ServeClient(server.host, server.port,
                                 timeout=60.0) as client:
                    results[tenant_id] = client.detect(tenant_id,
                                                       timeout=60.0)
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append((tenant_id, exc))

        threads = [threading.Thread(target=sweep, args=(tid,))
                   for tid in stores]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        assert errors == []
        assert server.executor._pool is pool_before, (
            "/detect must reuse the shared pool, not respawn one")
        for tenant_id in stores:
            assert results[tenant_id]["num_samples"] == NUM_SAMPLES
    record_result(
        "serve_detect_shared_pool",
        wall_clock_s=wall,
        throughput=len(stores) / wall,
        throughput_unit="detect-requests/s",
        tenants=len(stores),
        machines_per_tenant=NUM_MACHINES,
    )


#: A wide serving window: 256 machines, the last 256 samples of a one-day
#: scenario trace at 300 s resolution, the default stack on cpu.
REPLY_MACHINES = 256
REPLY_WINDOW = 256
REPLY_SCENARIO = "diurnal+network-storm+hotjob"
MIN_REPLY_SPEEDUP = 1.5


def legacy_detect_reply(tenant_id, window, plans, results) -> bytes:
    """The ``/detect`` reply before the encoder: one ``AnomalyEvent`` and
    one dict per event, then ``json.dumps`` of the whole reply."""
    return json.dumps({
        "tenant": tenant_id, "num_samples": window.num_samples,
        "cached": False,
        "detections": [
            {"label": plan.label, "name": plan.name, "metric": plan.metric,
             "events": [e.to_dict() for e in result.events()],
             "flagged_machines": sorted(result.flagged_machines())}
            for plan, result in zip(plans, results)]}).encode("utf-8")


def test_detect_reply_encoder_matches_and_beats_dumps():
    usage = generate_trace(TraceConfig(
        cluster=ClusterConfig(num_machines=REPLY_MACHINES),
        usage=UsageConfig(resolution_s=300), horizon_s=24 * 3600,
        scenario=REPLY_SCENARIO, seed=1)).usage
    window = usage.sample_slice(usage.num_samples - REPLY_WINDOW,
                                usage.num_samples)
    plans, _ = compile_plans(None, ("cpu",))
    engine = DetectionEngine(detectors={})
    verdicts = [engine.run(window, plan.detector, metric=plan.metric)
                for plan in plans]

    def fresh():
        # events() keeps the AnomalyEvents it builds; a served miss
        # starts from verdicts that never built any.
        return [EngineResult(r.detector, r.metric, r.machine_ids, r.block)
                for r in verdicts]

    dumps_s, want = best_of(
        lambda: legacy_detect_reply("wide", window, plans, fresh()),
        rounds=15)
    encode_s, body = best_of(
        lambda: detect_reply("wide", window.num_samples,
                             [(plan.label, plan.name, plan.metric, result)
                              for plan, result in zip(plans, fresh())]),
        rounds=15)
    assert body == want
    events = sum(result.num_events for result in verdicts)
    speedup = dumps_s / encode_s
    record_result("serve/detect_reply", wall_clock_s=encode_s,
                  throughput=events / encode_s, throughput_unit="events/s",
                  speedup_vs_dumps=speedup, num_machines=REPLY_MACHINES,
                  window_samples=REPLY_WINDOW, events=events,
                  body_bytes=len(body))
    report(f"serve: /detect reply, array encoder vs dicts + json.dumps "
           f"({REPLY_MACHINES} machines, {REPLY_WINDOW}-sample window)", {
               "events": events,
               "body": f"{len(body)} bytes, identical",
               "timing": f"dumps {dumps_s * 1e3:.2f} ms -> encoder "
                         f"{encode_s * 1e3:.2f} ms ({speedup:.1f}x)",
           })
    assert speedup >= MIN_REPLY_SPEEDUP, (
        f"/detect reply encoder only {speedup:.1f}x faster than json.dumps "
        f"(need >= {MIN_REPLY_SPEEDUP}x)")
