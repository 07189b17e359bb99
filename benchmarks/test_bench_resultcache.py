"""E14 — the content-hashed run-result cache: free reruns.

Three claims, all measured end to end:

* a **warm** ``repro detect`` over an unchanged trace (same bytes, same
  detectors) restores its verdict from the ledger at least **10×** faster
  than the cold run — cold being the first-ever invocation (trace load +
  engine sweep + manifest scoring), the rerun cost a user actually pays;
* an **interrupted sweep resumes for free**: rerunning a scenario × seed
  grid whose cells are already in the ledger costs a fraction of the
  computed sweep (reported per-cell);
* the serve layer's cached ``/detect`` answers a repeat sweep over an
  unchanged ring window **without one executor round-trip** (asserted via
  a pool-call counter, timed cold vs. warm).

Every row lands in ``BENCH_results.json`` via :func:`record_result` so CI
keeps the trajectory.
"""

from __future__ import annotations

import contextlib
import io
import time

import numpy as np

from repro.cli import main
from repro.scenarios.scoring import sweep_scenarios
from repro.serve import DetectionServer, ServeClient
from repro.trace.synthetic import generate_trace
from repro.trace.writer import write_trace

from benchmarks.conftest import bench_config, record_result, report

MIN_WARM_SPEEDUP = 10.0


def run_cli(argv) -> tuple[float, str]:
    """(wall-clock seconds, stdout) of one in-process CLI invocation."""
    buffer = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    elapsed = time.perf_counter() - started
    assert code == 0, buffer.getvalue()
    return elapsed, buffer.getvalue()


class TestDetectRerun:
    def test_warm_detect_10x_faster_than_cold(self, tmp_path):
        trace_dir = tmp_path / "trace"
        cache_dir = tmp_path / "ledger"
        config = bench_config("memory-thrash", num_machines=256,
                              horizon_s=24 * 3600)
        write_trace(generate_trace(config), trace_dir)
        argv = ["detect", str(trace_dir), "--cache",
                "--result-cache", str(cache_dir)]

        # Cold is the first-ever run: CSV parse + sidecar build + engine
        # sweep + manifest scoring — exactly what a user pays before the
        # ledger exists.  Warm is the identical command rerun.
        cold_s, cold_out = run_cli(argv)
        warm_s, warm_out = run_cli(argv)

        assert "(cached)" not in cold_out
        assert "(cached)" in warm_out
        # The verdict tables must be identical, line for line.
        strip = lambda text: [line for line in text.splitlines()
                              if not line.startswith(("engine sweep",
                                                      "timings:"))]
        assert strip(warm_out) == strip(cold_out)
        speedup = cold_s / warm_s
        assert speedup >= MIN_WARM_SPEEDUP, (
            f"warm rerun only {speedup:.1f}x faster ({cold_s:.3f}s -> "
            f"{warm_s:.3f}s); the ledger is not paying for itself")
        report("E14 result cache: repro detect rerun", {
            "cold (load + engine + scoring)": f"{cold_s * 1000:.0f} ms",
            "warm (ledger restore)": f"{warm_s * 1000:.0f} ms",
            "speedup": f"{speedup:.0f}x (≥ {MIN_WARM_SPEEDUP:.0f}x required)",
        })
        record_result("resultcache_detect_cold", wall_clock_s=cold_s)
        record_result("resultcache_detect_warm", wall_clock_s=warm_s,
                      speedup_vs_cold=speedup,
                      min_required_speedup=MIN_WARM_SPEEDUP)


class TestSweepResume:
    def test_resumed_sweep_costs_a_fraction(self, tmp_path):
        cache_dir = tmp_path / "ledger"
        scenarios = ["hotjob", "thrashing", "memory-thrash",
                     "network-storm", "machine-failure"]

        started = time.perf_counter()
        computed = sweep_scenarios(scenarios, cache_dir=cache_dir)
        computed_s = time.perf_counter() - started
        assert not any(cell.cached for cell in computed)

        started = time.perf_counter()
        resumed = sweep_scenarios(scenarios, cache_dir=cache_dir)
        resumed_s = time.perf_counter() - started
        assert all(cell.cached for cell in resumed)
        for fresh, cached in zip(computed, resumed):
            assert fresh.scores == cached.scores

        speedup = computed_s / resumed_s
        report("E14 result cache: sweep resume", {
            "computed sweep (5 cells)": f"{computed_s * 1000:.0f} ms",
            "resumed sweep (all cached)": f"{resumed_s * 1000:.0f} ms",
            "per resumed cell": f"{resumed_s / len(resumed) * 1000:.1f} ms",
            "speedup": f"{speedup:.0f}x",
        })
        record_result("resultcache_sweep_computed", wall_clock_s=computed_s,
                      throughput=len(computed) / computed_s,
                      throughput_unit="cells/s")
        record_result("resultcache_sweep_resumed", wall_clock_s=resumed_s,
                      throughput=len(resumed) / resumed_s,
                      throughput_unit="cells/s", speedup_vs_computed=speedup)


class TestServeDetectCache:
    def test_cached_detect_skips_the_executor(self):
        with DetectionServer(port=0, backend="threads", workers=2) as server, \
                ServeClient(server.host, server.port) as client:
            machines = [f"m-{i}" for i in range(32)]
            client.create_tenant({"id": "bench", "machines": machines,
                                  "streaming": {"window_samples": 512}})
            rng = np.random.default_rng(2022)
            ts = 60.0 * np.arange(1, 257, dtype=np.float64)
            frames = rng.uniform(5.0, 95.0, size=(256, len(machines), 3))
            for start in range(0, 256, 32):
                client.ingest_frames("bench", ts[start:start + 32],
                                     frames[start:start + 32])

            pool_calls = []
            original = server.executor.run_many

            def counting(*args, **kwargs):
                pool_calls.append(1)
                return original(*args, **kwargs)

            server.executor.run_many = counting
            started = time.perf_counter()
            cold = client.detect("bench")
            cold_s = time.perf_counter() - started
            started = time.perf_counter()
            warm = client.detect("bench")
            warm_s = time.perf_counter() - started

            assert cold["cached"] is False
            assert warm["cached"] is True
            assert warm["detections"] == cold["detections"]
            assert len(pool_calls) == 1   # the hit never reached the pool
        report("E14 result cache: serve /detect window cache", {
            "cold /detect (executor sweep)": f"{cold_s * 1000:.1f} ms",
            "warm /detect (window-version hit)": f"{warm_s * 1000:.1f} ms",
            "executor round-trips": f"{len(pool_calls)} (of 2 requests)",
        })
        record_result("resultcache_serve_detect_cold", wall_clock_s=cold_s)
        record_result("resultcache_serve_detect_warm", wall_clock_s=warm_s,
                      speedup_vs_cold=cold_s / warm_s,
                      executor_calls=len(pool_calls))
