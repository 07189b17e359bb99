"""E13 — the columnar binary trace cache vs. CSV parsing.

Cold-start trace loading used to go row by row through Python string
handling; at cluster scale that dominates end-to-end runs.  This benchmark
pins the two-layer fix on a 512-machine / 288-sample usage table
(~147k CSV rows):

* a warm cache load (``load_trace(dir, cache=True)`` with the sidecar in
  place) must be at least 5× faster than parsing the CSVs — and that CSV
  baseline already includes the C-reader bulk-ingest cold path, so the
  bar is honest;
* the bulk ingest (NumPy's C tokenizer) must parse at least 4× faster
  than the row-wise parser it falls back to.  Both sides run the same
  file on the same host, so the ratio is host-stable enough to gate (CI's
  ``cold-parse-gate`` job); the row-wise parse stays timed once
  (``rounds=1``): at one to two seconds it dwarfs timer noise;
* warm, cold and row-wise loads return identical stores.
"""

from __future__ import annotations

import shutil

import numpy as np

from repro.metrics.store import MetricStore
from repro.trace.cache import cache_path
from repro.trace.loader import (
    load_server_usage,
    load_trace,
    usage_records_to_store,
)
from repro.trace.records import TraceBundle
from repro.trace.writer import write_trace

from benchmarks.conftest import best_of, record_result, report

NUM_MACHINES = 512
NUM_SAMPLES = 288  # 24 h at 300 s resolution
MIN_WARM_SPEEDUP = 5.0
MIN_BULK_SPEEDUP = 4.0


def usage_only_bundle(seed: int = 2022) -> TraceBundle:
    """A bundle whose usage table is the load-time hot spot (~147k rows)."""
    rng = np.random.default_rng(seed)
    ids = [f"machine_{i:04d}" for i in range(NUM_MACHINES)]
    store = MetricStore(ids, np.arange(NUM_SAMPLES) * 300.0)
    store.data[:] = rng.uniform(0.0, 100.0, store.data.shape)
    return TraceBundle(usage=store)


class TestTraceCacheSpeedup:
    def test_warm_cache_5x_faster_than_csv_parse(self, tmp_path):
        directory = tmp_path / "trace"
        write_trace(usage_only_bundle(), directory)
        num_rows = NUM_MACHINES * NUM_SAMPLES

        def parse():
            # the stated baseline: a plain CSV parse, no cache involved
            return load_trace(directory)

        def cold():
            # what a first cached load actually costs: parse + fingerprint
            # hash + sidecar write
            shutil.rmtree(directory / ".repro-cache", ignore_errors=True)
            return load_trace(directory, cache=True)

        def warm():
            return load_trace(directory, cache=True)

        def rowwise():
            return usage_records_to_store(
                load_server_usage(directory / "server_usage.csv"))

        parse_s, parse_bundle = best_of(parse)
        cold_s, _ = best_of(cold)
        assert cache_path(directory).exists()
        warm_s, warm_bundle = best_of(warm)
        rowwise_s, rowwise_store = best_of(rowwise, rounds=1)

        assert np.array_equal(warm_bundle.usage.data, parse_bundle.usage.data)
        assert warm_bundle.usage.machine_ids == parse_bundle.usage.machine_ids
        assert np.array_equal(rowwise_store.data, parse_bundle.usage.data)

        warm_speedup = parse_s / warm_s
        bulk_speedup = rowwise_s / parse_s
        report(f"E13: trace cache ({NUM_MACHINES} machines, "
               f"{num_rows} usage rows)", {
                   "row-wise parse (legacy)": f"{rowwise_s * 1e3:.1f} ms",
                   "CSV parse (bulk ingest)": f"{parse_s * 1e3:.1f} ms "
                       f"({bulk_speedup:.1f}x over row-wise)",
                   "cold load (parse + cache write)": f"{cold_s * 1e3:.1f} ms",
                   "warm cache load": f"{warm_s * 1e3:.1f} ms "
                                      f"({warm_speedup:.1f}x over parse)",
               })
        record_result("trace_cache/rowwise_parse", wall_clock_s=rowwise_s,
                      throughput=num_rows / rowwise_s,
                      throughput_unit="rows/s", num_rows=num_rows)
        record_result("trace_cache/csv_parse", wall_clock_s=parse_s,
                      throughput=num_rows / parse_s,
                      throughput_unit="rows/s",
                      speedup_vs_rowwise=bulk_speedup, num_rows=num_rows)
        record_result("trace_cache/cold_load", wall_clock_s=cold_s,
                      throughput=num_rows / cold_s,
                      throughput_unit="rows/s", num_rows=num_rows)
        record_result("trace_cache/warm_load", wall_clock_s=warm_s,
                      throughput=num_rows / warm_s,
                      throughput_unit="rows/s",
                      speedup_vs_parse=warm_speedup, num_rows=num_rows)
        assert bulk_speedup >= MIN_BULK_SPEEDUP, (
            f"bulk CSV parse only {bulk_speedup:.1f}x faster than the "
            f"row-wise parser (need >= {MIN_BULK_SPEEDUP}x)")
        assert warm_speedup >= MIN_WARM_SPEEDUP, (
            f"warm cache load only {warm_speedup:.1f}x faster than the CSV "
            f"parse (need >= {MIN_WARM_SPEEDUP}x)")
