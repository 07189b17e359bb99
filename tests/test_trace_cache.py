"""Tests for the columnar binary trace cache and the bulk CSV ingest path.

The cache contract: ``load_trace(dir, cache=True)`` never changes the
returned bundle — a warm load is identical to the cold parse, a stale
cache (content hash mismatch) is ignored and rewritten, and a corrupt
cache behaves as if absent.  The bulk-ingest contract: the columnar
server-usage decoder is bit-identical to the row-wise parser and falls
back to it for anything it cannot represent exactly.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import gzip
import pickle
import shutil
import sys
import threading
import warnings
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.config import ClusterConfig, TraceConfig, UsageConfig
from repro.errors import TraceFormatError
from repro.pipeline import Pipeline
from repro.storage import load_npz, save_npz
from repro.trace import cache as trace_cache
from repro.trace.loader import (
    _bulk_usage_store,
    _BulkIngestUnavailable,
    load_server_usage,
    load_trace,
    usage_records_to_store,
)
from repro.trace.records import (
    BatchInstanceRecord,
    BatchTaskRecord,
    MachineEvent,
    RecordColumns,
)
from repro.trace.synthetic import generate_trace
from repro.trace.writer import write_trace

#: The record-table fields of a bundle.
TABLES = ("machine_events", "tasks", "instances")


def assert_bundles_identical(left, right) -> None:
    assert left.machine_events == right.machine_events
    assert left.tasks == right.tasks
    assert left.instances == right.instances
    if left.usage is None:
        assert right.usage is None
    else:
        assert left.usage.machine_ids == right.usage.machine_ids
        assert left.usage.metrics == right.usage.metrics
        assert np.array_equal(left.usage.timestamps, right.usage.timestamps)
        assert np.array_equal(left.usage.data, right.usage.data)
    assert left.meta == right.meta


@pytest.fixture()
def trace_dir(tmp_path, thrashing_bundle):
    write_trace(thrashing_bundle, tmp_path)
    return tmp_path


class TestCacheRoundTrip:
    def test_warm_load_identical_to_cold_parse(self, trace_dir):
        cold = load_trace(trace_dir, cache=True)
        assert trace_cache.cache_path(trace_dir).exists()
        warm = load_trace(trace_dir, cache=True)
        assert_bundles_identical(warm, cold)
        # and both match an entirely uncached parse
        assert_bundles_identical(cold, load_trace(trace_dir))

    def test_compressed_tables_cache_too(self, tmp_path, thrashing_bundle):
        write_trace(thrashing_bundle, tmp_path, compress=True)
        cold = load_trace(tmp_path, cache=True)
        warm = load_trace(tmp_path, cache=True)
        assert_bundles_identical(warm, cold)

    def test_partial_trace_round_trips(self, tmp_path):
        (tmp_path / "server_usage.csv").write_text(
            "0,m_1,10,20,30\n60,m_1,11,21,31\n")
        cold = load_trace(tmp_path, cache=True)
        warm = load_trace(tmp_path, cache=True)
        assert_bundles_identical(warm, cold)
        assert warm.tasks == [] and warm.machine_events == []

    def test_moved_directory_reports_its_new_path(self, tmp_path,
                                                  thrashing_bundle):
        """Regression: a copied/moved dir must not replay the old
        meta['source'] from its travelling sidecar."""
        import shutil

        original = tmp_path / "original"
        write_trace(thrashing_bundle, original)
        load_trace(original, cache=True)
        moved = tmp_path / "moved"
        shutil.copytree(original, moved)
        warm = load_trace(moved, cache=True)
        assert warm.meta["source"] == str(moved)
        assert_bundles_identical(
            warm, load_trace(moved))

    def test_bundles_compare_by_value(self, trace_dir):
        """``==`` holds between the cold parse, a warm load and an
        mmap-backed load: the store compares by value wherever its matrix
        lives."""
        cold = load_trace(trace_dir, cache=True)
        warm = load_trace(trace_dir, cache=True)
        mapped = load_trace(trace_dir, cache=True, mmap=True)
        assert mapped.usage.mmap_backed and not warm.usage.mmap_backed
        assert cold == warm == mapped
        assert load_trace(trace_dir) == mapped
        assert load_trace(trace_dir) == load_trace(trace_dir)
        edited = dataclasses.replace(
            cold, usage=cold.usage.subset(cold.usage.machine_ids[1:]))
        assert edited != warm

    def test_cache_off_leaves_no_sidecar(self, trace_dir):
        load_trace(trace_dir)
        assert not (trace_dir / trace_cache.CACHE_DIR_NAME).exists()


class TestCacheInvalidation:
    def test_content_change_invalidates(self, trace_dir):
        load_trace(trace_dir, cache=True)
        with open(trace_dir / "server_usage.csv", "a",
                  encoding="utf-8") as handle:
            handle.write("999999,brand_new_machine,1.00,2.00,3.00\n")
        fresh = load_trace(trace_dir, cache=True)
        assert "brand_new_machine" in fresh.usage.machine_ids
        # the rewritten cache serves the new content
        warm = load_trace(trace_dir, cache=True)
        assert "brand_new_machine" in warm.usage.machine_ids

    def test_version_mismatch_invalidates(self, trace_dir, monkeypatch):
        load_trace(trace_dir, cache=True)
        monkeypatch.setattr(trace_cache, "CACHE_VERSION", 999)
        paths = {"server_usage": trace_dir / "server_usage.csv"}
        fingerprint = trace_cache.trace_fingerprint(paths)
        assert trace_cache.load_trace_cache(trace_dir, fingerprint) is None

    def test_corrupt_cache_is_treated_as_absent(self, trace_dir):
        cold = load_trace(trace_dir, cache=True)
        trace_cache.cache_path(trace_dir).write_bytes(b"not an npz at all")
        reparsed = load_trace(trace_dir, cache=True)
        assert_bundles_identical(reparsed, cold)

    def test_inconsistent_cached_arrays_read_as_absent(self, trace_dir):
        """Regression: a valid npz with internally inconsistent arrays
        (truncated ids, short columns) must re-parse, not crash or serve
        a silently smaller bundle."""
        cold = load_trace(trace_dir, cache=True)
        path = trace_cache.cache_path(trace_dir)

        def corrupt(key, shrink):
            with np.load(path, allow_pickle=False) as data:
                arrays = {name: data[name] for name in data.files}
            arrays[key] = shrink(arrays[key])
            header = arrays.pop("__header__")
            with open(path, "wb") as handle:
                np.savez(handle, __header__=header, **arrays)

        # usage ids one short of the dense matrix's machine axis
        corrupt("usage:machine_ids", lambda a: a[:-1])
        reparsed = load_trace(trace_dir, cache=True)
        assert_bundles_identical(reparsed, cold)

        # one record-table column shorter than its siblings
        corrupt("batch_task:status", lambda a: a[:-1])
        reparsed = load_trace(trace_dir, cache=True)
        assert_bundles_identical(reparsed, cold)

    def test_fingerprint_covers_table_membership(self, trace_dir):
        paths = {"server_usage": trace_dir / "server_usage.csv"}
        both = dict(paths, batch_task=trace_dir / "batch_task.csv")
        assert trace_cache.trace_fingerprint(paths) \
            != trace_cache.trace_fingerprint(both)

    def test_lenient_cache_never_serves_a_strict_load(self, tmp_path):
        """Regression: skip_malformed is part of the cache identity."""
        (tmp_path / "server_usage.csv").write_text(
            "0,m_1,10,20,30\nbroken-line\n60,m_1,11,21,31\n")
        lenient = load_trace(tmp_path, skip_malformed=True, cache=True)
        assert lenient.usage.num_samples == 2
        with pytest.raises(TraceFormatError):
            load_trace(tmp_path, cache=True)
        # and the lenient load still works (its cache entry was replaced
        # by nothing — the strict parse raised before writing)
        again = load_trace(tmp_path, skip_malformed=True, cache=True)
        assert again.usage.num_samples == 2

    def test_strict_cache_not_served_to_lenient_load(self, trace_dir):
        strict = load_trace(trace_dir, cache=True)
        lenient = load_trace(trace_dir, skip_malformed=True, cache=True)
        assert_bundles_identical(strict, lenient)

    def test_int_beyond_int64_skips_caching_not_crashes(self, tmp_path):
        """Regression: the row parser accepts ints beyond int64 (e.g. a
        1e30 timestamp); caching must skip such bundles, not crash the
        load that already succeeded."""
        (tmp_path / "machine_events.csv").write_text(
            "1e30,m_1,add,,96,512,4096\n")
        bundle = load_trace(tmp_path, cache=True)
        assert bundle.machine_events[0].timestamp == int(1e30)
        assert not trace_cache.cache_path(tmp_path).exists()
        # and a repeat load still works (cold every time)
        again = load_trace(tmp_path, cache=True)
        assert again.machine_events == bundle.machine_events

    def test_unserialisable_meta_skips_caching(self, trace_dir):
        bundle = load_trace(trace_dir)
        bundle.meta["handle"] = object()   # not JSON-serialisable
        assert trace_cache.save_trace_cache(bundle, trace_dir, "f" * 64) is None
        assert not trace_cache.cache_path(trace_dir).exists()


@pytest.fixture(scope="module")
def perf_bundle():
    """perfbench's offline scenario, at 16 machines × 6 h instead of
    256 × 24 h; the workload is the same 98 tasks and 957 instances."""
    return generate_trace(TraceConfig(
        cluster=ClusterConfig(num_machines=16),
        usage=UsageConfig(resolution_s=300), horizon_s=6 * 3600,
        scenario="hotjob+network-storm+machine-failure", seed=1))


@pytest.fixture()
def perf_trace(tmp_path, perf_bundle):
    write_trace(perf_bundle, tmp_path / "trace")
    return tmp_path / "trace"


def forbid_record_builds(monkeypatch) -> None:
    """Make building any scheduler-table record raise.

    Every ``from_row`` ends in the record's ``__init__``, so this also
    catches a factory table that captured the bound ``from_row`` methods
    at import.
    """
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"built a {type(self).__name__}")

    for record in (MachineEvent, BatchTaskRecord, BatchInstanceRecord):
        monkeypatch.setattr(record, "__init__", refuse)


class TestLazyRecordTables:
    """A warm load checks the record columns up front and builds each
    table's records on its first read: a run that never reads a table
    builds none, and every reader sees the bundle the cold parse gives."""

    @pytest.fixture(params=("perfbench-shaped", "storage_v1"))
    def warm_and_cold(self, request, tmp_path, perf_bundle):
        """(a warm bundle whose tables are not read yet, the cold parse)."""
        directory = tmp_path / "trace"
        if request.param == "storage_v1":
            fixture = Path(__file__).resolve().parent / "fixtures"
            shutil.copytree(fixture / "storage_v1" / "trace", directory)
        else:
            write_trace(perf_bundle, directory)
            load_trace(directory, cache=True)
        warm = load_trace(directory, cache=True)
        assert all(isinstance(vars(warm)[name], RecordColumns)
                   for name in TABLES)
        return warm, load_trace(directory)

    def test_warm_detect_builds_no_record(self, perf_trace, capsys,
                                          monkeypatch):
        argv = ["detect", str(perf_trace), "--cache"]
        assert main(argv) == 0   # the cold fill
        capsys.readouterr()
        assert main(argv) == 0
        unpatched = capsys.readouterr().out
        forbid_record_builds(monkeypatch)
        assert main(argv) == 0
        assert capsys.readouterr().out == unpatched

    def test_warm_pipeline_builds_no_record(self, perf_trace, monkeypatch):
        spec = {"source": {"kind": "trace-dir", "path": str(perf_trace),
                           "cache": True},
                "sinks": ["score"]}
        cold = Pipeline.from_spec(spec).run()
        forbid_record_builds(monkeypatch)
        warm = Pipeline.from_spec(spec).run()
        assert warm.events() == cold.events()
        assert warm.scores == cold.scores

    def test_warm_equals_cold(self, warm_and_cold):
        warm, cold = warm_and_cold
        assert_bundles_identical(warm, cold)
        eager = dataclasses.replace(cold, usage=warm.usage)
        assert warm == eager
        assert repr(warm) == repr(eager)

    @pytest.mark.parametrize("clone", (
        lambda bundle: pickle.loads(pickle.dumps(bundle)),
        copy.deepcopy,
        lambda bundle: dataclasses.replace(bundle, meta=dict(bundle.meta)),
    ), ids=("pickle", "deepcopy", "replace"))
    def test_copies_equal_cold(self, warm_and_cold, clone):
        warm, cold = warm_and_cold
        assert_bundles_identical(clone(warm), cold)
        assert_bundles_identical(warm, cold)
        # and a copy of a bundle whose tables were read
        assert_bundles_identical(clone(warm), cold)

    def test_mutation_after_first_read_is_kept(self, warm_and_cold):
        warm, cold = warm_and_cold
        instance = dataclasses.replace(cold.instances[0], job_id="j_new")
        warm.instances.append(instance)
        warm.tasks[0] = dataclasses.replace(cold.tasks[0], status="Failed")
        assert warm.instances[-1] is instance
        assert warm.instances[:-1] == cold.instances
        assert warm.tasks[0].status == "Failed"
        assert pickle.loads(pickle.dumps(warm)).instances[-1] == instance

    def test_summary_equals_cold(self, warm_and_cold):
        warm, cold = warm_and_cold
        assert warm.summary() == cold.summary()

    def test_concurrent_first_reads_share_one_list(self, warm_and_cold):
        warm, cold = warm_and_cold
        readers = 8
        barrier = threading.Barrier(readers)
        seen = []

        def read():
            barrier.wait(timeout=10)
            seen.append(warm.instances)

        threads = [threading.Thread(target=read) for _ in range(readers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == readers
        assert all(table is warm.instances for table in seen)
        assert warm.instances == cold.instances

    def test_short_null_mask_reads_as_absent_at_load(self, perf_trace):
        """A defect surfaces while the cache is read, never at first
        access: a null mask one short of its column re-parses."""
        cold = load_trace(perf_trace, cache=True)
        path = trace_cache.cache_path(perf_trace)
        header, arrays = load_npz(path)
        key = "batch_instance:cpu_avg#null"
        arrays[key] = arrays[key][:-1]
        save_npz(path, header, arrays)
        assert trace_cache.load_trace_cache(
            perf_trace, trace_cache.directory_fingerprint(perf_trace)) is None
        assert_bundles_identical(load_trace(perf_trace, cache=True), cold)

    @pytest.mark.parametrize("options", (
        {}, {"mmap": True}, {"storage": "float32"}), ids=("ram", "mmap",
                                                          "float32"))
    def test_cluster_detectors_read_the_lazy_tables(self, perf_trace,
                                                    options):
        """``sync_break`` reads instances through ``BatchHierarchy``."""
        cold = load_trace(perf_trace)
        source = {"kind": "trace-dir", "path": str(perf_trace),
                  "cache": True, **options}
        Pipeline.from_spec({"source": source, "sinks": []}).run()
        warm = load_trace(perf_trace, cache=True, **options)
        assert isinstance(vars(warm)["instances"], RecordColumns)
        stack = "sync_break+threshold"
        lazy = Pipeline.from_bundle(warm, detectors=stack).run()
        eager = Pipeline.from_bundle(
            dataclasses.replace(cold, usage=warm.usage), detectors=stack).run()
        spec = Pipeline.from_spec({"source": source, "detectors": stack,
                                   "sinks": []}).run()
        assert lazy.detections[0].result.num_events > 0
        for run in (lazy, spec):
            assert run.events() == eager.events()
            for left, right in zip(run.detections, eager.detections):
                assert np.array_equal(left.result.mask, right.result.mask)


class TestCacheCorruption:
    """Damaged sidecar bytes read as absent (or as the identical bundle)."""

    @pytest.fixture(scope="class")
    def sidecar(self, tmp_path_factory, thrashing_bundle):
        """(trace dir, fingerprint, cold bundle, pristine sidecar bytes)."""
        directory = tmp_path_factory.mktemp("sidecar")
        write_trace(thrashing_bundle, directory)
        cold = load_trace(directory, cache=True)
        fingerprint = trace_cache.directory_fingerprint(directory)
        pristine = {path: path.read_bytes()
                    for path in (trace_cache.cache_path(directory),
                                 trace_cache.usage_path(directory))}
        return directory, fingerprint, cold, pristine

    @staticmethod
    def restore(pristine) -> None:
        for path, raw in pristine.items():
            path.write_bytes(raw)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_any_npz_byte_flip_reads_absent_or_identical(self, sidecar, data):
        directory, fingerprint, cold, pristine = sidecar
        self.restore(pristine)
        path = trace_cache.cache_path(directory)
        raw = bytearray(pristine[path])
        raw[data.draw(st.integers(0, len(raw) - 1))] ^= data.draw(
            st.integers(1, 255))
        path.write_bytes(bytes(raw))
        served = trace_cache.load_trace_cache(directory, fingerprint)
        if served is not None:
            assert_bundles_identical(served, cold)

    def test_usage_header_flip_reparses(self, sidecar):
        """Every byte of ``usage.npy``'s npy header, flipped in turn.

        A flip that makes NumPy's header parser raise something unusual
        (``tokenize.TokenError`` when the header length byte grows) must
        still read as absent, so the load re-parses the CSVs.  The data
        region is covered by the CRC the npz header records
        (:meth:`test_usage_data_flip_reparses`).
        """
        directory, _, cold, pristine = sidecar
        raw = pristine[trace_cache.usage_path(directory)]
        assert raw[:8] == b"\x93NUMPY\x01\x00"
        header_end = 10 + int.from_bytes(raw[8:10], "little")
        for position in range(header_end):
            self.restore(pristine)
            mutated = bytearray(raw)
            mutated[position] ^= 0x80
            trace_cache.usage_path(directory).write_bytes(bytes(mutated))
            assert_bundles_identical(load_trace(directory, cache=True), cold)

    def test_usage_data_flip_reparses(self, sidecar):
        """About 50 evenly spaced bytes of ``usage.npy``'s data region,
        flipped in turn: each must fail the recorded CRC and read as
        absent, never be served as a different sample value."""
        directory, _, cold, pristine = sidecar
        raw = pristine[trace_cache.usage_path(directory)]
        data_start = 10 + int.from_bytes(raw[8:10], "little")
        step = max(1, (len(raw) - data_start) // 50)
        for position in range(data_start, len(raw), step):
            self.restore(pristine)
            mutated = bytearray(raw)
            mutated[position] ^= 0x01
            trace_cache.usage_path(directory).write_bytes(bytes(mutated))
            assert_bundles_identical(load_trace(directory, cache=True), cold)

    def test_mmap_load_skips_the_crc(self, sidecar, monkeypatch):
        """Checking the CRC would page in the whole file, which a
        memory-mapped load exists to avoid."""
        directory, _, cold, pristine = sidecar
        self.restore(pristine)
        calls = []

        def counting(data):
            calls.append(1)
            return zlib.crc32(data)

        monkeypatch.setattr(trace_cache, "zlib",
                            SimpleNamespace(crc32=counting))
        served = load_trace(directory, cache=True, mmap=True)
        assert not calls
        assert np.array_equal(served.usage.data, cold.usage.data)
        load_trace(directory, cache=True)
        assert calls == [1]

    def test_sidecar_without_crc_loads_unchecked(self, sidecar):
        """A header an older build wrote, without ``usage_crc32``."""
        directory, fingerprint, cold, pristine = sidecar
        self.restore(pristine)
        path = trace_cache.cache_path(directory)
        header, arrays = load_npz(path)
        assert "usage_crc32" in header
        del header["usage_crc32"]
        save_npz(path, header, arrays)
        served = trace_cache.load_trace_cache(directory, fingerprint)
        assert_bundles_identical(served, cold)


class TestStatLedger:
    """The warm-path hashing fix: unchanged stats skip the full re-hash."""

    def test_warm_hit_skips_rehash_entirely(self, trace_dir, monkeypatch):
        cold = load_trace(trace_dir, cache=True)
        assert trace_cache.ledger_path(trace_dir).exists()

        def boom(paths):
            raise AssertionError("warm hit must not re-hash table files")

        monkeypatch.setattr(trace_cache, "trace_fingerprint", boom)
        warm = load_trace(trace_dir, cache=True)
        assert_bundles_identical(warm, cold)

    def test_stat_change_falls_back_to_full_hash(self, trace_dir,
                                                 monkeypatch):
        import os

        cold = load_trace(trace_dir, cache=True)
        usage_csv = trace_dir / "server_usage.csv"
        st = os.stat(usage_csv)
        os.utime(usage_csv, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000))

        calls = []
        real = trace_cache.trace_fingerprint

        def counting(paths):
            calls.append(1)
            return real(paths)

        monkeypatch.setattr(trace_cache, "trace_fingerprint", counting)
        warm = load_trace(trace_dir, cache=True)
        # mtime changed, content did not: full hash ran, cache still valid.
        assert calls
        assert_bundles_identical(warm, cold)
        # The rewritten ledger serves the next load without hashing again.
        calls.clear()
        again = load_trace(trace_dir, cache=True)
        assert not calls
        assert_bundles_identical(again, cold)

    def test_corrupt_ledger_falls_back_to_full_hash(self, trace_dir):
        cold = load_trace(trace_dir, cache=True)
        trace_cache.ledger_path(trace_dir).write_text("{not json",
                                                      encoding="utf-8")
        warm = load_trace(trace_dir, cache=True)
        assert_bundles_identical(warm, cold)

    def test_byte_change_invalidates_through_the_ledger(self, trace_dir):
        """Appending a row changes size+mtime — the ledger must not mask
        the content change (full hash is the source of truth)."""
        load_trace(trace_dir, cache=True)
        with open(trace_dir / "server_usage.csv", "a",
                  encoding="utf-8") as handle:
            handle.write("999999,ledger_fresh_machine,1.00,2.00,3.00\n")
        fresh = load_trace(trace_dir, cache=True)
        assert "ledger_fresh_machine" in fresh.usage.machine_ids

    def test_table_membership_change_invalidates(self, tmp_path):
        (tmp_path / "server_usage.csv").write_text("0,m_1,10,20,30\n")
        before = load_trace(tmp_path, cache=True)
        assert before.machine_events == []
        (tmp_path / "machine_events.csv").write_text(
            "0,m_1,add,,96,512,4096\n")
        after = load_trace(tmp_path, cache=True)
        assert len(after.machine_events) == 1


class TestBulkIngest:
    def test_bit_identical_to_row_wise_parser(self, trace_dir):
        path = trace_dir / "server_usage.csv"
        bulk = _bulk_usage_store(path)
        rowwise = usage_records_to_store(load_server_usage(path))
        assert bulk.machine_ids == rowwise.machine_ids
        assert np.array_equal(bulk.timestamps, rowwise.timestamps)
        assert np.array_equal(bulk.data, rowwise.data)

    def test_last_duplicate_row_wins_like_from_records(self, tmp_path):
        path = tmp_path / "server_usage.csv"
        path.write_text("0,m_1,10,20,30\n0,m_1,77,88,99\n")
        bulk = _bulk_usage_store(path)
        rowwise = usage_records_to_store(load_server_usage(path))
        assert np.array_equal(bulk.data, rowwise.data)
        assert bulk.series("m_1", "cpu").values[0] == 77.0

    def test_float_timestamps_truncate_like_int_of_float(self, tmp_path):
        path = tmp_path / "server_usage.csv"
        path.write_text("100.7,m_1,10,20,30\n")
        bulk = _bulk_usage_store(path)
        rowwise = usage_records_to_store(load_server_usage(path))
        assert np.array_equal(bulk.timestamps, rowwise.timestamps)
        assert bulk.timestamps[0] == 100.0

    def test_timestamps_beyond_int64_fall_back(self, tmp_path):
        """Regression: astype(int64) would wrap where int() does not."""
        path = tmp_path / "server_usage.csv"
        path.write_text("1e19,m_1,10,20,30\n")
        from repro.trace.loader import _BulkIngestUnavailable

        with pytest.raises(_BulkIngestUnavailable):
            _bulk_usage_store(path)
        rowwise = usage_records_to_store(load_server_usage(path))
        bundle = load_trace(tmp_path)
        assert np.array_equal(bundle.usage.timestamps, rowwise.timestamps)
        assert bundle.usage.timestamps[0] == 1e19

    def test_malformed_rows_still_raise_with_line_number(self, tmp_path):
        path = tmp_path / "server_usage.csv"
        path.write_text("0,m_1,10,20,30\nbroken-line\n")
        with pytest.raises(TraceFormatError) as err:
            load_trace(tmp_path)
        assert "line 2" in str(err.value)

    def test_quoted_cells_fall_back_to_csv_module(self, tmp_path):
        path = tmp_path / "server_usage.csv"
        path.write_text('0,"m_1",10,20,30\n')
        bundle = load_trace(tmp_path)
        assert bundle.usage.machine_ids == ["m_1"]

    def test_splitlines_class_separators_fall_back(self, tmp_path):
        """Regression: \\f et al. are in-cell bytes to csv, not row breaks;
        the bulk path must reject such files like the strict parser does."""
        path = tmp_path / "server_usage.csv"
        path.write_text("1,a,2,3,4\x0c5,b,6,7,8\n")
        from repro.trace.loader import _BulkIngestUnavailable

        with pytest.raises(_BulkIngestUnavailable):
            _bulk_usage_store(path)
        with pytest.raises(TraceFormatError):
            load_trace(tmp_path)

    def test_carriage_return_newlines_match_row_path(self, tmp_path):
        path = tmp_path / "server_usage.csv"
        path.write_bytes(b"0,m_1,10,20,30\r\n60,m_1,11,21,31\r\n")
        bulk = _bulk_usage_store(path)
        rowwise = usage_records_to_store(load_server_usage(path))
        assert np.array_equal(bulk.data, rowwise.data)

    def test_blank_lines_ignored_like_row_path(self, tmp_path):
        path = tmp_path / "server_usage.csv"
        path.write_text("0,m_1,10,20,30\n\n   \n60,m_1,11,21,31\n")
        bulk = _bulk_usage_store(path)
        assert bulk.num_samples == 2

    def test_skip_malformed_uses_row_path(self, tmp_path):
        (tmp_path / "server_usage.csv").write_text(
            "0,m_1,10,20,30\nbroken-line\n60,m_1,11,21,31\n")
        bundle = load_trace(tmp_path, skip_malformed=True)
        assert bundle.usage.num_samples == 2

    def test_empty_usage_file_yields_no_store(self, tmp_path):
        (tmp_path / "server_usage.csv").write_text("")
        (tmp_path / "machine_events.csv").write_text(
            "0,m_1,add,,96,512,4096\n")
        bundle = load_trace(tmp_path)
        assert bundle.usage is None


#: Cell renderings of a utilisation value (the row parser takes float()).
_VALUE_FORMS = ("repr", "%.2f", "%.17g", "%e", "short")
_PADS = ("", " ", "\t", " \t")
_BLANKS = ("", " ", "\t", "  \t ")
#: One poison per file at most: each is a construct the C reader must
#: either mirror exactly or refuse, so the row parser decides.
_POISONS = ("quote", "1_0", "nan", "inf", "1e999", "-5", "150", "empty",
            "extra comma", "missing comma", "hash id", "\x0b", "\x0c",
            "bom")


def _render_value(value: float, form: str, plus: bool, zeros: bool) -> str:
    if form == "repr":
        text = repr(value)
    elif form == "short":   # the ".5" / "5." forms
        text = "%.2f" % value
        if text.startswith("0."):
            text = text[1:]
        elif text.endswith(".00"):
            text = text[:-2]
    else:
        text = form % value
    if zeros and text[:1].isdigit():
        text = "00" + text
    if plus and not text.startswith("-"):
        text = "+" + text
    return text


@st.composite
def usage_files(draw):
    """``(file name, raw bytes)`` of one drawn ``server_usage`` file."""
    ids = draw(st.lists(st.text("am_17", min_size=1, max_size=4),
                        min_size=1, max_size=6, unique=True))
    timestamps = draw(st.lists(
        st.one_of(st.integers(0, 10 ** 6).map(str),
                  st.floats(0, 1e6, allow_nan=False).map(repr),
                  st.floats(0, 1e6, allow_nan=False).map("%.1f".__mod__)),
        min_size=1, max_size=8))
    value = st.tuples(
        st.one_of(st.sampled_from([0.0, -0.0, 100.0, 0.5, 5.0]),
                  st.floats(0, 100)),
        st.sampled_from(_VALUE_FORMS), st.booleans(), st.booleans())
    pad = st.sampled_from(_PADS)
    rows = []
    for _ in range(draw(st.integers(1, 16))):
        cells = [draw(st.sampled_from(timestamps)), draw(st.sampled_from(ids))]
        cells += [_render_value(*draw(value)) for _ in range(3)]
        rows.append([draw(pad) + cell + draw(pad) for cell in cells])
    poison = draw(st.sampled_from(_POISONS)) if draw(
        st.integers(0, 4)) == 0 else None
    if poison is not None:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        column = draw(st.integers(0, 4))
        if poison == "quote":
            row[1] = '"' + row[1].strip() + '"'
        elif poison in ("1_0", "nan", "inf", "1e999", "-5", "150"):
            row[column if column != 1 else 2] = poison
        elif poison == "empty":
            row[column] = draw(st.sampled_from(["", " "]))
        elif poison == "extra comma":
            row.append(draw(st.sampled_from(["", "7"])))
        elif poison == "missing comma":
            del row[column]
        elif poison == "hash id":
            row[1] = row[1] + "#x"
        elif poison in ("\x0b", "\x0c"):
            cell = row[column]
            at = draw(st.integers(0, len(cell)))
            row[column] = cell[:at] + poison + cell[at:]
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(_BLANKS)))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = ending.join(lines) + (ending if draw(st.booleans()) else "")
    if poison == "bom":
        text = "\ufeff" + text
    raw = text.encode("utf-8")
    if draw(st.booleans()):
        return "server_usage.csv.gz", gzip.compress(raw)
    return "server_usage.csv", raw


def _outcome(load):
    """A load's store, or the type and text of what it raised."""
    try:
        return load()
    except Exception as exc:   # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


def assert_stores_identical(left, right) -> None:
    if left is None or right is None:
        assert left is right
        return
    assert left.machine_ids == right.machine_ids
    assert left.metrics == right.metrics
    assert np.array_equal(left.timestamps, right.timestamps)
    assert np.array_equal(left.data, right.data)
    assert np.array_equal(np.signbit(left.data), np.signbit(right.data))


class TestBulkIngestMatchesRowParser:
    """The C-reader fast path returns the row parser's store or steps aside.

    Pins the contract, not the speed: for every drawn file the fast path
    either returns the store ``usage_records_to_store(load_server_usage())``
    returns, or raises :class:`_BulkIngestUnavailable`; and ``load_trace``
    returns that store, or raises what the row parser raises.
    """

    @settings(max_examples=80, deadline=None)
    @given(drawn=usage_files())
    # Pinned files the drawn ones reach rarely: loadtxt's usecols accepts
    # an extra field, and skips an empty line that the comma total beside
    # a long row hides; a "#" would start a comment without comments=None.
    @example(drawn=("server_usage.csv", b"0,m,1,2,3,\n"))
    @example(drawn=("server_usage.csv", b"0,m,1,2,3,4,5,6,7\n\n"))
    @example(drawn=("server_usage.csv", b"0,m,1,2,3#x\n"))
    def test_fast_path_equals_row_parser(self, tmp_path_factory, drawn):
        name, raw = drawn
        directory = tmp_path_factory.mktemp("usage")
        path = directory / name
        path.write_bytes(raw)
        rowwise = _outcome(lambda: usage_records_to_store(
            load_server_usage(path)))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")   # loadtxt's blank-line one
                bulk = _bulk_usage_store(path)
        except _BulkIngestUnavailable:
            pass
        else:
            assert not isinstance(rowwise, tuple), rowwise
            assert_stores_identical(bulk, rowwise)
        loaded = _outcome(lambda: load_trace(directory).usage)
        if isinstance(rowwise, tuple):
            assert loaded == rowwise
        else:
            assert not isinstance(loaded, tuple), loaded
            assert_stores_identical(loaded, rowwise)

    def test_trailing_nul_in_an_id_falls_back(self, tmp_path):
        """A NumPy string drops trailing NULs; the csv module keeps them."""
        path = tmp_path / "server_usage.csv"
        path.write_text("0,m_1\x00,10,20,30\n")
        with pytest.raises(_BulkIngestUnavailable):
            _bulk_usage_store(path)
        assert load_trace(tmp_path).usage.machine_ids == ["m_1\x00"]

    def test_field_beyond_csv_limit_raises_like_row_parser(self, tmp_path):
        """The csv module refuses a field longer than its field limit."""
        path = tmp_path / "server_usage.csv"
        path.write_text("0,m_1,10,20,30\n0,%s,10,20,30\n"
                        % ("m" * (csv.field_size_limit() + 1)))
        with pytest.raises(_BulkIngestUnavailable):
            _bulk_usage_store(path)
        with pytest.raises(csv.Error):
            load_trace(tmp_path)


class TestPipelineAndSpecIntegration:
    def test_trace_dir_source_cache_flag_round_trips(self, trace_dir):
        from repro.pipeline import Pipeline

        spec = {"source": {"kind": "trace-dir", "path": str(trace_dir),
                           "cache": True},
                "detectors": "threshold",
                "sinks": []}
        pipeline = Pipeline.from_spec(spec)
        assert pipeline.to_spec()["source"]["cache"] is True
        result = pipeline.run()
        assert trace_cache.cache_path(trace_dir).exists()
        uncached = Pipeline.from_spec(
            {"source": {"kind": "trace-dir", "path": str(trace_dir)},
             "detectors": "threshold", "sinks": []}).run()
        assert result.events() == uncached.events()
