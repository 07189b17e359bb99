"""Tests for the columnar binary trace cache and the bulk CSV ingest path.

The cache contract: ``load_trace(dir, cache=True)`` never changes the
returned bundle — a warm load is identical to the cold parse, a stale
cache (content hash mismatch) is ignored and rewritten, and a corrupt
cache behaves as if absent.  The bulk-ingest contract: the columnar
server-usage decoder is bit-identical to the row-wise parser and falls
back to it for anything it cannot represent exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceFormatError
from repro.trace import cache as trace_cache
from repro.trace.loader import (
    _bulk_usage_store,
    load_server_usage,
    load_trace,
    usage_records_to_store,
)
from repro.trace.writer import write_trace


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
        still read as absent, so the load re-parses the CSVs.  Not
        covered, and not claimed: ``usage.npy``'s data region carries no
        checksum, so a flip there is served as a different value.
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
