"""Tests for CSV loading/writing round trips."""

import gzip
import io
import shutil

import numpy as np
import pytest

from repro.cli import main
from repro.config import small_config
from repro.errors import TraceFormatError
from repro.trace import loader as loader_module
from repro.trace import schema
from repro.trace import writer as writer_module
from repro.trace.loader import (
    iter_table,
    load_batch_instances,
    load_batch_tasks,
    load_machine_events,
    load_server_usage,
    load_trace,
    usage_records_to_store,
)
from repro.trace.cache import cache_path, usage_path
from repro.trace.records import ServerUsageRecord
from repro.trace.synthetic import generate_trace
from repro.trace.writer import write_table, write_trace


class TestRoundTrip:
    def test_full_bundle_roundtrip(self, tmp_path, healthy_bundle):
        written = write_trace(healthy_bundle, tmp_path)
        assert set(written) == {"machine_events", "batch_task",
                                "batch_instance", "server_usage"}
        loaded = load_trace(tmp_path)
        assert loaded.job_ids() == healthy_bundle.job_ids()
        assert len(loaded.tasks) == len(healthy_bundle.tasks)
        assert len(loaded.instances) == len(healthy_bundle.instances)
        assert set(loaded.machine_ids()) == set(healthy_bundle.machine_ids())
        assert loaded.usage.num_samples == healthy_bundle.usage.num_samples
        # utilisation survives the round trip within CSV formatting precision
        original = healthy_bundle.usage.series(healthy_bundle.usage.machine_ids[0], "cpu")
        reloaded = loaded.usage.series(healthy_bundle.usage.machine_ids[0], "cpu")
        np.testing.assert_allclose(reloaded.values, original.values, atol=0.01)

    def test_compressed_roundtrip(self, tmp_path, healthy_bundle):
        write_trace(healthy_bundle, tmp_path, compress=True)
        assert (tmp_path / "batch_task.csv.gz").exists()
        loaded = load_trace(tmp_path)
        assert len(loaded.tasks) == len(healthy_bundle.tasks)

    @pytest.mark.parametrize("compress", (False, True), ids=("plain", "gz"))
    def test_rows_end_in_a_bare_newline(self, tmp_path, healthy_bundle,
                                        compress):
        """No ``\\r`` is written, and the same rows with ``\\r\\n``
        endings load to the same bundle."""
        lf, crlf = tmp_path / "lf", tmp_path / "crlf"
        written = write_trace(healthy_bundle, lf, compress=compress)
        crlf.mkdir()
        for path in lf.iterdir():
            raw = path.read_bytes()
            text = gzip.decompress(raw) if compress else raw
            assert b"\r" not in text
            assert text.count(b"\n") == sum(
                written[name] for name, table in schema.SCHEMAS.items()
                if path.name.startswith(table.filename))
            text = text.replace(b"\n", b"\r\n")
            (crlf / path.name).write_bytes(
                gzip.compress(text) if compress else text)
        loaded, reference = load_trace(lf), load_trace(crlf)
        assert loaded.machine_events == reference.machine_events
        assert loaded.tasks == reference.tasks
        assert loaded.instances == reference.instances
        assert loaded.usage.machine_ids == reference.usage.machine_ids
        assert np.array_equal(loaded.usage.data, reference.usage.data)
        # and writing the loaded bundle again gives the same bytes
        again = tmp_path / "again"
        write_trace(loaded, again, compress=compress)
        for path in lf.iterdir():
            read = gzip.decompress if compress else bytes
            assert read((again / path.name).read_bytes()) \
                == read(path.read_bytes())

    def test_write_skips_empty_sections(self, tmp_path):
        from repro.trace.records import TraceBundle

        written = write_trace(TraceBundle(), tmp_path)
        assert written == {}
        assert not any(tmp_path.iterdir())


class TestLoaderErrors:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(TraceFormatError):
            load_trace(tmp_path / "does-not-exist")

    def test_empty_directory(self, tmp_path):
        with pytest.raises(TraceFormatError):
            load_trace(tmp_path)

    def test_malformed_row_raises_with_line_number(self, tmp_path):
        path = tmp_path / "server_usage.csv"
        path.write_text("0,m_1,10,20,30\nbroken-line\n")
        with pytest.raises(TraceFormatError) as err:
            load_server_usage(path)
        assert "line 2" in str(err.value)

    def test_skip_malformed_drops_bad_rows(self, tmp_path):
        path = tmp_path / "server_usage.csv"
        path.write_text("0,m_1,10,20,30\nbroken-line\n60,m_1,11,21,31\n")
        records = load_server_usage(path, skip_malformed=True)
        assert len(records) == 2

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "machine_events.csv"
        path.write_text("0,m_1,add,,96,512,4096\n\n   \n")
        events = load_machine_events(path)
        assert len(events) == 1
        assert events[0].capacity_cpu == 96.0


#: Utilisation cells the loader must refuse: not finite, or outside [0, 100].
BAD_UTILISATION = ("nan", "inf", "1e999", "-5.00", "150.00")
BAD_LINE = 5


@pytest.fixture(scope="module")
def usage_trace(tmp_path_factory):
    root = tmp_path_factory.mktemp("usage-trace")
    write_trace(generate_trace(small_config("thrashing", seed=7)), root)
    return root


def with_bad_cell(source, target, value: str, *, quoted: bool):
    """Copy a trace dir, setting the cpu cell of line ``BAD_LINE`` to ``value``.

    A quoted cell sends the whole file down the row-wise parser; an
    unquoted one goes through the columnar fast path first.
    """
    shutil.copytree(source, target)
    path = target / "server_usage.csv"
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[BAD_LINE - 1].rstrip("\n").split(",")
    cells[2] = f'"{value}"' if quoted else value
    lines[BAD_LINE - 1] = ",".join(cells) + "\n"
    path.write_text("".join(lines))
    return path


class TestUtilisationCells:
    @pytest.mark.parametrize("quoted", (False, True),
                             ids=("columnar", "quoted-row"))
    @pytest.mark.parametrize("value", BAD_UTILISATION)
    def test_bad_cell_is_rejected_before_the_sidecar(self, usage_trace,
                                                     tmp_path, value, quoted):
        trace = tmp_path / "trace"
        with_bad_cell(usage_trace, trace, value, quoted=quoted)
        with pytest.raises(TraceFormatError,
                           match=f"line {BAD_LINE}: column 'cpu_util'") as err:
            load_trace(trace, cache=True)
        assert err.value.table == "server_usage"
        assert err.value.line_number == BAD_LINE
        assert not cache_path(trace).exists()
        assert not usage_path(trace).exists()

    def test_skip_malformed_drops_exactly_that_row(self, usage_trace,
                                                   tmp_path):
        path = with_bad_cell(usage_trace, tmp_path / "trace", "nan",
                             quoted=False)
        clean = load_server_usage(usage_trace / "server_usage.csv")
        kept = load_server_usage(path, skip_malformed=True)
        assert kept == clean[:BAD_LINE - 1] + clean[BAD_LINE:]
        bundle = load_trace(tmp_path / "trace", skip_malformed=True)
        assert np.isfinite(bundle.usage.data).all()

    def test_bounds_are_valid(self, tmp_path):
        path = tmp_path / "server_usage.csv"
        path.write_text("0,m_1,0,100.00,-0.00\n")
        assert load_trace(tmp_path).usage.data.tolist() == [
            [[0.0], [100.0], [0.0]]]


#: Per table: a good row, a row with ``{}`` in one int column, that column.
INT_CELLS = {
    "machine_events": ("0,m_1,add,,96,512,4096",
                       "{},m_2,add,,96,512,4096", "timestamp"),
    "batch_task": ("0,100,j0,t0,1,Terminated,10,20",
                   "0,100,j1,t1,{},Terminated,10,20", "instance_num"),
    "batch_instance": ("0,100,j0,t0,m_1,Terminated,1,1,10,20,30,40",
                       "0,100,j0,t0,m_1,Terminated,{},1,10,20,30,40",
                       "seq_no"),
    "server_usage": ("0,m_1,10,20,30", "{},m_1,11,21,31", "timestamp"),
}


class TestIntOverflowCells:
    """``int(float(cell))`` overflows on an infinite cell; it must read
    as a format error naming table, column and line, not escape as a
    bare ``OverflowError``."""

    @pytest.mark.parametrize("value", ("inf", "-inf", "1e999"))
    @pytest.mark.parametrize("table", sorted(INT_CELLS))
    def test_cell_names_table_column_and_line(self, tmp_path, table, value):
        good, bad, column = INT_CELLS[table]
        (tmp_path / schema.SCHEMAS[table].filename).write_text(
            f"{good}\n{bad.format(value)}\n")
        with pytest.raises(TraceFormatError,
                           match=f"line 2: column {column!r}") as err:
            load_trace(tmp_path)
        assert err.value.table == table
        assert err.value.line_number == 2

    def test_lenient_load_drops_the_row(self, tmp_path):
        (tmp_path / "batch_task.csv").write_text(
            "0,100,j0,t0,1,Terminated,10,20\n"
            "1e999,5,j1,t1,1,Terminated,,\n")
        bundle = load_trace(tmp_path, skip_malformed=True)
        assert [task.job_id for task in bundle.tasks] == ["j0"]

    def test_detect_exits_2_with_the_line(self, tmp_path, capsys):
        (tmp_path / "server_usage.csv").write_text("inf,m_1,11,21,31\n")
        assert main(["detect", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: [server_usage] line 1: column 'timestamp'")


class TestPartialTables:
    def test_only_usage_table(self, tmp_path):
        path = tmp_path / "server_usage.csv"
        path.write_text("0,m_1,10,20,30\n0,m_2,40,50,60\n")
        bundle = load_trace(tmp_path)
        assert bundle.tasks == []
        assert bundle.usage.num_machines == 2

    def test_only_batch_tables(self, tmp_path):
        (tmp_path / "batch_task.csv").write_text("0,100,j1,t1,1,Terminated,10,20\n")
        (tmp_path / "batch_instance.csv").write_text(
            "0,100,j1,t1,m_1,Terminated,1,1,10,20,30,40\n")
        bundle = load_trace(tmp_path)
        assert bundle.usage is None
        assert len(load_batch_tasks(tmp_path / "batch_task.csv")) == 1
        assert len(load_batch_instances(tmp_path / "batch_instance.csv")) == 1


class TestGzipHandleNotLeaked:
    """Regression: a failing TextIOWrapper must not leak the gzip handle."""

    @pytest.fixture()
    def tracked_gzip_open(self, monkeypatch):
        """Record every GzipFile the module under test opens."""
        opened = []
        real_open = gzip.open

        def tracking_open(*args, **kwargs):
            handle = real_open(*args, **kwargs)
            opened.append(handle)
            return handle

        monkeypatch.setattr(gzip, "open", tracking_open)
        return opened

    @pytest.fixture()
    def broken_text_wrapper(self, monkeypatch):
        def exploding_wrapper(*args, **kwargs):
            raise RuntimeError("wrapper construction failed")

        monkeypatch.setattr(io, "TextIOWrapper", exploding_wrapper)

    def test_loader_closes_gzip_on_wrapper_failure(
            self, tmp_path, tracked_gzip_open, broken_text_wrapper):
        path = tmp_path / "server_usage.csv.gz"
        # binary mode: gzip's own text mode would use the patched wrapper
        with gzip.open(path, "wb") as handle:
            handle.write(b"0,m_1,10,20,30\n")
        tracked_gzip_open.clear()
        with pytest.raises(RuntimeError):
            loader_module._open_text(path)
        assert len(tracked_gzip_open) == 1
        assert tracked_gzip_open[0].closed

    def test_writer_closes_gzip_on_wrapper_failure(
            self, tmp_path, tracked_gzip_open, broken_text_wrapper):
        path = tmp_path / "server_usage.csv.gz"
        with pytest.raises(RuntimeError):
            writer_module._open_out(path)
        assert len(tracked_gzip_open) == 1
        assert tracked_gzip_open[0].closed

    def test_loader_closes_gzip_when_caller_raises(self, tmp_path,
                                                   tracked_gzip_open):
        """`with _open_text(...)` closes the gzip handle even on error."""
        path = tmp_path / "server_usage.csv.gz"
        with gzip.open(path, "wb") as handle:
            handle.write(b"0,m_1,10,20,30\nbroken-line\n")
        tracked_gzip_open.clear()
        with pytest.raises(TraceFormatError):
            list(iter_table(path, schema.SERVER_USAGE))
        assert len(tracked_gzip_open) == 1
        assert tracked_gzip_open[0].closed


class TestHelpers:
    def test_usage_records_to_store(self):
        records = [ServerUsageRecord(0, "m1", 1, 2, 3),
                   ServerUsageRecord(60, "m1", 4, 5, 6)]
        store = usage_records_to_store(records)
        assert store.num_samples == 2
        assert store.series("m1", "disk").values[1] == 6.0

    def test_usage_records_to_store_empty(self):
        assert usage_records_to_store([]) is None

    def test_write_table_and_iter_table(self, tmp_path):
        path = tmp_path / "server_usage.csv"
        rows = [{"timestamp": 0, "machine_id": "m1", "cpu_util": 1.0,
                 "mem_util": 2.0, "disk_util": 3.0}]
        count = write_table(path, schema.SERVER_USAGE, rows)
        assert count == 1
        parsed = list(iter_table(path, schema.SERVER_USAGE))
        assert parsed[0]["machine_id"] == "m1"
