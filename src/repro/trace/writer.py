"""Writing trace bundles back to Alibaba-format CSV files.

Round-tripping through :mod:`repro.trace.loader` is lossless for every field
the schema defines, which the integration tests rely on.
"""

from __future__ import annotations

import csv
import gzip
import io
from pathlib import Path
from typing import Iterable

from repro.trace import schema
from repro.trace.records import TraceBundle


def _open_out(path: Path) -> io.TextIOBase:
    """Open a (possibly gzip-compressed) table file for text writing.

    The gzip handle is adopted by the returned :class:`io.TextIOWrapper`
    (closing the wrapper flushes and closes it); if wrapper construction
    itself fails, the handle is closed here instead of leaking a
    half-open file.
    """
    if path.suffix == ".gz":
        raw = gzip.open(path, "wb")
        try:
            return io.TextIOWrapper(raw, encoding="utf-8", newline="")
        except Exception:
            raw.close()
            raise
    return open(path, "w", encoding="utf-8", newline="")


def write_table(path: str | Path, table: schema.TableSchema,
                rows: Iterable[dict]) -> int:
    """Write dict rows to one table file; returns the number of rows written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with _open_out(path) as handle:
        # "\n", not the csv default "\r\n": the loader's columnar usage
        # parse then skips a whole-text newline rewrite
        writer = csv.writer(handle, lineterminator="\n")
        for row in rows:
            writer.writerow(table.format_row(row))
            count += 1
    return count


def write_trace(bundle: TraceBundle, directory: str | Path,
                *, compress: bool = False) -> dict[str, int]:
    """Write every non-empty section of a bundle under ``directory``.

    Returns a mapping of table name to row count so callers can log what was
    produced.  Empty sections are skipped (no zero-byte files).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    suffix = ".gz" if compress else ""
    written: dict[str, int] = {}

    if bundle.machine_events:
        written["machine_events"] = write_table(
            directory / (schema.MACHINE_EVENTS.filename + suffix),
            schema.MACHINE_EVENTS,
            (event.to_row() for event in bundle.machine_events))
    if bundle.tasks:
        written["batch_task"] = write_table(
            directory / (schema.BATCH_TASK.filename + suffix),
            schema.BATCH_TASK,
            (task.to_row() for task in bundle.tasks))
    if bundle.instances:
        written["batch_instance"] = write_table(
            directory / (schema.BATCH_INSTANCE.filename + suffix),
            schema.BATCH_INSTANCE,
            (inst.to_row() for inst in bundle.instances))
    if bundle.usage is not None and bundle.usage.num_samples:
        written["server_usage"] = write_table(
            directory / (schema.SERVER_USAGE.filename + suffix),
            schema.SERVER_USAGE,
            (record.to_row() for record in bundle.usage_records()))
    return written
