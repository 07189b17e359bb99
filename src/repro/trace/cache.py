"""Columnar binary sidecar cache for Alibaba-format trace directories.

Parsing a trace directory goes row by row through Python string handling —
fine once, wasteful every time the same immutable CSVs are re-analysed.
This module persists a parsed :class:`~repro.trace.records.TraceBundle`
under ``<dir>/.repro-cache/`` as three files:

* ``trace.npz`` — every record table as one NumPy array per schema column
  (plus a boolean null-mask per nullable column), the usage axes, and the
  authoritative JSON header (version, fingerprint, storage dtype);
* ``usage.npy`` — the dense ``(machines, metrics, samples)`` matrix of the
  server-usage :class:`~repro.metrics.store.MetricStore`, as a **plain
  npy sibling** so it can be opened memory-mapped (``np.load`` cannot mmap
  a zip member).  ``load_trace_cache(..., mmap=True)`` opens it with
  ``mmap_mode="r"`` and attaches a
  :class:`~repro.metrics.store.MmapBacking` descriptor, making every
  zero-copy store view a read-only window into the file instead of RAM —
  detection on clusters bigger than memory pages rows in on demand.  An
  opt-in ``storage="float32"`` dtype halves the file and page-cache
  footprint.  The npz header records the ``zlib.crc32`` of its data
  region (``usage_crc32``): the npz members carry zip CRCs, this sibling
  does not, so a materialised load checks it (a memory-mapped one does
  not — checking would page in the whole file);
* ``stats.json`` — a git-style stat ledger mapping each table file to the
  ``(name, size, mtime_ns)`` it had when its content hash was last
  computed, so warm loads skip re-reading gigabytes just to prove nothing
  changed (:func:`resolve_fingerprint`).

A warm load (:func:`load_trace_cache`) decodes every npz member when it
runs, and checks the header, the ``usage.npy`` CRC and each record
table's column and null-mask lengths, so every defect reads as absent
before it returns.  Only the record objects wait: each scheduler table
reaches the bundle as a :class:`~repro.trace.records.RecordColumns`, and
the first read of ``bundle.machine_events``, ``.tasks`` or ``.instances``
builds its list.  A cluster-wide detect reads only the usage matrix and
builds no record.

The cache is keyed by a **content hash** of the table files
(:func:`trace_fingerprint`): edit, replace or re-compress any CSV and the
fingerprint changes, the stale cache is ignored, and the next parse
rewrites it.  Every file commits and reads by :mod:`repro.storage`'s
rules: an atomic best-effort write, and any defect reads as absent — the
cache can always be deleted (or the whole ``.repro-cache`` directory
removed) without losing anything.

Callers normally never touch this module directly:
``load_trace(directory, cache=True, mmap=True)`` (or ``--cache --mmap`` on
the CLI, or ``{"kind": "trace-dir", "path": ..., "cache": true, "mmap":
true}`` in a pipeline spec) checks the cache first and maintains it after
a cold parse.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.metrics.store import MetricStore, MmapBacking
from repro.storage import load_npz, save_npz, write_atomic
from repro.trace import schema
from repro.trace.records import RecordColumns, TraceBundle

#: Bump when the array layout changes; old caches are silently re-built.
#: v2 moved the dense usage matrix out of the npz into a mmap-able
#: ``usage.npy`` sibling and added the storage dtype to the header.
CACHE_VERSION = 2
CACHE_DIR_NAME = ".repro-cache"
CACHE_FILENAME = "trace.npz"
USAGE_FILENAME = "usage.npy"
LEDGER_FILENAME = "stats.json"

#: Dtypes the sidecar can store the dense usage matrix in.  ``float32``
#: halves the file and page-cache footprint; the goldens pin verdict
#: parity on the registered scenarios.
STORAGE_DTYPES = {"float64": np.float64, "float32": np.float32}

_NULL_SUFFIX = "#null"


def cache_path(directory: str | Path) -> Path:
    """Where the sidecar cache of a trace directory lives."""
    return Path(directory) / CACHE_DIR_NAME / CACHE_FILENAME


def usage_path(directory: str | Path) -> Path:
    """Where the dense usage matrix sidecar (mmap-able ``.npy``) lives."""
    return Path(directory) / CACHE_DIR_NAME / USAGE_FILENAME


def ledger_path(directory: str | Path) -> Path:
    """Where the table-file stat ledger lives."""
    return Path(directory) / CACHE_DIR_NAME / LEDGER_FILENAME


def resolve_table_paths(directory: str | Path) -> dict[str, Path | None]:
    """Locate every schema table file under ``directory`` (``.gz`` accepted).

    The single source of the ``{table: path}`` shape every fingerprint
    helper and the loader consume — a fingerprint computed through this
    mapping keys exactly the bytes :func:`~repro.trace.loader.load_trace`
    would parse.
    """
    directory = Path(directory)
    paths: dict[str, Path | None] = {}
    for name, table in schema.SCHEMAS.items():
        plain = directory / table.filename
        if plain.exists():
            paths[name] = plain
            continue
        compressed = directory / (table.filename + ".gz")
        paths[name] = compressed if compressed.exists() else None
    return paths


def directory_fingerprint(directory: str | Path) -> str:
    """Content hash of a trace directory's table files.

    Resolves the table files and routes through the stat ledger
    (:func:`resolve_fingerprint`), so an unchanged directory costs four
    ``stat`` calls, not a re-read.  This is the source identity the
    run-result cache (:mod:`repro.pipeline.resultcache`) keys trace-dir
    pipelines on: same bytes ⇒ same key wherever the directory lives,
    any byte change ⇒ a different key.  A directory with no table files
    at all (missing, empty, or just not a trace) has **no** identity and
    raises ``FileNotFoundError`` — otherwise every such directory would
    share the empty hash.
    """
    paths = resolve_table_paths(directory)
    if all(path is None for path in paths.values()):
        raise FileNotFoundError(
            f"no trace table files under {directory!s}")
    return resolve_fingerprint(directory, paths)


def trace_fingerprint(paths: Mapping[str, Path | None]) -> str:
    """Content hash of the table files backing one trace directory.

    ``paths`` maps table name to the resolved file (or ``None`` when the
    table is absent) — the shape :func:`repro.trace.loader.load_trace`
    resolves.  The digest covers table name, file name and raw bytes, so
    renaming ``x.csv`` to ``x.csv.gz`` (different bytes) or swapping a
    table in or out always invalidates the cache.
    """
    digest = hashlib.sha256()
    for name in sorted(schema.SCHEMAS):
        path = paths.get(name)
        if path is None:
            continue
        digest.update(name.encode("utf-8") + b"\0")
        digest.update(path.name.encode("utf-8") + b"\0")
        # Stream the bytes: production tables run to gigabytes, and the
        # fingerprint is computed on every cached load.
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                digest.update(chunk)
        digest.update(b"\0")
    return digest.hexdigest()


def _file_stats(paths: Mapping[str, Path | None]) -> dict[str, dict]:
    """``{table: {file, size, mtime_ns}}`` for every present table file."""
    stats: dict[str, dict] = {}
    for name in sorted(schema.SCHEMAS):
        path = paths.get(name)
        if path is None:
            continue
        st = os.stat(path)
        stats[name] = {"file": path.name, "size": st.st_size,
                       "mtime_ns": st.st_mtime_ns}
    return stats


def _write_ledger(directory: str | Path, fingerprint: str,
                  stats: dict[str, dict]) -> None:
    """Best-effort atomic rewrite of the stat ledger."""
    path = ledger_path(directory)
    try:
        payload = json.dumps({"version": CACHE_VERSION,
                              "fingerprint": fingerprint,
                              "files": stats}).encode("utf-8")
        path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(path, lambda handle: handle.write(payload))
    except (OSError, TypeError, ValueError):
        pass


def resolve_fingerprint(directory: str | Path,
                        paths: Mapping[str, Path | None]) -> str:
    """Content hash of the table files, via the stat ledger when possible.

    ``trace_fingerprint`` re-reads every byte of every table — the right
    source of truth, but wasteful on every warm load of a multi-gigabyte
    trace that has not changed.  Like git's index, the sidecar keeps a
    ledger recording each table file's ``(name, size, mtime_ns)`` as of
    the last full hash: when every stat still matches, the recorded
    fingerprint is returned without opening a single table file.  Any
    difference — size, mtime, a table swapped in or out, a missing or
    damaged ledger — falls back to the full hash and rewrites the ledger.
    (A same-size rewrite landing inside one mtime tick could in principle
    fool the stats, but with nanosecond mtimes that takes a deliberate
    ``os.utime``; content-addressed correctness is restored by deleting
    ``stats.json``.)
    """
    stats: dict[str, dict] | None = None
    try:
        stats = _file_stats(paths)
        raw = json.loads(ledger_path(directory).read_text(encoding="utf-8"))
        if (raw.get("version") == CACHE_VERSION
                and raw.get("files") == stats
                and isinstance(raw.get("fingerprint"), str)):
            return raw["fingerprint"]
    except Exception:
        pass
    fingerprint = trace_fingerprint(paths)
    if stats is not None:
        _write_ledger(directory, fingerprint, stats)
    return fingerprint


def _column_arrays(name: str, records: list) -> dict[str, np.ndarray]:
    """Columnar arrays of one record table (one array per schema column)."""
    table = schema.SCHEMAS[name]
    rows = [record.to_row() for record in records]
    arrays: dict[str, np.ndarray] = {}
    for column in table.columns:
        key = f"{name}:{column.name}"
        values = [row[column.name] for row in rows]
        if column.kind == "str":
            arrays[key] = np.asarray(
                ["" if value is None else str(value) for value in values],
                dtype=np.str_)
        else:
            dtype = np.int64 if column.kind == "int" else np.float64
            arrays[key] = np.asarray(
                [0 if value is None else value for value in values],
                dtype=dtype)
        if column.nullable:
            arrays[key + _NULL_SUFFIX] = np.asarray(
                [value is None for value in values], dtype=bool)
    return arrays


def _record_columns(name: str, data) -> RecordColumns:
    """One table's columnar arrays, checked, as a :class:`RecordColumns`.

    Raises when a null mask or a column disagrees on row count: ``zip``
    would otherwise silently truncate a damaged cache to its shortest
    column.  Every defect surfaces here, while the cache is read; the
    records themselves are built on the table's first read.
    """
    columns = []
    for column in schema.SCHEMAS[name].columns:
        key = f"{name}:{column.name}"
        values = data[key]
        nulls = data[key + _NULL_SUFFIX] if column.nullable else None
        if nulls is not None and len(nulls) != len(values):
            raise ValueError(f"cache table {name}: null-mask length "
                             f"mismatch on {column.name}")
        columns.append((values, nulls))
    if len({len(values) for values, _ in columns}) > 1:
        raise ValueError(f"cache table {name}: column lengths disagree")
    return RecordColumns(name, tuple(columns))


def save_trace_cache(bundle: TraceBundle, directory: str | Path,
                     fingerprint: str, *,
                     skip_malformed: bool = False,
                     storage: str = "float64") -> Path | None:
    """Persist a parsed bundle as the directory's sidecar cache.

    ``skip_malformed`` records the parse mode the bundle was produced
    under: a lenient parse may have dropped rows a strict parse would
    reject, so the two modes never share a cache entry.  ``storage`` picks
    the dtype the dense usage matrix is written in (``usage.npy``); a
    cache written under one dtype never serves a load requesting another.

    Best-effort: a read-only directory, an unserialisable ``meta`` or any
    other failure returns ``None`` instead of raising — caching must never
    break a load that already succeeded.  The npz holds the authoritative
    fingerprinted header, so its commit is the cache's: the old one is
    removed first and the new one commits strictly after the matrix
    sidecar, so no failed or killed rewrite leaves a header pointing at
    a missing or different matrix.
    """
    if storage not in STORAGE_DTYPES:
        raise ValueError(f"unknown storage dtype {storage!r}; expected one "
                         f"of {sorted(STORAGE_DTYPES)}")
    path = cache_path(directory)
    matrix_path = usage_path(directory)
    try:
        header = {
            "version": CACHE_VERSION,
            "fingerprint": fingerprint,
            "skip_malformed": bool(skip_malformed),
            "storage": storage,
            "meta": bundle.meta,
        }
        arrays: dict[str, np.ndarray] = {}
        arrays.update(_column_arrays("machine_events", bundle.machine_events))
        arrays.update(_column_arrays("batch_task", bundle.tasks))
        arrays.update(_column_arrays("batch_instance", bundle.instances))
        usage = bundle.usage
        arrays["usage:present"] = np.asarray(usage is not None)
        if usage is not None:
            arrays["usage:machine_ids"] = np.asarray(usage.machine_ids,
                                                     dtype=np.str_)
            arrays["usage:metrics"] = np.asarray(list(usage.metrics),
                                                 dtype=np.str_)
            arrays["usage:timestamps"] = np.asarray(usage.timestamps,
                                                    dtype=np.float64)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.unlink(missing_ok=True)
        if usage is not None:
            matrix = np.ascontiguousarray(usage.data,
                                          dtype=STORAGE_DTYPES[storage])
            header["usage_crc32"] = zlib.crc32(matrix)
            write_atomic(matrix_path, lambda handle: np.save(handle, matrix))
        else:
            matrix_path.unlink(missing_ok=True)
        save_npz(path, header, arrays)
    except (OSError, OverflowError, TypeError, ValueError):
        # Column building can fail on values the row parser accepted (e.g.
        # ints beyond int64); the load already succeeded, so skip caching.
        return None
    return path


def _open_usage_matrix(directory: str | Path, storage: str, mmap: bool,
                       crc32: int | None
                       ) -> tuple[np.ndarray, MmapBacking | None]:
    """Open the ``usage.npy`` matrix sidecar (optionally memory-mapped);
    raises on a missing, truncated or wrong-dtype file, and on a
    materialised data region whose CRC is not ``crc32`` (``None``, a
    sidecar written before the header recorded it, skips the check)."""
    path = usage_path(directory)
    stat = os.stat(path)
    matrix = np.load(path, mmap_mode="r" if mmap else None,
                     allow_pickle=False)
    if str(matrix.dtype) != storage or matrix.ndim != 3:
        raise ValueError(
            f"usage sidecar holds {matrix.dtype}/{matrix.ndim}d, expected "
            f"{storage}/3d")
    if not mmap and crc32 is not None and zlib.crc32(matrix) != crc32:
        raise ValueError("usage sidecar data fails its CRC")
    backing = None
    if mmap:
        backing = MmapBacking(
            path=str(path), dtype=storage,
            shape=tuple(int(n) for n in matrix.shape),
            row_start=0, row_stop=int(matrix.shape[0]),
            size=stat.st_size, mtime_ns=stat.st_mtime_ns)
    return matrix, backing


def load_trace_cache(directory: str | Path, fingerprint: str, *,
                     skip_malformed: bool = False, mmap: bool = False,
                     storage: str = "float64") -> TraceBundle | None:
    """Load the sidecar cache, or ``None`` when absent, stale or corrupt.

    A cache written under a different ``skip_malformed`` mode reads as
    absent: a lenient parse may hold a partial bundle a strict load must
    re-validate (and possibly reject) instead of serving.  Likewise a
    cache written under a different ``storage`` dtype — the caller
    re-parses and rewrites it in the dtype actually requested.

    A materialised matrix (``mmap=False``) is checked against the CRC of
    its data region recorded in the header, so a flipped byte there reads
    as absent too; a sidecar without the field (written by an older
    build) loads unchecked.

    With ``mmap=True`` the dense usage matrix is opened with
    ``np.load(mmap_mode="r")`` instead of materialised: the returned
    store's views are read-only windows into ``usage.npy``, and the store
    pickles as a path descriptor (:class:`~repro.metrics.store.MmapBacking`)
    so process-pool shard workers reopen the file rather than receiving
    array bytes.  That mode skips the CRC: checking it would page in the
    whole file, which is what the mode exists to avoid.

    The record tables come back as checked
    :class:`~repro.trace.records.RecordColumns`, built into their record
    lists on first read (see :class:`~repro.trace.records.TraceBundle`).
    """
    try:
        header, data = load_npz(cache_path(directory))
        if (header.get("version") != CACHE_VERSION
                or header.get("fingerprint") != fingerprint
                or header.get("skip_malformed") != bool(skip_malformed)
                or header.get("storage") != storage):
            return None
        usage = None
        if bool(data["usage:present"][()]):
            matrix, backing = _open_usage_matrix(
                directory, storage, mmap, header.get("usage_crc32"))
            usage = MetricStore.from_dense(
                data["usage:machine_ids"].tolist(),
                data["usage:timestamps"],
                tuple(data["usage:metrics"].tolist()),
                matrix, dtype=None)
            if backing is not None:
                usage._attach_backing(backing)
        return TraceBundle(
            machine_events=_record_columns("machine_events", data),
            tasks=_record_columns("batch_task", data),
            instances=_record_columns("batch_instance", data),
            usage=usage,
            meta=dict(header.get("meta", {})),
        )
    except Exception:
        return None


__all__ = [
    "CACHE_DIR_NAME",
    "CACHE_FILENAME",
    "CACHE_VERSION",
    "LEDGER_FILENAME",
    "STORAGE_DTYPES",
    "USAGE_FILENAME",
    "cache_path",
    "directory_fingerprint",
    "ledger_path",
    "load_trace_cache",
    "resolve_fingerprint",
    "resolve_table_paths",
    "save_trace_cache",
    "trace_fingerprint",
    "usage_path",
]
