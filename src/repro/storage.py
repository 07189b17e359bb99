"""The one commit path and the one container of every durable store.

Three stores keep state on disk, and all of them write through here:

* the trace sidecar cache (:mod:`repro.trace.cache`): ``trace.npz``,
  ``usage.npy`` and the ``stats.json`` ledger;
* the run-result ledger (:mod:`repro.pipeline.resultcache`): one
  ``<key>.npz`` per run;
* the serve state dir (:mod:`repro.serve.persist`): the ``STATE`` marker
  and each tenant's ``spec.json`` and ``snapshot.bin``.  The append-only
  ``journal.wal`` keeps its own CRC-checked records and borrows only
  :func:`fsync_dir`.

**Write rule.**  :func:`write_atomic` fills a uniquely named temp file
beside the target, then ``os.replace`` commits it: a reader sees the old
file or the new one, never a torn one.  With ``fsync=True`` (``repro
serve --fsync``) the file is fsynced before the rename and its directory
after.  A failed write removes its temp file and re-raises; the caches
catch that, so their writes stay best-effort.

**Read rule.**  Each store's whole decode — container, header checks and
domain checks — sits in one ``try … except Exception: return None``, so
any defect reads as *absent*: the caches recompute, and recovery replays
the journal or skips the tenant.  A flipped byte can surface almost any
exception from NumPy's parsers, so no store lists the ones it expects.

:func:`save_npz` / :func:`load_npz` own the container both caches write:
named arrays plus one JSON ``__header__`` member.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import suppress
from pathlib import Path
from typing import IO, Callable, Mapping

import numpy as np

HEADER_MEMBER = "__header__"


def fsync_dir(path: str | Path) -> None:
    """fsync a directory so a rename or creation in it survives power loss
    (best-effort: platforms that cannot fsync a directory are skipped)."""
    with suppress(OSError):
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def write_atomic(path: str | Path, write: Callable[[IO[bytes]], object], *,
                 fsync: bool = False) -> None:
    """Commit a file: ``write(handle)`` fills a temp file, a rename commits."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise
    if fsync:
        fsync_dir(path.parent)


def save_npz(path: str | Path, header: dict,
             arrays: Mapping[str, np.ndarray]) -> None:
    """Atomically commit named arrays plus ``header`` as JSON."""
    encoded = np.asarray(json.dumps(header))
    write_atomic(path, lambda handle: np.savez(
        handle, **{HEADER_MEMBER: encoded}, **arrays))


def load_npz(path: str | Path) -> "tuple[dict, dict[str, np.ndarray]]":
    """``(header, arrays)`` of a :func:`save_npz` file, every member read
    up front; any defect raises."""
    with np.load(path, allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files}
    header = json.loads(str(arrays.pop(HEADER_MEMBER)[()]))
    if not isinstance(header, dict):
        raise ValueError(f"{path}: header is not a JSON object")
    return header, arrays


__all__ = ["fsync_dir", "load_npz", "save_npz", "write_atomic"]
