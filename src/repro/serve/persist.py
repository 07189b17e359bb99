"""Durable tenant state: write-ahead frame journal + ring snapshots.

PR 8 made detection a resident service; this module makes its tenants
survive the process.  Each tenant owns one directory under the server's
``--state-dir``::

    <state-dir>/STATE                   format marker ({"version": 1})
    <state-dir>/tenants/<id>/spec.json  the validated TenantSpec
    <state-dir>/tenants/<id>/journal.wal  append-only frame journal (WAL)
    <state-dir>/tenants/<id>/snapshot.bin  periodic full-state snapshot

**The write path** (one ingest request): the decoded frame block is
appended to the journal *before* it is applied to the in-memory state —
the classic write-ahead contract — so at any kill point the journal
holds at least every batch a client ever got an ack for.  Journal
records are binary (raw float64 bytes, not JSON): appending is a CRC and
a ``write``, which is how journaled ingest stays within a few percent of
in-memory throughput.  Every ``snapshot_every`` ingested samples — or as
soon as the journal file crosses ``snapshot_bytes``, whichever fires
first — the tenant's full live state (ring, incremental detector states,
alert manager, alert log) is committed as ``snapshot.bin``, then the
journal is truncated.  Snapshots, specs and the marker all commit through
:func:`repro.storage.write_atomic`.  Records carry a monotonically
increasing ingest sequence number, so a crash *between* commit and
truncate is harmless: recovery skips records the snapshot covers.

**The read path** (server restart): load the snapshot if present, then
replay the journal tail through the tenant's ordinary ingest path.
Because ingest is the exact deterministic catch-up path of the streaming
pipeline and each journal record preserves its original request
batching, the recovered tenant is **bit-identical** — alerts including
seq ids, detector events, ring contents — to one that never crashed.  A
torn or truncated journal tail (the kill landed mid-``write``) fails its
CRC or length check and reads as *absent*: replay stops at the last
complete record, never errors, never invents state.  Recovery finishes
by writing a fresh snapshot and truncating the journal, so torn bytes
never pollute subsequent appends; first it deletes the tenant dir's
``*.tmp`` files, which only a dead writer can have left.

**Fail closed.**  An existing ``snapshot.bin`` that reads as absent is
lost state, not an empty tenant.  Unless the journal still starts at seq
1 (a crash between commit and truncate; replay rebuilds it exactly), the
registry skips the tenant and leaves its files untouched.

Snapshots use :mod:`pickle` — the state dir is the server's own private
storage (the same trust domain as the process memory it mirrors), and
pickling round-trips NumPy arrays and detector state bit-exactly.  The
spec, in contrast, is JSON: it predates any state and must stay
hand-inspectable.

Fault points (:func:`repro.testing.faults.fault_point`) mark every seam:
``persist.journal.append``, ``persist.journal.truncate``,
``persist.snapshot.write``, ``persist.snapshot.rename``,
``persist.spec.write`` — the chaos suites kill or fail each one and pin
recovery to the golden state.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import struct
import zlib
from pathlib import Path

import numpy as np

from repro.errors import ServeError
from repro.storage import fsync_dir, write_atomic
from repro.testing.faults import fault_point

SPEC_FILENAME = "spec.json"
JOURNAL_FILENAME = "journal.wal"
SNAPSHOT_FILENAME = "snapshot.bin"
MARKER_FILENAME = "STATE"
TENANTS_DIRNAME = "tenants"

STATE_VERSION = 1
SNAPSHOT_MAGIC = b"RPROSNAP1\n"

#: Default ingested-sample count between snapshots (0 disables snapshots,
#: leaving an ever-growing journal — recovery still works, just slower).
DEFAULT_SNAPSHOT_EVERY = 1024

#: journal record header: crc32, payload length, ingest seq, num samples.
_RECORD = struct.Struct("<IIQI")
#: Sanity bound — a longer length field is corruption, not a record.
_MAX_RECORD_BYTES = 1 << 31


class FrameJournal:
    """Append-only binary journal of ingest batches, torn-tail tolerant.

    One record per ingest request: ``(crc32, length, seq, nsamples)``
    header then the raw ``float64`` bytes of the timestamps and the
    store-layout ``(machines, metrics, samples)`` block.  The CRC covers
    seq, sample count and payload, so any torn write — header cut short,
    payload cut short, bit flips — fails closed: :meth:`read_records`
    returns the longest valid prefix and stops, which is exactly the
    "torn tail reads as absent" contract the recovery goldens pin.
    """

    def __init__(self, path: Path, *, fsync: bool = False) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self._handle = None

    def _ensure_open(self):
        if self._handle is None:
            created = not self.path.exists()
            self._handle = open(self.path, "ab")
            if created and self.fsync:
                fsync_dir(self.path.parent)
        return self._handle

    def size(self) -> int:
        """Current journal length in bytes (the next append offset)."""
        return os.fstat(self._ensure_open().fileno()).st_size

    def rewind(self, size: int) -> None:
        """Drop everything appended after offset ``size`` (WAL rollback).

        Used when applying a just-journaled batch fails: the record must
        not stay ahead of the in-memory state, or its sequence number
        would be duplicated by the next append and recovery's contiguity
        scan would silently drop every later acknowledged batch.
        """
        handle = self._ensure_open()
        handle.truncate(size)
        handle.flush()
        if self.fsync:
            os.fsync(handle.fileno())

    def append(self, seq: int, timestamps: np.ndarray,
               block: np.ndarray) -> None:
        """Durably append one ingest batch (WAL: called before apply)."""
        fault_point("persist.journal.append")
        ts = np.ascontiguousarray(timestamps, dtype=np.float64)
        values = np.ascontiguousarray(block, dtype=np.float64)
        body = ts.tobytes() + values.tobytes()
        nsamples = int(ts.shape[0])
        crc = zlib.crc32(body, zlib.crc32(struct.pack("<QI", seq, nsamples)))
        handle = self._ensure_open()
        handle.write(_RECORD.pack(crc, len(body), seq, nsamples) + body)
        handle.flush()
        if self.fsync:
            os.fsync(handle.fileno())

    def truncate(self) -> None:
        """Drop every record (called after a snapshot commit)."""
        fault_point("persist.journal.truncate")
        handle = self._ensure_open()
        handle.truncate(0)
        handle.flush()
        if self.fsync:
            os.fsync(handle.fileno())

    def close(self) -> None:
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.close()

    @staticmethod
    def read_records(path: Path, num_machines: int,
                     num_metrics: int) -> "list[tuple[int, np.ndarray, np.ndarray]]":
        """Decode the longest valid record prefix of a journal file.

        Returns ``[(seq, timestamps, block), ...]`` in file order.  Any
        defect — short header, short payload, CRC mismatch, impossible
        length — ends the scan *silently*: the records before it are
        valid (each is individually checksummed), the rest of the file is
        treated as absent.  A missing file is an empty journal.
        """
        try:
            raw = Path(path).read_bytes()
        except OSError:
            return []
        records = []
        offset = 0
        row_bytes = 8 * (1 + num_machines * num_metrics)
        while offset + _RECORD.size <= len(raw):
            crc, length, seq, nsamples = _RECORD.unpack_from(raw, offset)
            start = offset + _RECORD.size
            if length > _MAX_RECORD_BYTES or start + length > len(raw):
                break   # torn or corrupt tail: reads as absent
            body = raw[start:start + length]
            if (length != nsamples * row_bytes
                    or zlib.crc32(body, zlib.crc32(
                        struct.pack("<QI", seq, nsamples))) != crc):
                break
            ts = np.frombuffer(body, dtype=np.float64, count=nsamples)
            block = np.frombuffer(body, dtype=np.float64,
                                  offset=8 * nsamples).reshape(
                                      num_machines, num_metrics, nsamples)
            # Copies: frombuffer views are read-only into the file bytes.
            records.append((seq, ts.copy(), block.copy()))
            offset = start + length
        return records


def write_snapshot(path: Path, state: dict, *, fsync: bool = True) -> None:
    """Commit a tenant-state dict: magic, length and sha256, then the pickle."""
    fault_point("persist.snapshot.write")
    blob = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)

    def write(handle) -> None:
        handle.write(SNAPSHOT_MAGIC + struct.pack("<Q", len(blob))
                     + hashlib.sha256(blob).digest())
        handle.write(blob)
        fault_point("persist.snapshot.rename")

    write_atomic(path, write, fsync=fsync)


def read_snapshot(path: Path) -> dict | None:
    """Load a snapshot, or ``None`` when absent, torn or corrupt.

    The atomic commit means a crash never leaves a torn ``snapshot.bin``;
    the magic, length and digest checks guard against outside
    interference (manual edits, disk corruption).
    """
    try:
        raw = Path(path).read_bytes()
        header = len(SNAPSHOT_MAGIC) + 8 + 32
        (length,) = struct.unpack_from("<Q", raw, len(SNAPSHOT_MAGIC))
        blob = raw[header:]
        if (not raw.startswith(SNAPSHOT_MAGIC) or len(blob) != length
                or hashlib.sha256(blob).digest() != raw[header - 32:header]):
            return None
        state = pickle.loads(blob)
    except Exception:
        return None
    return state if isinstance(state, dict) else None


class TenantPersistence:
    """The durable half of one tenant: its spec, journal and snapshot."""

    def __init__(self, root: Path, *, fsync: bool = False,
                 snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
                 snapshot_bytes: int = 0) -> None:
        if snapshot_every < 0:
            raise ServeError(
                f"snapshot_every must be non-negative, got {snapshot_every}")
        if snapshot_bytes < 0:
            raise ServeError(
                f"snapshot_bytes must be non-negative, got {snapshot_bytes}")
        self.root = Path(root)
        self.fsync = fsync
        self.snapshot_every = snapshot_every
        self.snapshot_bytes = snapshot_bytes
        self.journal = FrameJournal(self.root / JOURNAL_FILENAME, fsync=fsync)

    # -- spec ------------------------------------------------------------------
    @property
    def spec_path(self) -> Path:
        return self.root / SPEC_FILENAME

    @property
    def snapshot_path(self) -> Path:
        return self.root / SNAPSHOT_FILENAME

    def write_spec(self, spec_dict: dict) -> None:
        fault_point("persist.spec.write")
        created = not self.root.exists()
        self.root.mkdir(parents=True, exist_ok=True)
        if created and self.fsync:
            fsync_dir(self.root.parent)
        payload = json.dumps(spec_dict, indent=2).encode("utf-8")
        write_atomic(self.spec_path, lambda handle: handle.write(payload),
                     fsync=self.fsync)

    def load_spec(self) -> dict | None:
        """The persisted spec dict, or ``None`` when absent or corrupt."""
        try:
            spec = json.loads(self.spec_path.read_text(encoding="utf-8"))
        except Exception:
            return None
        return spec if isinstance(spec, dict) else None

    # -- write path ------------------------------------------------------------
    def append(self, seq: int, timestamps: np.ndarray,
               block: np.ndarray) -> None:
        self.journal.append(seq, timestamps, block)

    def snapshot_due(self, samples_since_snapshot: int) -> bool:
        """Whether the next snapshot should be taken now.

        Two independent triggers, either sufficient: a **sample** cadence
        (``snapshot_every`` ingested samples — bounded recovery *work*)
        and a **byte** cadence (the journal file crossing
        ``snapshot_bytes`` — bounded recovery *read volume* and disk
        footprint, which the sample cadence cannot bound when batch
        sizes vary).  Either set to 0 disables that trigger; the byte
        trigger only fires once something was journaled since the last
        snapshot, so an idle tenant never loops on a large stale size.
        """
        if (self.snapshot_every > 0
                and samples_since_snapshot >= self.snapshot_every):
            return True
        if self.snapshot_bytes > 0 and samples_since_snapshot > 0:
            try:
                return self.journal.size() >= self.snapshot_bytes
            except OSError:
                return False
        return False

    def write_snapshot(self, state: dict) -> None:
        """Commit a snapshot (atomic rename), then truncate the journal."""
        write_snapshot(self.snapshot_path, state, fsync=self.fsync)
        self.journal.truncate()

    # -- read path ---------------------------------------------------------------
    def load(self, num_machines: int,
             num_metrics: int) -> "tuple[dict | None, list]":
        """``(snapshot_state, journal_tail)`` for recovery.

        The journal tail is the **contiguous** run of records continuing
        the snapshot's ingest sequence (or seq 1 when no snapshot).
        Records the snapshot already covers (a crash landed between
        rename and truncate) are skipped; a gap in the chain ends the
        tail — replaying across a gap would invent state.

        Fails closed: an existing ``snapshot.bin`` that reads as absent
        raises :class:`ServeError` unless the journal starts at seq 1.
        """
        state = read_snapshot(self.snapshot_path)
        records = FrameJournal.read_records(self.journal.path, num_machines,
                                            num_metrics)
        if (state is None and self.snapshot_path.exists()
                and (not records or records[0][0] != 1)):
            raise ServeError(f"snapshot {self.snapshot_path} is unreadable "
                             f"and the journal does not start at seq 1")
        base = int(state.get("seq", 0)) if state is not None else 0
        tail = []
        expected = base + 1
        for seq, ts, block in records:
            if seq <= base:
                continue
            if seq != expected:
                break
            tail.append((seq, ts, block))
            expected += 1
        return state, tail

    # -- lifecycle ---------------------------------------------------------------
    def close(self) -> None:
        self.journal.close()


class ServerStateDir:
    """One server's ``--state-dir``: the registry's durable mirror."""

    def __init__(self, root: str | Path, *, fsync: bool = False,
                 snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
                 snapshot_bytes: int = 0) -> None:
        self.root = Path(root)
        self.fsync = fsync
        self.snapshot_every = snapshot_every
        self.snapshot_bytes = snapshot_bytes
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / TENANTS_DIRNAME).mkdir(exist_ok=True)
        marker = self.root / MARKER_FILENAME
        if marker.exists():
            try:
                version = json.loads(marker.read_text()).get("version")
            except Exception:
                version = None
            if version != STATE_VERSION:
                raise ServeError(
                    f"state dir {self.root} has unsupported format "
                    f"{version!r} (this build reads version "
                    f"{STATE_VERSION}); point --state-dir elsewhere or "
                    f"remove it")
        else:
            payload = json.dumps({"version": STATE_VERSION}).encode("utf-8")
            write_atomic(marker, lambda handle: handle.write(payload),
                         fsync=fsync)

    def tenant_root(self, tenant_id: str) -> Path:
        """The tenant's directory — guaranteed strictly inside ``tenants/``.

        Defense in depth behind :class:`~repro.serve.tenants.TenantSpec`'s
        charset validation: ids like ``..``, ``.``, absolute paths or
        anything containing a separator would resolve *outside* the
        tenants directory, turning :meth:`create`'s stale-remnant rmtree
        (or :meth:`remove`) into deletion of the whole state dir.  Such
        ids fail loudly here, before any mkdir or rmtree can run.
        """
        base = self.root / TENANTS_DIRNAME
        candidate = base / tenant_id
        if (not tenant_id or tenant_id in (".", "..")
                or candidate.parent != base or candidate.name != tenant_id):
            raise ServeError(
                f"unsafe tenant id {tenant_id!r}: must be a single path "
                f"component other than '.' and '..'")
        return candidate

    def create(self, spec_dict: dict) -> TenantPersistence:
        """Open (and durably record) a fresh tenant's state directory."""
        root = self.tenant_root(spec_dict["id"])
        if root.exists():
            # The registry said the id is free, so anything on disk is a
            # stale remnant (e.g. a crash between ack-less create and
            # recovery); a fresh tenant must not inherit its journal.
            shutil.rmtree(root)
        persist = TenantPersistence(root, fsync=self.fsync,
                                    snapshot_every=self.snapshot_every,
                                    snapshot_bytes=self.snapshot_bytes)
        persist.write_spec(spec_dict)
        return persist

    def remove(self, tenant_id: str) -> None:
        shutil.rmtree(self.tenant_root(tenant_id), ignore_errors=True)

    def stored_tenants(self) -> "list[tuple[dict, TenantPersistence]]":
        """Every recoverable ``(spec_dict, persistence)`` pair on disk.

        Directories whose spec is missing or corrupt are skipped —
        recovery never errors — and reported via :attr:`skipped`.
        """
        self.skipped: list[str] = []
        out = []
        tenants_dir = self.root / TENANTS_DIRNAME
        for entry in sorted(tenants_dir.iterdir()):
            if not entry.is_dir():
                continue
            persist = TenantPersistence(entry, fsync=self.fsync,
                                        snapshot_every=self.snapshot_every,
                                        snapshot_bytes=self.snapshot_bytes)
            spec = persist.load_spec()
            if spec is None or spec.get("id") != entry.name:
                self.skipped.append(entry.name)
                continue
            out.append((spec, persist))
        return out


__all__ = [
    "DEFAULT_SNAPSHOT_EVERY",
    "FrameJournal",
    "ServerStateDir",
    "TenantPersistence",
    "read_snapshot",
    "write_snapshot",
]
