"""Unit tests for the durable-tenant storage layer (``repro.serve.persist``).

The crash-consistency contract under test: **anything torn reads as
absent**.  A journal truncated at any byte offset, a corrupted record, a
mangled snapshot — recovery must silently fall back to the longest state
it can prove, never error, never invent samples.  The end-to-end
bit-identity of recovery itself is pinned by
``tests/test_serve_recovery_golden.py``; this file pins the storage
primitives those goldens rest on.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import ServeError
from repro.serve.persist import (
    FrameJournal,
    ServerStateDir,
    TenantPersistence,
    read_snapshot,
    write_snapshot,
)

MACHINES = 3
METRICS = 3


def make_batch(seq: int, nsamples: int):
    """A deterministic (timestamps, block) ingest batch for record ``seq``."""
    rng = np.random.default_rng(seq)
    ts = 60.0 * np.arange(seq * 100, seq * 100 + nsamples, dtype=np.float64)
    block = rng.uniform(0.0, 100.0, size=(MACHINES, METRICS, nsamples))
    return ts, block


class TestFrameJournal:
    def test_round_trips_records_in_order(self, tmp_path):
        journal = FrameJournal(tmp_path / "j.wal")
        batches = [make_batch(seq, n) for seq, n in ((1, 4), (2, 1), (3, 16))]
        for seq, (ts, block) in enumerate(batches, start=1):
            journal.append(seq, ts, block)
        journal.close()
        records = FrameJournal.read_records(tmp_path / "j.wal",
                                            MACHINES, METRICS)
        assert [seq for seq, _, _ in records] == [1, 2, 3]
        for (_, ts, block), (ref_ts, ref_block) in zip(records, batches):
            np.testing.assert_array_equal(ts, ref_ts)
            np.testing.assert_array_equal(block, ref_block)

    def test_missing_file_is_empty_journal(self, tmp_path):
        assert FrameJournal.read_records(tmp_path / "absent.wal",
                                         MACHINES, METRICS) == []

    def test_truncate_drops_all_records(self, tmp_path):
        journal = FrameJournal(tmp_path / "j.wal")
        ts, block = make_batch(1, 4)
        journal.append(1, ts, block)
        journal.truncate()
        journal.append(2, ts, block)
        journal.close()
        records = FrameJournal.read_records(tmp_path / "j.wal",
                                            MACHINES, METRICS)
        assert [seq for seq, _, _ in records] == [2]

    def test_torn_tail_at_every_byte_offset_reads_as_absent(self, tmp_path):
        """The kill-anywhere core: cutting the file anywhere only ever
        loses the *last* record, and never produces an error or a phantom
        record."""
        path = tmp_path / "j.wal"
        journal = FrameJournal(path)
        boundaries = [0]
        for seq, n in ((1, 4), (2, 2), (3, 7)):
            ts, block = make_batch(seq, n)
            journal.append(seq, ts, block)
            boundaries.append(path.stat().st_size)
        journal.close()
        raw = path.read_bytes()
        for cut in range(len(raw) + 1):
            torn = tmp_path / "torn.wal"
            torn.write_bytes(raw[:cut])
            records = FrameJournal.read_records(torn, MACHINES, METRICS)
            complete = sum(1 for b in boundaries[1:] if b <= cut)
            assert [seq for seq, _, _ in records] == list(
                range(1, complete + 1)), f"cut at byte {cut}"

    def test_corrupt_byte_ends_the_scan_at_the_defect(self, tmp_path):
        path = tmp_path / "j.wal"
        journal = FrameJournal(path)
        for seq, n in ((1, 4), (2, 4), (3, 4)):
            ts, block = make_batch(seq, n)
            journal.append(seq, ts, block)
        journal.close()
        raw = bytearray(path.read_bytes())
        # Flip one payload byte inside the second record.
        record_bytes = len(raw) // 3
        raw[record_bytes + record_bytes // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        records = FrameJournal.read_records(path, MACHINES, METRICS)
        assert [seq for seq, _, _ in records] == [1]

    def test_impossible_length_field_reads_as_absent(self, tmp_path):
        path = tmp_path / "j.wal"
        import struct

        path.write_bytes(struct.pack("<IIQI", 0, (1 << 31) + 8, 1, 1) + b"x")
        assert FrameJournal.read_records(path, MACHINES, METRICS) == []

    def test_rewind_drops_appends_after_the_mark(self, tmp_path):
        """WAL rollback: a record whose apply failed is removed, freeing
        its sequence number for the retry."""
        journal = FrameJournal(tmp_path / "j.wal")
        ts1, block1 = make_batch(1, 4)
        journal.append(1, ts1, block1)
        mark = journal.size()
        ts2, block2 = make_batch(2, 3)
        journal.append(2, ts2, block2)
        journal.rewind(mark)
        journal.append(2, ts2, block2)  # the seq is free for reuse
        journal.close()
        records = FrameJournal.read_records(tmp_path / "j.wal",
                                            MACHINES, METRICS)
        assert [seq for seq, _, _ in records] == [1, 2]
        np.testing.assert_array_equal(records[1][1], ts2)

    def test_fsync_mode_smoke(self, tmp_path):
        """fsync=True exercises the directory-fsync paths (file creation,
        atomic rename); behaviour must be identical to fsync=False."""
        journal = FrameJournal(tmp_path / "j.wal", fsync=True)
        ts, block = make_batch(1, 4)
        journal.append(1, ts, block)
        journal.rewind(journal.size())
        journal.close()
        assert [seq for seq, _, _ in FrameJournal.read_records(
            tmp_path / "j.wal", MACHINES, METRICS)] == [1]
        write_snapshot(tmp_path / "s.bin", {"seq": 1}, fsync=True)
        assert read_snapshot(tmp_path / "s.bin")["seq"] == 1


class TestSnapshot:
    def test_round_trip(self, tmp_path):
        state = {"seq": 7, "payload": np.arange(5.0)}
        write_snapshot(tmp_path / "s.bin", state, fsync=False)
        loaded = read_snapshot(tmp_path / "s.bin")
        assert loaded["seq"] == 7
        np.testing.assert_array_equal(loaded["payload"], np.arange(5.0))

    def test_absent_reads_as_none(self, tmp_path):
        assert read_snapshot(tmp_path / "nope.bin") is None

    @pytest.mark.parametrize("mangle", ["truncate", "flip", "magic"])
    def test_corrupt_reads_as_none(self, tmp_path, mangle):
        path = tmp_path / "s.bin"
        write_snapshot(path, {"seq": 1}, fsync=False)
        raw = bytearray(path.read_bytes())
        if mangle == "truncate":
            raw = raw[:len(raw) - 3]
        elif mangle == "flip":
            raw[-1] ^= 0xFF
        else:
            raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert read_snapshot(path) is None

    def test_commit_is_atomic_no_tmp_left_behind(self, tmp_path):
        write_snapshot(tmp_path / "s.bin", {"seq": 1}, fsync=False)
        write_snapshot(tmp_path / "s.bin", {"seq": 2}, fsync=False)
        assert read_snapshot(tmp_path / "s.bin")["seq"] == 2
        assert list(tmp_path.iterdir()) == [tmp_path / "s.bin"]

    def test_failed_commit_keeps_the_old_snapshot(self, tmp_path):
        from repro.testing import faults
        from repro.testing.faults import InjectedFault

        path = tmp_path / "s.bin"
        write_snapshot(path, {"seq": 1}, fsync=False)
        with faults.inject({"persist.snapshot.rename": {"at": 1}}):
            with pytest.raises(InjectedFault):
                write_snapshot(path, {"seq": 2}, fsync=False)
        assert read_snapshot(path)["seq"] == 1
        assert list(tmp_path.iterdir()) == [path]


class TestTenantPersistence:
    def test_load_skips_records_the_snapshot_covers(self, tmp_path):
        """A crash between snapshot rename and journal truncate leaves
        already-snapshotted records in the journal; replay must skip them."""
        persist = TenantPersistence(tmp_path / "t", snapshot_every=0)
        persist.root.mkdir(parents=True)
        for seq in (1, 2, 3):
            ts, block = make_batch(seq, 4)
            persist.append(seq, ts, block)
        # Snapshot covering seq<=2 without the truncate (the crash window).
        write_snapshot(persist.snapshot_path, {"seq": 2}, fsync=False)
        state, tail = persist.load(MACHINES, METRICS)
        assert state["seq"] == 2
        assert [seq for seq, _, _ in tail] == [3]

    def test_load_stops_at_a_sequence_gap(self, tmp_path):
        persist = TenantPersistence(tmp_path / "t", snapshot_every=0)
        persist.root.mkdir(parents=True)
        for seq in (1, 2, 4):
            ts, block = make_batch(seq, 4)
            persist.append(seq, ts, block)
        state, tail = persist.load(MACHINES, METRICS)
        assert state is None
        assert [seq for seq, _, _ in tail] == [1, 2]

    def test_write_snapshot_truncates_journal(self, tmp_path):
        persist = TenantPersistence(tmp_path / "t", snapshot_every=0)
        persist.root.mkdir(parents=True)
        ts, block = make_batch(1, 4)
        persist.append(1, ts, block)
        persist.write_snapshot({"seq": 1})
        assert FrameJournal.read_records(persist.journal.path,
                                         MACHINES, METRICS) == []
        state, tail = persist.load(MACHINES, METRICS)
        assert state["seq"] == 1 and tail == []

    def test_snapshot_due_cadence(self, tmp_path):
        persist = TenantPersistence(tmp_path / "t", snapshot_every=8)
        assert not persist.snapshot_due(7)
        assert persist.snapshot_due(8)
        disabled = TenantPersistence(tmp_path / "u", snapshot_every=0)
        assert not disabled.snapshot_due(10_000)


class TestServerStateDir:
    SPEC = {"id": "alpha", "machines": ["a", "b"], "detectors": "threshold",
            "metrics": ["cpu"], "streaming": {}}

    def test_create_then_stored_tenants_round_trip(self, tmp_path):
        state = ServerStateDir(tmp_path)
        state.create(dict(self.SPEC, id="alpha"))
        state.create(dict(self.SPEC, id="beta"))
        stored = ServerStateDir(tmp_path).stored_tenants()
        assert [spec["id"] for spec, _ in stored] == ["alpha", "beta"]

    def test_create_purges_stale_remnants(self, tmp_path):
        state = ServerStateDir(tmp_path)
        persist = state.create(dict(self.SPEC))
        ts = np.arange(4, dtype=np.float64)
        block = np.zeros((2, 3, 4))
        persist.append(1, ts, block)
        persist.close()
        fresh = state.create(dict(self.SPEC))
        _, tail = fresh.load(2, 3)
        assert tail == [], "a recreated tenant inherited a stale journal"

    def test_remove_forgets_durably(self, tmp_path):
        state = ServerStateDir(tmp_path)
        state.create(dict(self.SPEC))
        state.remove("alpha")
        assert ServerStateDir(tmp_path).stored_tenants() == []

    def test_corrupt_spec_is_skipped_not_fatal(self, tmp_path):
        state = ServerStateDir(tmp_path)
        state.create(dict(self.SPEC))
        (state.tenant_root("alpha") / "spec.json").write_text("{broken")
        reopened = ServerStateDir(tmp_path)
        assert reopened.stored_tenants() == []
        assert reopened.skipped == ["alpha"]

    def test_mismatched_spec_id_is_skipped(self, tmp_path):
        state = ServerStateDir(tmp_path)
        state.create(dict(self.SPEC))
        (state.tenant_root("alpha") / "spec.json").write_text(
            json.dumps(dict(self.SPEC, id="other")))
        reopened = ServerStateDir(tmp_path)
        assert reopened.stored_tenants() == []
        assert reopened.skipped == ["alpha"]

    def test_unsupported_format_version_is_loud(self, tmp_path):
        ServerStateDir(tmp_path)
        (tmp_path / "STATE").write_text(json.dumps({"version": 99}))
        with pytest.raises(ServeError, match="unsupported format"):
            ServerStateDir(tmp_path)

    @pytest.mark.parametrize("bad_id", [
        "..", ".", "", "a/b", "/abs", "../../escape", "a/..",
    ])
    def test_unsafe_tenant_ids_never_reach_the_filesystem(self, tmp_path,
                                                          bad_id):
        """An id like ``..`` resolves to the state dir itself — create's
        stale-remnant rmtree (or remove) on it would wipe every tenant.
        Such ids must fail loudly before any mkdir or rmtree runs."""
        state = ServerStateDir(tmp_path)
        state.create(dict(self.SPEC))
        for attack in (lambda: state.tenant_root(bad_id),
                       lambda: state.create(dict(self.SPEC, id=bad_id)),
                       lambda: state.remove(bad_id)):
            with pytest.raises(ServeError, match="unsafe tenant id"):
                attack()
        survivors = ServerStateDir(tmp_path).stored_tenants()
        assert [spec["id"] for spec, _ in survivors] == ["alpha"], \
            "an unsafe tenant id damaged other tenants' durable state"


class TestRejectedCreate:
    """A ``POST /tenants`` answered 400 writes nothing to the state dir."""

    BAD_SPECS = {
        "nan-threshold": {"streaming": {"threshold": float("nan")}},
        "negative-threshold": {"streaming": {"threshold": -5}},
        "window-too-small": {"streaming": {"window_samples": 1}},
        "window-too-large": {"streaming": {"window_samples": 65_537}},
        "nan-detector-param": {"detectors": "zscore(window=nan)"},
        "fractional-zscore-window": {"detectors": "zscore(window=2.5)"},
        "boolean-zscore-window": {"detectors": "zscore(window=true)"},
        "zscore-window-past-a-ring": {"detectors": "zscore(window=1000000)"},
    }

    def post_tenant(self, server, spec: dict) -> tuple[int, dict]:
        import http.client

        conn = http.client.HTTPConnection(server.host, server.port, timeout=5)
        try:
            conn.request("POST", "/tenants", body=json.dumps(spec).encode(),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    @pytest.mark.parametrize("case", sorted(BAD_SPECS))
    def test_rejected_spec_leaves_nothing_behind(self, tmp_path, case):
        from repro.serve import DetectionServer

        state = tmp_path / "state"
        spec = {"id": "x0", "machines": ["a", "b"], **self.BAD_SPECS[case]}
        with DetectionServer(port=0, state_dir=state) as server:
            status, body = self.post_tenant(server, spec)
            assert status == 400, body
            assert list((state / "tenants").iterdir()) == []
        with DetectionServer(port=0, state_dir=state) as server:
            assert server.recovered == []
            assert server.registry.skipped == []

    @pytest.mark.parametrize("window", [2, 65_536])
    def test_window_bounds_are_accepted(self, tmp_path, window):
        from repro.serve import DetectionServer

        spec = {"id": "x0", "machines": ["a", "b"],
                "streaming": {"window_samples": window}}
        with DetectionServer(port=0, state_dir=tmp_path) as server:
            status, body = self.post_tenant(server, spec)
            assert status == 201, body
            assert (tmp_path / "tenants" / "x0" / "spec.json").exists()


class TestIngestRollback:
    """The WAL invariant: journal == applied batches, unique seqs.

    If applying a just-journaled batch fails, the record must be rolled
    back — otherwise the next ingest appends a duplicate seq, and after a
    crash the recovery contiguity scan stops at it, silently dropping
    every later *acknowledged* batch.
    """

    def make_tenant(self, tmp_path):
        from repro.serve.tenants import Tenant, TenantSpec

        spec = TenantSpec.from_dict(
            {"id": "alpha", "machines": ["a", "b", "c"]}, default_id="alpha")
        persist = ServerStateDir(tmp_path).create(spec.to_dict())
        return Tenant(spec, persist=persist)

    def payload(self, seq, nsamples=4):
        from repro.serve.wire import block_to_payload

        ts, block = make_batch(seq, nsamples)
        return block_to_payload(ts, block)

    def journal_seqs(self, tenant):
        records = FrameJournal.read_records(tenant.persist.journal.path,
                                            MACHINES, METRICS)
        return [seq for seq, _, _ in records]

    def test_failed_apply_rolls_back_the_journal_record(self, tmp_path):
        tenant = self.make_tenant(tmp_path)
        tenant.ingest(self.payload(1))
        tenant.session.monitor.catch_up = lambda chunk: (_ for _ in ()).throw(
            RuntimeError("injected apply failure"))
        with pytest.raises(RuntimeError, match="injected apply failure"):
            tenant.ingest(self.payload(2))
        assert self.journal_seqs(tenant) == [1], \
            "a never-applied batch stayed in the journal"
        del tenant.session.monitor.catch_up   # restore the real bound method
        tenant.ingest(self.payload(2))
        assert self.journal_seqs(tenant) == [1, 2]
        assert tenant._ingest_seq == 2
        # Recovery replays exactly the applied batches.
        tenant.persist.close()
        state, tail = TenantPersistence(tenant.persist.root).load(
            MACHINES, METRICS)
        assert state is None and [seq for seq, _, _ in tail] == [1, 2]

    def test_unrollbackable_failure_poisons_the_tenant(self, tmp_path):
        """If even the rollback fails, appending again would duplicate the
        orphan record's seq — the tenant must refuse further ingests."""
        tenant = self.make_tenant(tmp_path)
        tenant.ingest(self.payload(1))
        tenant.session.monitor.catch_up = lambda chunk: (_ for _ in ()).throw(
            RuntimeError("injected apply failure"))
        tenant.persist.journal.rewind = lambda size: (_ for _ in ()).throw(
            OSError("injected rollback failure"))
        with pytest.raises(RuntimeError, match="injected apply failure"):
            tenant.ingest(self.payload(2))
        assert tenant.closed
        with pytest.raises(ServeError, match="journal rollback failed"):
            tenant.ingest(self.payload(3))


class TestFailClosedRecovery:
    """An unreadable snapshot never silently empties a tenant.

    The feed: a 4-machine durable tenant ingests four-sample batches with
    ``snapshot_every=64``, so batch 16 commits a snapshot and truncates
    the journal, and batches 17-25 are journaled after it.
    """

    MACHINE_IDS = ["a", "b", "c", "d"]

    def payloads(self):
        from repro.serve.wire import block_to_payload

        rng = np.random.default_rng(7)
        return [block_to_payload(
                    60.0 * np.arange(4 * i, 4 * i + 4, dtype=np.float64),
                    rng.uniform(0.0, 100.0, size=(4, 3, 4)))
                for i in range(25)]

    def registry(self, root):
        from repro.serve.tenants import TenantRegistry

        return TenantRegistry(state=ServerStateDir(root, snapshot_every=64))

    def flip_snapshot(self, root):
        path = root / "tenants" / "a" / "snapshot.bin"
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        path.write_bytes(bytes(raw))

    @pytest.mark.parametrize("batches", [25, 16])
    def test_unreadable_snapshot_skips_the_tenant_untouched(self, tmp_path,
                                                            batches):
        registry = self.registry(tmp_path)
        tenant = registry.create({"id": "a", "machines": self.MACHINE_IDS})
        for payload in self.payloads()[:batches]:
            tenant.ingest(payload)
        registry.close_all()
        self.flip_snapshot(tmp_path)
        tenant_dir = tmp_path / "tenants" / "a"
        before = {name: (tenant_dir / name).read_bytes()
                  for name in ("snapshot.bin", "journal.wal")}
        assert len(before["journal.wal"]) == (3924 if batches == 25 else 0)

        restarted = self.registry(tmp_path)
        assert restarted.recover() == []
        assert restarted.skipped == ["a"]
        assert {name: (tenant_dir / name).read_bytes()
                for name in before} == before

    def test_journal_from_seq_1_rebuilds_the_state(self, tmp_path):
        """A crash between the snapshot commit and the journal truncate
        leaves every record since seq 1, so replay rebuilds the state
        exactly even when the snapshot is unreadable."""
        from repro.serve.tenants import TenantRegistry
        from repro.testing import faults
        from repro.testing.faults import InjectedFault

        payloads = self.payloads()
        registry = self.registry(tmp_path)
        tenant = registry.create({"id": "a", "machines": self.MACHINE_IDS})
        with faults.inject({"persist.journal.truncate": {"at": 1}}):
            for done, payload in enumerate(payloads, start=1):
                try:
                    tenant.ingest(payload)
                except InjectedFault:
                    break
        assert done == 16
        tenant.persist.close()   # the crash: only the disk survives
        self.flip_snapshot(tmp_path)

        restarted = self.registry(tmp_path)
        assert restarted.recover() == ["a"]
        assert restarted.skipped == []
        recovered = restarted.get("a")
        assert recovered.num_samples == 4 * done
        for payload in payloads[done:]:
            recovered.ingest(payload)

        reference = TenantRegistry().create(
            {"id": "a", "machines": self.MACHINE_IDS})
        for payload in payloads:
            reference.ingest(payload)
        assert recovered.alerts(cursor=0) == reference.alerts(cursor=0)
        assert recovered.events() == reference.events()
        assert recovered.summary() == reference.summary()

    def skipped_tenant(self, root):
        """The reproduction: tenant ``a`` with a flipped snapshot byte,
        skipped by a restarted registry; returns it and a's files."""
        registry = self.registry(root)
        tenant = registry.create({"id": "a", "machines": self.MACHINE_IDS})
        for payload in self.payloads():
            tenant.ingest(payload)
        registry.close_all()
        self.flip_snapshot(root)
        tenant_dir = root / "tenants" / "a"
        files = {path.name: path.read_bytes()
                 for path in tenant_dir.iterdir()}
        restarted = self.registry(root)
        assert restarted.recover() == []
        assert restarted.skipped == ["a"]
        return restarted, files

    def test_re_creating_a_skipped_id_keeps_its_files(self, tmp_path):
        registry, files = self.skipped_tenant(tmp_path)
        tenant_dir = tmp_path / "tenants" / "a"
        assert sorted(files) == ["journal.wal", "snapshot.bin", "spec.json"]
        with pytest.raises(ServeError, match="files are kept") as err:
            registry.create({"id": "a", "machines": self.MACHINE_IDS})
        assert str(tenant_dir) in str(err.value)
        assert registry.ids() == []
        assert {path.name: path.read_bytes()
                for path in tenant_dir.iterdir()} == files

        tenant_dir.rename(tmp_path / "a-kept")
        created = registry.create({"id": "a", "machines": self.MACHINE_IDS})
        assert created.num_samples == 0
        assert registry.ids() == ["a"]
        assert {path.name: path.read_bytes()
                for path in (tmp_path / "a-kept").iterdir()} == files

    def test_re_creating_a_skipped_id_over_http_is_400(self, tmp_path):
        import http.client

        from repro.serve import DetectionServer

        _, files = self.skipped_tenant(tmp_path)
        with DetectionServer(port=0, state_dir=tmp_path) as server:
            assert server.registry.skipped == ["a"]
            conn = http.client.HTTPConnection(server.host, server.port,
                                              timeout=5)
            try:
                conn.request("POST", "/tenants", body=json.dumps(
                    {"id": "a", "machines": self.MACHINE_IDS}).encode(),
                    headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                status, body = response.status, json.loads(response.read())
            finally:
                conn.close()
        assert status == 400, body
        assert "files are kept" in body["error"]
        tenant_dir = tmp_path / "tenants" / "a"
        assert {path.name: path.read_bytes()
                for path in tenant_dir.iterdir()} == files

    def test_memory_only_registry_has_no_skipped_ids(self):
        from repro.serve.tenants import TenantRegistry

        assert TenantRegistry().skipped == []

    def test_default_id_skips_past_a_skipped_tenant(self, tmp_path):
        registry = self.registry(tmp_path)
        for _ in range(2):
            registry.create({"machines": self.MACHINE_IDS})
        registry.close_all()
        spec = tmp_path / "tenants" / "t2" / "spec.json"
        spec.write_text("{broken")

        restarted = self.registry(tmp_path)
        assert restarted.recover() == ["t1"]
        assert restarted.skipped == ["t2"]
        created = restarted.create({"machines": self.MACHINE_IDS})
        assert created.spec.tenant_id == "t3"
        assert spec.read_text() == "{broken"

    def test_recovery_sweeps_leftover_temp_files(self, tmp_path):
        registry = self.registry(tmp_path)
        tenant = registry.create({"id": "a", "machines": self.MACHINE_IDS})
        for payload in self.payloads()[:3]:
            tenant.ingest(payload)
        registry.close_all()
        tenant_dir = tmp_path / "tenants" / "a"
        (tenant_dir / "snapshot.bin.k2v9x0qa.tmp").write_bytes(b"torn")

        restarted = self.registry(tmp_path)
        assert restarted.recover() == ["a"]
        assert restarted.get("a").num_samples == 12
        assert sorted(p.name for p in tenant_dir.iterdir()) == [
            "journal.wal", "snapshot.bin", "spec.json"]

    def test_serve_prints_the_skipped_ids(self, tmp_path):
        import signal

        from tests.test_serve_recovery_golden import start_serve

        registry = self.registry(tmp_path)
        tenant = registry.create({"id": "a", "machines": self.MACHINE_IDS})
        for payload in self.payloads():
            tenant.ingest(payload)
        registry.close_all()
        self.flip_snapshot(tmp_path)

        proc, _, banner = start_serve("--state-dir", str(tmp_path))
        proc.send_signal(signal.SIGTERM)
        proc.communicate(timeout=30)
        assert "recovered 0 tenant(s)" in banner
        assert "skipped unrecoverable tenant(s): a\n" in banner
