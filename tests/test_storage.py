"""Tests for :mod:`repro.storage`, the one commit path of every store."""

from __future__ import annotations

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from repro.storage import load_npz, save_npz, write_atomic

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The file primitives only ``repro/storage.py`` may touch.
COMMIT_PRIMITIVES = {("os", "replace"), ("os", "rename"),
                     ("tempfile", "mkstemp")}


class Boom(Exception):
    pass


class TestWriteAtomic:
    def test_commits_the_written_bytes(self, tmp_path):
        write_atomic(tmp_path / "f", lambda handle: handle.write(b"one"))
        write_atomic(tmp_path / "f", lambda handle: handle.write(b"two"))
        assert (tmp_path / "f").read_bytes() == b"two"
        assert [p.name for p in tmp_path.iterdir()] == ["f"]

    def test_failed_write_leaves_neither_target_nor_temp_file(self, tmp_path):
        def write(handle):
            handle.write(b"partial")
            raise Boom

        with pytest.raises(Boom):
            write_atomic(tmp_path / "f", write)
        assert list(tmp_path.iterdir()) == []

    def test_failed_rewrite_keeps_the_old_file(self, tmp_path):
        write_atomic(tmp_path / "f", lambda handle: handle.write(b"old"))

        def write(handle):
            handle.write(b"new")
            raise Boom

        with pytest.raises(Boom):
            write_atomic(tmp_path / "f", write)
        assert (tmp_path / "f").read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["f"]

    def test_fsync_round_trips(self, tmp_path):
        write_atomic(tmp_path / "f", lambda handle: handle.write(b"durable"),
                     fsync=True)
        assert (tmp_path / "f").read_bytes() == b"durable"
        assert [p.name for p in tmp_path.iterdir()] == ["f"]

    def test_temp_file_is_unique_and_beside_the_target(self, tmp_path):
        seen = []

        def write(handle):
            seen.extend(p.name for p in tmp_path.iterdir() if p.name != "f")
            handle.write(b"x")

        write_atomic(tmp_path / "f", write)
        write_atomic(tmp_path / "f", write)
        assert len(seen) == 2 and seen[0] != seen[1]
        assert all(name.startswith("f.") and name.endswith(".tmp")
                   for name in seen)


class TestNpz:
    HEADER = {"version": 3, "meta": {"source": "x"}}

    def arrays(self):
        return {"a": np.arange(5.0), "b:ids": np.asarray(["m1", "m2"])}

    def test_round_trip(self, tmp_path):
        save_npz(tmp_path / "c.npz", self.HEADER, self.arrays())
        header, arrays = load_npz(tmp_path / "c.npz")
        assert header == self.HEADER
        assert sorted(arrays) == ["a", "b:ids"]
        for name, want in self.arrays().items():
            assert np.array_equal(arrays[name], want)

    def test_header_is_one_json_member(self, tmp_path):
        save_npz(tmp_path / "c.npz", self.HEADER, self.arrays())
        with np.load(tmp_path / "c.npz", allow_pickle=False) as data:
            assert json.loads(str(data["__header__"][()])) == self.HEADER

    def test_truncated_file_raises(self, tmp_path):
        path = tmp_path / "c.npz"
        save_npz(path, self.HEADER, self.arrays())
        raw = path.read_bytes()
        for cut in (0, 10, len(raw) // 2, len(raw) - 1):
            path.write_bytes(raw[:cut])
            with pytest.raises(Exception):
                load_npz(path)

    def test_non_object_header_raises(self, tmp_path):
        path = tmp_path / "c.npz"
        np.savez(path, __header__=np.asarray(json.dumps([1, 2])))
        with pytest.raises(ValueError, match="header"):
            load_npz(path)

    def test_unserialisable_header_writes_nothing(self, tmp_path):
        with pytest.raises(TypeError):
            save_npz(tmp_path / "c.npz", {"handle": object()}, self.arrays())
        assert list(tmp_path.iterdir()) == []


def _commit_primitives(tree: ast.AST) -> "list[str]":
    """``module.name`` of every commit primitive a module references."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and (node.value.id, node.attr) in COMMIT_PRIMITIVES):
            found.append(f"{node.value.id}.{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom):
            found.extend(f"{node.module}.{alias.name} (line {node.lineno})"
                         for alias in node.names
                         if (node.module, alias.name) in COMMIT_PRIMITIVES)
    return found


def test_only_storage_commits_files():
    """Every durable write goes through ``repro.storage.write_atomic``."""
    offenders = {}
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "storage.py":
            continue
        found = _commit_primitives(ast.parse(path.read_text("utf-8")))
        if found:
            offenders[str(path.relative_to(SRC.parent))] = found
    assert offenders == {}, (
        "commit files through repro.storage.write_atomic instead")
    assert _commit_primitives(ast.parse((SRC / "storage.py").read_text(
        "utf-8")))
