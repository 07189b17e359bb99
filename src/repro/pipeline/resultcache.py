"""Content-addressed on-disk cache of finished pipeline run results.

PR 4 proved the pattern on one stage — the trace sidecar keyed by a
content hash of the CSVs.  This module generalises it to the whole run,
the BatchFactory idiom: hash everything that determines the verdict,
serve reruns from an on-disk ledger.  A :class:`ResultCache` directory
holds one ``.npz`` entry per distinct run key; a repeated
:meth:`~repro.pipeline.core.Pipeline.run` whose key matches an entry
restores the full :class:`~repro.pipeline.core.RunResult` — detections
with their engine blocks, flagged machines, ground-truth scores — without
resolving the source or touching the engine.

What goes into a key (:func:`run_key`), and what deliberately does not:

* the **source identity** (:func:`source_key`) — for a trace directory,
  the same sha256 content hash the trace sidecar uses (via the
  ``(size, mtime_ns)`` stat ledger, so a warm key costs four ``stat``
  calls), never the path: copy or move a directory and its entries stay
  valid, change one byte of any CSV and every entry for it is dead.  A
  synthetic source keys on its generative spec (scenario, seed,
  paper_scale, config) — equal specs produce equal bundles by
  construction.  ``storage`` stays in the key because ``float32``
  rounds the stored samples; ``cache``/``mmap`` are stripped;
* the **detector spec** (the canonical composed spec string) and the
  **metrics**, which pick the plans;
* whether the run was **scored** (a ``score`` sink was attached), since
  a scored entry additionally carries the serialized precision/recall
  rows so a warm hit skips the expensive ``score_bundle`` pass;
* **not** the execution options — backend, workers, shards are
  golden-pinned to change wall-clock only, never verdicts, so a run
  sharded eight ways and a serial run share one entry;
* **not** the sink list — sinks re-derive their outputs from the
  restored result on every hit (and are never cached).

Entries commit and read by :mod:`repro.storage`'s rules: an atomic,
best-effort write (a read-only cache directory never breaks a run that
already succeeded), and any defect — truncation, zip damage, a shape
mismatch, a wrong version or key — reads as *absent*, so the run
recomputes.  Caching never changes results; the golden suite pins cached
== uncached bit-identical across every detector × scenario × backend.

``ResultCache.stats()`` and ``ResultCache.prune(max_bytes)`` back the
``repro cache`` CLI: pruning evicts least-recently-*used* entries first
(every hit bumps the entry's timestamps, so recency survives ``noatime``
mounts).
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import PipelineError
from repro.storage import load_npz, save_npz

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline.core import RunResult
    from repro.pipeline.spec import SourceSpec

#: Bump when the entry layout or key recipe changes; old entries are
#: silently ignored (and eventually pruned).
RESULT_CACHE_VERSION = 1
ENTRY_SUFFIX = ".npz"

#: The array names one detection block serialises to (``d{i}:{name}``).
_BLOCK_FIELDS = ("timestamps", "mask", "scores", "rows", "starts", "ends",
                 "run_scores")


def _canonical_json(value) -> str:
    """Deterministic JSON — the hashable form of a key payload."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def source_key(source: "SourceSpec") -> dict | None:
    """The execution-irrelevant content identity of a pipeline source.

    ``None`` means *not fingerprintable* — in-memory ``bundle``/``store``
    sources carry arrays with no durable identity, so the pipeline
    bypasses the cache for them.  ``storage`` stays in the key (float32
    rounds the stored samples); ``path``, ``cache`` and ``mmap`` are
    stripped (the content hash already keys the bytes, and the sidecar
    options are golden-pinned not to change verdicts).
    """
    if source.kind == "trace-dir":
        from repro.trace.cache import directory_fingerprint

        try:
            fingerprint = directory_fingerprint(source.path)
        except OSError:
            return None
        return {"kind": "trace-dir", "fingerprint": fingerprint,
                "storage": source.storage}
    if source.kind == "synthetic":
        return {"kind": "synthetic",
                "scenario": source.scenario or "healthy",
                "seed": source.seed,
                "paper_scale": bool(source.paper_scale),
                "config": dict(source.config)}
    return None


def run_key(source_identity: dict, *, detectors: str,
            metrics: "tuple[str, ...]", mode: str, scored: bool) -> str:
    """sha256 hex over the canonical JSON of everything verdict-relevant."""
    payload = {"v": RESULT_CACHE_VERSION,
               "source": source_identity,
               "detectors": detectors,
               "metrics": list(metrics),
               "mode": mode,
               "scored": bool(scored)}
    return hashlib.sha256(_canonical_json(payload).encode("utf-8")).hexdigest()


def _check_block_shapes(arrays: dict) -> None:
    """Reject internally inconsistent detection arrays (corrupt ⇒ absent)."""
    mask = arrays["mask"]
    if mask.ndim != 2 or mask.dtype != np.bool_:
        raise ValueError(f"mask must be 2d bool, got "
                         f"{mask.dtype}/{mask.ndim}d")
    if arrays["scores"].shape != mask.shape:
        raise ValueError("scores/mask shape mismatch")
    if arrays["timestamps"].shape != (mask.shape[1],):
        raise ValueError("timestamps/mask length mismatch")
    runs = arrays["rows"].shape
    for name in ("starts", "ends", "run_scores"):
        if arrays[name].shape != runs:
            raise ValueError(f"{name}/rows length mismatch")


class ResultCache:
    """One content-addressed run-result ledger directory."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)

    def entry_path(self, key: str) -> Path:
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise PipelineError(f"malformed result-cache key {key!r}")
        return self.directory / (key + ENTRY_SUFFIX)

    # -- read path -------------------------------------------------------------
    def load(self, key: str) -> "RunResult | None":
        """Restore a cached run, or ``None`` when absent, stale or corrupt."""
        from repro.analysis.detectors import BlockDetection
        from repro.analysis.engine import EngineResult
        from repro.pipeline.core import DetectorRun, RunResult

        path = self.entry_path(key)
        try:
            header, data = load_npz(path)
            if (header.get("version") != RESULT_CACHE_VERSION
                    or header.get("key") != key
                    or header.get("mode") != "batch"):
                return None
            detections = []
            for i, det in enumerate(header["detections"]):
                arrays = {name: data[f"d{i}:{name}"]
                          for name in _BLOCK_FIELDS}
                _check_block_shapes(arrays)
                machine_ids = tuple(data[f"d{i}:machine_ids"].tolist())
                if len(machine_ids) != arrays["mask"].shape[0]:
                    raise ValueError("machine_ids/mask row mismatch")
                engine_result = EngineResult(
                    detector=str(det["detector"]),
                    metric=str(det["result_metric"]),
                    machine_ids=machine_ids,
                    block=BlockDetection(**arrays))
                detections.append(DetectorRun(
                    label=str(det["label"]), name=str(det["name"]),
                    metric=str(det["metric"]), result=engine_result))
            scores: tuple = ()
            if header.get("scored"):
                from repro.scenarios.scoring import ScoredEntry

                scores = tuple(ScoredEntry.from_dict(row)
                               for row in header["scores"])
            result = RunResult(
                mode="batch",
                metrics=tuple(str(m) for m in header["metrics"]),
                machine_ids=tuple(data["machine_ids"].tolist()),
                num_samples=int(header["num_samples"]),
                detections=tuple(detections),
                scores=scores)
        except Exception:
            # Torn writes, zip damage, shape lies, malformed score rows:
            # all read as a miss, and the run recomputes and rewrites.
            return None
        try:
            # Mark the hit for LRU pruning: np.load's read may not touch
            # atime (noatime mounts), so bump the timestamps explicitly.
            os.utime(path)
        except OSError:
            pass
        return result

    # -- write path ------------------------------------------------------------
    def store(self, key: str, result: "RunResult", *,
              scored: bool) -> Path | None:
        """Persist one finished batch run under ``key``.

        Best-effort like every cache write in the repository: an
        unwritable directory, an unserialisable score row or any other
        failure returns ``None`` instead of raising — caching must never
        break a run that already succeeded.  ``scored`` records whether
        the precision/recall rows travel with the entry (they only exist
        when a ``score`` sink ran, and ``scored`` is part of the key).
        """
        if result.mode != "batch":
            return None
        path = self.entry_path(key)
        try:
            detections_meta = []
            arrays: dict[str, np.ndarray] = {
                "machine_ids": np.asarray(list(result.machine_ids),
                                          dtype=np.str_),
            }
            for i, run in enumerate(result.detections):
                block = run.result.block
                detections_meta.append({
                    "label": run.label, "name": run.name,
                    "metric": run.metric,
                    "detector": run.result.detector,
                    "result_metric": run.result.metric,
                })
                for name in _BLOCK_FIELDS:
                    arrays[f"d{i}:{name}"] = np.ascontiguousarray(
                        getattr(block, name))
                arrays[f"d{i}:machine_ids"] = np.asarray(
                    list(run.result.machine_ids), dtype=np.str_)
            header = {
                "version": RESULT_CACHE_VERSION,
                "key": key,
                "mode": result.mode,
                "metrics": list(result.metrics),
                "num_samples": int(result.num_samples),
                "scored": bool(scored),
                "scores": ([entry.to_dict() for entry in result.scores]
                           if scored else None),
                "detections": detections_meta,
            }
            self.directory.mkdir(parents=True, exist_ok=True)
            save_npz(path, header, arrays)
        except (OSError, OverflowError, TypeError, ValueError,
                AttributeError):
            return None
        return path

    # -- maintenance -----------------------------------------------------------
    def _entries(self) -> "list[tuple[Path, os.stat_result]]":
        """Every committed entry with its stat (temp files excluded)."""
        out = []
        try:
            candidates = sorted(self.directory.glob("*" + ENTRY_SUFFIX))
        except OSError:
            return out
        for path in candidates:
            try:
                out.append((path, path.stat()))
            except OSError:
                continue   # racing prune/rewrite — skip, not fail
        return out

    def stats(self) -> dict:
        """``{entries, bytes}`` of the committed ledger entries."""
        entries = self._entries()
        return {"entries": len(entries),
                "bytes": sum(st.st_size for _, st in entries)}

    def prune(self, max_bytes: int) -> dict:
        """Evict least-recently-used entries until the ledger fits.

        Recency is the entry's ``atime`` (every :meth:`load` hit bumps
        it), ties broken by ``mtime`` then name for determinism.  Returns
        ``{evicted, entries, bytes}`` — the state after pruning.
        """
        if max_bytes < 0:
            raise PipelineError(
                f"prune max_bytes must be non-negative, got {max_bytes}")
        entries = self._entries()
        total = sum(st.st_size for _, st in entries)
        entries.sort(key=lambda pair: (pair[1].st_atime_ns,
                                       pair[1].st_mtime_ns, pair[0].name))
        evicted = 0
        for path, st in entries:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= st.st_size
            evicted += 1
        remaining = self.stats()
        remaining["evicted"] = evicted
        return remaining


__all__ = [
    "ENTRY_SUFFIX",
    "RESULT_CACHE_VERSION",
    "ResultCache",
    "run_key",
    "source_key",
]
