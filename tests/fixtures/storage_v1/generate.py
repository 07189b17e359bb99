"""Write the ``storage_v1`` fixture: every durable file format, as laid out.

Run from the repository root::

    PYTHONPATH=src python tests/fixtures/storage_v1/generate.py

It replaces three directories beside this script, plus ``fixture.json``:

* ``trace/`` — a small ``small_config`` trace (the CSV tables) with the
  ``.repro-cache/`` sidecar a cached load leaves behind (``trace.npz``,
  ``usage.npy``, ``stats.json``);
* ``results/`` — one result-cache entry: a batch run over ``trace/``
  whose detector stack fires;
* ``state/`` — a ``repro serve --state-dir`` holding one tenant with a
  snapshot and a journal tail (the frames fed after the last snapshot);
* ``fixture.json`` — how the files were made: the pipeline spec (minus
  paths), the tenant spec, the frame batch size and how many batches the
  tenant ingested.

``tests/test_storage_formats.py`` loads all three with the current code
and compares them with fresh runs.  The files pin the on-disk formats:
regenerate them only when a format change is intended and a migration
reads the old files, never to make that test pass.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from repro.config import small_config
from repro.pipeline import Pipeline
from repro.serve.persist import ServerStateDir
from repro.serve.tenants import TenantRegistry
from repro.serve.wire import store_to_payloads
from repro.trace.loader import load_trace
from repro.trace.synthetic import generate_trace
from repro.trace.writer import write_trace

HERE = Path(__file__).resolve().parent

SCENARIO = "thrashing"
SEED = 7
DETECTORS = "threshold(threshold=80)+flatline+zscore"
BATCH = 4
#: Snapshot cadence: the last snapshot lands mid-feed, so the journal
#: keeps a tail of records after it.
SNAPSHOT_EVERY = 40
TENANT = {"id": "fx", "detectors": DETECTORS, "metrics": ["cpu", "mem"],
          "streaming": {"threshold": 80.0, "window_samples": 32}}


def main() -> None:
    for name in ("trace", "results", "state"):
        shutil.rmtree(HERE / name, ignore_errors=True)

    trace_dir = HERE / "trace"
    write_trace(generate_trace(small_config(SCENARIO, seed=SEED)), trace_dir)
    bundle = load_trace(trace_dir, cache=True)

    pipeline = {"detectors": DETECTORS, "metrics": ["cpu"]}
    result = Pipeline.from_spec({
        **pipeline,
        "source": {"kind": "trace-dir", "path": str(trace_dir)},
        "result_cache": {"dir": str(HERE / "results")}}).run()
    assert result.timings["result_cache"] == "miss"
    assert result.flagged_machines(), "the detector stack must fire"

    tenant_spec = {**TENANT, "machines": list(bundle.usage.machine_ids)}
    registry = TenantRegistry(
        state=ServerStateDir(HERE / "state", snapshot_every=SNAPSHOT_EVERY))
    tenant = registry.create(tenant_spec)
    payloads = store_to_payloads(bundle.usage, BATCH)
    for payload in payloads:
        tenant.ingest(payload)
    assert tenant.session.alerts, "the tenant must have alerted"
    registry.close_all()

    (HERE / "fixture.json").write_text(json.dumps({
        "pipeline": pipeline,
        "tenant": tenant_spec,
        "batch": BATCH,
        "batches": len(payloads),
        "snapshot_every": SNAPSHOT_EVERY,
    }, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
