"""The repository benchmark: offline detect, durable serve ingest and mixed
serve traffic, each measured end to end, with a traced per-layer run.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload serve-mixed --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Every run drives three phases, each closed loop against the system built
from ``src/``:

``offline``  ``repro detect`` warm / cold / result-cache hit and scored
             pipeline runs, in-process in a worker (``offline.py``);
``ingest``   durable ``repro serve``: 4 tenants, 8-sample frames, then a
             SIGTERM and restarts on the state dir;
``mixed``    ``repro serve``: 2 wide tenants, 32-sample frames beside
             ``/detect`` misses and hits and alert polls.

The workload names the phase that gets half of ``--seconds``; the other
two phases share the rest, so every end-to-end metric is measured on every
workload.  The phases take turns in three rounds, so a transient host
slowdown lands on a minority of each metric's samples.  ``ingest_*`` and
``peak_rss_mb`` come from the workload's own phase, except that
offline-detect reports ``ingest_*`` of the durable ingest phase.

``--trace 0`` prints every end-to-end metric.  ``--trace 1`` runs the same
workload twice — untraced, then with span wrappers (``spans.py``) in the
offline worker and in every server (``serve_traced.py``) — and prints the
per-layer metrics plus ``overhead.<metric>`` = traced − untraced.  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The line before it holds the host fingerprint, the seed,
per-phase counts, step wall times, the generator's CPU seconds and, when
traced, the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from common import (
    ROOT,
    BenchError,
    host_fingerprint,
    make_work_dir,
    median,
    percentile,
    remove_work_dir,
    require_source,
)

#: workload -> the phase it gives half the measured time to.  The durable
#: ingest phase runs in every run without being any workload's own phase.
WORKLOADS = {"offline-detect": "offline", "serve-mixed": "mixed"}
PHASES = ("offline", "ingest", "mixed")
PRIMARY_SHARE = 0.5
#: Set-ups per phase (each from scratch); ``setup_s`` sums their medians.
SETUPS = 3
#: Rounds per run: every phase runs a slice of its share in each round.
#: The host's speed drifts from second to second, so short slices spread
#: each metric's samples over the whole run instead of one stretch of it.
ROUNDS = 6
#: Restarts per run on copies of the ingest state dir; ``recover_s`` is
#: their median.
RESTARTS = 3
#: Every round runs at least one full cycle of the offline and mixed op
#: mixes, so every op type has a sample in every round.
MIN_CYCLES = 1
#: A phase's slice of one round stops starting cycles once it has run this
#: many times its share, which bounds the run if the host crawls.
ROUND_CAP = 3.0


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def phase_shares(workload: str, seconds: float) -> dict:
    primary = WORKLOADS[workload]
    return {phase: seconds * (PRIMARY_SHARE if phase == primary
                              else (1.0 - PRIMARY_SHARE) / 2)
            for phase in PHASES}


def synthesize(workload: str, seed: int, seconds: float) -> dict:
    """The serve feeds of one run, encoded once (not part of set-up)."""
    from feeds import ingest_feeds, mixed_feeds

    share = phase_shares(workload, seconds)
    mixed_batches = max(share["mixed"] * 100, 4 * MIN_CYCLES * ROUNDS)
    return {"ingest": ingest_feeds(
                seed, max_batches=int(share["ingest"] * 250) + 100),
            "mixed": mixed_feeds(seed, max_batches=int(mixed_batches) + 50)}


def _ms(values, q: float) -> float:
    return 1000.0 * percentile(values, q) if values else float("nan")


def run_pass(workload: str, seed: int, seconds: float, traced: bool,
             work: Path, feeds: dict) -> dict:
    """One measured pass of every phase; returns metrics and accounting."""
    from httpconn import Connection
    from offline import OfflinePhase
    from repro.serve.persist import DEFAULT_SNAPSHOT_EVERY
    from serving import ServePhase

    primary = WORKLOADS[workload]
    share = phase_shares(workload, seconds)
    tag = "traced" if traced else "plain"
    (work / tag).mkdir(parents=True)
    connections = min(2, os.cpu_count() or 1)
    for feed in feeds["ingest"] + feeds["mixed"]:
        feed.sent = 0
    ingest = ServePhase("ingest", feeds["ingest"], work / tag, durable=True,
                        traced=traced, connections=connections)
    mixed = ServePhase("mixed", feeds["mixed"], work / tag, durable=False,
                       traced=traced, connections=connections)
    steps: dict[str, float] = {}
    mark = time.perf_counter()

    def step(name: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        steps[name] = now - mark
        mark = now

    offline_spans = work / tag / "offline-spans.json" if traced else None
    offline = None
    try:
        offline = OfflinePhase(work / tag / "offline", seed, setups=SETUPS,
                               spans=offline_spans)
        step("offline_setup")
        ingest_setup = ingest.setup(SETUPS)
        mixed_setup = mixed.setup(SETUPS)
        step("serve_setup")
        for _ in range(ROUNDS):
            offline.run(share["offline"] / ROUNDS, MIN_CYCLES,
                        ROUND_CAP * share["offline"] / ROUNDS)
            ingest.run_ingest(share["ingest"] / ROUNDS)
            mixed.run_mixed(share["mixed"] / ROUNDS, MIN_CYCLES,
                            ROUND_CAP * share["mixed"] / ROUNDS)
        step("rounds")
        offline.finish()
        conn = Connection(mixed.server.host, mixed.server.port)
        try:
            mixed.check_totals(conn)
            mixed.check_detect(conn)
        finally:
            conn.close()
        mixed.stop_server()
        ingest.top_up(DEFAULT_SNAPSHOT_EVERY)
        conn = Connection(ingest.server.host, ingest.server.port)
        try:
            ingest.check_totals(conn)
        finally:
            conn.close()
        step("checks")
        ingest.restart_and_verify(RESTARTS)
        step("restarts")
    finally:
        if offline is not None:
            offline.kill()
        ingest.kill()
        mixed.kill()

    own = mixed if primary == "mixed" else ingest
    ops = offline.ops
    metrics = {
        "setup_s": offline.setup_s + ingest_setup + mixed_setup,
        "peak_rss_mb": {"offline": offline.peak_rss_mb,
                        "ingest": ingest.peak_rss_mb,
                        "mixed": mixed.peak_rss_mb}[primary],
        "detect_warm_p50_ms": _ms(ops["warm"], 50),
        "detect_warm_p90_ms": _ms(ops["warm"], 90),
        "detect_cold_p50_ms": _ms(ops["cold"], 50),
        "detect_cached_p50_ms": _ms(ops["cached"], 50),
        "score_p50_ms": _ms(ops["scored"], 50),
        "ingest_p50_ms": _ms(own.log.times.get("frames", []), 50),
        "ingest_p90_ms": _ms(own.log.times.get("frames", []), 90),
        "ingest_samples_per_s": own.log.samples / own.wall_s,
        "recover_s": median(ingest.recover_s),
        "detect_req_p50_ms": _ms(mixed.log.times.get("detect_miss", []), 50),
        "detect_hit_p50_ms": _ms(mixed.log.times.get("detect_hit", []), 50),
        "alerts_poll_p50_ms": _ms(mixed.log.times.get("alerts", []), 50),
    }
    phases = {"offline": {"attempted": offline.attempted,
                          "failed": offline.failed, "errors": offline.errors,
                          "wall_s": offline.wall_s,
                          "ops": {k: len(v) for k, v in ops.items()},
                          "setups_s": offline.fills_s,
                          "import_s": offline.import_s}}
    for phase in (ingest, mixed):
        phases[phase.name] = {
            "attempted": phase.attempted, "failed": phase.failed,
            "errors": phase.errors, "wall_s": phase.wall_s,
            "ops": {k: len(v) for k, v in phase.log.times.items()},
            "setups_s": phase.setups,
            "generator_cpu_s": phase.generator_cpu_s,
            "alerts_in_replies": phase.log.alerts}
    phases["ingest"]["recover_s"] = ingest.recover_s
    result = {"metrics": metrics, "phases": phases, "steps_s": steps,
              "attempted": sum(p["attempted"] for p in phases.values()),
              "failed": sum(p["failed"] for p in phases.values()),
              "generator_cpu_s": ingest.generator_cpu_s
              + mixed.generator_cpu_s}
    if traced:
        result["layers"] = per_layer(workload, offline, offline_spans,
                                     ingest, mixed)
    return result


def per_layer(workload: str, offline, offline_spans: Path,
              ingest, mixed) -> dict:
    """Per-layer metrics of a traced pass, each from its phase of record."""
    from layers import (
        LAYER_MAP,
        offline_metrics,
        recovery_metrics,
        serve_metrics,
    )
    from spans import load_dump

    spans, requests = load_dump(offline_spans)
    out = offline_metrics(spans, requests, offline.ops)
    served = {}
    for phase in (ingest, mixed):
        (path,) = phase.span_files
        spans, requests = load_dump(path)
        served[phase.name] = serve_metrics(spans, requests, phase.log)
    own = served["mixed" if WORKLOADS[workload] == "mixed" else "ingest"]
    for name, (_layer, phase, _per, _moves) in LAYER_MAP.items():
        if phase == "serve":
            out[name] = own[name]
        elif phase in served and name in served[phase]:
            out[name] = served[phase][name]
    out["serve.http.errors"] = float(ingest.log.http_errors
                                     + mixed.log.http_errors)
    out.update(recovery_metrics([load_dump(path)[0]
                                 for path in ingest.recover_span_files]))
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 contract: dict) -> "tuple[dict, dict]":
    from layers import LAYER_MAP

    work = make_work_dir()
    try:
        started = time.perf_counter()
        feeds = synthesize(workload, seed, seconds)
        synthesis_s = time.perf_counter() - started
        plain = run_pass(workload, seed, seconds, False, work, feeds)
        traced = (run_pass(workload, seed, seconds, True, work, feeds)
                  if trace else None)
    finally:
        remove_work_dir(work)
    if traced is None:
        values = plain["metrics"]
        wanted = contract["end_to_end"]
    else:
        values = dict(traced["layers"])
        for name, value in plain["metrics"].items():
            values[f"overhead.{name}"] = traced["metrics"][name] - value
        values["bench.generator_cpu_s"] = plain["generator_cpu_s"]
        wanted = contract["per_layer"]
    metrics = {}
    for spec in wanted:
        value = values[spec["name"]]
        if value != value:   # NaN: a phase produced no sample of the op
            raise BenchError(f"no samples for {spec['name']}")
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    passes = [plain] + ([traced] if traced else [])
    failed = sum(p["failed"] for p in passes)
    result = {"correct": failed == 0,
              "attempted": sum(p["attempted"] for p in passes),
              "failed": failed, "metrics": metrics}
    details = {"workload": workload, "host": host_fingerprint(seed),
               "seconds": seconds, "trace": trace,
               "generator_cpu_s": plain["generator_cpu_s"],
               "synthesis_s": synthesis_s, "steps_s": plain["steps_s"],
               "phases": plain["phases"]}
    if traced is not None:
        details["traced_phases"] = traced["phases"]
        details["layer_map"] = {
            name: {"layer": layer, "phase": phase, "per": per,
                   "moves": [{"metric": m, "workload": w} for m, w in moves]}
            for name, (layer, phase, per, moves) in LAYER_MAP.items()}
    return result, details


def main(argv: "list[str]") -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_source()
        contract = load_contract()
        workloads = (sorted(WORKLOADS) if args.workload == "all"
                     else [args.workload])
        results = []
        for workload in workloads:
            started = time.perf_counter()
            result, details = run_workload(workload, args.seed, args.seconds,
                                           bool(args.trace), contract)
            details["run_s"] = time.perf_counter() - started
            results.append((workload, result, details))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    for workload, result, details in results:
        print(f"# {workload}  seed={args.seed}  "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:<48} {metric['value']:>14.4f} {metric['unit']}")
        errors = [e for p in details["phases"].values() for e in p["errors"]]
        for error in errors[:10]:
            print(f"  ! {error}")
    if len(results) == 1:
        workload, result, details = results[0]
        print(json.dumps({"details": details}))
        print(json.dumps(result))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for _, r, _ in results),
            "attempted": sum(r["attempted"] for _, r, _ in results),
            "failed": sum(r["failed"] for _, r, _ in results),
            "metrics": {f"{w}/{name}": metric for w, r, _ in results
                        for name, metric in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
