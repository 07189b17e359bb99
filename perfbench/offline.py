"""The offline-detect phase: a worker process and the handle that drives it.

Worker usage (the handle below starts it)::

    python perfbench/offline.py --work DIR --seed N --setups R [--spans OUT]

One seeded ``hotjob+network-storm+machine-failure`` trace (256 machines ×
24 h at 300 s) is written to ``DIR/trace`` once and kept in memory.  Set-up
is the ``repro`` import plus the first sidecar and ledger fill (repeated
``R`` times from scratch; the median counts).  The worker then reads one
JSON command per stdin line — ``{"seconds": S, "min_cycles": M,
"max_seconds": X}`` — and answers with one JSON line: the times of the ops
it ran, closed loop, in cycles of four op types:

``warm``    ``detect DIR --cache`` — sidecar present, no ledger
``cold``    ``detect DIR --cache --result-cache COLD`` after deleting the
            sidecar and the ledger entry (not timed)
``cached``  ``detect DIR --cache --result-cache LEDGER`` — ledger filled
            in set-up
``scored``  ``Pipeline.from_bundle(bundle, sinks=("score",)).run()``

Every op's output is checked.  ``{"stop": true}`` ends the worker: it dumps
its spans (when traced) and reports its peak RSS.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import BENCH_DIR, ROOT, BenchError, child_env, vm_hwm_mb

SCENARIO = "hotjob+network-storm+machine-failure"
MACHINES = 256
HORIZON_S = 24 * 3600
RESOLUTION_S = 300
#: Op mix of one cycle: the cheap ops repeat so their tails have samples.
CYCLE = ("warm", "warm", "cached", "warm", "warm", "cached", "warm", "cold",
         "warm", "warm", "cached", "warm", "warm", "cached", "warm", "scored")
CACHED_TAG = " (cached)"
OPS = ("warm", "cold", "cached", "scored")


def _verdict(stdout: str) -> "tuple[list[str], bool]":
    """The verdict lines of one ``repro detect`` and whether it was a hit."""
    lines = stdout.splitlines()
    if not lines or not lines[0].startswith("engine sweep on "):
        raise ValueError(f"unexpected detect output {stdout[:200]!r}")
    hit = lines[0].endswith(CACHED_TAG)
    if hit:
        lines[0] = lines[0][:-len(CACHED_TAG)]
    return lines, hit


class OfflinePhase:
    """Handle on one offline worker: set-up on start, then timed rounds."""

    def __init__(self, work: Path, seed: int, *, setups: int,
                 spans: Path | None) -> None:
        work.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, str(BENCH_DIR / "offline.py"), "--work",
               str(work), "--seed", str(seed), "--setups", str(setups)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        self.proc = subprocess.Popen(cmd, cwd=str(ROOT), env=child_env(),
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, text=True)
        self._stderr: list[str] = []
        self._drain = threading.Thread(
            target=lambda: self._stderr.extend(self.proc.stderr), daemon=True)
        self._drain.start()
        ready = self._reply()
        self.setup_s = ready["setup_s"]
        self.import_s = ready["import_s"]
        self.fills_s = ready["fills_s"]
        self.ops: dict[str, list[float]] = {name: [] for name in OPS}
        self.attempted = self.failed = self.cycles = 0
        self.errors: list[str] = []
        self.wall_s = 0.0
        self.peak_rss_mb = 0.0

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.kill()
            raise BenchError("offline worker died: "
                             + "".join(self._stderr[-20:]))
        return json.loads(line)

    def _send(self, command: dict) -> dict:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def run(self, seconds: float, min_cycles: int, max_seconds: float) -> None:
        result = self._send({"seconds": seconds, "min_cycles": min_cycles,
                             "max_seconds": max_seconds})
        for name, values in result["ops"].items():
            self.ops[name].extend(values)
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.cycles += result["cycles"]
        self.wall_s += result["wall_s"]
        self.errors.extend(result["errors"][:5 - len(self.errors)])

    def finish(self) -> None:
        self.peak_rss_mb = self._send({"stop": True})["peak_rss_mb"]
        self.proc.stdin.close()
        if self.proc.wait(timeout=60) != 0:
            raise BenchError("offline worker exited "
                             f"{self.proc.returncode}")
        self._drain.join(timeout=5)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def main(argv: "list[str]") -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setups", type=int, default=3)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)
    protocol = sys.stdout

    started = time.perf_counter()
    import repro.cli
    from repro.config import ClusterConfig, TraceConfig, UsageConfig
    from repro.pipeline import Pipeline
    from repro.trace.cache import CACHE_DIR_NAME
    from repro.trace.synthetic import generate_trace
    from repro.trace.writer import write_trace
    import_s = time.perf_counter() - started

    recorder = None
    if args.spans is not None:
        from spans import Recorder, install_offline

        recorder = Recorder()
        install_offline(recorder)

    # -- input synthesis (not set-up) -----------------------------------------
    bundle = generate_trace(TraceConfig(
        cluster=ClusterConfig(num_machines=MACHINES),
        usage=UsageConfig(resolution_s=RESOLUTION_S),
        horizon_s=HORIZON_S, scenario=SCENARIO, seed=args.seed))
    trace_dir = args.work / "trace"
    write_trace(bundle, trace_dir)
    sidecar = trace_dir / CACHE_DIR_NAME
    ledger = args.work / "ledger"
    cold_ledger = args.work / "ledger-cold"

    def detect(*extra: str) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = repro.cli.main(["detect", str(trace_dir), "--cache",
                                   *extra])
        if code != 0:
            raise RuntimeError(f"repro detect exited {code}")
        return out.getvalue()

    # -- set-up: the first sidecar + ledger fill, from scratch ----------------
    fills = []
    reference = None
    for _ in range(max(1, args.setups)):
        shutil.rmtree(sidecar, ignore_errors=True)
        shutil.rmtree(ledger, ignore_errors=True)
        fill_started = time.perf_counter()
        out = detect("--result-cache", str(ledger))
        fills.append(time.perf_counter() - fill_started)
        lines, hit = _verdict(out)
        if hit or (reference is not None and lines != reference):
            raise RuntimeError("set-up fills disagree")
        reference = lines
    fills.sort()
    score_reference = [entry.to_dict() for entry in
                       Pipeline.from_bundle(bundle, sinks=("score",)).run().scores]

    # -- the ops ----------------------------------------------------------------
    def op_warm() -> None:
        lines, hit = _verdict(detect())
        if hit or lines != reference:
            raise ValueError("warm verdict differs from the reference")

    def op_cold() -> None:
        lines, hit = _verdict(detect("--result-cache", str(cold_ledger)))
        if hit or lines != reference:
            raise ValueError("cold verdict differs (or hit the ledger)")

    def op_cached() -> None:
        lines, hit = _verdict(detect("--result-cache", str(ledger)))
        if not hit or lines != reference:
            raise ValueError("cached verdict differs (or missed the ledger)")

    def op_scored() -> None:
        rows = [entry.to_dict() for entry in
                Pipeline.from_bundle(bundle, sinks=("score",)).run().scores]
        if rows != score_reference:
            raise ValueError("scored rows differ from the set-up reference")

    ops = {"warm": op_warm, "cold": op_cold, "cached": op_cached,
           "scored": op_scored}

    def run_round(seconds: float, min_cycles: int, max_seconds: float) -> dict:
        times: dict[str, list[float]] = {name: [] for name in ops}
        attempted = failed = cycles = 0
        errors: list[str] = []
        loop_started = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - loop_started
            if elapsed >= max_seconds or (elapsed >= seconds
                                          and cycles >= min_cycles):
                break
            for name in CYCLE:
                if name == "cold":   # not timed: the op starts from nothing
                    shutil.rmtree(sidecar, ignore_errors=True)
                    shutil.rmtree(cold_ledger, ignore_errors=True)
                if recorder is not None:
                    recorder.begin_request("offline", name)
                attempted += 1
                op_started = time.perf_counter()
                try:
                    ops[name]()
                except Exception as exc:  # noqa: BLE001 - a failed op is data
                    failed += 1
                    if len(errors) < 5:
                        errors.append(f"{name}: {type(exc).__name__}: {exc}")
                else:
                    times[name].append(time.perf_counter() - op_started)
                finally:
                    if recorder is not None:
                        recorder.end_request()
            cycles += 1
        return {"ops": times, "attempted": attempted, "failed": failed,
                "errors": errors, "cycles": cycles,
                "wall_s": time.perf_counter() - loop_started}

    def reply(payload: dict) -> None:
        protocol.write(json.dumps(payload) + "\n")
        protocol.flush()

    reply({"setup_s": import_s + fills[len(fills) // 2],
           "import_s": import_s, "fills_s": fills})
    for line in sys.stdin:
        command = json.loads(line)
        if command.get("stop"):
            break
        reply(run_round(command["seconds"], command["min_cycles"],
                        command["max_seconds"]))
    if recorder is not None:
        recorder.dump(args.spans)
    reply({"peak_rss_mb": vm_hwm_mb(os.getpid())})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
