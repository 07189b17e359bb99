"""Shared plumbing for the benchmark: paths, statistics, host fingerprint,
server processes.

Everything here is benchmark-side: the system under test is only ever
reached through ``src/`` imports (input synthesis and reference checks) or
through ``python -m repro`` processes over real sockets.
"""

from __future__ import annotations

import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

#: The checkout root (``perfbench/..``) and the package source it holds.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: Scratch space for trace dirs, ledgers, state dirs and span dumps; one
#: sub-directory per run, removed when the run ends.
WORK_ROOT = ROOT / ".perfbench-work"


class BenchError(Exception):
    """The benchmark could not run (not a failed op: nothing was measured)."""


def require_source() -> None:
    """Fail fast when the checkout holds no ``src/repro`` to benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no package source under {SRC}; run from a full "
                         f"checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


# -- statistics ---------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100) of a non-empty list."""
    data = sorted(values)
    if not data:
        raise BenchError("percentile of an empty sample")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# -- host fingerprint ---------------------------------------------------------
def host_fingerprint(seed: int) -> dict:
    """What makes two results comparable: same host shape, same inputs."""
    import numpy

    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "kernel": platform.release(),
            "machine": platform.machine(), "seed": seed}


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


# -- server processes ----------------------------------------------------------
class ServerProcess:
    """One ``repro serve`` process on an ephemeral port.

    ``spans`` set means the traced launcher (``serve_traced.py``) runs the
    server and dumps its spans to that path when it drains.
    """

    def __init__(self, *, state_dir: Path | None = None,
                 spans: Path | None = None, ready_timeout: float = 120.0):
        args = ["serve", "--port", "0"]
        if state_dir is not None:
            args += ["--state-dir", str(state_dir)]
        if spans is None:
            cmd = [sys.executable, "-m", "repro"] + args
        else:
            cmd = [sys.executable, str(BENCH_DIR / "serve_traced.py"),
                   "--spans", str(spans), "--"] + args
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=str(ROOT), env=child_env(),
                                     stdin=subprocess.DEVNULL,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, text=True)
        self._stderr: list[str] = []
        self._stderr_thread = threading.Thread(target=self._drain_stderr,
                                               daemon=True)
        self._stderr_thread.start()
        self.host, self.port = self._await_ready(ready_timeout)
        #: Spawn until ``serving on`` was printed (recovery included).
        self.ready_s = time.perf_counter() - self.started

    def _drain_stderr(self) -> None:
        for line in self.proc.stderr:
            self._stderr.append(line)

    def _await_ready(self, timeout: float) -> "tuple[str, int]":
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            if line.startswith("serving on "):
                host, port = line.split()[2].rsplit(":", 1)
                return host, int(port)
        self.kill()
        raise BenchError("server never became ready: "
                         + "".join(self._stderr[-20:]))

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self, timeout: float = 60.0) -> None:
        """SIGTERM, then wait for the graceful drain; SIGKILL as a last resort."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("server did not drain within "
                             f"{timeout:.0f}s of SIGTERM") from None
        self._stderr_thread.join(timeout=5.0)
        if self.proc.returncode != 0 or "shutdown complete" not in out:
            raise BenchError(f"server exited {self.proc.returncode} without a "
                             f"clean drain: " + "".join(self._stderr[-20:]))

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._stderr_thread.join(timeout=5.0)


def make_work_dir() -> Path:
    work = WORK_ROOT / f"run-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    return work


def remove_work_dir(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()   # only when no other run is using it
    except OSError:
        pass
