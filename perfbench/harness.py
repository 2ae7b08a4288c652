"""Shared plumbing: paths, the unit loop, process control, memory and stats.

Everything here is measured from outside the program under test: wall
time with ``time.perf_counter``, CPU and peak memory with ``getrusage``
and ``/proc``, and the server only through its subprocess and its HTTP
endpoints.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import resource
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for checkpoints, server logs and span dumps (git-ignored).
WORK_ROOT = ROOT / ".perfbench_work"

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def source_present() -> bool:
    """True when the checkout holds the package the benchmark drives."""
    return (SRC / "repro" / "__init__.py").is_file()


def subprocess_env() -> dict:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    return env


class WorkDir:
    """A private scratch directory inside the checkout, removed on exit."""

    def __enter__(self) -> Path:
        WORK_ROOT.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
        return self.path

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


class GateFailure(Exception):
    """An output gate failed: the run is incorrect and must exit non-zero."""


def gate(condition: bool, message: str) -> None:
    """Fail the run when an output check does not hold."""
    if not condition:
        raise GateFailure(message)


@dataclass
class Outcome:
    """What one workload run hands back to the reporter.

    ``metrics`` maps BENCHMARK.json metric names to values; ``notes``
    holds further printed-only lines as ``(name, value, unit, detail)``.
    """

    attempted: int
    failed: int
    metrics: dict
    notes: list = field(default_factory=list)
    #: metric name -> printed detail (sample count, base of a ratio).
    details: dict = field(default_factory=dict)


def store_digest(store) -> str:
    """Content digest of a ResultStore, over exactly what ``save`` persists."""
    payload = json.dumps([result.to_dict() for result in store],
                         sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# -- timing ---------------------------------------------------------------


def run_units(seconds: float, unit, min_units: int = 1) -> tuple:
    """Run ``unit(i)`` back to back until ``seconds`` have elapsed.

    At least ``min_units`` units always run.  Returns the per-unit wall
    times, the per-unit outputs and the total wall time of the timed
    phase.
    """
    walls, outputs = [], []
    started = time.perf_counter()
    while True:
        unit_started = time.perf_counter()
        outputs.append(unit(len(walls)))
        walls.append(time.perf_counter() - unit_started)
        if (len(walls) >= min_units
                and time.perf_counter() - started >= seconds):
            break
    return walls, outputs, time.perf_counter() - started


def median_setup(repeats: int, setup) -> tuple:
    """Run ``setup()`` ``repeats`` times; returns (median seconds, last value)."""
    times, value = [], None
    for _ in range(repeats):
        started = time.perf_counter()
        value = setup()
        times.append(time.perf_counter() - started)
    return statistics.median(times), value


# -- resources --------------------------------------------------------------


def cpu_seconds() -> float:
    """User+system CPU of this process and every child it has waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb(live_pids=()) -> float:
    """Peak RSS of this process plus the largest peak among its children.

    Children already waited for are read from ``getrusage``; children
    still running (a server) from ``VmHWM`` in ``/proc``.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    for pid in live_pids:
        child = max(child, proc_memory_mb(pid)["VmHWM"])
    return own + child


def proc_memory_mb(pid: int) -> dict:
    """``VmRSS`` and ``VmHWM`` of a live process, in MiB."""
    values = {}
    with open(f"/proc/{pid}/status", encoding="ascii") as stream:
        for line in stream:
            key, _, rest = line.partition(":")
            if key in ("VmRSS", "VmHWM"):
                values[key] = int(rest.split()[0]) / 1024.0
    return values


def proc_cpu_seconds(pid: int) -> float:
    """User+system CPU of a live process (``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as stream:
        fields = stream.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


# -- the server subprocess ----------------------------------------------------


def _http_get_json(host: str, port: int, path: str, timeout: float = 10.0):
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()


class ServerProcess:
    """``repro serve --port 0`` in a subprocess, URL read from its banner."""

    BOOT_TIMEOUT = 60.0

    def __init__(self, platforms, seed: int, workdir: Path):
        self.platforms = list(platforms)
        self.seed = seed
        self.workdir = workdir
        self.process: subprocess.Popen | None = None
        self.url = ""
        self.host = ""
        self.port = 0
        self.boot_s = 0.0

    def start(self) -> "ServerProcess":
        """Boot the server and block until ``/health`` answers."""
        command = [sys.executable, "-m", "repro.cli", "serve",
                   "--port", "0", "--seed", str(self.seed)]
        for name in self.platforms:
            command += ["--platform", name]
        started = time.perf_counter()
        stderr = open(self.workdir / "server.stderr", "ab")
        try:
            self.process = subprocess.Popen(
                command, cwd=ROOT, env=subprocess_env(),
                stdout=subprocess.PIPE, stderr=stderr,
                stdin=subprocess.DEVNULL,
            )
        finally:
            stderr.close()
        try:
            banner = self._read_banner()
            self.url = banner.rsplit(" at ", 1)[1].strip()
            host_port = self.url.split("://", 1)[1]
            self.host, port = host_port.rsplit(":", 1)
            self.port = int(port)
            self._wait_healthy(started)
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - started
        return self

    def _read_banner(self) -> str:
        deadline = time.monotonic() + self.BOOT_TIMEOUT
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if selector.select(timeout=0.5):
                    line = self.process.stdout.readline().decode("utf-8")
                    if not line:
                        break
                    if line.startswith("serving "):
                        return line
                if self.process.poll() is not None:
                    break
        raise RuntimeError(
            f"server did not print its banner (exit {self.process.poll()}); "
            f"see {self.workdir / 'server.stderr'}"
        )

    def _wait_healthy(self, started: float) -> None:
        while time.perf_counter() - started < self.BOOT_TIMEOUT:
            try:
                status, _ = _http_get_json(self.host, self.port, "/health")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.002)
        raise RuntimeError("server never answered /health")

    def metrics_summary(self) -> tuple:
        """One ``/metrics/summary`` scrape: (document, seconds it took)."""
        started = time.perf_counter()
        status, body = _http_get_json(self.host, self.port, "/metrics/summary")
        elapsed = time.perf_counter() - started
        if status != 200:
            raise RuntimeError(f"/metrics/summary answered {status}")
        return body, elapsed

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self) -> None:
        """Interrupt the server (its clean shutdown path) and reap it."""
        process, self.process = self.process, None
        if process is None:
            return
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        if process.stdout is not None:
            process.stdout.close()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def server_op_totals(summary: dict) -> dict:
    """Per-operation (count, seconds) from a ``/metrics/summary`` document."""
    totals = {}
    for name, stats in summary.get("operations", {}).items():
        if not name.startswith("latency_samples."):
            continue
        count = int(stats.get("count", 0))
        totals[name.split(".", 1)[1]] = (count,
                                         count * float(stats.get("mean", 0.0)))
    return totals


def check_counters(summary: dict, logs, workload: str) -> None:
    """The server's per-operation counts must equal what clients observed.

    ``logs`` are the :class:`LatencyLog` of every client that talked to
    the server.
    """
    observed: dict = {}
    for log in logs:
        for key, count in log.counts().items():
            observed[key] = observed.get(key, 0) + count
    served = {
        (platform, operation): int(count)
        for platform, entry in summary.get("platforms", {}).items()
        for operation, count in entry.get("requests", {}).items()
    }
    gate(served == observed,
         f"{workload}: /metrics/summary counts {sorted(served.items())} "
         f"differ from client-observed {sorted(observed.items())}")


# -- the client-side timing proxy -------------------------------------------


PLATFORM_OPERATIONS = ("upload_dataset", "create_model", "get_model",
                       "await_model", "batch_predict", "delete_dataset")


class TimedClient:
    """Platform-surface proxy that records every call's round trip.

    ``record(platform, operation, started, ended, ok)`` receives each
    call: the untraced runs keep only the latency, the
    traced runs turn it into a span.  Everything else passes through.
    """

    def __init__(self, client, record):
        self._client = client
        self._record = record

    def __getattr__(self, name):
        target = getattr(self._client, name)
        if name not in PLATFORM_OPERATIONS:
            return target

        def timed(*args, **kwargs):
            started = time.perf_counter()
            ok = False
            try:
                result = target(*args, **kwargs)
                ok = True
                return result
            finally:
                self._record(self._client.name, name, started,
                             time.perf_counter(), ok)
        return timed


class LatencyLog:
    """Thread-safe per-operation latency samples and outcome counts."""

    def __init__(self):
        self._lock = threading.Lock()
        self.samples: dict = {}
        self.errors = 0

    def record(self, platform, operation, started, ended, ok) -> None:
        with self._lock:
            self.samples.setdefault((platform, operation), []).append(
                ended - started)
            if not ok:
                self.errors += 1

    def counts(self) -> dict:
        """``{(platform, operation): calls}`` as this client observed them."""
        with self._lock:
            return {key: len(values) for key, values in self.samples.items()}

    def latencies(self, operation: str) -> list:
        """Every recorded latency of ``operation``, across platforms."""
        with self._lock:
            return [value for (_, op), values in self.samples.items()
                    if op == operation for value in values]

    @property
    def total(self) -> int:
        return sum(self.counts().values())


# -- statistics ---------------------------------------------------------------


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile (``q`` in [0, 1])."""
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    low = int(rank)
    if low + 1 >= len(ordered):
        return float(ordered[-1])
    return float(ordered[low] + (rank - low) * (ordered[low + 1] - ordered[low]))


def reportable(values, q: float) -> bool:
    """A percentile is shown only with at least ten samples beyond it."""
    return len(values) * (1.0 - q) >= 10
