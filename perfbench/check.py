"""``check``: ``repro check`` over ``src/repro`` in a fresh process.

The six static analyzers over one shared parse, exactly as CI and
developers run it (``python -m repro.cli check src/repro``, context
directories detected by the tool).  The ``tools`` package is measured
nowhere else.  The input is the checkout's own source tree, so the seed
changes nothing here.

Gate: exit code 0 and no crashed analyzer.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import (
    ROOT,
    SRC,
    Outcome,
    cpu_seconds,
    gate,
    median_setup,
    peak_rss_mb,
    run_units,
    subprocess_env,
)
from spans import Tracer, accounting, overhead

SETUP_REPEATS = 3
#: One check takes longer than a run's seconds.  On a shared 2-core host
#: back-to-back checks of the same tree took 12.8-17.9 s (a fixed pure
#: Python loop timed alongside varied as much), so every run reports the
#: median of four.
MIN_CHECKS = 4
TARGET = "src/repro"
TOOLS = ("lint", "flow", "race", "perf", "shape", "wire")


def _python(args: list, timeout: float = 170.0) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT,
                          env=subprocess_env(), capture_output=True,
                          text=True, timeout=timeout, check=False)


def _check_once(_=None) -> dict:
    """One ``repro check`` process; returns its JSON summary."""
    completed = _python(["-m", "repro.cli", "check", TARGET,
                         "--format", "json"])
    try:
        summary = json.loads(completed.stdout)["summary"]
    except (json.JSONDecodeError, KeyError):
        raise RuntimeError(
            f"repro check exited {completed.returncode} without a JSON "
            f"report: {completed.stderr[-2000:]}") from None
    _gate(completed.returncode, summary)
    return summary


def _gate(returncode: int, summary: dict) -> None:
    gate(returncode == 0 and summary["exit_code"] == 0,
         f"check: repro check exited {returncode} with "
         f"{summary['violations']} violations")
    gate(not summary["crashed"],
         f"check: analyzers crashed: {summary['crashed']}")


def source_lines() -> int:
    """Lines of Python under the analysed target."""
    return sum(len(path.read_bytes().splitlines())
               for path in (SRC / "repro").rglob("*.py"))


def run(seed: int, seconds: float, workdir: Path) -> Outcome:
    setup_s, _ = median_setup(
        SETUP_REPEATS, lambda: _python(["-c", "import repro.cli"]))
    cpu_before = cpu_seconds()
    walls, summaries, _ = run_units(seconds, _check_once, MIN_CHECKS)
    cpu = cpu_seconds() - cpu_before
    peak = peak_rss_mb()
    files = summaries[0]["files"]
    wall = statistics.median(walls)
    return Outcome(
        attempted=len(TOOLS) * len(walls), failed=0,
        metrics={
            "setup_s": setup_s,
            "wall_s": wall,
            "throughput_per_s": files / wall,
            "peak_rss_mb": peak,
        },
        details={
            "setup_s": f"median of {SETUP_REPEATS} fresh `import repro.cli`",
            "wall_s": f"median of {len(walls)} `repro check` processes",
            "throughput_per_s": f"files analysed per check: {files} "
                                f"over the median wall {wall:.3f} s",
        },
        notes=[
            ("cpu_s", cpu / len(walls), "s", "CPU per check process"),
            ("tools.files", summaries[0]["files"], "count",
             f"{source_lines()} lines under {TARGET}"),
            ("suppressed findings", summaries[0]["suppressed"], "count", ""),
        ],
    )


def run_traced(seed: int, seconds: float, workdir: Path, tracer: Tracer) -> Outcome:
    started = time.perf_counter()
    _check_once()
    untraced_wall = time.perf_counter() - started

    dump = workdir / "check-trace.json"
    started = time.perf_counter()
    completed = _python([str(Path(__file__).with_name("check_trace.py")),
                         str(dump)])
    traced_wall = time.perf_counter() - started
    if completed.returncode != 0 or not dump.is_file():
        raise RuntimeError(f"traced check failed: {completed.stderr[-2000:]}")
    traced = json.loads(dump.read_text(encoding="utf-8"))
    _gate(traced["exit_code"], traced["summary"])
    tracer.spans = traced["spans"]

    metrics = {
        "tools.import_s": tracer.total("tools.import"),
        "tools.index_s": tracer.total("tools.index"),
        "tools.files": traced["summary"]["files"],
        "tools.lines": source_lines(),
    }
    for tool in TOOLS:
        metrics[f"tools.{tool}_s"] = tracer.total(f"tools.{tool}")
    metrics.update(accounting(tracer, traced["wall"], workers=1))
    # Overhead compares whole processes: traced vs plain `repro check`.
    metrics.update(overhead(traced_wall, untraced_wall))
    return Outcome(
        attempted=len(TOOLS), failed=len(traced["summary"]["crashed"]),
        metrics=metrics,
        details={
            "trace.overhead_share": f"base: untraced `repro check` "
                                    f"{untraced_wall:.3f} s",
            "trace.accounted_share": f"busy over {traced['wall']:.3f} s "
                                     "inside the traced process",
        },
    )
