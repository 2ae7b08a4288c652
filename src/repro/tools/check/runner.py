"""Driver for one ``repro check`` run: all six analyzers, one parse.

``repro check`` exists so CI (and a developer's pre-push loop) pays
for the project parse and the flow index exactly once: every analyzer
goes through the memoized :mod:`repro.tools.indexing` facade, so the
lint pass below and the five cross-module runners all see the same
cached :class:`~repro.tools.indexing.IndexedProject`, and the perf,
shape and wire models are each built once on that shared entry.

A tool that crashes is isolated: its traceback is captured on the
report (and mapped to exit 3 in the merged exit code) while the other
tools still run, so one analyzer bug never hides another analyzer's
findings.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.tools.driver import ANALYZERS
from repro.tools.exitcodes import EXIT_CRASH
from repro.tools.flow import run_flow
from repro.tools.indexing import detect_context_paths, load_indexed_project
from repro.tools.lint.engine import LintResult, run_rules
from repro.tools.lint.rules import default_rules
from repro.tools.perf import run_perf
from repro.tools.race import run_race
from repro.tools.shape import run_shape
from repro.tools.wire import run_wire

__all__ = [
    "CheckReport",
    "TOOL_NAMES",
    "run_check",
]

#: The six registered analyzers, in suite order.
TOOL_NAMES = tuple(ANALYZERS)


@dataclass
class CheckReport:
    """Per-tool results of one ``repro check`` run."""

    #: tool name -> :class:`LintResult`, in :data:`TOOL_NAMES` order.
    results: dict = field(default_factory=dict)
    #: tool name -> formatted traceback for tools that crashed.
    crashes: dict = field(default_factory=dict)
    n_files: int = 0

    @property
    def exit_code(self) -> int:
        """Worst exit code across the tools (a crash dominates)."""
        code = 0
        for result in self.results.values():
            code = max(code, result.exit_code)
        if self.crashes:
            code = max(code, EXIT_CRASH)
        return code


def _run_lint_shared(loaded) -> LintResult:
    """The lint pass over the already-parsed shared project."""
    return run_rules(default_rules(), loaded.project,
                     loaded.parse_violations, loaded.n_files)


def run_check(
    paths: Sequence,
    root: Path | None = None,
    context_paths: Sequence | None = None,
    tools: Sequence | None = None,
) -> CheckReport:
    """Run every analyzer over ``paths`` sharing one parsed index.

    ``tools`` restricts the run to a subset of :data:`TOOL_NAMES`
    (order is normalized to suite order); an empty selection or an
    unknown name raises ``ValueError``, since running nothing would
    pass vacuously.  The shared project is loaded first, so every
    tool's run is a cache hit.  Each tool is called through this
    module's globals, so a tracer can wrap them.
    """
    if tools is not None:
        choices = f"(choose from {', '.join(TOOL_NAMES)})"
        if not tools:
            raise ValueError(f"--tools names no analyzer {choices}")
        unknown = sorted(set(tools) - set(TOOL_NAMES))
        if unknown:
            raise ValueError(
                f"unknown analyzer(s): {', '.join(unknown)} {choices}")
    if context_paths is None:
        context_paths = detect_context_paths(paths)
    selected = TOOL_NAMES if tools is None else tuple(
        name for name in TOOL_NAMES if name in set(tools)
    )
    loaded = load_indexed_project(paths, root=root,
                                  context_paths=context_paths)

    runners = {
        "lint": lambda: _run_lint_shared(loaded),
        "flow": lambda: run_flow(paths, root=root,
                                 context_paths=context_paths),
        "race": lambda: run_race(paths, root=root,
                                 context_paths=context_paths),
        "perf": lambda: run_perf(paths, root=root,
                                 context_paths=context_paths),
        "shape": lambda: run_shape(paths, root=root,
                                   context_paths=context_paths),
        "wire": lambda: run_wire(paths, root=root,
                                 context_paths=context_paths),
    }
    report = CheckReport(n_files=loaded.n_files)
    for name in selected:
        try:
            report.results[name] = runners[name]()
        except Exception:
            report.crashes[name] = traceback.format_exc()
    return report
