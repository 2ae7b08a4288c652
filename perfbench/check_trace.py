"""Traced ``repro check`` in a fresh interpreter (run by ``check.py``).

Usage: ``python perfbench/check_trace.py OUT.json`` from the checkout
root, with the checkout's ``src`` on ``PYTHONPATH``.  Records the import
of the CLI, the shared index build and each analyzer run as spans by
wrapping the module attributes ``repro.tools.check.runner`` calls, runs
``repro check src/repro --format json`` through the CLI entry point, and
writes the spans, the wall time and the report summary to ``OUT.json``.
"""

from __future__ import annotations

import io
import json
import sys
import time
from contextlib import ExitStack

from spans import Tracer, patched

RUNNERS = {"_run_lint_shared": "tools.lint", "run_flow": "tools.flow",
           "run_race": "tools.race", "run_perf": "tools.perf",
           "run_shape": "tools.shape", "run_wire": "tools.wire",
           "load_indexed_project": "tools.index"}


def main(out_path: str) -> int:
    tracer = Tracer()
    started = time.perf_counter()
    with tracer.span("tools.import"):
        import repro.cli
        import repro.tools.check.runner as runner
    out = io.StringIO()
    with tracer.span("tools.check"), ExitStack() as stack:
        for attribute, name in RUNNERS.items():
            stack.enter_context(patched(
                runner, attribute,
                tracer.wrap(name, getattr(runner, attribute))))
        exit_code = repro.cli.main(["check", "src/repro",
                                    "--format", "json"], out=out)
    wall = time.perf_counter() - started
    summary = json.loads(out.getvalue())["summary"]
    with open(out_path, "w", encoding="utf-8") as stream:
        json.dump({"exit_code": exit_code, "summary": summary, "wall": wall,
                   "spans": tracer.spans}, stream)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
