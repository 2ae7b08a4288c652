"""Command-line front end: ``repro check`` / ``python -m repro.tools.check``.

One invocation, six analyzers, one parse.  The merged report nests
each tool's familiar payload under its name, and the exit code is the
worst across the suite on the shared 0/1/2/3 taxonomy (a crashed tool
contributes 3 without silencing the others).  ``--artifacts-dir``
additionally writes the per-tool JSON reports CI used to produce with
six separate steps.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.tools import driver
from repro.tools.check.runner import TOOL_NAMES, run_check
from repro.tools.exitcodes import EXIT_CRASH, run_guarded
from repro.tools.lint.reporters import render_json, render_text

__all__ = [
    "DESCRIPTION",
    "build_parser",
    "configure_parser",
    "main",
    "run_check_command",
]

#: The subcommand help and the standalone parser description.
DESCRIPTION = "run all six static analyzers over one shared parse"


def configure_parser(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Attach the check arguments to ``parser`` (shared with ``repro.cli``)."""
    driver.configure_parser(parser)
    parser.set_defaults(tool_command=run_check_command)
    parser.add_argument(
        "--tools", metavar="NAMES",
        help="comma-separated subset of analyzers to run "
             f"(default: {','.join(TOOL_NAMES)})",
    )
    parser.add_argument(
        "--artifacts-dir", type=Path, metavar="DIR",
        help="also write per-tool JSON reports (<tool>-report.json) "
             "into DIR",
    )
    return parser


def build_parser() -> argparse.ArgumentParser:
    """Build the standalone parser for ``python -m repro.tools.check``."""
    parser = argparse.ArgumentParser(prog="repro check",
                                     description=DESCRIPTION)
    return configure_parser(parser)


def _tool_payload(report, name, show_suppressed: bool) -> dict:
    if name in report.crashes:
        return {
            "error": report.crashes[name],
            "summary": {"exit_code": EXIT_CRASH},
        }
    return json.loads(render_json(report.results[name],
                                  show_suppressed=show_suppressed))


def _merged_json(report, show_suppressed: bool) -> str:
    tools = {
        name: _tool_payload(report, name, show_suppressed)
        for name in (*report.results, *report.crashes)
    }
    payload = {
        "tools": tools,
        "summary": {
            "files": report.n_files,
            "violations": sum(len(r.unsuppressed)
                              for r in report.results.values()),
            "suppressed": sum(len(r.suppressed)
                              for r in report.results.values()),
            "crashed": sorted(report.crashes),
            "exit_code": report.exit_code,
        },
    }
    return json.dumps(payload, indent=2, sort_keys=False)


def _merged_text(report, show_suppressed: bool) -> str:
    sections = []
    for name, result in report.results.items():
        sections.append(f"== repro {name} ==")
        sections.append(render_text(result,
                                    show_suppressed=show_suppressed))
    for name in report.crashes:
        sections.append(f"== repro {name} ==")
        sections.append(f"CRASHED:\n{report.crashes[name]}")
    total = sum(len(r.unsuppressed) for r in report.results.values())
    suppressed = sum(len(r.suppressed) for r in report.results.values())
    crashed = f", {len(report.crashes)} tool(s) crashed" \
        if report.crashes else ""
    sections.append(
        f"check: {total} violation{'s' if total != 1 else ''} "
        f"({suppressed} suppressed) in {report.n_files} "
        f"file{'s' if report.n_files != 1 else ''} across "
        f"{len(report.results)} analyzer(s){crashed}"
    )
    return "\n".join(sections)


def _write_artifacts(report, directory: Path, show_suppressed: bool,
                     out) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name in (*report.results, *report.crashes):
        path = directory / f"{name}-report.json"
        payload = _tool_payload(report, name, show_suppressed)
        path.write_text(json.dumps(payload, indent=2) + "\n",
                        encoding="utf-8")
        print(f"wrote {path}", file=out)


def run_check_command(args: argparse.Namespace, out=None) -> int:
    """Execute a parsed check invocation; returns the exit code."""
    out = out or sys.stdout
    paths = args.paths or [driver.DEFAULT_TARGET]
    if (missing := driver.missing_path(paths)) is not None:
        return driver.usage_error(f"no such file or directory: {missing}")
    tools = None
    if args.tools is not None:
        tools = [name.strip() for name in args.tools.split(",")
                 if name.strip()]
    try:
        report = run_check(paths, root=Path.cwd(), tools=tools)
    except ValueError as exc:  # an empty or unknown --tools selection
        return driver.usage_error(str(exc))
    if report.n_files == 0:
        return driver.usage_error(driver.NO_FILES)
    if args.artifacts_dir is not None:
        _write_artifacts(report, args.artifacts_dir,
                         args.show_suppressed, out)
    renderer = _merged_json if args.format == "json" else _merged_text
    print(renderer(report, args.show_suppressed), file=out)
    return report.exit_code


def main(argv=None, out=None) -> int:
    """Entry point for ``python -m repro.tools.check``."""
    args = build_parser().parse_args(argv)
    return run_guarded(run_check_command, args, out=out)
