"""One driver for the six analyzers: a registry, one run, one command line.

``repro lint``, ``flow``, ``race``, ``perf``, ``shape`` and ``wire``
differ only in their rules, in the shared model those rules read off
the memoized :class:`~repro.tools.indexing.IndexedProject`, and in the
checked-in spec (if any) they compare against.  :data:`ANALYZERS` holds
exactly those differences, and everything else is written once:

* :func:`analyze` loads the project, binds the analyzer's model onto its
  rules and runs the engine's rule loop,
  :func:`~repro.tools.lint.engine.run_rules`;
* :func:`configure_parser` and :func:`run_command` are the command line
  of every analyzer (``repro <tool>`` and ``python -m
  repro.tools.<tool>``) on the exit-code taxonomy of
  :mod:`repro.tools.exitcodes`;
* :func:`known_codes` is the suppression vocabulary all six accept.

``repro check`` (:mod:`repro.tools.check`) runs the registry over one
shared parse and reuses this module's parser and path checks.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Callable, Sequence

from repro.tools.exitcodes import EXIT_CLEAN, EXIT_USAGE, run_guarded
from repro.tools.flow import apispec
from repro.tools.flow.rules import default_flow_rules
from repro.tools.indexing import (
    IndexedProject,
    detect_context_paths,
    load_indexed_project,
)
from repro.tools.lint.engine import (
    ENGINE_CODE,
    LintResult,
    run_rules,
    write_spec,
)
from repro.tools.lint.reporters import REPORTERS
from repro.tools.lint.rules import default_rules
from repro.tools.perf import complexity
from repro.tools.perf.report import (
    load_profile,
    rank_hotspots,
    render_hotspots,
)
from repro.tools.perf.rules import default_perf_rules
from repro.tools.race.rules import default_race_rules
from repro.tools.shape import contracts
from repro.tools.shape.rules import default_shape_rules
from repro.tools.wire import spec as wire_spec
from repro.tools.wire.rules import default_wire_rules

__all__ = [
    "ANALYZERS",
    "Analyzer",
    "DEFAULT_TARGET",
    "add_subcommands",
    "analyze",
    "NO_FILES",
    "build_parser",
    "configure_parser",
    "known_codes",
    "main",
    "missing_path",
    "run_command",
    "usage_error",
]

#: Default analysis target: the package's own source tree.
DEFAULT_TARGET = Path(__file__).resolve().parents[1]

#: The usage error of a run that found nothing to analyze.
NO_FILES = "no python files found under the given paths"


@dataclass(frozen=True)
class Analyzer:
    """What one analyzer adds to the shared driver."""

    name: str
    #: One line: the subcommand help and the standalone parser description.
    description: str
    #: ``rules()`` -> one unbound instance of every rule, in code order.
    rules: Callable
    #: ``model(loaded)`` -> the shared model the rules read, or None when
    #: they read only the parsed project (lint: no index, no context).
    model: Callable | None = None
    #: The rule attribute the model is bound on.
    bind: str = ""
    #: The checked-in spec the rules compare against (``--spec``).
    spec_path: Path | None = None
    #: ``write_spec(loaded, path)`` -> status line, for ``--update-spec``.
    write_spec: Callable | None = None
    #: ``add_options(parser)``: analyzer-specific options.
    add_options: Callable | None = None
    #: ``prepare(args)`` -> ``finish(result, out)``, run after the report.
    #: It runs before any analysis and rejects a bad option value the
    #: way an argparse ``type`` does, by raising ``ValueError``.
    prepare: Callable | None = None


def _write_api_spec(loaded: IndexedProject, path: Path) -> str:
    apispec.write_spec(apispec.extract_surface(loaded.index), path)
    return (f"wrote API surface of {len(loaded.index.modules)} modules "
            f"to {path}")


def _write_complexity_spec(loaded: IndexedProject, path: Path) -> str:
    spec = complexity.derive_complexity(loaded.loop_model())
    write_spec(path, complexity.render_spec(spec))
    return f"wrote derived complexity of {len(spec)} estimator(s) to {path}"


def _write_contracts_spec(loaded: IndexedProject, path: Path) -> str:
    spec = contracts.derive_contracts(loaded.shape_model())
    write_spec(path, contracts.render_spec(spec))
    return (f"wrote derived array contracts of {len(spec)} estimator(s) "
            f"to {path}")


def _write_wire_spec(loaded: IndexedProject, path: Path) -> str:
    spec = wire_spec.derive_wire_spec(loaded.wire_model())
    write_spec(path, wire_spec.render_spec(spec))
    return (f"wrote derived wire contract ({len(spec['routes'])} "
            f"route(s), {len(spec['client'])} client method(s), "
            f"{len(spec['errors'])} error kind(s)) to {path}")


def _hotspot_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--top", type=int, metavar="N", default=0,
        help="append a ranked top-N hotspot section to the text report",
    )
    parser.add_argument(
        "--profile", type=Path, metavar="JSON",
        help="cProfile-derived JSON (see repro.tools.perf.report) used "
             "to re-rank the hotspot section by observed time",
    )


def _hotspot_section(args: argparse.Namespace) -> Callable:
    profile = None
    if args.profile is not None:
        try:
            profile = load_profile(args.profile)
        except (OSError, ValueError) as exc:
            raise ValueError(
                f"could not read profile {args.profile}: {exc}") from exc

    def finish(result: LintResult, out) -> None:
        if args.top > 0 and args.format == "text":
            ranked = rank_hotspots(result.violations, profile=profile)
            render_hotspots(ranked, args.top, out)

    return finish


#: The six analyzers, in suite order (lint first: its R-codes anchor the
#: suppression vocabulary the others extend).
ANALYZERS = {analyzer.name: analyzer for analyzer in (
    Analyzer("lint", "check the source against the reproduction "
                     "invariants", default_rules),
    Analyzer("flow", "project-wide data-flow & architecture analysis",
             default_flow_rules, model=attrgetter("index"),
             bind="index", spec_path=apispec.DEFAULT_SPEC_PATH,
             write_spec=_write_api_spec),
    Analyzer("race", "static concurrency & shared-state analysis",
             default_race_rules, model=IndexedProject.concurrency_model,
             bind="con"),
    Analyzer("perf", "static complexity & hot-path analysis",
             default_perf_rules, model=IndexedProject.loop_model,
             bind="model", spec_path=complexity.DEFAULT_SPEC_PATH,
             write_spec=_write_complexity_spec,
             add_options=_hotspot_options, prepare=_hotspot_section),
    Analyzer("shape", "static array shape, dtype & aliasing analysis",
             default_shape_rules, model=IndexedProject.shape_model,
             bind="model", spec_path=contracts.DEFAULT_SPEC_PATH,
             write_spec=_write_contracts_spec),
    Analyzer("wire", "static wire-contract, error-taxonomy & "
                     "resource-lifecycle analysis",
             default_wire_rules, model=IndexedProject.wire_model,
             bind="model", spec_path=wire_spec.DEFAULT_SPEC_PATH,
             write_spec=_write_wire_spec),
)}


def known_codes() -> set:
    """Every registered analyzer's rule codes, plus the engine's own.

    One comment syntax serves all six analyzers in one tree, so each
    accepts the others' codes and still flags a code nobody owns.
    """
    return {rule.code for analyzer in ANALYZERS.values()
            for rule in analyzer.rules()} | {ENGINE_CODE}


def _load(analyzer: Analyzer, paths: Sequence, root: Path | None,
          context_paths: Sequence | None) -> IndexedProject:
    if context_paths is None:
        # Context modules only feed the flow index, which lint never reads.
        context_paths = detect_context_paths(paths) if analyzer.model else ()
    return load_indexed_project(paths, root=root,
                                context_paths=context_paths)


def analyze(
    name: str,
    paths: Sequence,
    rules: Sequence | None = None,
    root: Path | None = None,
    context_paths: Sequence | None = None,
    spec_path: Path | None = None,
) -> LintResult:
    """Run analyzer ``name`` over ``paths``; every ``run_<tool>`` lands here.

    ``rules=None`` runs every rule of the analyzer; a subset may come
    bound to a model or not — unbound rules get the shared one.
    ``context_paths=None`` auto-detects sibling benchmarks/examples/tests
    (see :func:`~repro.tools.indexing.detect_context_paths`); pass ``()``
    to analyze in isolation.  ``spec_path`` points the spec rules at an
    alternate checked-in spec (default: the real one).
    """
    analyzer = ANALYZERS[name]
    loaded = _load(analyzer, paths, root, context_paths)
    if rules is None:
        rules = analyzer.rules()
    if analyzer.model is not None:
        model = analyzer.model(loaded)
        for rule in rules:
            if getattr(rule, analyzer.bind, None) is None:
                setattr(rule, analyzer.bind, model)
    if spec_path is not None:
        for rule in rules:
            if hasattr(rule, "spec_path"):
                rule.spec_path = spec_path
    return run_rules(rules, loaded.project, loaded.parse_violations,
                     loaded.n_files)


def configure_parser(parser: argparse.ArgumentParser,
                     analyzer: Analyzer | None = None,
                     ) -> argparse.ArgumentParser:
    """Attach the shared options, plus ``analyzer``'s own when given.

    Without an analyzer this is the common core ``repro check`` extends.
    """
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories to analyze (default: the repro package)",
    )
    parser.add_argument(
        "--format", choices=sorted(REPORTERS), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--show-suppressed", action="store_true",
        help="include justified suppressions in the report",
    )
    if analyzer is None:
        return parser
    parser.set_defaults(analyzer=analyzer.name, tool_command=run_command)
    parser.add_argument(
        "--list-rules", action="store_true",
        help=f"print the {analyzer.name} rule codes and exit",
    )
    if analyzer.spec_path is not None:
        parser.add_argument(
            "--spec", type=Path, metavar="PATH", default=analyzer.spec_path,
            help="spec to check against (default: the checked-in "
                 f"{analyzer.spec_path.name})",
        )
        parser.add_argument(
            "--update-spec", action="store_true",
            help="rewrite the spec from the analyzed tree instead of "
                 "checking against it",
        )
    if analyzer.add_options is not None:
        analyzer.add_options(parser)
    return parser


def build_parser(name: str) -> argparse.ArgumentParser:
    """The standalone parser for ``python -m repro.tools.<name>``."""
    analyzer = ANALYZERS[name]
    parser = argparse.ArgumentParser(prog=f"repro {name}",
                                     description=analyzer.description)
    return configure_parser(parser, analyzer)


def add_subcommands(subparsers) -> None:
    """Register the six analyzers and ``repro check`` on ``repro``.

    Each subparser stores its command function as ``tool_command``.
    """
    from repro.tools.check import cli as check_cli

    for analyzer in ANALYZERS.values():
        configure_parser(subparsers.add_parser(
            analyzer.name, help=analyzer.description), analyzer)
    check_cli.configure_parser(subparsers.add_parser(
        "check", help=check_cli.DESCRIPTION))


def usage_error(message: str) -> int:
    """Report an unusable invocation on stderr; returns the exit code."""
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def missing_path(paths: Sequence) -> Path | None:
    """The first of ``paths`` that does not exist, if any."""
    return next((path for path in paths if not Path(path).exists()), None)


def run_command(args: argparse.Namespace, out=None) -> int:
    """Execute one parsed analyzer invocation; returns the exit code."""
    out = out or sys.stdout
    analyzer = ANALYZERS[args.analyzer]
    if args.list_rules:
        for rule in analyzer.rules():
            print(f"{rule.code}  {rule.name:<22} {rule.description}",
                  file=out)
        return EXIT_CLEAN
    paths = args.paths or [DEFAULT_TARGET]
    if (missing := missing_path(paths)) is not None:
        return usage_error(f"no such file or directory: {missing}")
    try:
        finish = analyzer.prepare(args) if analyzer.prepare else None
    except ValueError as exc:
        return usage_error(str(exc))
    if getattr(args, "update_spec", False):
        loaded = _load(analyzer, paths, Path.cwd(), None)
        if loaded.n_files == 0:
            return usage_error(NO_FILES)
        print(analyzer.write_spec(loaded, args.spec), file=out)
        return EXIT_CLEAN

    result = analyze(analyzer.name, paths, root=Path.cwd(),
                     spec_path=getattr(args, "spec", None))
    if result.n_files == 0:
        return usage_error(NO_FILES)
    print(REPORTERS[args.format](result, show_suppressed=args.show_suppressed),
          file=out)
    if finish is not None:
        finish(result, out)
    return result.exit_code


def main(name: str, argv=None, out=None) -> int:
    """Entry point for ``python -m repro.tools.<name>``."""
    return run_guarded(run_command, build_parser(name).parse_args(argv),
                       out=out)
