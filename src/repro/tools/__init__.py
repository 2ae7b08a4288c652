"""Developer tooling for the reproduction.

``repro.tools.lint``
    AST-based invariant checker (``repro lint``) enforcing the
    reproduction's contracts: determinism, the estimator protocol,
    Table 1 conformance, exception hygiene and export sync.

``repro.tools.flow``
    Project-wide data-flow & architecture analyzer (``repro flow``):
    layering DAG, leakage taint, seed flow, dead code, API drift.

``repro.tools.race``
    Static concurrency & shared-state analyzer (``repro race``): lock
    ordering, unguarded shared writes, check-then-act races,
    process-boundary captures, blocking under locks, shared RNGs.

``repro.tools.perf``
    Static complexity & hot-path analyzer (``repro perf``): axis loops,
    quadratic growth, invariant calls, uncached refits, complexity-spec
    conformance, hot-loop allocations.

``repro.tools.shape``
    Static array shape, dtype & aliasing analyzer (``repro shape``):
    shape algebra, dtype stability, alias mutation, substrate access,
    array-contract conformance, boundary validation.

``repro.tools.wire``
    Static wire-contract, error-taxonomy & resource-lifecycle analyzer
    (``repro wire``): route conformance, taxonomy completeness,
    lifecycles, encode safety, blocking handlers, metrics drift.

``repro.tools.check``
    All six analyzers in one process over one shared parse
    (``repro check``), with a merged report and the worst exit code.

``repro.tools.driver``
    The registry of the six analyzers and the one driver they share:
    the rule run, the command line, the suppression vocabulary.

``repro.tools.indexing``
    Memoized project loading shared by the analyzers, so one process
    running several tools parses and indexes the tree exactly once.

``repro.tools.exitcodes``
    The exit-code taxonomy (clean / findings / usage / crash) every
    analyzer CLI reports through.
"""

from repro.tools.exitcodes import run_guarded
from repro.tools.lint import (
    LintResult,
    Violation,
    lint_paths,
    lint_source,
)
from repro.tools.perf import perf_paths
from repro.tools.race import race_paths

__all__ = [
    "LintResult",
    "Violation",
    "lint_paths",
    "lint_source",
    "perf_paths",
    "race_paths",
    "run_guarded",
]
