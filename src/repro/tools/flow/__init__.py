"""``repro flow`` — project-wide data-flow & architecture analyzer.

Where ``repro lint`` checks files one at a time, ``repro flow`` parses the
whole project into shared indexes (symbol table, import graph, approximate
call graph — see :mod:`repro.tools.flow.graph`) and runs five cross-module
rule families over them:

* **F101 layering** — the dependency DAG in
  :mod:`repro.tools.flow.layers_spec` (no upward imports, no import-time
  cycles);
* **F102 leakage-taint** — values derived from held-out test folds never
  reach ``fit``/``fit_transform`` through any interprocedural path;
* **F103 seed-flow** — callers holding a ``random_state``/``seed`` thread
  it into every stochastic callee (R001 across call boundaries);
* **F104 dead-code** — module-level symbols are reachable from
  ``__all__``, the CLI, benchmarks, examples, or tests;
* **F105 api-drift** — the exported API surface matches the checked-in
  ``api_spec.json`` (update with ``repro flow --update-spec``).

Importable API::

    from repro.tools.flow import flow_paths
    result = flow_paths(["src/repro"])
    assert result.exit_code == 0, result.violations

Command line::

    repro flow [PATHS...] [--format text|json] [--update-spec]
    python -m repro.tools.flow

Suppressions share the lint engine's comment syntax::

    tricky()  # repro: disable=F102 -- calibration split, not evaluation
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from repro.tools.flow.graph import FlowIndex, build_index
from repro.tools.flow.layers_spec import LAYERS, Layer, layer_of
from repro.tools.flow.rules import default_flow_rules
from repro.tools.indexing import build_flow_index
from repro.tools.lint.engine import LintResult

__all__ = [
    "FlowIndex",
    "LAYERS",
    "Layer",
    "LintResult",
    "build_flow_index",
    "build_index",
    "default_flow_rules",
    "flow_paths",
    "layer_of",
    "run_flow",
]


def run_flow(
    paths: Sequence,
    rules: Sequence | None = None,
    root: Path | None = None,
    spec_path: Path | None = None,
    context_paths: Sequence | None = None,
) -> LintResult:
    """Run the F-rules; see :func:`repro.tools.driver.analyze`.

    ``spec_path`` overrides where F105 reads ``api_spec.json``.
    """
    from repro.tools.driver import analyze

    return analyze("flow", paths, rules=rules, root=root,
                   context_paths=context_paths, spec_path=spec_path)


flow_paths = run_flow
