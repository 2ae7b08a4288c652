"""Shared, cached project loading for the static-analysis tools.

``repro lint``, ``repro flow``, ``repro race``, ``repro perf``,
``repro shape``, and ``repro wire`` all
start the same way: discover the Python files, parse each one exactly
once, and (for the cross-module analyzers) build the shared
:class:`~repro.tools.flow.graph.FlowIndex` of symbols, imports, and
calls.  When the analyzers run from one process — the combined CI job,
the dogfood test gates, or a ``repro flow && repro race`` script driving
them through the Python API — rebuilding those indexes per tool doubles
or triples the dominant cost of a run.

This module is the memoizing facade in front of that work: an
:class:`IndexedProject` bundles the parsed project, its parse-failure
violations, and the flow index, keyed by a *content fingerprint* of the
analyzed files (resolved path, mtime, size).  Editing any analyzed file
invalidates the entry, so a long-lived test session never sees a stale
index, while back-to-back flow and race runs over the same tree share
one parse and one index build.  The flow index and every analyzer model
are built on first use, so a ``repro lint`` run, which reads only the
parsed project, never pays for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.tools.lint.engine import (
    Project,
    iter_python_files,
    load_module,
)

__all__ = [
    "CONTEXT_DIR_NAMES",
    "IndexedProject",
    "build_flow_index",
    "clear_index_cache",
    "detect_context_paths",
    "index_cache_info",
    "load_indexed_project",
]

#: Sibling directories of the analyzed package that count as liveness
#: roots for F104 (they consume the API without being part of it).
CONTEXT_DIR_NAMES = ("benchmarks", "examples", "tests")

#: Upper bound on memoized projects; the cache resets past this to keep
#: long pytest sessions (many fixture mini-trees) from accumulating ASTs.
_CACHE_LIMIT = 8

_CACHE: dict = {}
_STATS = {"hits": 0, "misses": 0}


@dataclass
class IndexedProject:
    """One parsed project plus the indexes every analyzer shares.

    The flow index and the analyzer models are built lazily and memoized
    on the entry, so repeated runs over an unchanged tree share them the
    way all tools share the parse.  Their imports are deferred: only the
    runs that read a model pay for it, and the analyzer packages can
    import this facade without a cycle.
    """

    project: Project
    parse_violations: list = field(default_factory=list)
    n_files: int = 0
    #: Benchmark/example/test modules parsed alongside the project.
    context_modules: list = field(default_factory=list)
    _built: dict = field(default_factory=dict, repr=False)

    def _memoized(self, name: str, build):
        if name not in self._built:
            self._built[name] = build()
        return self._built[name]

    @property
    def index(self):
        """The shared :class:`~repro.tools.flow.graph.FlowIndex`."""
        from repro.tools.flow.graph import build_index

        return self._memoized("index", lambda: build_index(
            self.project, context_modules=self.context_modules))

    def concurrency_model(self):
        """The race analyzer's concurrency index."""
        from repro.tools.race.concurrency import build_concurrency

        return self._memoized("concurrency",
                              lambda: build_concurrency(self.index))

    def loop_model(self):
        """The perf analyzer's loop-nest model."""
        from repro.tools.perf.loops import build_loop_model

        return self._memoized("loop", lambda: build_loop_model(self.index))

    def shape_model(self):
        """The shape analyzer's array-fact model."""
        from repro.tools.shape.arrays import build_shape_model

        return self._memoized("shape",
                              lambda: build_shape_model(self.index))

    def wire_model(self):
        """The wire analyzer's contract model.

        It consumes :meth:`shape_model` for W504's dtype facts, so one
        wire run warms both.
        """
        from repro.tools.wire.wiremodel import build_wire_model

        return self._memoized("wire", lambda: build_wire_model(
            self.index, self.shape_model()))


def detect_context_paths(paths: Sequence) -> list:
    """Locate benchmarks/examples/tests next to the analyzed tree.

    Walks up from the first analyzed path to the enclosing project root
    (marked by ``pyproject.toml``) and returns whichever of
    :data:`CONTEXT_DIR_NAMES` exist there.  Returns ``[]`` when no project
    root is found, so fixture trees analyzed in isolation get no implicit
    context.
    """
    for raw in paths:
        start = Path(raw).resolve()
        if start.is_file():
            start = start.parent
        for candidate in (start, *start.parents):
            if (candidate / "pyproject.toml").is_file():
                return [
                    candidate / name
                    for name in CONTEXT_DIR_NAMES
                    if (candidate / name).is_dir()
                ]
    return []


def _stat_entries(paths: Sequence) -> tuple:
    entries = []
    for path in iter_python_files(paths):
        stat = path.stat()
        entries.append((str(path.resolve()), stat.st_mtime_ns, stat.st_size))
    return tuple(entries)


def _fingerprint(paths: Sequence, root: Path | None,
                 context_paths: Sequence) -> tuple:
    return (
        _stat_entries(paths),
        _stat_entries(context_paths),
        str(Path(root).resolve()) if root is not None else None,
    )


def load_indexed_project(
    paths: Sequence,
    root: Path | None = None,
    context_paths: Sequence = (),
) -> IndexedProject:
    """Parse ``paths`` (+ context) once and memoize the shared indexes.

    ``context_paths`` must already be resolved by the caller (see
    :func:`detect_context_paths`); pass ``()`` to analyze in isolation.
    Two calls with identical arguments and unchanged files return the
    *same* :class:`IndexedProject` object — callers must treat the
    project and index as read-only and copy the parse-violation list
    before appending to it.
    """
    key = _fingerprint(paths, root, context_paths)
    cached = _CACHE.get(key)
    if cached is not None:
        _STATS["hits"] += 1
        return cached
    _STATS["misses"] += 1

    project = Project()
    parse_violations: list = []
    n_files = 0
    for path in iter_python_files(paths):
        n_files += 1
        module, violations = load_module(path, root=root)
        parse_violations.extend(violations)
        if module is not None:
            project.modules.append(module)

    analyzed = {module.path.resolve() for module in project.modules}
    context_modules = []
    for path in iter_python_files(context_paths):
        if path.resolve() in analyzed:
            continue
        module, _ = load_module(path, root=root)
        if module is not None:
            context_modules.append(module)

    loaded = IndexedProject(
        project=project,
        parse_violations=parse_violations,
        n_files=n_files,
        context_modules=context_modules,
    )
    if len(_CACHE) >= _CACHE_LIMIT:
        _CACHE.clear()
    _CACHE[key] = loaded
    return loaded


def build_flow_index(
    paths: Sequence,
    root: Path | None = None,
    context_paths: Sequence | None = None,
):
    """Parse ``paths`` (+ context) and build the shared flow index.

    ``context_paths=None`` auto-detects sibling benchmarks/examples/tests
    via :func:`detect_context_paths`; pass ``()`` to analyze in isolation.
    Loading is memoized, so a ``repro race`` run over the same tree
    reuses this index instead of parsing the project twice.
    """
    if context_paths is None:
        context_paths = detect_context_paths(paths)
    return load_indexed_project(
        paths, root=root, context_paths=context_paths,
    ).index


def clear_index_cache() -> None:
    """Drop every memoized project (and reset the hit/miss counters)."""
    _CACHE.clear()
    _STATS["hits"] = _STATS["misses"] = 0


def index_cache_info() -> dict:
    """Cache observability: ``{"entries": ..., "hits": ..., "misses": ...}``."""
    return {"entries": len(_CACHE), **_STATS}
