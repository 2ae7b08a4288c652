"""In-memory span recorder for the traced runs.

A span is one call across a layer boundary: its name (``layer.what``),
start and end on ``time.perf_counter``, the span that caused it, the
request it belongs to and the thread it ran on.  Spans of one request
share the request id (a child inherits its parent's).  Spans stay in
memory and are written out once, at the end of the run.

The recorder only wraps calls from outside: instances, classes and
module attributes of the program are wrapped for the traced phase and
restored afterwards; nothing is added to the program itself.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager


class Tracer:
    """Thread-safe span list with per-thread parent stacks."""

    def __init__(self):
        self.spans: list = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: str | None = None, **attrs):
        """Record the enclosed block as one span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = self.spans[parent]["request"]
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "request": request,
                  "thread": threading.get_ident(), **attrs}
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            stack.pop()
            record["end"] = time.perf_counter()

    def add(self, name: str, start: float, end: float,
            request: str | None = None, **attrs) -> None:
        """Record a span measured elsewhere, under the current parent."""
        with self.span(name, request, **attrs) as record:
            pass
        record["start"], record["end"] = start, end

    def wrap(self, name: str, fn, request=None, **attrs):
        """``fn`` wrapped so every call is one span named ``name``."""
        def traced(*args, **kwargs):
            rid = request(*args, **kwargs) if callable(request) else request
            with self.span(name, rid, **attrs):
                return fn(*args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def absorb(self, other: "Tracer") -> None:
        """Append another recorder's spans (for the final dump only)."""
        offset = len(self.spans)
        for record in other.spans:
            parent = record["parent"]
            self.spans.append({**record, "parent": None if parent is None
                               else parent + offset})

    def write(self, path) -> None:
        """Dump every span as JSON Lines."""
        with open(path, "w", encoding="utf-8") as stream:
            for record in self.spans:
                stream.write(json.dumps(record, default=str) + "\n")

    # -- analysis ------------------------------------------------------

    def total(self, name: str, **match) -> float:
        """Summed duration of spans called ``name`` with matching attrs."""
        return sum(
            s["end"] - s["start"] for s in self.spans
            if s["name"] == name
            and all(s.get(key) == value for key, value in match.items())
        )

    def self_times(self, skip=()) -> dict:
        """Self time per layer: span time not covered by its children.

        Spans named in ``skip`` (waiting, not work) are left out.
        """
        child_time = [0.0] * len(self.spans)
        for record in self.spans:
            if record["parent"] is not None:
                child_time[record["parent"]] += record["end"] - record["start"]
        layers: dict = {}
        for index, record in enumerate(self.spans):
            if record["name"] in skip:
                continue
            layer = record["name"].split(".", 1)[0]
            own = record["end"] - record["start"] - child_time[index]
            layers[layer] = layers.get(layer, 0.0) + own
        return layers


@contextmanager
def patched(target, attribute: str, replacement):
    """Temporarily replace ``target.attribute`` (restored on exit)."""
    original = getattr(target, attribute)
    setattr(target, attribute, replacement)
    try:
        yield original
    finally:
        setattr(target, attribute, original)


@contextmanager
def traced_setup(tracer: Tracer):
    """Record corpus loads (``datasets.load``) and splits (``core.split``)."""
    import repro.core.study as core_study
    from repro.core.runner import ExperimentRunner
    with patched(core_study, "load_corpus",
                 tracer.wrap("datasets.load", core_study.load_corpus)), \
            patched(ExperimentRunner, "split",
                    tracer.wrap("core.split", ExperimentRunner.split)):
        yield


def overhead(traced_wall: float, untraced_wall: float) -> dict:
    """Tracing overhead: traced minus untraced wall of the same unit."""
    return {"trace.overhead_s": traced_wall - untraced_wall,
            "trace.overhead_share": (traced_wall - untraced_wall) / untraced_wall}


def accounting(tracer: Tracer, wall: float, workers: int, idle_names=(),
               idle: float = 0.0) -> dict:
    """Busy/idle accounting and self time per layer of a traced phase.

    Busy is the time covered by top-level spans; idle is the time spent
    in spans named in ``idle_names`` (workers waiting for work) plus any
    ``idle`` measured elsewhere.  With ``workers`` threads or processes
    the two should account for ``wall * workers``.  Idle spans are left
    out of the self time of their layer.
    """
    busy = sum(s["end"] - s["start"] for s in tracer.spans
               if s["parent"] is None and s["name"] not in idle_names)
    idle += sum(s["end"] - s["start"] for s in tracer.spans
                if s["name"] in idle_names)
    metrics = {
        "trace.busy_s": busy,
        "trace.idle_s": idle,
        "trace.accounted_share": (busy + idle) / (wall * workers),
    }
    for layer, seconds in sorted(tracer.self_times(idle_names).items()):
        metrics[f"self_s.{layer}"] = seconds
    return metrics
