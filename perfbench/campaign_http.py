"""``campaign_http``: the baseline protocol over HTTP as a thread campaign.

A ``repro serve`` subprocess hosts all seven platforms; the benchmark
runs ``MLaaSStudy(platforms=[HTTPPlatformClient, ...], workers=2)
.run_campaign("baseline")`` against it over a wide, small-row corpus
subset.  Each measurement uploads, trains, polls, predicts and deletes,
so per-request overhead in ``serving`` and ``service.scheduler``
outweighs fitting.

Gates: every campaign's store equals the in-process serial store of the
same plan, and the per-operation counts in ``/metrics/summary`` equal
the counts the clients observed.
"""

from __future__ import annotations

import itertools
import queue
import statistics
import time
from pathlib import Path

from harness import (
    LatencyLog,
    Outcome,
    ServerProcess,
    TimedClient,
    check_counters,
    cpu_seconds,
    gate,
    peak_rss_mb,
    proc_cpu_seconds,
    quantile,
    reportable,
    run_units,
    server_op_totals,
    store_digest,
)
from spans import Tracer, accounting, overhead, patched, traced_setup

#: Corpus subset: 10 seeded datasets, each capped at 30 rows x 8 columns.
SCALE = {"max_datasets": 10, "size_cap": 30, "feature_cap": 8}
#: The first campaign against a fresh server runs about 10% slower; a
#: campaign over this smaller subset warms it up outside the timed phase.
WARMUP_SCALE = {**SCALE, "max_datasets": 2}
WORKERS = 2
SETUP_REPEATS = 3
SERVED_OPERATIONS = ("upload_dataset", "create_model", "get_model",
                     "batch_predict", "delete_dataset")


def _platform_names() -> list:
    from repro.platforms import ALL_PLATFORMS
    return [cls.name for cls in ALL_PLATFORMS]


def _study(seed: int, platforms=None, workers: int = 1, scale=SCALE):
    from repro.core import MLaaSStudy, StudyScale
    return MLaaSStudy(scale=StudyScale(**scale), platforms=platforms,
                      random_state=seed, workers=workers)


def _warm_up(seed: int, server: ServerProcess) -> LatencyLog:
    """An untimed campaign over a small subset, with its own clients."""
    log = LatencyLog()
    study, clients = _http_study(server, seed, log.record, WARMUP_SCALE)
    try:
        study.run_campaign("baseline")
    finally:
        _close(clients)
    return log


def _http_study(server: ServerProcess, seed: int, record, scale=SCALE):
    """A campaign study whose platforms are HTTP clients of ``server``."""
    from repro.serving import HTTPPlatformClient
    clients = [
        TimedClient(HTTPPlatformClient(server.url, name,
                                       client_id=f"bench-{name}"), record)
        for name in _platform_names()
    ]
    return _study(seed, clients, WORKERS, scale), clients


def boot(seed: int, workdir: Path, platforms, prepare=None) -> tuple:
    """Set-up, repeated: boot a server until ``/health`` answers, then
    ``prepare(server)``.  Returns (median seconds, last server, last
    prepared value); earlier servers are stopped between repetitions.
    """
    times, server, prepared = [], None, None
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            started = time.perf_counter()
            server = ServerProcess(platforms, seed, workdir).start()
            prepared = prepare(server) if prepare is not None else None
            times.append(time.perf_counter() - started)
    except BaseException:
        if server is not None:
            server.stop()
        raise
    return statistics.median(times), server, prepared


def _prepare(seed: int, log: LatencyLog):
    def prepare(server):
        study, clients = _http_study(server, seed, log.record)
        for dataset in study.corpus:
            study.runner.split(dataset)
        return study, clients
    return prepare


def _close(clients) -> None:
    for client in clients:
        client.close()


def latency_notes(log: LatencyLog) -> list:
    """Printed client-side latencies, each percentile with its sample count."""
    notes = []
    for label, operation, q in (("predict_p50_ms", "batch_predict", 0.5),
                                ("predict_p95_ms", "batch_predict", 0.95),
                                ("train_p50_ms", "create_model", 0.5)):
        values = log.latencies(operation)
        if reportable(values, q):
            notes.append((label, 1000.0 * quantile(values, q), "ms",
                          f"{operation} round trip, {len(values)} samples"))
        else:
            notes.append((label, float("nan"), "ms",
                          f"not shown: {len(values)} samples leave fewer "
                          "than 10 beyond this percentile"))
    return notes


def run(seed: int, seconds: float, workdir: Path) -> Outcome:
    log = LatencyLog()
    setup_s, server, (study, clients) = boot(
        seed, workdir, _platform_names(), _prepare(seed, log))
    try:
        warm_log = _warm_up(seed, server)
        cpu_before = cpu_seconds() + proc_cpu_seconds(server.pid)
        walls, results, total = run_units(
            seconds,
            lambda _: (study.run_campaign("baseline"), study.telemetry),
        )
        cpu = cpu_seconds() + proc_cpu_seconds(server.pid) - cpu_before
        peak = peak_rss_mb([server.pid])
        summary, _ = server.metrics_summary()
    finally:
        _close(clients)
        server.stop()

    expected = store_digest(_study(seed).run_baseline())
    for index, (store, _) in enumerate(results):
        gate(store_digest(store) == expected,
             f"campaign_http: campaign {index} store differs from the "
             "in-process serial store")
    check_counters(summary, (warm_log, log), "campaign_http")

    measurements = sum(len(store) for store, _ in results)
    requests = sum(telemetry.counter_value("requests_total")
                   for _, telemetry in results)
    failed_jobs = sum(1 for store, _ in results for r in store if not r.ok)
    return Outcome(
        attempted=requests,
        failed=sum(t.counter_value("failed_calls_total") for _, t in results),
        metrics={
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "throughput_per_s": measurements / total,
            "peak_rss_mb": peak,
        },
        details={
            "setup_s": f"median of {SETUP_REPEATS} server boots + corpus load",
            "wall_s": f"median of {len(walls)} campaigns",
            "throughput_per_s": f"measurements: {measurements} in {total:.3f} s",
        },
        notes=[
            ("cpu_s", cpu / len(walls), "s", "CPU per campaign, benchmark process + server"),
            ("measurements_per_s", measurements / total, "1/s",
             f"{measurements} measurements, {len(results[0][0])} per campaign"),
            ("requests_per_s", requests / total, "1/s",
             f"{requests} HTTP requests in {total:.3f} s"),
            *latency_notes(log),
            ("core.failed_measurements", failed_jobs, "count",
             f"jobs that recorded a TrainingFailure, of {measurements}"),
        ],
    )


# -- traced run -------------------------------------------------------------


class _TracedQueue(queue.Queue):
    """The scheduler's dispatch queue, with each ``get`` wait as a span."""

    tracer: Tracer | None = None

    def get(self, *args, **kwargs):
        with self.tracer.span("service.wait"):
            return super().get(*args, **kwargs)


class _QueueModule:
    """Stand-in for the scheduler's ``queue`` module during tracing."""

    def __init__(self, tracer: Tracer):
        self.Queue = type("Queue", (_TracedQueue,), {"tracer": tracer})


def client_span_recorder(tracer: Tracer, log: LatencyLog):
    """A ``TimedClient`` callback: log the call and add a client span."""
    def record(platform, operation, started, ended, ok):
        log.record(platform, operation, started, ended, ok)
        tracer.add(f"serving.client.{operation}", started, ended,
                   platform=platform, ok=ok)
    return record


def serving_layer_metrics(tracer: Tracer, before: dict, after: dict,
                          metrics: dict) -> None:
    """``serving.{client,server,wire}_s.<op>`` and the server self time.

    Server time per operation is the ``/metrics/summary`` total between
    two scrapes; wire time is the client round trip minus that.
    """
    server_total = 0.0
    for operation in SERVED_OPERATIONS:
        client = tracer.total(f"serving.client.{operation}")
        server = (after.get(operation, (0, 0.0))[1]
                  - before.get(operation, (0, 0.0))[1])
        metrics[f"serving.client_s.{operation}"] = client
        metrics[f"serving.server_s.{operation}"] = server
        metrics[f"serving.wire_s.{operation}"] = client - server
        server_total += server
    metrics["self_s.serving"] = metrics.get("self_s.serving", 0.0) - server_total
    metrics["self_s.server"] = server_total


def run_traced(seed: int, seconds: float, workdir: Path, tracer: Tracer) -> Outcome:
    import repro.core.runner as core_runner
    import repro.service.scheduler as scheduler

    log = LatencyLog()
    setup_tracer = Tracer()
    with traced_setup(setup_tracer):
        setup_s, server, (study, clients) = boot(
            seed, workdir, _platform_names(), _prepare(seed, log))
    traced_clients = []
    try:
        # Warm the fresh server up, then trace a campaign, then time the
        # same campaign untraced as the base of the tracing overhead.
        warm_log = _warm_up(seed, server)
        traced_study, traced_clients = _http_study(
            server, seed, client_span_recorder(tracer, log))
        for dataset in traced_study.corpus:
            traced_study.runner.split(dataset)
        before = server_op_totals(server.metrics_summary()[0])
        ids = itertools.count()
        traced_study.runner.run_one = tracer.wrap(
            "core.measurement", traced_study.runner.run_one,
            request=lambda *a, **k: f"m{next(ids)}")
        with patched(scheduler, "queue", _QueueModule(tracer)), \
                patched(core_runner, "classification_summary",
                        tracer.wrap("learn.score",
                                    core_runner.classification_summary)):
            started = time.perf_counter()
            traced_store = traced_study.run_campaign("baseline")
            traced_wall = time.perf_counter() - started
        summary, scrape_s = server.metrics_summary()
        after = server_op_totals(summary)
        started = time.perf_counter()
        plain_store = study.run_campaign("baseline")
        untraced_wall = time.perf_counter() - started
        summary = server.metrics_summary()[0]
    finally:
        _close(clients)
        _close(traced_clients)
        server.stop()

    expected = store_digest(_study(seed).run_baseline())
    gate(all(store_digest(store) == expected
             for store in (traced_store, plain_store)),
         "campaign_http: store differs from the in-process serial store")
    check_counters(summary, (warm_log, log), "campaign_http")

    telemetry = traced_study.telemetry
    metrics = {
        "datasets.load_s": setup_tracer.total("datasets.load") / SETUP_REPEATS,
        "core.split_s": setup_tracer.total("core.split") / SETUP_REPEATS,
        "learn.score_s": tracer.total("learn.score"),
        "core.failed_measurements": sum(1 for r in traced_store if not r.ok),
        "service.attempts": telemetry.counter_value("requests_total"),
        "service.retries": telemetry.counter_value("retries_total"),
        "service.worker_idle_s": tracer.total("service.wait"),
        "serving.metrics_scrape_ms": 1000.0 * scrape_s,
    }
    metrics.update(accounting(tracer, traced_wall, workers=WORKERS,
                              idle_names=("service.wait",)))
    metrics.update(overhead(traced_wall, untraced_wall))
    serving_layer_metrics(tracer, before, after, metrics)
    tracer.absorb(setup_tracer)
    return Outcome(
        attempted=telemetry.counter_value("requests_total"),
        failed=telemetry.counter_value("failed_calls_total"),
        metrics=metrics,
        details={
            "trace.accounted_share": f"(busy + idle) over {traced_wall:.3f} s "
                                     f"wall x {WORKERS} workers",
            "trace.overhead_share": f"base: untraced campaign "
                                    f"{untraced_wall:.3f} s",
        },
    )
