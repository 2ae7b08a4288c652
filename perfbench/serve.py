"""``serve``: closed-loop load from 2 clients against one served platform.

A ``repro serve --platform bigml`` subprocess answers back-to-back load
rounds from :func:`repro.serving.run_load`: in each round 2 client
threads each run one session (upload, train, poll, then many
``batch_predict`` calls, delete), and the next round starts when both
finish.  Read-heavy use of the ``serving`` layer; both clients contend
on the one platform lock.

Gates: every round's ``payload_digest`` equals the serial reference run
of the same schedule, no request fails, and the per-operation counts in
``/metrics/summary`` equal the counts the clients observed.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

from campaign_http import (
    boot,
    client_span_recorder,
    latency_notes,
    serving_layer_metrics,
)
from harness import (
    LatencyLog,
    Outcome,
    TimedClient,
    check_counters,
    cpu_seconds,
    gate,
    peak_rss_mb,
    proc_cpu_seconds,
    proc_memory_mb,
    run_units,
    server_op_totals,
)
from spans import Tracer, accounting, overhead

PLATFORM = "bigml"
CLIENTS = 2
LOAD = {"clients": CLIENTS, "predicts_per_client": 24, "mode": "closed",
        "samples": 80, "features": 5, "query_rows": 16}


def _config(seed: int):
    from repro.serving import LoadgenConfig
    return LoadgenConfig(seed=seed, **LOAD)


def _factory(server, record, tracer: Tracer | None = None):
    """Per-session client factory; traced sessions open a ``client.session`` span."""
    from repro.serving import HTTPPlatformClient

    def factory(client_id: str):
        client = TimedClient(
            HTTPPlatformClient(server.url, PLATFORM, client_id=client_id),
            record)
        if tracer is None:
            return client
        session = tracer.span("client.session", request=client_id)
        session.__enter__()
        close = client.close

        def close_session():
            close()
            session.__exit__(None, None, None)
        client.close = close_session
        return client
    return factory


def _round(factory, config, rounds: list):
    """One closed-loop round; its start and end are kept for idle time."""
    from repro.serving import run_load
    started = time.perf_counter()
    report = run_load(factory, config, parallel=True)
    rounds.append((started, time.perf_counter()))
    return report


def _check_reports(reports, reference) -> None:
    for index, report in enumerate(reports):
        gate(report["requests_failed"] == 0,
             f"serve: round {index} had {report['requests_failed']} failed "
             "requests")
        gate(report["payload_digest"] == reference["payload_digest"],
             f"serve: round {index} payload digest differs from the serial "
             "reference")


def run(seed: int, seconds: float, workdir: Path) -> Outcome:
    from repro.serving import run_load

    log = LatencyLog()
    reference_log = LatencyLog()
    config = _config(seed)
    setup_s, server, _ = boot(seed, workdir, [PLATFORM])
    try:
        reference = run_load(_factory(server, reference_log.record), config,
                             parallel=False)
        before = server_op_totals(server.metrics_summary()[0])
        rss_before = proc_memory_mb(server.pid)["VmRSS"]
        cpu_before = cpu_seconds() + proc_cpu_seconds(server.pid)
        factory = _factory(server, log.record)
        rounds: list = []
        walls, reports, total = run_units(
            seconds, lambda _: _round(factory, config, rounds))
        cpu = cpu_seconds() + proc_cpu_seconds(server.pid) - cpu_before
        peak = peak_rss_mb([server.pid])
        rss_growth = proc_memory_mb(server.pid)["VmRSS"] - rss_before
        summary, scrape_s = server.metrics_summary()
    finally:
        server.stop()

    _check_reports(reports, reference)
    check_counters(summary, (reference_log, log), "serve")

    after = server_op_totals(summary)
    server_busy = sum(after[op][1] - before.get(op, (0, 0.0))[1]
                      for op in after)
    requests = log.total
    return Outcome(
        attempted=requests, failed=log.errors,
        metrics={
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "throughput_per_s": requests / total,
            "peak_rss_mb": peak,
        },
        details={
            "setup_s": "median of 3 server boots until /health answers",
            "wall_s": f"median of {len(walls)} rounds of {CLIENTS} sessions",
            "throughput_per_s": f"HTTP requests: {requests} in {total:.3f} s",
        },
        notes=[
            ("cpu_s", cpu / len(walls), "s", "CPU per round, benchmark process + server"),
            ("requests_per_s", requests / total, "1/s",
             f"{requests} requests, {CLIENTS} closed-loop clients"),
            ("measurements_per_s", len(walls) * CLIENTS / total, "1/s",
             f"{len(walls) * CLIENTS} sessions in {total:.3f} s"),
            *latency_notes(log),
            ("serving.server_busy_share", server_busy / total, "share",
             f"{server_busy:.3f} s of server op time over {total:.3f} s wall"),
            ("serving.server_rss_growth_mb", rss_growth, "MB",
             f"server VmRSS over {requests} requests"),
            ("serving.metrics_scrape_ms", 1000.0 * scrape_s, "ms",
             "final /metrics/summary"),
        ],
    )


def run_traced(seed: int, seconds: float, workdir: Path, tracer: Tracer) -> Outcome:
    from repro.serving import run_load

    log = LatencyLog()
    config = _config(seed)
    setup_s, server, _ = boot(seed, workdir, [PLATFORM])
    try:
        reference = run_load(_factory(server, log.record), config,
                             parallel=False)
        scrape0 = server_op_totals(server.metrics_summary()[0])
        rss_before = proc_memory_mb(server.pid)["VmRSS"]
        plain_rounds: list = []
        plain_factory = _factory(server, log.record)
        walls, plain_reports, plain_total = run_units(
            seconds / 2, lambda _: _round(plain_factory, config, plain_rounds))
        scrape1 = server_op_totals(server.metrics_summary()[0])
        traced_rounds: list = []
        traced_factory = _factory(server, client_span_recorder(tracer, log),
                                  tracer)
        traced_walls, traced_reports, _ = run_units(
            seconds / 2, lambda _: _round(traced_factory, config, traced_rounds))
        rss_growth = proc_memory_mb(server.pid)["VmRSS"] - rss_before
        summary, scrape_s = server.metrics_summary()
    finally:
        server.stop()

    _check_reports(plain_reports + traced_reports, reference)
    check_counters(summary, (log,), "serve")

    # A client thread idles from its round's start to its session's start
    # and from its session's end to the round's end.
    idle = 0.0
    sessions = [s for s in tracer.spans if s["name"] == "client.session"]
    for started, ended in traced_rounds:
        inside = [s for s in sessions if started <= s["start"] <= ended]
        idle += sum((s["start"] - started) + (ended - s["end"])
                    for s in inside)
    traced_wall = statistics.median(traced_walls)
    untraced_wall = statistics.median(walls)
    server_busy = sum(scrape1[op][1] - scrape0.get(op, (0, 0.0))[1]
                      for op in scrape1)
    metrics = {
        "serving.server_busy_share": server_busy / plain_total,
        "serving.server_rss_growth_mb": rss_growth,
        "serving.metrics_scrape_ms": 1000.0 * scrape_s,
    }
    total_traced = sum(ended - started for started, ended in traced_rounds)
    metrics.update(accounting(tracer, total_traced, CLIENTS, idle=idle))
    metrics.update(overhead(traced_wall, untraced_wall))
    serving_layer_metrics(tracer, scrape1, server_op_totals(summary), metrics)
    return Outcome(
        attempted=log.total, failed=log.errors, metrics=metrics,
        details={
            "trace.overhead_share": f"base: untraced round median "
                                    f"{untraced_wall:.4f} s",
            "trace.accounted_share": f"(busy + idle) over {total_traced:.3f} s "
                                     f"of traced rounds x {CLIENTS} clients",
            "serving.server_busy_share": f"{server_busy:.3f} s server op time "
                                         f"over {plain_total:.3f} s untraced wall",
        },
    )
