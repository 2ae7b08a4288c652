"""``grid``: the paper's optimized protocol as a process-sharded campaign.

All seven platforms sweep their whole configuration space (Table 3b /
Fig. 4) over a small seeded corpus subset, run as
``MLaaSStudy(processes=2).run_campaign("optimized", checkpoint_path=...)``.
CPU-bound: fitting in ``learn`` and the shard engine in
``service.sharding``; no sockets.

Gate: every campaign's store, and the checkpoint it leaves, equal the
serial path's store for the seed (a pinned digest for the default seed,
otherwise the serial sweep computed once after the timed phase).
"""

from __future__ import annotations

import itertools
import json
import statistics
import time
from pathlib import Path

from harness import (
    Outcome,
    cpu_seconds,
    gate,
    median_setup,
    peak_rss_mb,
    run_units,
    store_digest,
)
from spans import Tracer, accounting, overhead, patched, traced_setup

#: Corpus subset: 6 datasets, each capped at 40 rows x 8 columns.  The
#: subset is the study's own choice for ``CORPUS_SEED``: fit cost differs
#: widely between datasets (a seeded subset moved throughput by 12%
#: between seeds), so the workload seed varies the platforms' seeds, and
#: with them every model, instead.
SCALE = {"max_datasets": 6, "size_cap": 40, "feature_cap": 8,
         "para_grid": "default"}
CORPUS_SEED = 0
PROCESSES = 2
SETUP_REPEATS = 25
PINNED = Path(__file__).resolve().parent / "pinned.json"
CLASSIFIERS = ("AP", "BAG", "BPM", "BST", "DJ", "DT", "KNN", "LDA", "LR",
               "MLP", "NB", "RF", "SVM", "auto")
OPERATIONS = {"upload_dataset": "upload", "create_model": "train",
              "get_model": "poll", "batch_predict": "predict",
              "delete_dataset": "delete"}


def _study(seed: int, processes: int):
    from repro.core import MLaaSStudy, StudyScale
    from repro.platforms import ALL_PLATFORMS
    return MLaaSStudy(scale=StudyScale(**SCALE),
                      platforms=[cls(random_state=seed) for cls in ALL_PLATFORMS],
                      random_state=CORPUS_SEED, processes=processes)


def _setup(seed: int):
    """Corpus load and split: what a study pays before its first job."""
    study = _study(seed, PROCESSES)
    for dataset in study.corpus:
        study.runner.split(dataset)
    return study


def reference_digest(seed: int) -> str:
    """The serial path's store digest (pinned for the default seed)."""
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))["grid"]
    if str(seed) in pinned:
        return pinned[str(seed)]
    return store_digest(_study(seed, 1).run_optimized())


def _check_stores(stores, checkpoint, expected: str) -> None:
    from repro.core.results import ResultStore
    for index, store in enumerate(stores):
        gate(store_digest(store) == expected,
             f"grid: campaign {index} store differs from the serial path")
    gate(store_digest(ResultStore.load(checkpoint)) == expected,
         "grid: checkpoint differs from the serial path")


def run(seed: int, seconds: float, workdir: Path) -> Outcome:
    setup_s, study = median_setup(SETUP_REPEATS, lambda: _setup(seed))
    checkpoint = workdir / "grid-checkpoint.json"
    cpu_before = cpu_seconds()
    walls, stores, total = run_units(
        seconds,
        lambda _: study.run_campaign("optimized", checkpoint_path=checkpoint),
    )
    cpu = cpu_seconds() - cpu_before
    peak = peak_rss_mb()
    _check_stores(stores, checkpoint, reference_digest(seed))

    measurements = sum(len(store) for store in stores)
    failed_jobs = sum(1 for store in stores for r in store if not r.ok)
    return Outcome(
        attempted=measurements, failed=0,
        metrics={
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "throughput_per_s": measurements / total,
            "peak_rss_mb": peak,
        },
        details={
            "setup_s": f"median of {SETUP_REPEATS} corpus loads + splits",
            "wall_s": f"median of {len(walls)} campaigns of "
                      f"{len(stores[0])} measurements, {len(study.corpus)} "
                      f"datasets, {PROCESSES} processes",
            "throughput_per_s": f"measurements: {measurements} in {total:.3f} s",
        },
        notes=[
            ("cpu_s", cpu / len(walls), "s",
             "CPU per campaign, benchmark process + pool workers"),
            ("measurements_per_s", measurements / total, "1/s",
             f"{measurements} measurements in {total:.3f} s"),
            ("core.failed_measurements", failed_jobs, "count",
             f"jobs that recorded a TrainingFailure, of {measurements}"),
        ],
    )


# -- traced run -------------------------------------------------------------


def _traced_platform_class(cls, tracer: Tracer):
    """Subclass of a platform whose API calls record ``platforms.*`` spans."""
    def wrap(method_name: str, op: str):
        base = getattr(cls, method_name)

        def method(self, *args, **kwargs):
            attrs = ({"clf": kwargs.get("classifier") or "auto"}
                     if op == "train" else {})
            with tracer.span(f"platforms.{op}", **attrs):
                return base(self, *args, **kwargs)
        return method

    namespace = {name: wrap(name, op) for name, op in OPERATIONS.items()}
    return type(cls.__name__, (cls,), namespace)


def _shard_tasks(study, classes: dict) -> tuple:
    """The engine's shard tasks for the study's optimized plan.

    Built from the public pieces ``ShardedCampaign.run`` composes
    (``build_campaign``, ``CampaignDAG``, ``ShardTask``), with each
    platform rebuilt from ``classes`` inside ``run_shard``.
    """
    from repro.service import CampaignDAG, PlatformSpec, ShardTask, build_campaign
    plan = study.protocol_plan("optimized")
    platforms = [platform for platform, _ in plan]
    jobs = build_campaign(platforms, study.corpus,
                          {platform.name: configs for platform, configs in plan})
    dag = CampaignDAG.from_jobs(jobs)
    datasets = {dataset.name: dataset for dataset in study.corpus}
    specs = tuple(
        PlatformSpec(name=p.name, cls=classes.get(p.name, type(p)),
                     random_state=p.random_state, synchronous=p.synchronous,
                     rate_limit_per_minute=p.rate_limit_per_minute)
        for p in platforms
    )
    return len(jobs), [
        ShardTask(
            shard_id=shard.shard_id,
            dataset=datasets[shard.dataset],
            entries=tuple((index, jobs[index].platform_name,
                           jobs[index].configuration)
                          for index in dag.pending_jobs(shard.shard_id)),
            platforms=specs,
            test_size=study.runner.test_size,
            split_seed=study.runner.split_seed,
        )
        for shard in dag.pending_shards()
    ]


def _run_shards_serially(n_jobs: int, tasks: list, tracer: Tracer | None):
    """Run every shard in-process, one at a time, in serial shard order.

    Returns the stitched store, each shard's wall time and the shard
    results (which carry the shard-shared FitCache stats).
    """
    from repro.core.results import ResultStore
    from repro.service import run_shard, stitch_results
    slots = [None] * n_jobs
    shard_times, shard_results = [], []
    for task in tasks:
        started = time.perf_counter()
        if tracer is None:
            result = run_shard(task)
            stitch_results(slots, [result])
        else:
            with tracer.span("service.shard", request=f"shard-{task.shard_id}"):
                result = run_shard(task)
            with tracer.span("service.stitch"):
                stitch_results(slots, [result])
        shard_times.append(time.perf_counter() - started)
        shard_results.append(result)
    return ResultStore(r for r in slots if r is not None), shard_times, shard_results


def run_traced(seed: int, seconds: float, workdir: Path, tracer: Tracer) -> Outcome:
    import repro.core.runner as core_runner
    from repro.core.runner import ExperimentRunner
    from repro.service import merge_cache_stats

    # Set-up, traced on its own: corpus load and split.
    setup_tracer = Tracer()
    with traced_setup(setup_tracer):
        setup_s, study = median_setup(SETUP_REPEATS, lambda: _setup(seed))

    # Untraced: the parallel campaign (its wall sets the pool overhead),
    # then the same shards serially in-process, twice: the first run
    # warms this process, the second is the base of the tracing overhead.
    checkpoint = workdir / "grid-checkpoint.json"
    started = time.perf_counter()
    parallel_store = study.run_campaign("optimized", checkpoint_path=checkpoint)
    parallel_wall = time.perf_counter() - started
    n_jobs, plain_tasks = _shard_tasks(study, {})
    warm_store, _, _ = _run_shards_serially(n_jobs, plain_tasks, None)

    # Traced: identical shards, platforms and runner wrapped from outside.
    classes = {p.name: _traced_platform_class(type(p), tracer)
               for p in study.platforms}
    _, traced_tasks = _shard_tasks(study, classes)
    ids = itertools.count()
    run_one = tracer.wrap("core.measurement", ExperimentRunner.run_one,
                          request=lambda *a, **k: f"m{next(ids)}")
    with patched(ExperimentRunner, "run_one", run_one), \
            patched(core_runner, "classification_summary",
                    tracer.wrap("learn.score",
                                core_runner.classification_summary)):
        started = time.perf_counter()
        traced_store, _, traced_results = _run_shards_serially(
            n_jobs, traced_tasks, tracer)
        traced_wall = time.perf_counter() - started

    started = time.perf_counter()
    serial_store, shard_times, _ = _run_shards_serially(n_jobs, plain_tasks, None)
    untraced_wall = time.perf_counter() - started

    expected = reference_digest(seed)
    _check_stores([parallel_store, warm_store, traced_store, serial_store],
                  checkpoint,
                  expected)

    cache = merge_cache_stats({r.shard_id: r.cache_stats
                               for r in traced_results})
    shard_traced = tracer.total("service.shard")
    train_total = tracer.total("platforms.train")
    metrics = {
        "datasets.load_s": setup_tracer.total("datasets.load") / SETUP_REPEATS,
        "core.split_s": setup_tracer.total("core.split") / SETUP_REPEATS,
        "platforms.upload_s": tracer.total("platforms.upload"),
        "platforms.poll_s": tracer.total("platforms.poll"),
        "platforms.predict_s": tracer.total("platforms.predict"),
        "platforms.delete_s": tracer.total("platforms.delete"),
        "platforms.train_share": train_total / shard_traced,
        "learn.score_s": tracer.total("learn.score"),
        "learn.fit_cache_hits": cache["hits"],
        "learn.fit_cache_misses": cache["misses"],
        "service.shard_s.max": max(shard_times),
        "service.shard_s.sum": sum(shard_times),
        "service.pool_overhead_s": parallel_wall * PROCESSES - sum(shard_times),
        "service.stitch_s": tracer.total("service.stitch"),
        "core.failed_measurements": sum(1 for r in traced_store if not r.ok),
    }
    for clf in CLASSIFIERS:
        metrics[f"platforms.train_s.{clf}"] = tracer.total(
            "platforms.train", clf=clf)
    metrics.update(accounting(tracer, traced_wall, workers=1))
    metrics.update(overhead(traced_wall, untraced_wall))
    lookups = cache["hits"] + cache["misses"]
    tracer.absorb(setup_tracer)
    return Outcome(
        attempted=len(traced_store), failed=0, metrics=metrics,
        details={
            "platforms.train_share": f"{train_total:.3f} s of platforms.train "
                                     f"over {shard_traced:.3f} s traced shard time",
            "service.pool_overhead_s": f"parallel wall {parallel_wall:.3f} s x "
                                       f"{PROCESSES} processes - "
                                       f"{sum(shard_times):.3f} s shard time",
            "trace.overhead_share": f"base: untraced serial shards "
                                    f"{untraced_wall:.3f} s",
            "trace.accounted_share": f"busy over {traced_wall:.3f} s traced wall "
                                     "x 1 thread",
        },
        notes=[
            ("learn.fit_cache_hit_share", cache["hits"] / max(1, lookups),
             "share", f"{cache['hits']} hits of {lookups} lookups"),
        ],
    )
