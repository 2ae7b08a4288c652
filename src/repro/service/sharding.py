"""Process executor: dataset shards of a campaign past the GIL.

The thread executor of :class:`~repro.service.scheduler.CampaignScheduler`
overlaps *waiting* (request latency, rate-limit backoff) but cannot
overlap *compute*: the paper's headline grid — every dataset × every
platform × the per-platform configuration space (Table 3 / Fig. 4) — is
CPU-bound training, and the GIL serializes it.  :class:`ShardedCampaign`
runs the same campaign core over a
:class:`concurrent.futures.ProcessPoolExecutor` instead:

* the pending jobs are grouped into **dataset-keyed shards**
  (:class:`~repro.service.dag.CampaignDAG`) — one dataset's arrays
  ship across the pickling boundary once, not once per job;
* each shard runs :func:`run_shard`, a **module-level** worker function
  taking one picklable :class:`ShardTask` (the boundary the race tool's
  C204 rule models: no closures, locks, or bound methods cross);
* inside a shard, every platform is constructed fresh and shares one
  externally-owned :class:`~repro.learn.cache.FitCache`, so identical
  pipeline-stage fits across candidates (and across platforms) are
  computed once per shard; the per-shard hit/miss stats come back with
  the results and merge in serial shard order
  (:func:`merge_cache_stats`);
* each finished shard's ``(serial_index, result)`` pairs go back to the
  core, which fills its slot table, checkpoints and resumes exactly as
  for the other executors; :func:`stitch_results` is the same fill for
  callers that run shards themselves.

Determinism holds for the same reason as for the thread executor, one
level deeper: every job's model seed is derived from (platform seed,
training bytes, configuration) — never from process identity, shard
order, or wall-clock — so only *ordering* needs pinning, and the slot
table pins it.
"""

from __future__ import annotations

import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.core.results import ResultStore
from repro.core.runner import ExperimentRunner
from repro.datasets.corpus import Dataset
from repro.exceptions import ValidationError
from repro.learn.cache import FitCache
from repro.service.dag import CampaignDAG
from repro.service.scheduler import run_campaign
from repro.service.telemetry import Telemetry

__all__ = [
    "PlatformSpec",
    "ShardTask",
    "ShardResult",
    "ShardedCampaign",
    "merge_cache_stats",
    "run_shard",
    "stitch_results",
]


@dataclass(frozen=True)
class PlatformSpec:
    """Everything a worker process needs to rebuild one platform.

    The platform *instance* never crosses the process boundary (it owns
    a lock-bearing FitCache and possibly an injected clock); its class —
    picklable by reference — and constructor arguments do.
    """

    name: str
    cls: type
    random_state: int
    synchronous: bool
    rate_limit_per_minute: int | None


@dataclass(frozen=True)
class ShardTask:
    """One shard's worth of work, fully picklable.

    ``entries`` holds ``(serial_index, platform_name, configuration)``
    triples in ascending serial order; the dataset rides along once for
    the whole shard.
    """

    shard_id: int
    dataset: Dataset
    entries: tuple
    platforms: tuple
    test_size: float
    split_seed: int


@dataclass(frozen=True)
class ShardResult:
    """What a shard worker ships back: results plus cache accounting."""

    shard_id: int
    dataset: str
    results: tuple          # ((serial_index, ExperimentResult), ...)
    cache_stats: dict       # FitCache.stats() of the shard's shared cache


def run_shard(task: ShardTask) -> ShardResult:
    """Execute one shard in a worker process (module-level: picklable).

    Platforms are constructed on demand from their specs, all sharing
    one shard-wide :class:`FitCache`; the runner re-derives the same
    70/30 split the serial sweep uses from the shipped ``split_seed``.
    """
    cache = FitCache()
    specs = {spec.name: spec for spec in task.platforms}
    platforms: dict = {}
    runner = ExperimentRunner(test_size=task.test_size,
                              split_seed=task.split_seed)
    split = runner.split(task.dataset)
    results = []
    for index, platform_name, configuration in task.entries:
        platform = platforms.get(platform_name)
        if platform is None:
            spec = specs[platform_name]
            platform = spec.cls(
                random_state=spec.random_state,
                synchronous=spec.synchronous,
                rate_limit_per_minute=spec.rate_limit_per_minute,
                fit_cache=cache,
            )
            platforms[platform_name] = platform
        results.append((
            index,
            runner.run_one(platform, task.dataset, configuration, split),
        ))
    return ShardResult(
        shard_id=task.shard_id,
        dataset=task.dataset.name,
        results=tuple(results),
        cache_stats=cache.stats(),
    )


def stitch_results(slots: list, shard_results: Iterable[ShardResult]) -> list:
    """Fill serial-index slots from shard results, in any arrival order.

    Each result carries the index it would have in the serial
    platform → dataset → configuration loop, so writing by index makes
    the filled table — and therefore the merged store — independent of
    shard completion order.
    """
    for shard_result in shard_results:
        for index, result in shard_result.results:
            slots[index] = result
    return slots


def merge_cache_stats(stats_by_shard: Mapping[int, dict]) -> dict:
    """Combine per-shard FitCache stats in serial shard order.

    Addition is commutative, but iterating shards by id anyway makes the
    merge auditable: the same campaign always reports its totals from
    the same traversal, whatever order the shards finished in.
    """
    merged = {"entries": 0, "hits": 0, "misses": 0}
    for shard_id in sorted(stats_by_shard):
        stats = stats_by_shard[shard_id]
        for key in merged:
            merged[key] += int(stats[key])
    return merged


def _platform_spec(platform) -> PlatformSpec:
    """Validate and capture how to rebuild a platform in a worker.

    Process sharding re-imports the platform's class by reference, so
    the class must live at module level; an injected clock cannot cross
    the boundary (the rebuilt platform would silently fall back to wall
    time, desynchronizing its rate-limit windows from the parent's).
    """
    cls = type(platform)
    module = sys.modules.get(cls.__module__)
    if ("." in cls.__qualname__ or module is None
            or getattr(module, cls.__qualname__, None) is not cls):
        raise ValidationError(
            f"platform class {cls.__qualname__!r} is not module-level "
            "importable; process-sharded campaigns rebuild platforms in "
            "worker processes and can only ship classes picklable by "
            "reference"
        )
    if getattr(platform, "_clock", None) not in (None, time.monotonic):
        raise ValidationError(
            f"platform {platform.name!r} has an injected clock; clocks "
            "cannot cross the process boundary — run process-sharded "
            "campaigns with the default monotonic clock"
        )
    return PlatformSpec(
        name=platform.name,
        cls=cls,
        random_state=platform.random_state,
        synchronous=platform.synchronous,
        rate_limit_per_minute=platform.rate_limit_per_minute,
    )


class ShardedCampaign:
    """Run a measurement campaign across a process pool, deterministically.

    Parameters
    ----------
    processes : int
        Worker-process count.  ``processes=1`` still runs through the
        pool (one worker), exercising the identical code path.
    telemetry : Telemetry or None
        Metrics sink (a fresh one by default; exposed as ``.telemetry``).
    """

    def __init__(self, processes: int = 4, telemetry: Telemetry | None = None):
        if processes < 1:
            raise ValidationError(
                f"processes must be >= 1, got {processes}"
            )
        self.processes = int(processes)
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        #: Merged FitCache accounting of the most recent run.
        self.fit_cache_stats: dict = merge_cache_stats({})

    def run(
        self,
        runner: ExperimentRunner,
        platforms: Sequence,
        datasets: Sequence[Dataset],
        configurations,
        resume_from: ResultStore | None = None,
        checkpoint_path=None,
        checkpoint_every: int = 200,
    ) -> ResultStore:
        """Execute the campaign in shards; see
        :func:`~repro.service.scheduler.run_campaign`."""
        platforms = list(platforms)
        specs = tuple(_platform_spec(platform) for platform in platforms)
        return run_campaign(
            platforms, list(datasets), configurations,
            lambda jobs: self._execute(runner, specs, jobs),
            self.telemetry, resume_from, checkpoint_path, checkpoint_every,
        )

    # -- process pool ------------------------------------------------------

    def _execute(self, runner, specs, jobs):
        """Fan the jobs' dataset shards over the pool; yield each as it
        lands.  After a shard fails, no further shard is submitted; the
        ones in flight still land before the error is re-raised."""
        dag = CampaignDAG.from_jobs(jobs)
        self.telemetry.increment("shards_total", len(dag.shards))
        if not dag.shards:
            return
        by_index = {job.index: job for job in jobs}
        queue = [
            ShardTask(
                shard_id=shard.shard_id,
                dataset=by_index[shard.job_indices[0]].dataset,
                entries=tuple(
                    (index, by_index[index].platform_name,
                     by_index[index].configuration)
                    for index in dag.pending_jobs(shard.shard_id)
                ),
                platforms=specs,
                test_size=runner.test_size,
                split_seed=runner.split_seed,
            )
            for shard in reversed(dag.pending_shards())
        ]  # pop() dispatches in serial order
        max_workers = min(self.processes, len(queue))
        cache_stats: dict[int, dict] = {}
        errors: list = []
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            futures: set = set()
            while futures or (queue and not errors):
                while queue and not errors and len(futures) < 2 * max_workers:
                    futures.add(pool.submit(run_shard, queue.pop()))
                finished, futures = wait(futures, return_when=FIRST_COMPLETED)
                for future in finished:
                    error = future.exception()
                    if error is not None:
                        self.telemetry.increment("shards_failed")
                        errors.append(error)
                        continue
                    shard_result = future.result()
                    cache_stats[shard_result.shard_id] = shard_result.cache_stats
                    self.telemetry.increment("shards_done")
                    yield shard_result.results
        self.fit_cache_stats = merge_cache_stats(cache_stats)
        for key, value in sorted(self.fit_cache_stats.items()):
            self.telemetry.increment(f"fit_cache_{key}", value)
        if errors:
            raise errors[0]
