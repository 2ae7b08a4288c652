"""The campaign core, and its serial and thread executors.

Every campaign — a single-platform ``ExperimentRunner.sweep``, a thread
pool of :class:`CampaignScheduler` workers, or process shards of
:class:`~repro.service.sharding.ShardedCampaign` — runs through one core,
:func:`run_campaign`, which owns

* the job table (:func:`build_campaign`, the serial
  platform → dataset → configuration enumeration),
* the **serial-index slot table** and resume matching,
* one atomic checkpoint function with one policy (every
  ``checkpoint_every`` new measurements, at the end, and — on an
  executor error — once more before re-raising), and
* the ``jobs_total``/``jobs_resumed``/``jobs_failed`` telemetry.

An *executor* is a callable taking the pending jobs and yielding batches
of completed ``(serial_index, result)`` pairs; the core consumes them on
the calling thread, so only that thread ever writes a checkpoint.
:func:`serial_executor` loops over ``runner.run_one``; the thread pool
below adds

* **fair round-robin dispatch** across platforms (no platform starves),
* one job in flight per platform (each simulated service processes its
  jobs strictly in order, like a real job queue),
* **backpressure** via a dispatch queue bounded at ``2 * workers``, and
* **resilience** and **telemetry** for every request through
  :class:`~repro.service.resilience.ResilientClient` wrappers.

Determinism contract
--------------------
The returned store is **bit-identical to the serial sweep regardless of
executor or worker count**.  Numerics are already order-independent —
every job's seed is derived from (platform seed, data, configuration) in
:mod:`repro.platforms.base` — so the core only has to pin *ordering*:
each job carries the index it would have in the serial loop, batches
fill the slot table by index, and the store reads the slots in order.
"""

from __future__ import annotations

import queue
import threading
from collections import deque
from contextlib import closing
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.controls import Configuration
from repro.core.results import ResultStore
from repro.core.runner import ExperimentRunner
from repro.datasets.corpus import Dataset
from repro.exceptions import ValidationError
from repro.service.clock import VirtualClock
from repro.service.resilience import ResilientClient, RetryPolicy
from repro.service.telemetry import Telemetry

__all__ = [
    "CampaignJob",
    "CampaignScheduler",
    "build_campaign",
    "run_campaign",
    "serial_executor",
]


@dataclass(frozen=True)
class CampaignJob:
    """One planned measurement, pinned to its serial-order position."""

    index: int
    platform_name: str
    dataset: Dataset
    configuration: Configuration

    def key(self) -> tuple:
        """Identity used for resume matching."""
        return (self.platform_name, self.dataset.name, self.configuration)


def build_campaign(
    platforms: Sequence,
    datasets: Sequence[Dataset],
    configurations,
) -> list:
    """Enumerate jobs in exactly the serial sweep order.

    ``configurations`` is either a mapping ``platform name -> sequence of
    configurations`` (each platform sweeps its own space, as the study
    protocols do) or a single sequence applied to every platform.  The
    order is platform-major, then dataset, then configuration — the
    order ``MLaaSStudy`` produces with nested ``sweep`` calls.
    """
    per_platform = _configurations_by_platform(platforms, configurations)
    jobs: list = []
    for platform in platforms:
        for dataset in datasets:
            for configuration in per_platform[platform.name]:
                jobs.append(CampaignJob(
                    index=len(jobs),
                    platform_name=platform.name,
                    dataset=dataset,
                    configuration=configuration,
                ))
    return jobs


def _configurations_by_platform(platforms, configurations) -> dict:
    if isinstance(configurations, Mapping):
        resolved = {}
        for platform in platforms:
            if platform.name not in configurations:
                raise ValidationError(
                    f"no configurations supplied for platform "
                    f"{platform.name!r}"
                )
            resolved[platform.name] = list(configurations[platform.name])
        return resolved
    shared = list(configurations)
    return {platform.name: shared for platform in platforms}


def run_campaign(
    platforms: Sequence,
    datasets: Sequence[Dataset],
    configurations,
    execute,
    telemetry: Telemetry,
    resume_from: ResultStore | None = None,
    checkpoint_path=None,
    checkpoint_every: int = 200,
) -> ResultStore:
    """Run a campaign through ``execute``; returns results in serial order.

    ``resume_from`` results matching a planned job fill that job's slot
    without re-measuring; anything else in it is ignored.  ``execute``
    receives the remaining jobs in serial order and yields batches of
    ``(serial_index, result)``.  ``checkpoint_path`` is rewritten with
    the completed slots every ``checkpoint_every`` new measurements, at
    the end, and when ``execute`` raises (before the error propagates),
    so an interrupted campaign resumes from a loadable
    :class:`ResultStore`.
    """
    jobs = build_campaign(platforms, datasets, configurations)
    slots: list = [None] * len(jobs)
    resumable = _resume_index(resume_from, {p.name for p in platforms})
    pending = []
    for job in jobs:
        previous = resumable.pop(job.key(), None)
        if previous is None:
            pending.append(job)
        else:
            slots[job.index] = previous
    telemetry.increment("jobs_total", len(jobs))
    telemetry.increment("jobs_resumed", len(jobs) - len(pending))

    measured = 0
    try:
        with closing(execute(pending)) as batches:
            for batch in batches:
                before = measured
                for index, result in batch:
                    slots[index] = result
                    measured += 1
                if (checkpoint_path is not None
                        and measured // checkpoint_every
                        > before // checkpoint_every):
                    _save_completed(slots, checkpoint_path)
    except BaseException:
        if checkpoint_path is not None:
            _save_completed(slots, checkpoint_path)
        raise

    store = ResultStore(result for result in slots if result is not None)
    telemetry.increment("jobs_failed", sum(1 for r in store if not r.ok))
    if checkpoint_path is not None and pending:
        store.save(checkpoint_path)
    return store


def serial_executor(runner: ExperimentRunner, platforms: Sequence):
    """The executor that measures one job at a time on the calling thread."""
    by_name = {platform.name: platform for platform in platforms}

    def execute(jobs):
        for job in jobs:
            yield ((job.index, runner.run_one(
                by_name[job.platform_name], job.dataset, job.configuration,
            )),)

    return execute


class CampaignScheduler:
    """Run a measurement campaign on a thread pool, deterministically.

    Parameters
    ----------
    workers : int
        Worker-thread count.  ``workers=1`` degenerates to the serial
        order with the resilience/telemetry layer still active.
    retry_policy : RetryPolicy or None
        Backoff bounds shared by every platform client.
    clock : VirtualClock or WallClock or None
        Time source for backoff waits; defaults to a fresh
        :class:`VirtualClock`.  Pass the same instance the platforms'
        rate limiters use so waits roll their quota windows forward.
    telemetry : Telemetry or None
        Metrics sink (a fresh one by default; exposed as ``.telemetry``).
    seed : int
        Root seed for the clients' deterministic backoff jitter.
    """

    def __init__(
        self,
        workers: int = 4,
        retry_policy: RetryPolicy | None = None,
        clock=None,
        telemetry: Telemetry | None = None,
        seed: int = 0,
    ):
        if workers < 1:
            raise ValidationError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.retry_policy = retry_policy if retry_policy is not None \
            else RetryPolicy()
        self.clock = clock if clock is not None else VirtualClock()
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.seed = seed

    def clients_for(self, platforms: Sequence) -> dict:
        """One :class:`ResilientClient` per platform, sharing clock/metrics."""
        return {
            platform.name: ResilientClient(
                platform,
                policy=self.retry_policy,
                clock=self.clock,
                telemetry=self.telemetry,
                seed=self.seed,
            )
            for platform in platforms
        }

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
        """Execute the campaign on the pool; see :func:`run_campaign`."""
        platforms = list(platforms)
        clients = self.clients_for(platforms)
        store = run_campaign(
            platforms, list(datasets), configurations,
            lambda jobs: self._execute(runner, clients, jobs),
            self.telemetry, resume_from, checkpoint_path, checkpoint_every,
        )
        if hasattr(self.clock, "total_slept"):
            self.telemetry.observe(
                "backoff_virtual_seconds", self.clock.total_slept
            )
        return store

    # -- worker pool -----------------------------------------------------

    def _execute(self, runner, clients, jobs):
        """Dispatch ``jobs`` round-robin; yield completed batches."""
        # Warm the split cache here so worker threads only read it.
        splits = {job.dataset.name: runner.split(job.dataset) for job in jobs}
        pending: dict[str, deque] = {name: deque() for name in clients}
        for job in jobs:
            pending[job.platform_name].append(job)
        tasks: queue.Queue = queue.Queue(maxsize=2 * self.workers)
        completed_cv = threading.Condition()
        in_flight = {name: 0 for name in pending}
        completed: list = []
        errors: list = []

        def worker() -> None:
            while True:
                job = tasks.get()
                if job is None:
                    return
                error = None
                try:
                    result = runner.run_one(
                        clients[job.platform_name], job.dataset,
                        job.configuration, splits[job.dataset.name],
                    )
                except Exception as exc:  # re-raised by the dispatcher
                    error, result = exc, None
                with completed_cv:
                    if error is not None:
                        errors.append(error)
                    else:
                        completed.append((job.index, result))
                    in_flight[job.platform_name] -= 1
                    completed_cv.notify_all()

        def stop() -> None:
            for _ in threads:
                tasks.put(None)

        to_dispatch = to_collect = len(jobs)
        threads = [
            threading.Thread(target=worker, daemon=True,
                             name=f"campaign-worker-{i}")
            for i in range(min(self.workers, to_dispatch))
        ]
        # Workers stop as soon as the last job is dispatched, so an idle
        # worker does not wait out the campaign's tail.  The stop/join
        # must also run when dispatch raises (a KeyboardInterrupt in the
        # pick loop, the consumer closing this generator): otherwise the
        # worker threads block on the queue forever and the process
        # leaks them.
        for thread in threads:
            thread.start()
        try:
            order = list(pending)
            cursor = 0
            while to_collect and not errors:
                job = None
                with completed_cv:
                    choice = self._pick(order, cursor, pending, in_flight)
                    while choice is None and not completed and not errors:
                        completed_cv.wait()
                        choice = self._pick(order, cursor, pending,
                                            in_flight)
                    if choice is not None and not errors:
                        job = pending[order[choice]].popleft()
                        in_flight[job.platform_name] += 1
                        cursor = (choice + 1) % len(order)
                    batch = completed[:]
                    completed.clear()
                if job is not None:
                    tasks.put(job)  # blocks when the bounded queue is full
                    to_dispatch -= 1
                    if not to_dispatch:
                        stop()
                if batch:
                    to_collect -= len(batch)
                    yield batch
        finally:
            if to_dispatch:
                stop()
            for thread in threads:
                thread.join()
        if completed:
            yield completed
        if errors:
            raise errors[0]

    @staticmethod
    def _pick(order, cursor, pending, in_flight) -> int | None:
        """Next idle platform with pending jobs, round-robin from ``cursor``."""
        for offset in range(len(order)):
            position = (cursor + offset) % len(order)
            name = order[position]
            if pending[name] and not in_flight[name]:
                return position
        return None


def _resume_index(resume_from, platform_names) -> dict:
    """Map job key -> prior result for resumable measurements."""
    index: dict = {}
    if resume_from is None:
        return index
    for result in resume_from:
        if result.platform not in platform_names:
            continue
        key = (result.platform, result.dataset, result.configuration)
        index.setdefault(key, result)
    return index


def _save_completed(slots, checkpoint_path) -> None:
    """Checkpoint the completed slots, in serial order.

    :meth:`ResultStore.save` writes via ``*.tmp`` + ``os.replace``: a
    kill at any instant leaves the previous complete checkpoint or this
    one, never a truncated file.
    """
    ResultStore(
        result for result in slots if result is not None
    ).save(checkpoint_path)
