"""Campaign orchestration service layer (``repro.service``).

Turns the job-oriented platform simulators into infrastructure that can
serve a paper-scale measurement campaign (§3.2 ran ~1.7M API calls
against six rate-limited services):

* :mod:`repro.service.clock` — virtual/wall time sources; a shared
  :class:`VirtualClock` makes quota windows and backoff waits simulated,
  fast, and reproducible.
* :mod:`repro.service.resilience` — :class:`ResilientClient`, a retrying
  thread-safe facade over a platform with deterministic seeded-jitter
  exponential backoff under a :class:`RetryPolicy`.
* :mod:`repro.service.telemetry` — counters, latency/attempt histograms
  and per-platform request accounting with JSON snapshot export.
* :mod:`repro.service.scheduler` — the campaign core
  (:func:`~repro.service.scheduler.run_campaign`): one job table,
  serial-index slot table, resume matching, atomic checkpoint policy
  and jobs telemetry, fed by one of three executors — a loop over
  ``runner.run_one``, the thread pool of :class:`CampaignScheduler`
  (fair round-robin dispatch, one job in flight per platform, bounded
  backpressure), or the process shards below.  Results are
  bit-identical to the serial sweep whichever executor runs them; on
  an executor error the core checkpoints the completed slots before
  re-raising.
* :mod:`repro.service.dag` / :mod:`repro.service.sharding` —
  :class:`CampaignDAG` and :class:`ShardedCampaign`, the process
  executor: pending jobs grouped into dataset-keyed shards, fanned over
  a process pool past the GIL.

Entry points: ``ExperimentRunner.sweep`` runs the serial executor,
``MLaaSStudy(workers=...)`` the thread executor,
``MLaaSStudy(processes=...)`` the process executor, and the
``repro campaign`` CLI runs either of the last two.
"""

from repro.service.clock import VirtualClock, WallClock
from repro.service.dag import CampaignDAG, ShardNode
from repro.service.resilience import ResilientClient, RetryPolicy, is_transient
from repro.service.scheduler import (
    CampaignJob,
    CampaignScheduler,
    build_campaign,
)
from repro.service.sharding import (
    PlatformSpec,
    ShardResult,
    ShardTask,
    ShardedCampaign,
    merge_cache_stats,
    run_shard,
    stitch_results,
)
from repro.service.telemetry import (
    Counter,
    Histogram,
    Telemetry,
    exact_quantile,
    percentile_summary,
)

__all__ = [
    "CampaignDAG",
    "CampaignJob",
    "CampaignScheduler",
    "Counter",
    "Histogram",
    "PlatformSpec",
    "ResilientClient",
    "RetryPolicy",
    "ShardNode",
    "ShardResult",
    "ShardTask",
    "ShardedCampaign",
    "Telemetry",
    "VirtualClock",
    "WallClock",
    "build_campaign",
    "exact_quantile",
    "is_transient",
    "merge_cache_stats",
    "percentile_summary",
    "run_shard",
    "stitch_results",
]
