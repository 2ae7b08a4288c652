"""Campaign DAG: the pending jobs of a campaign grouped into shards.

The process executor (:mod:`repro.service.sharding`) runs a campaign's
pending jobs — the serial platform → dataset → configuration enumeration
of :func:`repro.service.scheduler.build_campaign`, minus what a resume
filled — grouped by **dataset**: every job that measures one dataset
lands in that dataset's shard, because the dataset's arrays are the
expensive thing to ship across the process boundary and every platform
re-derives its per-job seed from (platform seed, data, configuration) —
so a shard is self-contained and order-free.

The DAG is deliberately shallow and holds no state: every shard feeds
one implicit merge (the campaign core's slot table, which is the only
state a campaign has), and shards have no edges between each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.exceptions import ValidationError

__all__ = ["ShardNode", "CampaignDAG"]


@dataclass(frozen=True)
class ShardNode:
    """One shard: every job of one dataset, pinned to serial indices."""

    shard_id: int
    dataset: str
    job_indices: tuple

    def __len__(self) -> int:
        return len(self.job_indices)


class CampaignDAG:
    """Jobs still to run, grouped into dataset-keyed shards.

    Shards appear in first-dataset-seen order — the serial dataset
    order — so shard dispatch and cache-stat merges are deterministic.
    """

    def __init__(self, shards: Sequence[ShardNode]):
        self.shards = list(shards)
        covered = [index for shard in self.shards
                   for index in shard.job_indices]
        if len(set(covered)) != len(covered):
            raise ValidationError(
                "shards must partition their jobs: a job index appears "
                "in more than one shard"
            )

    @staticmethod
    def from_jobs(jobs: Iterable) -> "CampaignDAG":
        """Group the pending jobs of a serial enumeration by dataset."""
        by_dataset: dict[str, list[int]] = {}
        for job in jobs:
            by_dataset.setdefault(job.dataset.name, []).append(job.index)
        return CampaignDAG([
            ShardNode(shard_id=shard_id, dataset=dataset,
                      job_indices=tuple(sorted(indices)))
            for shard_id, (dataset, indices) in enumerate(by_dataset.items())
        ])

    def pending_jobs(self, shard_id: int) -> list:
        """Serial indices of one shard's jobs."""
        return list(self.shards[shard_id].job_indices)

    def pending_shards(self) -> list:
        """Every shard, in serial order."""
        return list(self.shards)
