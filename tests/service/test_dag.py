"""Tests for the campaign DAG's dataset grouping."""

import pytest

from repro.datasets import load_corpus
from repro.exceptions import ValidationError
from repro.platforms import Amazon, Google
from repro.core.config_space import baseline_configuration
from repro.service import CampaignDAG, ShardNode, build_campaign


@pytest.fixture(scope="module")
def corpus():
    return load_corpus(max_datasets=3, size_cap=120, feature_cap=8,
                       random_state=0)


@pytest.fixture()
def jobs(corpus):
    platforms = [Google(random_state=0), Amazon(random_state=0)]
    return build_campaign(
        platforms, corpus,
        {p.name: [baseline_configuration(p)] for p in platforms},
    )


def test_from_jobs_groups_by_dataset_in_serial_order(jobs, corpus):
    dag = CampaignDAG.from_jobs(jobs)
    assert [shard.dataset for shard in dag.shards] \
        == [dataset.name for dataset in corpus]
    assert [shard.shard_id for shard in dag.shards] == [0, 1, 2]
    # 2 platforms x 1 configuration -> 2 jobs per dataset shard, and the
    # shards partition the serial index space exactly.
    assert all(len(shard) == 2 for shard in dag.shards)
    covered = sorted(
        index for shard in dag.shards for index in shard.job_indices
    )
    assert covered == list(range(6))
    assert dag.pending_shards() == dag.shards
    assert dag.pending_jobs(0) == [0, 3]


def test_from_jobs_partitions_a_pending_subset(jobs):
    # The core hands an executor only the jobs a resume left pending:
    # here the first dataset is done for both platforms (indices 0 and
    # 3, the serial enumeration being platform-major) and amazon is
    # done on the second dataset (index 4).
    pending = [job for job in jobs if job.index not in (0, 3, 4)]
    dag = CampaignDAG.from_jobs(pending)
    assert [shard.dataset for shard in dag.pending_shards()] \
        == [jobs[1].dataset.name, jobs[2].dataset.name]
    assert [dag.pending_jobs(shard.shard_id) for shard in dag.shards] \
        == [[1], [2, 5]]


def test_constructor_rejects_non_partition():
    overlapping = [
        ShardNode(shard_id=0, dataset="a", job_indices=(0, 1)),
        ShardNode(shard_id=1, dataset="b", job_indices=(1, 2)),
    ]
    with pytest.raises(ValidationError, match="partition"):
        CampaignDAG(overlapping)
