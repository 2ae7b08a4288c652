"""Tests for the process-sharded campaign engine's determinism contract."""

import random

import pytest

from repro.core import ExperimentRunner, MLaaSStudy, StudyScale
from repro.core.config_space import (
    baseline_configuration,
    enumerate_configurations,
)
from repro.core.results import ResultStore
from repro.datasets import load_corpus
from repro.exceptions import ValidationError
from repro.platforms import ALL_PLATFORMS, Amazon, BigML, Google
from repro.service import (
    ShardResult,
    ShardedCampaign,
    VirtualClock,
    merge_cache_stats,
    stitch_results,
)


class ExplodingGoogle(Google):
    """Module-level (hence picklable) platform that dies in the worker."""

    def upload_dataset(self, *args, **kwargs):
        raise RuntimeError("worker boom")


@pytest.fixture(scope="module")
def corpus():
    return load_corpus(max_datasets=3, size_cap=120, feature_cap=8,
                       random_state=0)


def _serial_baseline(platform_classes, corpus, seed=0):
    runner = ExperimentRunner(split_seed=7)
    store = ResultStore()
    for cls in platform_classes:
        platform = cls(random_state=seed)
        store.extend(runner.sweep(
            platform, corpus, [baseline_configuration(platform)]
        ))
    return store


def _sharded_baseline(platform_classes, corpus, processes, seed=0, **kwargs):
    platforms = [cls(random_state=seed) for cls in platform_classes]
    engine = ShardedCampaign(processes=processes)
    store = engine.run(
        ExperimentRunner(split_seed=7), platforms, corpus,
        {p.name: [baseline_configuration(p)] for p in platforms},
        **kwargs,
    )
    return store, engine


def test_process_campaign_matches_serial_bit_for_bit(tmp_path, corpus):
    serial = _serial_baseline(ALL_PLATFORMS, corpus)
    for processes in (1, 2):
        sharded, engine = _sharded_baseline(
            ALL_PLATFORMS, corpus, processes=processes
        )
        assert list(sharded) == list(serial), f"processes={processes}"
        counters = engine.telemetry.snapshot()["counters"]
        assert counters["jobs_total"] == len(serial)
        assert counters["shards_done"] == counters["shards_total"] \
            == len(corpus)
        assert counters["jobs_resumed"] == 0
        assert "shards_failed" not in counters
    # Checkpoint files are byte-identical too: the saved JSON is the
    # serialized contract, not just the in-memory equality.
    serial_path, sharded_path = tmp_path / "serial.json", tmp_path / "s.json"
    serial.save(serial_path)
    sharded.save(sharded_path)
    assert serial_path.read_bytes() == sharded_path.read_bytes()


def test_shard_cache_is_shared_across_candidates(corpus):
    local = [cls for cls in ALL_PLATFORMS if cls.name == "local"][0]
    platform = local(random_state=0)
    configs = [c for c in enumerate_configurations(platform)
               if c.feature_selection == "f_classif"][:3]
    engine = ShardedCampaign(processes=2)
    store = engine.run(
        ExperimentRunner(split_seed=7), [local(random_state=0)], corpus,
        {"local": configs},
    )
    assert len(list(store)) == len(configs) * len(corpus)
    stats = engine.fit_cache_stats
    # One feature-step fit per dataset shard, replayed for the other
    # candidates of that shard.
    assert stats["misses"] == len(corpus)
    assert stats["hits"] == (len(configs) - 1) * len(corpus)
    counters = engine.telemetry.snapshot()["counters"]
    assert counters["fit_cache_hits"] == stats["hits"]


def test_stitch_results_is_completion_order_independent():
    shard_results = [
        ShardResult(shard_id=i, dataset=f"d{i}",
                    results=((2 * i, f"r{2 * i}"), (2 * i + 1, f"r{2 * i + 1}")),
                    cache_stats={"entries": i, "hits": 2 * i, "misses": 1})
        for i in range(4)
    ]
    expected = [f"r{j}" for j in range(8)]
    for seed in range(5):
        shuffled = shard_results[:]
        random.Random(seed).shuffle(shuffled)
        assert stitch_results([None] * 8, shuffled) == expected
        merged = merge_cache_stats(
            {r.shard_id: r.cache_stats for r in shuffled}
        )
        assert merged == {"entries": 6, "hits": 12, "misses": 4}


def test_worker_exceptions_propagate_and_fail_the_shard(corpus):
    with pytest.raises(RuntimeError, match="worker boom"):
        _sharded_baseline([ExplodingGoogle], corpus, processes=2)


def test_engine_validates_parameters(corpus):
    with pytest.raises(ValidationError, match="processes"):
        ShardedCampaign(processes=0)

    class LocalOnly(Google):
        pass

    with pytest.raises(ValidationError, match="module-level"):
        ShardedCampaign(processes=2).run(
            ExperimentRunner(split_seed=7),
            [LocalOnly(random_state=0)], corpus,
            {"google": [baseline_configuration(LocalOnly(random_state=0))]},
        )

    clocked = BigML(random_state=0, clock=VirtualClock())
    with pytest.raises(ValidationError, match="clock"):
        ShardedCampaign(processes=2).run(
            ExperimentRunner(split_seed=7), [clocked], corpus,
            {"bigml": [baseline_configuration(clocked)]},
        )


def test_study_routes_processes_through_sharded_engine():
    scale = StudyScale.tiny()
    serial = MLaaSStudy(
        platforms=[Amazon, BigML], scale=scale, random_state=3,
    ).run_baseline()
    processed = MLaaSStudy(
        platforms=[Amazon, BigML], scale=scale, random_state=3, processes=2,
    )
    store = processed.run_baseline()
    assert list(store) == list(serial)
    counters = processed.telemetry.snapshot()["counters"]
    assert counters["shards_done"] == scale.max_datasets


def test_study_rejects_conflicting_backends():
    with pytest.raises(ValidationError, match="not both"):
        MLaaSStudy(platforms=[BigML], workers=2, processes=2)
    with pytest.raises(ValidationError, match="clock"):
        MLaaSStudy(platforms=[BigML], processes=2, clock=VirtualClock())
    with pytest.raises(ValidationError, match="processes"):
        MLaaSStudy(platforms=[BigML], processes=0)
