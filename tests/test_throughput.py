"""Tests for the throughput experiments."""

import pytest

from repro.experiments import (
    build_workload,
    measure_batch_service,
    measure_throughput,
)


@pytest.fixture(scope="module")
def workload():
    return build_workload("tiny", seed=0)


def test_single_worker(workload):
    (result,) = measure_throughput(
        workload, worker_counts=(1,), n_queries=8
    )
    assert result.n_workers == 1
    assert result.n_queries == 8
    assert result.queries_per_second > 0


def test_all_queries_processed_across_workers(workload):
    results = measure_throughput(
        workload, worker_counts=(1, 3), n_queries=10
    )
    assert [r.n_queries for r in results] == [10, 10]


def test_concurrent_readers_do_not_corrupt_results(workload):
    """Same answers single- and multi-threaded (index is immutable)."""
    from repro import EngineConfig, QueryEngine, TripRequest

    engine = QueryEngine(
        workload.index, workload.network, EngineConfig(partitioner="pi_Z")
    )
    spec = workload.queries[0]
    request = TripRequest.from_spq(
        spec.to_query("temporal", 900, workload.t_max, 10),
        exclude_ids=(spec.traj_id,),
    )
    before = engine.query(request)
    measure_throughput(workload, worker_counts=(4,), n_queries=10)
    after = engine.query(request)
    assert before.histogram == after.histogram


def test_invalid_worker_count(workload):
    with pytest.raises(ValueError):
        measure_throughput(workload, worker_counts=(1, -2))


def test_batch_service_modes_and_equivalence(workload):
    results, identical = measure_batch_service(
        workload, n_queries=4, repeat=2, n_workers=2
    )
    assert identical
    by_mode = {r.mode: r for r in results}
    assert set(by_mode) == {
        "sequential", "batched", "cached-cold", "cached-warm"
    }
    assert all(r.n_queries == 8 for r in results)
    # Scans + hits is the same work in every mode; the warm cache does
    # all of it without touching the index.
    work = by_mode["sequential"].n_index_scans
    assert work > 0
    for result in results:
        assert result.n_index_scans + result.n_cache_hits == work
    assert by_mode["sequential"].n_cache_hits == 0
    # Without a shared cache the batch still scans each repeated
    # request's sub-queries once: the copy rides on the first's scan.
    assert by_mode["batched"].n_cache_hits == work // 2
    assert by_mode["cached-warm"].n_index_scans == 0


def test_batch_service_rejects_bad_arguments(workload):
    with pytest.raises(ValueError):
        measure_batch_service(workload, n_queries=0)
    with pytest.raises(ValueError):
        measure_batch_service(workload, repeat=0)


def test_batch_service_reports_nothing_shardwise_for_monolithic(workload):
    results, _ = measure_batch_service(workload, n_queries=3, repeat=1)
    assert all(r.shard_scans is None for r in results)
    assert all(r.shard_prune_rate is None for r in results)


def test_batch_service_reports_per_shard_scans(workload):
    from dataclasses import replace

    from repro import ShardedSNTIndex

    sharded = ShardedSNTIndex.build(
        workload.dataset.trajectories,
        workload.network.alphabet_size,
        n_shards=3,
        partition_days=7,
    )
    sharded_workload = replace(workload, index=sharded)
    results, identical = measure_batch_service(
        sharded_workload, n_queries=4, repeat=2, n_workers=2
    )
    assert identical
    by_mode = {r.mode: r for r in results}
    for result in results:
        assert result.shard_scans is not None
        assert set(result.shard_scans) == {
            "shard_0000", "shard_0001", "shard_0002"
        }
        assert result.shard_prune_rate is not None
        assert 0.0 <= result.shard_prune_rate <= 1.0
    # The warm cache answers without touching the index, so no shard
    # sees a scan in that mode; the uncached modes scan every dispatch.
    assert sum(by_mode["cached-warm"].shard_scans.values()) == 0
    assert sum(by_mode["sequential"].shard_scans.values()) > 0
