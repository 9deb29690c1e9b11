"""Batch service QPS: single vs. batched vs. cached (ISSUE 1 tentpole).

Quantifies what the serving layer buys on a repeated-path workload —
the shape the shared :class:`repro.service.SubQueryCache` is built for:
every query repeats ``REPEAT`` times, as commuter traffic repeats trips.

* ``sequential`` is Procedure 6 as the paper runs it, one trip at a time;
* ``batched`` is one ``query_many`` batch without a shared cache
  (in-batch dedup, scans fanned out over threads);
* ``cached-cold`` / ``cached-warm`` add the shared sub-query cache.

The acceptance bar (ISSUE 1): a warm cache must answer the repeated
workload at >= 2x the sequential QPS while producing *identical*
histograms — the equivalence flag is asserted, not assumed.
"""

import os
import time

import pytest

from repro import EngineConfig, QueryEngine, SubQueryCache, TripRequest, open_db
from repro.experiments import format_table, measure_batch_service

from .conftest import bench_queries

REPEAT = 3


def test_batch_service_speedup(workload, benchmark, capsys):
    n_queries = min(20, bench_queries())
    benchmark.pedantic(
        measure_batch_service,
        args=(workload,),
        kwargs={"n_queries": min(5, n_queries), "repeat": 2},
        rounds=2,
        iterations=1,
    )

    results, identical = measure_batch_service(
        workload, n_queries=n_queries, repeat=REPEAT, n_workers=4
    )
    assert identical, "service answers diverged from the sequential loop"

    by_mode = {r.mode: r for r in results}
    base = by_mode["sequential"].queries_per_second
    rows = [
        [
            r.mode,
            r.n_queries,
            f"{r.queries_per_second:.0f}",
            f"{r.queries_per_second / base:.2f}x",
            r.n_index_scans,
            r.n_cache_hits,
        ]
        for r in results
    ]
    print("\n" + format_table(
        ["mode", "queries", "q/s", "speed-up", "scans", "hits"],
        rows,
        title=f"Batch service on a repeated-path workload "
        f"(every query x{REPEAT})",
    ))
    print(
        "Finding: in-batch dedup scans each repeat once, and the shared "
        "cache turns repeated sub-paths into\ndictionary lookups — scans + hits is "
        "invariant across modes, so the answers are provably\nthe same "
        "work, answered faster."
    )

    warm = by_mode["cached-warm"]
    assert warm.n_index_scans == 0, "warm cache should answer without scans"
    assert warm.queries_per_second >= 2.0 * base, (
        f"warm-cache QPS {warm.queries_per_second:.0f} is below 2x the "
        f"sequential {base:.0f}"
    )


def test_typed_api_no_hot_loop_overhead(workload):
    """Request-object guard (ISSUE 3): warm-cache QPS through the typed
    ``open_db``/``TripRequest`` API must stay within
    ``REPRO_BENCH_API_OVERHEAD`` (default 5%) of the direct-engine path
    (``engine.run_batch`` over raw ``(spq, exclude_ids, None)`` tasks).

    Both paths share one warm :class:`SubQueryCache` over the same index
    and network, so every retrieval is a dictionary hit and the measured
    difference is exactly the per-request object overhead
    (validation + ``to_spq`` + back-reference).  Best-of-``ROUNDS``
    timings are compared to keep scheduler noise out of the bar.
    """
    threshold = float(os.environ.get("REPRO_BENCH_API_OVERHEAD", "0.95"))
    rounds = 7
    n_queries = min(20, bench_queries())
    specs = workload.queries[:n_queries]
    # A large per-round workload (~hundreds of warm queries) keeps each
    # timed section well above scheduler-noise granularity; with ~20 ms
    # rounds the 5% budget was within jitter and the guard flaked.
    multiplier = max(REPEAT, 600 // max(1, n_queries))
    requests = [
        TripRequest.from_spq(
            spec.to_query("temporal", 900, workload.t_max, 20),
            exclude_ids=(spec.traj_id,),
        )
        for spec in specs
    ] * multiplier
    tasks = [(r.to_spq(), r.exclude_ids, None) for r in requests]

    cache = SubQueryCache()
    config = EngineConfig(partitioner="pi_Z")
    engine = QueryEngine(
        workload.index, workload.network, config, cache=cache
    )
    db = open_db(
        workload.index, network=workload.network, cache=cache, config=config
    )

    def run_direct():
        return engine.run_batch(tasks)[0]

    def run_api():
        return db.query_many(requests)

    direct_results = run_direct()  # warms the shared cache
    api_results = run_api()
    assert all(
        a.histogram == d.histogram and a.estimated_mean == d.estimated_mean
        for a, d in zip(api_results, direct_results)
    ), "typed API diverged from the direct engine path"

    # Interleave the timed rounds so clock-frequency drift or a stray
    # background task penalises both paths equally; best-of compares the
    # least-disturbed round of each.
    direct_times, api_times = [], []
    for _ in range(rounds):
        direct_times.append(_timed(run_direct))
        api_times.append(_timed(run_api))
    best_direct = min(direct_times)
    best_api = min(api_times)
    direct_qps = len(requests) / best_direct
    api_qps = len(requests) / best_api
    print(
        f"\nwarm-cache QPS: direct {direct_qps:.0f}, typed API "
        f"{api_qps:.0f} ({api_qps / direct_qps:.1%} of direct; "
        f"bar {threshold:.0%})"
    )
    assert api_qps >= threshold * direct_qps, (
        f"typed-API warm QPS {api_qps:.0f} fell below {threshold:.0%} of "
        f"the direct-engine path {direct_qps:.0f} — request-object "
        "overhead has entered the hot loop"
    )


def _timed(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started
