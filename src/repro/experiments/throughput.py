"""Query-throughput experiment (paper Section 7, future work).

The paper's outlook: "While the processing time of a single query might
not considerably improve through parallelization, the overall query
throughput of the system most likely could, making it suitable for online
routing applications that support a large number of users."

The SNT-index is immutable after build, so concurrent readers need no
synchronisation.  This experiment measures queries/second for a fixed
batch of trip queries executed by 1..N worker threads sharing one index.
CPython's GIL caps the speed-up for pure-Python sections, but the numpy
kernels (temporal scans, mask filters) release the GIL, so moderate
scaling is expected — the honest quantification is the point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..api import EngineConfig, TravelTimeDB, TripRequest, open_db
from .workload import Workload

__all__ = [
    "ThroughputResult",
    "measure_throughput",
    "BatchServiceResult",
    "measure_batch_service",
]


@dataclass(frozen=True)
class ThroughputResult:
    """Queries/second for one worker count."""

    n_workers: int
    n_queries: int
    elapsed_s: float

    @property
    def queries_per_second(self) -> float:
        return self.n_queries / self.elapsed_s if self.elapsed_s > 0 else 0.0


def measure_throughput(
    workload: Workload,
    worker_counts: Sequence[int] = (1, 2, 4),
    n_queries: int = 60,
    beta: int = 20,
    partitioner: str = "pi_Z",
) -> List[ThroughputResult]:
    """Run the same query batch under different worker-pool sizes.

    Execution goes through :meth:`repro.api.TravelTimeDB.query_many`
    (uncached, so every run measures real index work); each executor
    round's scans fan out over ``n_workers`` threads on the shared
    immutable index.
    """
    if any(w < 1 for w in worker_counts):
        raise ValueError("worker counts must be positive")
    specs = workload.queries[:n_queries]
    requests = [
        TripRequest.from_spq(
            spec.to_query("temporal", 900, workload.t_max, beta),
            exclude_ids=(spec.traj_id,),
        )
        for spec in specs
    ]

    results = []
    for n_workers in worker_counts:
        db = open_db(
            workload.index,
            network=workload.network,
            cache=None,
            config=EngineConfig(partitioner=partitioner),
        )
        started = time.perf_counter()
        answered = db.query_many(requests, n_workers=n_workers)
        elapsed = time.perf_counter() - started
        assert len(answered) == len(requests)
        results.append(
            ThroughputResult(
                n_workers=n_workers,
                n_queries=len(requests),
                elapsed_s=elapsed,
            )
        )
    return results


@dataclass(frozen=True)
class BatchServiceResult:
    """One execution mode of the batch-service comparison."""

    mode: str
    n_queries: int
    elapsed_s: float
    n_index_scans: int
    n_cache_hits: int
    #: Index scans each shard served during this mode (sharded index
    #: only; ``None`` over a monolithic index).  Keys are shard labels
    #: in temporal order, ``staging`` last.
    shard_scans: Optional[Dict[str, int]] = None
    #: Fraction of shard routing decisions resolved by interval pruning
    #: during this mode (sharded index only).
    shard_prune_rate: Optional[float] = None

    @property
    def queries_per_second(self) -> float:
        return self.n_queries / self.elapsed_s if self.elapsed_s > 0 else 0.0


def measure_batch_service(
    workload: Workload,
    n_queries: int = 20,
    repeat: int = 3,
    beta: int = 20,
    partitioner: str = "pi_Z",
    n_workers: int = 4,
) -> Tuple[List[BatchServiceResult], bool]:
    """Single vs. batched vs. cached QPS on a repeated-path workload.

    The workload repeats every query ``repeat`` times — the shape the
    shared cache is built for (commuters re-asking the same trips).
    Modes:

    * ``sequential`` — one ``db.query`` call per trip (per-trip cache
      only), the paper's Procedure 6 baseline;
    * ``batched`` — ``db.query_many`` with ``n_workers`` scan threads,
      no shared cache (in-batch dedup only);
    * ``cached-cold`` — ``db.query_many`` on one thread with an empty
      shared :class:`~repro.service.SubQueryCache` (repeats hit within
      the pass);
    * ``cached-warm`` — the same batch again on the warm cache.

    Returns the per-mode results plus a flag confirming all modes
    produced identical histograms and point estimates.  Over a sharded
    index (``workload.index`` exposing ``shard_stats``), each mode also
    reports the per-shard scan counts and the shard-pruning hit rate it
    caused — warm-cache modes show near-zero shard scans, and
    interval-pruned shards show how much of the corpus a query batch
    never touches.
    """
    if repeat < 1 or n_queries < 1:
        raise ValueError("n_queries and repeat must be positive")
    specs = workload.queries[:n_queries]
    base_requests = [
        TripRequest.from_spq(
            spec.to_query("temporal", 900, workload.t_max, beta),
            exclude_ids=(spec.traj_id,),
        )
        for spec in specs
    ]
    requests = base_requests * repeat

    def shard_snapshot():
        stats_fn = getattr(workload.index, "shard_stats", None)
        return stats_fn() if stats_fn is not None else None

    def tally(
        mode: str, answered, elapsed: float, before, after
    ) -> BatchServiceResult:
        shard_scans = None
        prune_rate = None
        if before is not None and after is not None:
            shard_scans = {
                label: count - before.per_shard_scans.get(label, 0)
                for label, count in after.per_shard_scans.items()
            }
            scans = after.n_shard_scans - before.n_shard_scans
            pruned = after.n_shards_pruned - before.n_shards_pruned
            decisions = scans + pruned
            prune_rate = pruned / decisions if decisions else 0.0
        return BatchServiceResult(
            mode=mode,
            n_queries=len(answered),
            elapsed_s=elapsed,
            n_index_scans=sum(r.n_index_scans for r in answered),
            n_cache_hits=sum(r.n_cache_hits for r in answered),
            shard_scans=shard_scans,
            shard_prune_rate=prune_rate,
        )

    results: List[BatchServiceResult] = []
    answers = {}

    def run_mode(mode: str, answer_batch) -> None:
        before = shard_snapshot()
        started = time.perf_counter()
        answers[mode] = answer_batch()
        elapsed = time.perf_counter() - started
        results.append(
            tally(mode, answers[mode], elapsed, before, shard_snapshot())
        )

    config = EngineConfig(partitioner=partitioner)
    sequential_db = open_db(
        workload.index, network=workload.network, cache=None, config=config
    )
    run_mode(
        "sequential",
        lambda: [sequential_db.query(request) for request in requests],
    )

    fanout: TravelTimeDB = open_db(
        workload.index, network=workload.network, cache=None, config=config
    )
    run_mode(
        "batched",
        lambda: fanout.query_many(requests, n_workers=n_workers),
    )

    cached = open_db(
        workload.index, network=workload.network, config=config
    )
    run_mode("cached-cold", lambda: cached.query_many(requests))
    run_mode("cached-warm", lambda: cached.query_many(requests))

    reference = answers["sequential"]
    identical = all(
        result.histogram == expected.histogram
        and result.estimated_mean == expected.estimated_mean
        for mode in ("batched", "cached-cold", "cached-warm")
        for result, expected in zip(answers[mode], reference)
    )
    return results, identical
