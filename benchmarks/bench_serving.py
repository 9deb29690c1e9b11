"""Closed-loop serving benchmark (ISSUE 8 acceptance bar).

The claim: the serving tier's collection window turns *concurrent*
clients into shared dedup rounds, so N closed-loop clients sustain
materially higher aggregate QPS than one sequential client — the
PR-5 batch-dedup win, measured end to end through real sockets.

Method: a :class:`~repro.server.BackgroundServer` fronts a session with
the sub-query cache off (so every answer above the
sequential baseline is round-sharing and round overlap, not a warm
cache).  Phase one: a single client issues the repeated-path request
list sequentially.  Phase two: ``CLIENTS`` threads, each with its own
connection, issue the same list concurrently (closed loop — a client
fires its next request the moment the previous answer lands).  Both
phases are byte-checked against in-process answers.

Environment knobs (see ``conftest.py`` for the shared ones):

* ``REPRO_BENCH_SERVE_CLIENTS`` — concurrent clients (default ``6``).
* ``REPRO_BENCH_SERVE_SPEEDUP`` — minimum concurrent-over-sequential
  aggregate QPS ratio (default ``1.3``, the acceptance bar).
* ``REPRO_BENCH_JSON`` — path for the JSON results artifact (QPS for
  both phases, p50/p99 service latency, dedup hit rate).
"""

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor

from repro import EngineConfig, TripRequest, open_db
from repro.server import BackgroundServer, ServerConfig, ServingClient

from .conftest import bench_queries

REPEAT = 3


def _write_artifact(payload: dict) -> None:
    target = os.environ.get("REPRO_BENCH_JSON")
    if not target:
        return
    existing = {}
    if os.path.exists(target):
        with open(target) as handle:
            existing = json.load(handle)
    existing.update(payload)
    with open(target, "w") as handle:
        json.dump(existing, handle, indent=2)


def test_concurrent_clients_outpace_sequential_serving(workload):
    n_clients = int(os.environ.get("REPRO_BENCH_SERVE_CLIENTS", "6"))
    speedup_bar = float(
        os.environ.get("REPRO_BENCH_SERVE_SPEEDUP", "1.3")
    )

    n_distinct = min(8, bench_queries())
    specs = sorted(
        workload.queries, key=lambda s: len(s.path), reverse=True
    )[:n_distinct]
    requests = [
        TripRequest.from_spq(
            spec.to_query("temporal", 900, workload.t_max, 20),
            exclude_ids=(spec.traj_id,),
        )
        for spec in specs
    ] * REPEAT

    db = open_db(
        workload.index,
        network=workload.network,
        config=EngineConfig(cache="off"),
    )
    expected = {
        id(request): result.histogram
        for request, result in zip(requests, db.query_many(requests))
    }

    config = ServerConfig(
        port=0, window_s=0.01, max_batch=64,
        max_inflight=max(256, n_clients * len(requests)),
        executor_workers=2,
    )
    with BackgroundServer(db, config) as background:

        def run_client(_worker: int) -> int:
            answered = 0
            with ServingClient(port=background.port) as client:
                for request in requests:
                    result = client.query(request)
                    assert result.histogram == expected[id(request)], (
                        "served answer diverged from the in-process batch"
                    )
                    answered += 1
            return answered

        # Phase 1: one sequential client.
        started = time.perf_counter()
        sequential_answered = run_client(0)
        sequential_elapsed = time.perf_counter() - started
        sequential_qps = sequential_answered / sequential_elapsed

        # Phase 2: N closed-loop clients over their own connections.
        started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=n_clients) as pool:
            answered = sum(pool.map(run_client, range(n_clients)))
        concurrent_elapsed = time.perf_counter() - started
        concurrent_qps = answered / concurrent_elapsed

        with ServingClient(port=background.port) as client:
            stats = client.stats()

    rounds = stats["rounds"]
    latency = stats["latency"]
    speedup = concurrent_qps / sequential_qps
    print(
        f"\nserving, closed loop ({n_distinct} distinct trips x{REPEAT} "
        f"per client):\n"
        f"  sequential: {sequential_answered} trips, "
        f"{sequential_qps:.0f} q/s\n"
        f"  concurrent: {n_clients} clients, {answered} trips, "
        f"{concurrent_qps:.0f} q/s ({speedup:.2f}x)\n"
        f"  rounds: {rounds['count']} "
        f"(dedup hit rate {rounds['dedup_hit_rate']:.0%}), "
        f"p50 {latency['p50_ms']:.1f} ms, p99 {latency['p99_ms']:.1f} ms"
    )
    _write_artifact(
        {
            "serving": {
                "n_clients": n_clients,
                "n_distinct": n_distinct,
                "repeat": REPEAT,
                "sequential_qps": sequential_qps,
                "concurrent_qps": concurrent_qps,
                "speedup": speedup,
                "rounds": rounds["count"],
                "dedup_hit_rate": rounds["dedup_hit_rate"],
                "scans_saved": rounds["scans_saved"],
                "p50_ms": latency["p50_ms"],
                "p99_ms": latency["p99_ms"],
                "rejected": stats["requests"]["rejected"],
            }
        }
    )

    assert stats["requests"]["rejected"] == 0, (
        "admission control rejected trips under an in-bound load"
    )
    assert rounds["scans_saved"] > 0, (
        "concurrent clients never shared a dedup round"
    )
    assert speedup >= speedup_bar, (
        f"concurrent clients reached {concurrent_qps:.0f} q/s, only "
        f"{speedup:.2f}x the sequential client's {sequential_qps:.0f} "
        f"q/s; bar is {speedup_bar:.2f}x"
    )
