"""In-process query workloads: ``trips-unique`` and ``commute-repeat``.

Both run single-process over a monolithic ``SNTIndex`` of the world,
built, saved and reopened from disk during set-up, with a default
``EngineConfig()``.  The timed phase alternates ``query_many`` batches
with requests answered one at a time by ``query``.
"""

from __future__ import annotations

import hashlib
import itertools
import time
from pathlib import Path
from typing import Callable, Iterable, List, Optional, Tuple

import checks
import inputs
from common import HostSpeed, Outcome, latency_ms, peak_rss_mb, repeated_setup, tree_bytes
from tracing import CacheProxy, IndexProxy, Tracer, install_wrappers

#: ``repro serve`` checks a saved index against this manifest key before
#: trusting it for a world, instead of re-parsing the trajectory file.
WORLD_DIGEST_KEY = "world_trajectories_sha256"


def monolithic(world, index_dir: Path):
    """``build`` and ``save`` steps for the world's monolithic index."""
    from repro import SNTIndex

    with open(world.trajectory_file, "rb") as handle:
        digest = hashlib.file_digest(handle, "sha256").hexdigest()

    def build():
        return SNTIndex.build(world.trajectories, world.network.alphabet_size)

    def save(built) -> None:
        built.save(index_dir, extra={WORLD_DIGEST_KEY: digest})

    return build, save


def record_index(out: Outcome, world, index_dir: Path, build_tps: float) -> None:
    out.metric("ingest_tps", build_tps, "1/s", scaling=-1, phase="setup")
    out.metric(
        "index_bytes_ratio",
        tree_bytes(index_dir) / world.trajectory_file.stat().st_size,
        "ratio",
    )


def monolithic_setup(world, warmup: list, index_dir: Path, out: Outcome):
    """Set up a session over the world's saved monolithic index."""
    from repro import open_db

    build, save = monolithic(world, index_dir)
    db, build_tps = repeated_setup(
        out,
        build,
        save,
        lambda: open_db(str(index_dir), network=world.network),
        lambda db: db.query_many(warmup),
    )
    record_index(out, world, index_dir, build_tps)
    return db


class Plan:
    """What one pass over an op list answered, and how long it took."""

    def __init__(self) -> None:
        self.ops: List[Tuple[str, list]] = []
        self.batches: List[Tuple[list, list]] = []
        self.singles: List[Tuple[object, object]] = []
        self.batch_lat: List[float] = []
        self.single_lat: List[float] = []

    @property
    def n_requests(self) -> int:
        return sum(len(r) for r, _ in self.batches) + len(self.singles)

    @property
    def wall(self) -> float:
        return sum(self.batch_lat) + sum(self.single_lat)

    def answers(self) -> list:
        return [r for _, rs in self.batches for r in rs] + [
            r for _, r in self.singles
        ]


def run_plan(session, ops: Iterable[Tuple[str, list]], tracer=None,
             deadline: Optional[float] = None,
             speed: Optional[HostSpeed] = None) -> Plan:
    """Answer ``("batch" | "single", requests)`` ops, timing each call.

    With a ``deadline`` (a ``perf_counter`` value), stops taking ops
    once it has passed.  With a ``tracer``, each call is a root span.
    With ``speed``, the host's speed is sampled before each op.
    """
    plan = Plan()

    def call(name: str, method, argument):
        if tracer is None:
            return method(argument)
        with tracer.span(name, tracer.new_request()):
            return method(argument)

    for kind, requests in ops:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if speed is not None:
            speed.sample()
        plan.ops.append((kind, requests))
        if kind == "batch":
            t = time.perf_counter()
            results = call("core.query_many", session.query_many, requests)
            plan.batch_lat.append(time.perf_counter() - t)
            plan.batches.append((requests, results))
            continue
        for request in requests:
            t = time.perf_counter()
            result = call("core.query", session.query, request)
            plan.single_lat.append(time.perf_counter() - t)
            plan.singles.append((request, result))
    return plan


def run_timed(session, next_op: Callable[[int], Tuple[str, list]],
              seconds: float, speed: HostSpeed) -> Plan:
    """Answer ops from ``next_op`` until ``seconds`` have passed."""
    ops = (next_op(step) for step in itertools.count())
    return run_plan(session, ops, deadline=time.perf_counter() + seconds,
                    speed=speed)


def record_queries(out: Outcome, plan: Plan) -> None:
    n_batch = sum(len(r) for r, _ in plan.batches)
    out.metric("batch_qps", n_batch / sum(plan.batch_lat), "1/s", scaling=-1)
    p50, tail, q, n = latency_ms(plan.single_lat)
    out.metric("query_p50_ms", p50, "ms", scaling=1)
    out.metric("query_p99_ms", tail, "ms", scaling=1)
    out.metric("served_rate_ok_rps", n / sum(plan.single_lat), "1/s", scaling=-1)
    out.notes.append(
        f"batch_qps over {n_batch} requests in {len(plan.batches)} batches; "
        f"query_p50/p{q * 100:.2f} over n={n} one-at-a-time queries; "
        "served_rate_ok_rps is one in-process caller's closed-loop rate"
    )


def check_plan(out: Outcome, world, index, plan: Plan, seed: int) -> None:
    requests, results = checks.flatten(plan.batches)
    requests += [r for r, _ in plan.singles]
    results += [r for _, r in plan.singles]
    out.attempted += len(requests)
    n, wrong = checks.oracle(world, requests, results, seed, n=6)
    out.notes.append(f"oracle check: {n - wrong}/{n} sampled sub-queries equal")
    out.fail(wrong, "sub-query answer differs from naive_travel_times")
    batch_requests, batch_results = checks.flatten(plan.batches)
    n, wrong = checks.one_at_a_time(
        index, world.network, batch_requests, batch_results, seed, n=16
    )
    out.notes.append(f"batch check: {n - wrong}/{n} equal one at a time")
    out.fail(wrong, "batch answer differs from the one-at-a-time answer")


def traced_replay(out: Outcome, index, network, ops, warmup,
                  tracer: Tracer) -> None:
    """Answer ``ops`` untraced, then through proxies; per-layer metrics.

    Both passes start from a fresh session given the same warm-up, on an
    index the timed phase already warmed, so their difference is the
    tracing overhead.
    """
    from repro import EngineConfig, open_db
    from repro.service import resolve_cache_backend

    baseline_session = open_db(index, network=network)
    if warmup:
        baseline_session.query_many(warmup)
    baseline = run_plan(baseline_session, ops)

    index_proxy = IndexProxy(index, tracer)
    cache_proxy = CacheProxy(resolve_cache_backend(EngineConfig(), index), tracer)
    session = open_db(index_proxy, network=network, cache=cache_proxy)
    with install_wrappers(tracer):
        if warmup:
            session.query_many(warmup)
        tracer.spans.clear()
        tracer.amounts.clear()
        cache_proxy.result_keys.clear()
        index_proxy.scan_results = index_proxy.empty_scans = 0
        before = session.cache_stats()
        traced = run_plan(session, ops, tracer)
        cache = cache_delta(before, session.cache_stats())
    untraced_wall, traced_wall = baseline.wall, traced.wall
    out.layer("trace.overhead_ratio", traced_wall / untraced_wall - 1.0, "ratio")
    out.layer("trace.overhead_s", traced_wall - untraced_wall, "s")
    out.notes.append(
        f"tracing overhead: {traced_wall:.3f} s traced vs "
        f"{untraced_wall:.3f} s untraced for the same {traced.n_requests} requests"
    )
    # Traced answers must equal untraced ones byte for byte.
    n, wrong = checks.same_answers(baseline.answers(), traced.answers())
    out.notes.append(f"proxy fidelity: {n - wrong}/{n} traced answers equal")
    out.fail(wrong, "traced answer differs from the untraced answer")
    layer_metrics(out, tracer, [index_proxy], [cache_proxy], cache,
                  traced.n_requests, len(traced.batches))


def cache_delta(before, after) -> dict:
    """``{section: (hits, misses, evictions)}`` between two CacheStats."""
    out = {}
    for section in ("ranges", "results", "histograms"):
        a = getattr(after, section)
        b = getattr(before, section) if before is not None else None
        out[section] = (
            a.hits - (b.hits if b else 0),
            a.misses - (b.misses if b else 0),
            a.evictions - (b.evictions if b else 0),
        )
    return out


def merge_deltas(deltas: list) -> dict:
    return {
        section: tuple(sum(d[section][i] for d in deltas) for i in range(3))
        for section in ("ranges", "results", "histograms")
    }


def layer_metrics(out: Outcome, tracer: Tracer, index_proxies: list,
                  cache_proxies: list, cache: dict, n_trips: int,
                  n_batches: int) -> None:
    """Per-layer figures of one traced pass.

    ``cache`` is a :func:`cache_delta` over the pass; the proxies are
    every index/cache proxy the pass's sessions used.
    """
    totals = tracer.totals()

    def span(name: str) -> dict:
        return totals.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    for name in (
        "fmindex.isa_ranges",
        "fmindex.isa_ranges_many",
        "sntindex.scan",
        "sntindex.count_matches",
        "histogram.build",
        "histogram.convolve",
        "service.cache.get",
        "service.cache.put",
    ):
        out.layer(f"{name}.calls", span(name)["calls"], "count")
        out.layer(f"{name}.s", span(name)["s"], "s")
    amounts = tracer.amounts
    out.layer(
        "fmindex.isa_ranges_many.paths",
        amounts.get("fmindex.isa_ranges_many.paths", 0),
        "count",
    )
    demands = amounts.get("sntindex.scan.demands", 0)
    out.layer("sntindex.scan.demands", demands, "count")
    scans = sum(p.scan_results for p in index_proxies)
    empties = sum(p.empty_scans for p in index_proxies)
    out.layer("sntindex.scan.empty_ratio", empties / max(1, scans), "ratio")
    for section, (hits, misses, _) in cache.items():
        out.layer(
            f"service.cache.{section}.hit_ratio",
            hits / max(1, hits + misses),
            "ratio",
        )
    out.layer(
        "service.cache.evictions",
        sum(evictions for _, _, evictions in cache.values()),
        "count",
    )
    keys = [k for p in cache_proxies for k in p.result_keys]
    core_self = span("core.query_many")["self_s"] + span("core.query")["self_s"]
    out.layer("core.exec.self_s", core_self, "s")
    out.layer("core.plan.subqueries_per_trip", len(keys) / n_trips, "count")
    out.layer("core.exec.scans_per_trip", demands / n_trips, "count")
    out.layer(
        "core.exec.dedup.unique_ratio",
        len(set(keys)) / max(1, len(keys)),
        "ratio",
    )
    batch_scans = sum(
        1
        for name, _, _, parent, _, _ in tracer.spans
        if name == "sntindex.scan"
        and parent >= 0
        and tracer.spans[parent][0] == "core.query_many"
    )
    out.layer("core.exec.rounds", batch_scans / max(1, n_batches), "count")
    for layer, names in (
        ("fmindex", ("fmindex.isa_ranges", "fmindex.isa_ranges_many")),
        ("sntindex", ("sntindex.scan", "sntindex.count_matches")),
        ("histogram", ("histogram.build", "histogram.convolve")),
        ("service.cache", ("service.cache.get", "service.cache.put")),
    ):
        out.layer(f"{layer}.self_s", sum(span(n)["self_s"] for n in names), "s")
    out.layer("trace.spans", len(tracer.spans), "count")


def shape_pass(out: Outcome, index, network, requests: list) -> None:
    """Execution-derived traffic-shape counts over a fixed request prefix.

    The requests are answered one at a time in a fresh session, so each
    probed result key belongs to exactly one request.
    """
    from repro import EngineConfig, open_db
    from repro.service import resolve_cache_backend

    tracer = Tracer()
    index_proxy = IndexProxy(index, tracer)
    cache_proxy = CacheProxy(resolve_cache_backend(EngineConfig(), index), tracer)
    session = open_db(index_proxy, network=network, cache=cache_proxy)
    seen = set()
    repeated = 0
    for request in requests:
        start = len(cache_proxy.result_keys)
        session.query(request)
        keys = cache_proxy.result_keys[start:]
        repeated += any(k in seen for k in keys)
        seen.update(keys)
    n = len(requests)
    out.layer("shape.requests", n, "count")
    out.layer("shape.key_repeat_share", repeated / n, "ratio")
    out.layer(
        "shape.subqueries_per_trip", len(cache_proxy.result_keys) / n, "count"
    )
    out.layer(
        "shape.empty_scan_share",
        index_proxy.empty_scans / max(1, index_proxy.scan_results),
        "ratio",
    )
    for name, value in inputs.static_shape(requests).items():
        out.layer(name, value, "ratio" if "mix" in name or "share" in name else "count")


def finish(out: Outcome) -> None:
    out.metric("peak_rss_mb", peak_rss_mb(), "MB")


# ---------------------------------------------------------------------- #
# Workloads
# ---------------------------------------------------------------------- #

def trips_unique(ctx) -> Outcome:
    """Paper mix over self-excluded second-half trips; no key repeats."""
    from repro import open_db

    out = Outcome()
    world = ctx.world
    t_max = world.trajectories.time_span()[1]
    stream = inputs.UniqueTrips(world.trajectories, t_max, ctx.seed)
    ctx.check_digest(
        lambda s: inputs.UniqueTrips(world.trajectories, t_max, s).stream_prefix(300),
        out,
    )
    db = monolithic_setup(world, stream.warmup(), ctx.workdir / "index", out)
    index = db.index

    def next_op(step: int):
        if step % 2 == 0:
            return "batch", stream.next_batch(32)
        return "single", stream.next_singles(96)

    seconds = ctx.seconds / 2 if ctx.trace else ctx.seconds
    session = open_db(index, network=world.network)
    plan = run_timed(session, next_op, seconds, out.speed)
    record_queries(out, plan)
    check_plan(out, world, index, plan, ctx.seed)
    if ctx.trace:
        traced_replay(out, index, world.network, plan.ops, [], ctx.tracer)
        prefix = inputs.UniqueTrips(world.trajectories, t_max, ctx.seed)
        shape_pass(out, index, world.network, prefix.stream_prefix(150))
    finish(out)
    return out


def commute_repeat(ctx) -> Outcome:
    """Zipf-popular commute paths in one long-lived, warmed session."""
    out = Outcome()
    world = ctx.world
    traffic = inputs.CommuteTraffic(world.trajectories, ctx.seed)
    ctx.check_digest(
        lambda s: inputs.CommuteTraffic(world.trajectories, s).requests(
            inputs.TIMED, 300
        ),
        out,
    )
    warmup = traffic.requests(inputs.WARMUP, 256)
    db = monolithic_setup(world, warmup, ctx.workdir / "index", out)
    index = db.index
    stream = traffic.stream(inputs.TIMED)

    def next_op(step: int):
        if step % 2 == 0:
            return "batch", stream(64)
        return "single", stream(32)

    seconds = ctx.seconds / 2 if ctx.trace else ctx.seconds
    plan = run_timed(db, next_op, seconds, out.speed)
    record_queries(out, plan)
    check_plan(out, world, index, plan, ctx.seed)
    if ctx.trace:
        traced_replay(out, index, world.network, plan.ops, warmup, ctx.tracer)
        shape_pass(out, index, world.network, traffic.requests(inputs.TIMED, 300))
    finish(out)
    return out
