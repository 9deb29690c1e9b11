"""``ingest-append``: appends and seals beside reads, then compaction.

Set-up builds a ``ShardedSNTIndex`` over the first ``BASE_WEEKS``
``t_min``-relative 7-day windows, saves it, reopens it and warms it.
One ingest pass then, starting from the saved base:

* appends the next ``APPEND_WEEKS`` windows one week per ``append()``
  (aligned to the index's partition windows, as ``append`` requires),
  with ``seal_staging()`` after every ``SEAL_EVERY`` appends;
* after each append, answers a ``query_many`` batch (the paper mix over
  appended trips, each excluding itself) and a few one-at-a-time
  ``query`` calls;
* saves once while the staging shard is unsealed;
* ends with ``compact()``, a ``save`` to an ``ObjectStore``, a reopen
  through it with ``load_any_index`` and a final batch.

Passes repeat until the timed phase is over.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path
from typing import List, Optional

import checks
import inputs
from common import (
    HostSpeed, Outcome, latency_ms, median, peak_rss_mb, repeated_setup, tree_bytes,
)
from inproc import cache_delta, layer_metrics, merge_deltas, shape_pass
from tracing import CacheProxy, IndexProxy, Tracer, install_wrappers, store_proxy

BASE_WEEKS = 16
APPEND_WEEKS = 6
SEAL_EVERY = 3
#: The append after which the index is saved with unsealed staging.
UNSEALED_SAVE_AFTER = 4
BASE_SHARDS = 2
TRIPS_PER_WEEK = 2


class Corpus:
    """The base and weekly append slices of the world, plus requests.

    Each week's query trips are a fixed sample of that week (drawn with
    the world seed) asked as the paper's three types; the run's seed
    orders them.  Every week's requests are answered twice, by a
    ``query_many`` batch and one at a time, each in a fresh session, so
    both figures cover the same requests.
    """

    def __init__(self, world, seed: int) -> None:
        trajectories = world.trajectories
        t_min, _ = trajectories.time_span()
        weeks = inputs.trip_weeks(trajectories, t_min)
        self.base = [t for w in range(BASE_WEEKS) for t in weeks.get(w, [])]
        self.appends = [
            weeks[w] for w in range(BASE_WEEKS, BASE_WEEKS + APPEND_WEEKS)
        ]
        t_end = max(t.start_time for week in self.appends for t in week) + 1
        fixed = inputs.rng(inputs.WORLD_SEED, inputs.POOL_DRAW)
        order = inputs.rng(seed, inputs.TIMED)
        self.weekly: List[list] = []
        for week in self.appends:
            eligible = [t for t in week if len(t) >= inputs.MIN_PATH]
            picks = fixed.choice(len(eligible), TRIPS_PER_WEEK, replace=False)
            requests = [
                r for i in picks for r in inputs.paper_requests(eligible[i], t_end)
            ]
            self.weekly.append([requests[i] for i in order.permutation(len(requests))])
        # A fixed warm-up sample, so that set-up times the same work
        # for every seed.
        warm = [t for t in self.base[-400:] if len(t) >= inputs.MIN_PATH]
        self.warmup = [
            r
            for i in fixed.choice(len(warm), 8, replace=False)
            for r in inputs.paper_requests(warm[i], t_end)
        ]

    def all_requests(self) -> list:
        return [r for week in self.weekly for r in week]

    def final_sample(self) -> list:
        """Asked after compaction and after the reopen: the first and
        last appended weeks."""
        return self.weekly[0] + self.weekly[-1]


class PassResult:
    """Timings and answers of one ingest pass."""

    def __init__(self) -> None:
        #: Per appended week: ``append`` plus any ``seal_staging`` time.
        self.ingest_s: List[float] = []
        self.batch_lat: List[float] = []
        self.batch_n: List[int] = []
        self.single_lat: List[float] = []
        self.traversals = 0
        self.shards_max = 0
        self.routing = None
        self.compacted_answers: list = []
        self.final_answers: list = []
        self.answers: list = []
        self.wall = 0.0
        self.remote_bytes = 0
        #: (index proxy, cache proxy, session) per traced session.
        self.sessions: list = []


def one_pass(ctx, corpus: Corpus, base_dir, k: int,
             tracer: Optional[Tracer] = None,
             speed: Optional[HostSpeed] = None) -> PassResult:
    from repro import EngineConfig, load_any_index, open_db
    from repro.service import resolve_cache_backend
    from repro.sntindex import ObjectStore

    res = PassResult()
    started = time.perf_counter()
    index = load_any_index(str(base_dir))
    network = ctx.world.network

    def session(reader):
        if tracer is None:
            return open_db(reader, network=network)
        cache = CacheProxy(resolve_cache_backend(EngineConfig(), reader), tracer)
        proxy = IndexProxy(reader, tracer)
        db = open_db(proxy, network=network, cache=cache)
        res.sessions.append((proxy, cache, db))
        return db

    def ask(db, requests):
        t = time.perf_counter()
        if tracer is None:
            answers = db.query_many(requests)
        else:
            with tracer.span("core.query_many", tracer.new_request()):
                answers = db.query_many(requests)
        res.batch_lat.append(time.perf_counter() - t)
        res.batch_n.append(len(requests))
        res.answers.extend(answers)
        return answers

    def timed(name: str, call):
        t = time.perf_counter()
        if tracer is None:
            call()
        else:
            with tracer.span(name, tracer.new_request()):
                call()
        return time.perf_counter() - t

    def one_at_a_time(db, requests):
        for request in requests:
            t = time.perf_counter()
            if tracer is None:
                res.answers.append(db.query(request))
            else:
                with tracer.span("core.query", tracer.new_request()):
                    res.answers.append(db.query(request))
            res.single_lat.append(time.perf_counter() - t)

    for week, trips in enumerate(corpus.appends):
        if speed is not None:
            speed.sample()
        res.ingest_s.append(timed("sharded.append", lambda: index.append(trips)))
        res.traversals += sum(len(t) for t in trips)
        res.shards_max = max(res.shards_max, index.n_shards)
        # Whichever goes first pays the new staging shard's lazy
        # set-up, so the two alternate.
        ways = [ask, one_at_a_time]
        for answer in ways if week % 2 == 0 else ways[::-1]:
            answer(session(index), corpus.weekly[week])
        if week == UNSEALED_SAVE_AFTER:
            target = ctx.workdir / f"unsealed-{k}"
            timed("sharded.save", lambda: index.save(str(target)))
        if (week + 1) % SEAL_EVERY == 0:
            res.ingest_s[-1] += timed("sharded.seal", index.seal_staging)
    res.routing = index.shard_stats()
    timed("sharded.compact", index.compact)
    res.compacted_answers = ask(session(index), corpus.final_sample())

    remote = ctx.workdir / f"remote-{k}"
    store = ObjectStore(remote, cache_dir=ctx.workdir / f"page-cache-{k}")
    if tracer is not None:
        store = store_proxy(store, tracer)
    timed("sharded.save", lambda: index.save(store))
    holder = {}
    timed("sharded.open", lambda: holder.update(index=load_any_index(store)))
    res.final_answers = ask(session(holder["index"]), corpus.final_sample())
    res.remote_bytes = tree_bytes(remote)
    res.wall = time.perf_counter() - started
    for scratch in ("unsealed", "remote", "page-cache"):
        shutil.rmtree(ctx.workdir / f"{scratch}-{k}", ignore_errors=True)
    return res


def ingest_setup(ctx, corpus: Corpus, out: Outcome) -> Path:
    """Build, save, reopen and warm the base index; returns its directory."""
    from repro import ShardedSNTIndex, TrajectorySet, load_any_index, open_db

    network = ctx.world.network
    base_dir = ctx.workdir / "base"
    repeated_setup(
        out,
        lambda: ShardedSNTIndex.build(
            TrajectorySet(corpus.base), network.alphabet_size,
            n_shards=BASE_SHARDS, partition_days=7,
        ),
        lambda built: built.save(str(base_dir)),
        lambda: open_db(load_any_index(str(base_dir)), network=network),
        lambda db: db.query_many(corpus.warmup),
    )
    return base_dir


def check_against_monolithic(ctx, corpus: Corpus, res: PassResult,
                             out: Outcome) -> None:
    """Compacted and reopened answers against one monolithic build."""
    from repro import SNTIndex, TrajectorySet, open_db

    everything = corpus.base + [t for week in corpus.appends for t in week]
    mono = SNTIndex.build(
        TrajectorySet(everything), ctx.world.network.alphabet_size,
        partition_days=7,
    )
    expected = open_db(mono, network=ctx.world.network).query_many(
        corpus.final_sample()
    )
    for label, got in (("compacted", res.compacted_answers),
                       ("reopened", res.final_answers)):
        n, wrong = checks.same_answers(expected, got)
        out.notes.append(
            f"{label} check: {n - wrong}/{n} answers equal a monolithic build"
        )
        out.fail(wrong, f"{label} sharded answer differs from monolithic")
    requests = corpus.final_sample()
    n, wrong = checks.oracle(ctx.world, requests, res.final_answers, ctx.seed, n=4)
    out.notes.append(f"oracle check: {n - wrong}/{n} sampled sub-queries equal")
    out.fail(wrong, "sub-query answer differs from naive_travel_times")


def ingest_append(ctx) -> Outcome:
    from repro import TrajectorySet, load_any_index
    from repro.network.io import save_trajectories

    out = Outcome()
    corpus = Corpus(ctx.world, ctx.seed)
    ctx.check_digest(lambda s: Corpus(ctx.world, s).all_requests(), out)
    base_dir = ingest_setup(ctx, corpus, out)

    passes: List[PassResult] = []
    seconds = ctx.seconds / 2 if ctx.trace else ctx.seconds
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(
            one_pass(ctx, corpus, base_dir, len(passes), speed=out.speed)
        )

    # Every pass repeats the same work, so each step is timed as its
    # median over the passes: a stall of the shared machine during one
    # pass then moves the figures little.
    def typical(rows: List[List[float]]) -> List[float]:
        return [median(column) for column in zip(*rows)]

    first = passes[0]
    ingest_steps = typical([p.ingest_s for p in passes])
    out.metric("ingest_tps", first.traversals / sum(ingest_steps), "1/s",
               scaling=-1)
    batch_steps = typical([p.batch_lat for p in passes])
    out.metric("batch_qps", sum(first.batch_n) / sum(batch_steps), "1/s",
               scaling=-1)
    single_steps = typical([p.single_lat for p in passes])
    out.metric("served_rate_ok_rps", len(single_steps) / sum(single_steps),
               "1/s", scaling=-1)
    lat = [x for p in passes for x in p.single_lat]
    p50, tail, q, n = latency_ms(lat)
    out.metric("query_p50_ms", p50, "ms", scaling=1)
    out.metric("query_p99_ms", tail, "ms", scaling=1)
    ingested = ctx.workdir / "ingested.txt"
    save_trajectories(
        TrajectorySet(corpus.base + [t for w in corpus.appends for t in w]),
        ingested,
    )
    out.metric(
        "index_bytes_ratio", passes[-1].remote_bytes / ingested.stat().st_size,
        "ratio",
    )
    out.notes.append(
        f"{len(passes)} ingest passes of {APPEND_WEEKS} weekly appends; "
        f"query_p50/p{q * 100:.2f} over n={n} one-at-a-time queries; "
        "served_rate_ok_rps is one in-process caller's closed-loop rate"
    )
    out.attempted += sum(len(p.answers) for p in passes)
    check_against_monolithic(ctx, corpus, passes[0], out)
    for p in passes[1:]:
        n, wrong = checks.same_answers(passes[0].final_answers, p.final_answers)
        out.fail(wrong, "ingest passes disagree")

    if ctx.trace:
        tracer = ctx.tracer
        with install_wrappers(tracer):
            traced = one_pass(ctx, corpus, base_dir, len(passes), tracer)
        untraced = passes[-1]  # the same work, on the warmest index
        out.layer("trace.overhead_ratio", traced.wall / untraced.wall - 1.0, "ratio")
        out.layer("trace.overhead_s", traced.wall - untraced.wall, "s")
        out.notes.append(
            f"tracing overhead: {traced.wall:.3f} s traced vs "
            f"{untraced.wall:.3f} s untraced for the same ingest pass"
        )
        n, wrong = checks.same_answers(untraced.answers, traced.answers)
        out.notes.append(f"proxy fidelity: {n - wrong}/{n} traced answers equal")
        out.fail(wrong, "traced answer differs from the untraced answer")
        ingest_layers(out, tracer, traced)
        layer_metrics(
            out, tracer,
            [p for p, _, _ in traced.sessions],
            [c for _, c, _ in traced.sessions],
            merge_deltas([cache_delta(None, db.cache_stats())
                          for _, _, db in traced.sessions]),
            len(traced.answers), len(traced.batch_n),
        )
        shape_pass(out, load_any_index(str(base_dir)), ctx.world.network,
                          corpus.all_requests())
    out.metric("peak_rss_mb", peak_rss_mb(), "MB")
    return out


def ingest_layers(out: Outcome, tracer: Tracer, res: PassResult) -> None:
    totals = tracer.totals()

    def total(name: str, key: str = "s") -> float:
        return totals.get(name, {}).get(key, 0.0)

    out.layer("sharded.append_s", total("sharded.append"), "s")
    out.layer("sharded.seal_s", total("sharded.seal"), "s")
    out.layer("sharded.compact_s", total("sharded.compact"), "s")
    out.layer("sharded.shards_max", res.shards_max, "count")
    routing = res.routing
    out.layer(
        "sharded.fanout_mean",
        routing.n_shard_scans / max(1, routing.n_dispatches),
        "count",
    )
    out.layer("sharded.prune_rate", routing.prune_rate, "ratio")
    out.layer("store.put.calls", total("store.put", "calls")
              + total("store.install", "calls"), "count")
    out.layer("store.put.bytes", tracer.amounts.get("store.put.bytes", 0), "bytes")
    out.layer("store.put.s", total("store.put") + total("store.install"), "s")
    out.layer("store.get.bytes", tracer.amounts.get("store.get.bytes", 0), "bytes")
    out.layer("store.localize.s", total("store.localize"), "s")
    out.layer("store.install.s", total("store.install"), "s")
