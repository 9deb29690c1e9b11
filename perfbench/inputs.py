"""Seeded inputs: the world and the request streams of each workload.

The world is fixed — ``generate_dataset("small", seed=0)`` written to
disk as ``network.json`` + ``trajectories.txt`` — so every seed measures
the same index; ``--seed`` draws the requests.  All randomness comes
from ``numpy.random.default_rng`` streams keyed by ``(seed, purpose)``,
so one seed always yields the same requests, and the warm-up sample
never overlaps the timed one.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

SCALE = "small"
WORLD_SEED = 0
#: Paper Section 5.2: 15-minute periodic windows, beta = 20.
WINDOW_S = 900
BETA = 20
#: Queries shorter than this are skipped (the workload module's rule).
MIN_PATH = 8

#: ``default_rng`` sub-stream ids, one per purpose.
WARMUP, TIMED, CHECK, POOL_DRAW = range(4)


@dataclass
class World:
    network: object
    trajectories: object
    directory: Path

    @property
    def trajectory_file(self) -> Path:
        return self.directory / "trajectories.txt"


def make_world(cache: Path) -> World:
    """Load the world, generating it first if ``cache`` lacks it.

    ``cache`` should be keyed by the program's source digest, so a
    change to the generator regenerates it.  The world is always read
    back from its files, so a cached and a fresh world are identical.
    """
    from repro.network.io import load_network, load_trajectories

    if not (cache / "complete").exists():
        from repro import generate_dataset
        from repro.network.io import save_network, save_trajectories

        dataset = generate_dataset(SCALE, seed=WORLD_SEED)
        staging = cache.with_name(cache.name + f".tmp{os.getpid()}")
        staging.mkdir(parents=True)
        save_network(dataset.network, staging / "network.json")
        save_trajectories(dataset.trajectories, staging / "trajectories.txt")
        (staging / "complete").touch()
        shutil.rmtree(cache, ignore_errors=True)
        staging.rename(cache)
    return World(
        load_network(cache / "network.json"),
        load_trajectories(cache / "trajectories.txt"),
        cache,
    )


def rng(seed: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng([seed, purpose])


def paper_requests(trip, t_max: int) -> list:
    """The paper's three query types for one trip, itself excluded."""
    from repro import FixedInterval, PeriodicInterval, TripRequest

    periodic = PeriodicInterval.around(trip.start_time, WINDOW_S)
    common = dict(path=trip.path, exclude_ids=(trip.traj_id,), beta=BETA)
    return [
        TripRequest(interval=periodic, **common),
        TripRequest(interval=periodic, user=trip.user_id, **common),
        TripRequest(interval=FixedInterval(0, t_max), **common),
    ]


def second_half_trips(trajectories) -> list:
    """Trips starting in the second half of the span (paper Section 5.2)."""
    start, end = trajectories.time_span()
    median = (start + end) // 2
    return [
        t for t in trajectories if t.start_time > median and len(t) >= MIN_PATH
    ]


class UniqueTrips:
    """``trips-unique``: disjoint trip draws per purpose, no repeats.

    The warm-up trips are a fixed draw (world seed), so that ``setup_s``
    times the same work for every seed; the seed draws the rest.
    """

    WARMUP_TRIPS = 16

    def __init__(self, trajectories, t_max: int, seed: int) -> None:
        eligible = second_half_trips(trajectories)
        fixed = set(
            rng(WORLD_SEED, WARMUP).choice(
                len(eligible), self.WARMUP_TRIPS, replace=False
            ).tolist()
        )
        self.warmup_trips = [eligible[i] for i in sorted(fixed)]
        order = rng(seed, TIMED).permutation(len(eligible))
        self._trips = [eligible[i] for i in order if i not in fixed]
        self._t_max = t_max
        # Fixed slices: singles first, then batches.
        self._singles = self._trips[:2000]
        self._batches = self._trips[2000:]
        self._next_single = 0
        self._next_batch = 0

    def warmup(self) -> list:
        return [
            r for t in self.warmup_trips for r in paper_requests(t, self._t_max)
        ]

    def next_batch(self, n_trips: int) -> list:
        trips = self._batches[self._next_batch : self._next_batch + n_trips]
        self._next_batch += n_trips
        if len(trips) < n_trips:
            raise RuntimeError("trips-unique ran out of distinct trips")
        return [r for t in trips for r in paper_requests(t, self._t_max)]

    def next_singles(self, n: int) -> list:
        """``n`` requests, one type per trip, cycling through the types."""
        out = []
        for _ in range(n):
            i = self._next_single
            trip = self._singles[i % len(self._singles)]
            out.append(paper_requests(trip, self._t_max)[i % 3])
            self._next_single += 1
        return out

    def stream_prefix(self, n: int) -> list:
        """The first ``n`` batch requests, for digests and shape counts."""
        trips = self._batches[: -(-n // 3)]
        return [r for t in trips for r in paper_requests(t, self._t_max)][:n]


class CommuteTraffic:
    """``commute-repeat``: Zipf-popular paths from a fixed trip pool.

    Each request takes a route by popularity rank, a departure (the
    pool trip's time of day plus normal jitter, sd 15 min, snapped to
    15-minute slots) and a type (70 % temporal, 30 % user).  No
    self-exclusion.  The pool, its ranks and the request blocks belong
    to the world (see :meth:`stream`); the seed orders them.
    """

    POOL = 200
    BLOCK = 32
    ZIPF_S = 1.1
    JITTER_S = 900.0
    USER_SHARE = 0.3

    def __init__(self, trajectories, seed: int) -> None:
        candidates = [t for t in trajectories if len(t) >= MIN_PATH]
        picks = rng(WORLD_SEED, POOL_DRAW).choice(
            len(candidates), size=self.POOL, replace=False
        )
        self.pool = [candidates[i] for i in picks]
        weights = 1.0 / np.arange(1, self.POOL + 1) ** self.ZIPF_S
        self._p = weights / weights.sum()
        self._seed = seed

    def stream(self, purpose: int):
        """A ``take(n)`` reader over one endless request stream.

        The stream is a sequence of ``BLOCK``-request blocks whose
        contents are drawn with the world seed; the run's seed shuffles
        each block.  Every seed thus offers the same requests up to the
        order within a block: with a warming cache, which first-seen
        keys a run happens to meet would otherwise move its figures more
        than the program does.  The prefix does not depend on how a
        caller slices the stream.
        """
        contents = rng(WORLD_SEED, 100 + purpose)
        order = rng(self._seed, purpose)
        buffer: list = []

        def take(n: int) -> list:
            while len(buffer) < n:
                block = self._block(contents, self.BLOCK)
                buffer.extend(block[i] for i in order.permutation(self.BLOCK))
            out = buffer[:n]
            del buffer[:n]
            return out

        return take

    def requests(self, purpose: int, n: int) -> list:
        return self.stream(purpose)(n)

    def _block(self, gen: np.random.Generator, n: int) -> list:
        from repro import PeriodicInterval, TripRequest

        ranks = gen.choice(self.POOL, size=n, p=self._p)
        jitter = gen.normal(0.0, self.JITTER_S, size=n)
        users = gen.random(n) < self.USER_SHARE
        out = []
        for rank, shift, with_user in zip(ranks, jitter, users):
            trip = self.pool[rank]
            tod = (trip.start_time + int(shift)) % 86400
            slot = (tod // WINDOW_S) * WINDOW_S
            out.append(
                TripRequest(
                    path=trip.path,
                    interval=PeriodicInterval(start_tod=slot, duration=WINDOW_S),
                    user=trip.user_id if with_user else None,
                    beta=BETA,
                )
            )
        return out


def request_digest(requests: Sequence) -> str:
    h = hashlib.sha256()
    for request in requests:
        h.update(json.dumps(request.to_dict(), sort_keys=True).encode())
    return h.hexdigest()


def static_shape(requests: Sequence) -> Dict[str, float]:
    """Shape counts readable from the requests alone."""
    n = len(requests)
    kinds = {"temporal": 0, "user": 0, "spq": 0}
    for r in requests:
        if r.user is not None:
            kinds["user"] += 1
        elif hasattr(r.interval, "start_tod"):
            kinds["temporal"] += 1
        else:
            kinds["spq"] += 1
    out = {f"shape.mix_{k}": v / n for k, v in kinds.items()}
    out["shape.path_len_mean"] = sum(len(r.path) for r in requests) / n
    keys = [json.dumps(r.to_dict(), sort_keys=True) for r in requests]
    out["shape.request_repeat_share"] = 1.0 - len(set(keys)) / n
    return out


def answer_bytes(result) -> bytes:
    """The answer-bearing part of a result's wire form, canonically.

    ``elapsed_s`` and the scan/hit counters depend on cache state, so
    they are left out; float64 values round-trip exactly through JSON,
    so equal bytes mean bit-identical histograms and travel times.
    """
    payload = result if isinstance(result, dict) else result.to_dict()
    answer = {"histogram": payload["histogram"], "outcomes": payload["outcomes"]}
    return json.dumps(answer, sort_keys=True).encode()


def trip_weeks(trajectories, t_min: int) -> Dict[int, List]:
    """Trajectories grouped by ``t_min``-relative 7-day window."""
    week = 7 * 86400
    groups: Dict[int, List] = {}
    for t in trajectories:
        groups.setdefault((t.start_time - t_min) // week, []).append(t)
    return groups
