"""``serve-open``: a ``repro serve`` child under open-loop arrivals.

Set-up builds and saves the index, starts ``python -m repro serve`` over
it, waits for ``/healthz`` and warms the server over HTTP.  The timed
phase offers commute-shaped requests at a few fixed rates as a seeded
Poisson schedule; ``nproc`` client threads, each on one keep-alive
connection, send every request when it is due (or as soon as a
connection frees up).  Latency counts from the due time, so a stall
also delays the requests queued behind it.

The served figures are not scaled by the host's speed (see
``common.HostSpeed``): the collection window and the arrival schedule
are fixed wall-clock waits, and in a slow host period (reference kernel
1.2-1.3x slower) they moved by about 5 % only.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Tuple

import checks
import inputs
from common import Outcome, latency_ms, quantile, repeated_setup
from inproc import monolithic, record_index, shape_pass, traced_replay

#: Offered rates (requests/s) with their share of the timed phase.  The
#: top rate is beyond the server's capacity on the reference machine, so
#: its achieved rate measures that capacity.
RATES = ((30.0, 0.2), (60.0, 0.62), (320.0, 0.12))
#: The rate whose latency percentiles are reported as query_p50/p99.
REFERENCE_RATE = 60.0
#: A rate is met when its tail latency stays within this limit, every
#: request is answered and the queue drains within it.
LATENCY_LIMIT_MS = 250.0
START_TIMEOUT_S = 60.0


class Server:
    """One ``repro serve`` child process on an ephemeral port."""

    def __init__(self, world, index_dir: Path, workdir: Path) -> None:
        env = dict(os.environ)
        root = Path.cwd()
        env["PYTHONPATH"] = str(root / "src")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--world",
             str(world.directory), "--index", str(index_dir), "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            cwd=workdir,
        )
        self.port = self._await_port()

    def _await_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        line = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if b"http://" in line:
                    address = line.split(b"http://")[1].split()[0]
                    return int(address.rsplit(b":", 1)[1])
            if self.proc.poll() is not None:
                break
        self.stop()
        raise RuntimeError(f"repro serve did not start: {line!r}")

    def get(self, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def wait_healthy(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            try:
                if self.get("/healthz").get("status") == "ok":
                    return
            except OSError:
                if time.monotonic() > deadline:
                    raise
            time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.proc.stderr.close()


def post(conn: http.client.HTTPConnection, request) -> Tuple[int, bytes]:
    body = json.dumps(request.to_dict()).encode()
    conn.request("POST", "/v1/query", body,
                 {"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.read()


class Sample:
    __slots__ = ("due", "sent", "done", "status", "body")

    def __init__(self, due: float) -> None:
        self.due, self.sent, self.done = due, 0.0, 0.0
        self.status, self.body = 0, b""


def open_loop(port: int, requests: list, due: List[float],
              clients: int) -> List[Sample]:
    """Send ``requests[i]`` at ``due[i]`` (seconds from now)."""
    samples = [Sample(d) for d in due]
    lock = threading.Lock()
    cursor = [0]
    origin = time.perf_counter() + 0.05
    for s in samples:
        s.due += origin

    def worker() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= len(samples):
                    return
                sample = samples[i]
                delay = sample.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sample.sent = time.perf_counter()
                try:
                    sample.status, sample.body = post(conn, requests[i])
                except (OSError, http.client.HTTPException):
                    sample.status = -1
                    conn.close()
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", port, timeout=60
                    )
                sample.done = time.perf_counter()
        finally:
            conn.close()

    threads = [threading.Thread(target=worker) for _ in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return samples


def warm(port: int, requests: list) -> None:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        for request in requests:
            status, _ = post(conn, request)
            if status != 200:
                raise RuntimeError(f"warm-up request answered {status}")
    finally:
        conn.close()


def serve_setup(world, warmup: list, index_dir: Path, workdir: Path,
                out: Outcome) -> Server:
    """Build and save the index, start a server over it and warm it."""

    def start() -> Server:
        server = Server(world, index_dir, workdir)
        try:
            server.wait_healthy()
        except BaseException:
            server.stop()
            raise
        return server

    build, save = monolithic(world, index_dir)
    server, build_tps = repeated_setup(
        out, build, save, start,
        lambda server: warm(server.port, warmup),
        close=lambda server: server.stop(),
    )
    record_index(out, world, index_dir, build_tps)
    return server


def serve_open(ctx) -> Outcome:
    from repro import load_any_index, open_db

    out = Outcome()
    world = ctx.world
    traffic = inputs.CommuteTraffic(world.trajectories, ctx.seed)
    ctx.check_digest(
        lambda s: inputs.CommuteTraffic(world.trajectories, s).requests(
            inputs.TIMED, 300
        ),
        out,
    )
    index_dir = ctx.workdir / "index"
    server = serve_setup(
        world, traffic.requests(inputs.WARMUP, 64), index_dir, ctx.workdir, out
    )
    runs = {}
    sent: list = []
    samples_all: List[Sample] = []
    try:
        clients = os.cpu_count() or 1
        stream = traffic.stream(inputs.TIMED)
        for k, (rate, share) in enumerate(RATES):
            span = share * ctx.seconds
            gen = inputs.rng(ctx.seed, 100 + k)
            gaps = gen.exponential(1.0 / rate, size=int(rate * span * 2) + 10)
            due = [d for d in gaps.cumsum() if d < span]
            requests = stream(len(due))
            out.speed.sample()
            before = server.get("/stats")
            samples = open_loop(server.port, requests, due, clients)
            after = server.get("/stats")
            runs[rate] = (samples, before, after)
            sent.extend(requests)
            samples_all.extend(samples)
        out.speed.sample()
        peak = server.peak_rss_mb()
    finally:
        server.stop()

    out.attempted += len(samples_all)
    errors = sum(s.status != 200 for s in samples_all)
    out.fail(errors, "served request failed, was refused or timed out")
    met = []
    for rate, (samples, before, after) in runs.items():
        lat = [s.done - s.due for s in samples]
        p50, tail, q, n = latency_ms(lat)
        last_done = max(s.done for s in samples)
        achieved = n / (last_done - samples[0].due)
        # No growing backlog: the queue drains within the limit of the
        # last arrival.
        drained = (last_done - samples[-1].due) * 1e3 <= LATENCY_LIMIT_MS
        ok = (tail <= LATENCY_LIMIT_MS and drained
              and all(s.status == 200 for s in samples))
        out.notes.append(
            f"rate {rate:g}/s: n={n} achieved {achieved:.1f}/s p50 {p50:.2f} ms "
            f"p{q * 100:.2f} {tail:.2f} ms -> {'met' if ok else 'missed'} "
            f"the {LATENCY_LIMIT_MS:g} ms limit"
        )
        if ok:
            met.append(achieved)
        if rate == REFERENCE_RATE:
            out.metric("query_p50_ms", p50, "ms")
            out.metric("query_p99_ms", tail, "ms")
            reference = (samples, before, after)
        if rate == RATES[-1][0]:
            out.metric("batch_qps", achieved, "1/s")
    if met:
        out.metric("served_rate_ok_rps", met[-1], "1/s")
    else:  # the run then fails for want of this metric
        out.notes.append("no offered rate met the latency limit")
    out.metric("peak_rss_mb", peak, "MB")

    # Every served answer, byte for byte, against the in-process answer.
    index = load_any_index(str(index_dir))
    def key(request) -> str:
        return json.dumps(request.to_dict(), sort_keys=True)

    unique = list({key(r): r for r in sent}.values())
    answers = open_db(index, network=world.network).query_many(unique)
    expected = {key(r): inputs.answer_bytes(a) for r, a in zip(unique, answers)}
    wrong = sum(
        inputs.answer_bytes(json.loads(s.body)) != expected[key(r)]
        for s, r in zip(samples_all, sent)
        if s.status == 200
    )
    out.notes.append(
        f"served check: {len(samples_all) - errors - wrong}/{len(samples_all)} "
        "served answers equal the in-process answers byte for byte"
    )
    out.fail(wrong, "served answer differs from the in-process answer")
    n, wrong = checks.oracle(world, unique, answers, ctx.seed, n=6)
    out.notes.append(f"oracle check: {n - wrong}/{n} sampled sub-queries equal")
    out.fail(wrong, "sub-query answer differs from naive_travel_times")

    if ctx.trace:
        server_layers(out, *reference)
        traced_replay(out, index, world.network, [("batch", unique)], [],
                      ctx.tracer)
        shape_pass(out, index, world.network, traffic.requests(inputs.TIMED, 300))
    return out


def server_layers(out: Outcome, samples: List[Sample], before: dict,
                  after: dict) -> None:
    """Server-side figures at the reference rate, from ``/stats``."""
    rounds = after["rounds"]["count"] - before["rounds"]["count"]
    trips = (after["requests"]["trips_answered"]
             - before["requests"]["trips_answered"])
    out.layer("server.rounds", rounds, "count")
    out.layer("server.trips_per_round", trips / max(1, rounds), "count")
    out.layer("server.dedup_hit_rate", after["rounds"]["dedup_hit_rate"] or 0.0,
              "ratio")
    latency = after["latency"]
    out.layer("server.service_p50_ms", latency["p50_ms"], "ms")
    out.layer("server.service_p99_ms", latency["p99_ms"], "ms")
    round_trip = sorted(s.done - s.sent for s in samples)
    out.layer(
        "server.wire_p50_ms",
        quantile(round_trip, 0.5) * 1e3 - latency["p50_ms"],
        "ms",
    )
    out.layer("server.rejected", after["requests"]["rejected"], "count")
    late = sorted(s.sent - s.due for s in samples)
    out.layer("gen.late_p99_ms", quantile(late, 0.99) * 1e3, "ms")
    out.notes.append(
        "server.* figures: /stats deltas at the reference rate; service "
        "percentiles are over the server's recent-latency window"
    )
