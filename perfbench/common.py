"""Shared measurement helpers: host speed, percentiles, memory, sizes,
outcomes and the repeated set-up."""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

SETUP_REPS = 3


class HostSpeed:
    """How fast the shared host ran during a run, from a fixed kernel.

    The host's speed drifts by tens of percent over minutes (other
    tenants), which moved identical work by 0.2–0.3 of its median
    across runs.  A fixed reference kernel — a pure-Python loop plus a
    numpy sort, touching no program code and allocating no objects the
    garbage collector tracks — is timed at idle points between the
    run's steps; its median over a phase of the run (set-up or timed)
    against ``REFERENCE_S`` (its median on a quiet 2-vCPU reference
    host) is that phase's slowdown factor, which scales the timings
    measured in it.
    """

    REFERENCE_S = 0.0027
    PROBES_PER_SAMPLE = 3

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {"setup": [], "timed": []}
        self._array = np.random.default_rng(0).random(200_000)

    def sample(self, phase: str = "timed") -> None:
        for _ in range(self.PROBES_PER_SAMPLE):
            t = time.perf_counter()
            total = 0
            for i in range(20_000):
                total += i * i
            np.sort(self._array)
            self.samples[phase].append(time.perf_counter() - t)

    def factor(self, phase: str = "timed") -> float:
        """A phase's slowdown against the reference host (> 1: slower)."""
        return statistics.median(self.samples[phase]) / self.REFERENCE_S


def tail_percentile(n: int) -> float:
    """p99, or the highest percentile with at least ten samples beyond it
    (the median when there are too few samples for a tail)."""
    return min(0.99, max(0.5, 1.0 - 10.0 / n))


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an ascending sequence."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def latency_ms(samples_s: Sequence[float]) -> Tuple[float, float, float, int]:
    """``(p50_ms, tail_ms, tail_q, n)`` of latencies given in seconds."""
    ordered = sorted(samples_s)
    n = len(ordered)
    q = tail_percentile(n)
    return quantile(ordered, 0.5) * 1e3, quantile(ordered, q) * 1e3, q, n


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Per end-to-end metric: +1 for a duration, -1 for a rate of work,
    #: 0 for a figure the host's speed does not move; and the phase
    #: (``"setup"`` or ``"timed"``) it was measured in.
    scaling: Dict[str, Tuple[int, str]] = field(default_factory=dict)
    layers: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    speed: HostSpeed = field(default_factory=HostSpeed)
    attempted: int = 0
    failed: int = 0
    #: Human-readable lines (sample counts, check results, provenance).
    notes: List[str] = field(default_factory=list)

    def metric(self, name: str, value: float, unit: str, scaling: int = 0,
               phase: str = "timed") -> None:
        self.metrics[name] = (float(value), unit)
        self.scaling[name] = (scaling, phase)

    def scaled_metrics(self) -> Dict[str, Tuple[float, str]]:
        """End-to-end metrics at the reference host speed."""
        out = {}
        for name, (value, unit) in self.metrics.items():
            scaling, phase = self.scaling[name]
            if scaling:
                value *= self.speed.factor(phase) ** -scaling
            out[name] = (value, unit)
        return out

    def layer(self, name: str, value: float, unit: str) -> None:
        self.layers[name] = (float(value), unit)

    def fail(self, count: int, why: str) -> None:
        if count:
            self.failed += count
            self.notes.append(f"FAILED x{count}: {why}")


def repeated_setup(
    out: Outcome,
    build: Callable[[], Any],
    save: Callable[[Any], None],
    open_: Callable[[], Any],
    warm: Callable[[Any], None],
    close: Callable[[Any], None] = lambda handle: None,
) -> Tuple[Any, float]:
    """Build, save, cold-open and warm up ``SETUP_REPS`` times.

    Reports the median total as ``setup_s`` and each phase's median as a
    per-layer figure.  Returns the handle of the last open (earlier ones
    are closed) and the median build rate in traversals per second.
    """
    phases: Dict[str, List[float]] = {
        "build": [], "save": [], "open": [], "warmup": []
    }
    handle = None
    try:
        for _ in range(SETUP_REPS):
            if handle is not None:
                close(handle)
                handle = None
            out.speed.sample("setup")
            t0 = time.perf_counter()
            built = build()
            t1 = time.perf_counter()
            save(built)
            t2 = time.perf_counter()
            handle = open_()
            t3 = time.perf_counter()
            warm(handle)
            t4 = time.perf_counter()
            for name, seconds in zip(phases, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
                phases[name].append(seconds)
            n_traversals = built.build_stats.n_traversals
            del built
    except BaseException:
        if handle is not None:
            close(handle)
        raise
    out.speed.sample("setup")
    totals = [sum(parts) for parts in zip(*phases.values())]
    out.metric("setup_s", median(totals), "s", scaling=1, phase="setup")
    out.notes.append(
        "setup_s: median of "
        + ", ".join(f"{t:.3f}" for t in totals)
        + " s (build+save+open+warm-up)"
    )
    for name, values in phases.items():
        out.layer(f"sntindex.{name}_s", median(values), "s")
    return handle, n_traversals / median(phases["build"])
