"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload trips-unique --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same workload with the same seed through tracing
proxies and prints the per-layer metrics instead.  Human-readable lines
(sample counts, checks, provenance) come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

The program under test is imported from ``src/`` of the checkout; the
benchmark writes only under ``.perfbench-work/`` (scratch, removed at
exit), ``.perfbench-cache/`` (the generated world, keyed by the source
digest) and ``.perfbench-out/`` (span dumps) in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    workdir: Path
    world: object
    tracer: Optional[object]

    def check_digest(self, make: Callable[[int], list], out) -> None:
        """Same seed, same requests; another seed, other requests."""
        import inputs

        first = inputs.request_digest(make(self.seed))
        again = inputs.request_digest(make(self.seed))
        other = inputs.request_digest(make(self.seed + 1))
        out.notes.append(f"request digest (seed {self.seed}): {first[:16]}")
        out.fail(int(first != again), "same seed gave different requests")
        out.fail(int(first == other), "different seeds gave the same requests")


def source_digest() -> str:
    """Digest of the program's source tree.

    The checkout need not be a git repository, so this stands in for a
    commit id; it also keys the cached world.
    """
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(seed: int, source: str) -> dict:
    """What a result was measured on and with."""
    import numpy

    import inputs

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "source_sha256": source,
        "scale": inputs.SCALE,
        "world_seed": inputs.WORLD_SEED,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit so that cleanup runs:
    # the server child is stopped and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {src}/repro; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import workloads

    run = workloads.WORKLOADS.get(args.workload)
    if run is None:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    workdir.mkdir(parents=True)
    # Temp files of the program (store staging, page-in caches) stay
    # inside the checkout.
    os.environ["TMPDIR"] = str(workdir / "tmp")
    (workdir / "tmp").mkdir()
    tempfile.tempdir = None
    try:
        import inputs
        from tracing import Tracer

        source = source_digest()
        world = inputs.make_world(ROOT / ".perfbench-cache" / f"world-{source}")
        # The world's ~half a million trajectory objects belong to the
        # harness, not to the program under test: keep them out of the
        # cyclic collector, whose full passes over them would otherwise
        # land at random points of the timed phases.
        gc.collect()
        gc.freeze()
        ctx = Context(
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            workdir=workdir,
            world=world,
            tracer=Tracer() if args.trace else None,
        )
        out = run(ctx)
        if ctx.tracer is not None:
            dump = ROOT / ".perfbench-out"
            dump.mkdir(exist_ok=True)
            ctx.tracer.write(dump / f"spans-{args.workload}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    meta = provenance(args.seed, source)
    print(f"workload {args.workload} | " + " ".join(
        f"{k}={v}" for k, v in meta.items()))
    for line in out.notes:
        print("  " + line)
    if args.trace:
        # Untraced figures the spec lists per layer (the latency tail).
        chosen = {**out.metrics, **out.layers}
    else:
        chosen = out.scaled_metrics()
        print("  host speed: reference kernel took " + ", ".join(
            f"{out.speed.factor(phase):.4f}x its reference time in {phase} "
            f"({len(samples)} probes)"
            for phase, samples in out.speed.samples.items()
        ) + "; timings below are scaled to the reference host (raw value "
            "in brackets)")
    expected = workloads.metric_units(trace=bool(args.trace))
    if args.trace:
        idle = [
            name for name in expected
            if name not in chosen
            and name.startswith(workloads.NOT_EXERCISED[args.workload])
        ]
        for name in idle:
            chosen[name] = (0.0, expected[name])
        if idle:
            print(f"  not exercised here, reported as 0: {', '.join(idle)}")
    wrong = [
        name for name, unit in expected.items()
        if name not in chosen or chosen[name][1] != unit
    ]
    if wrong:
        print(f"error: missing or mis-united metrics {wrong}", file=sys.stderr)
        return 1
    for name, unit in expected.items():
        raw = "" if args.trace else f"  [{out.metrics[name][0]:.6g}]"
        print(f"  {name:40s} {chosen[name][0]:14.6g} {unit}{raw}")
    if not args.trace:
        for name in sorted(set(chosen) - set(expected)):
            value, unit = chosen[name]
            print(f"  {name:40s} {value:14.6g} {unit}  "
                  f"[{out.metrics[name][0]:.6g}] (reported, not gated)")
    failed_ratio = out.failed / max(1, out.attempted)
    print(f"  {'failed_ratio':40s} {failed_ratio:14.6g} ratio "
          f"({out.failed}/{out.attempted})")
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": chosen[name][0], "unit": chosen[name][1]}
            for name in expected
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
