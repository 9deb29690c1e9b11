"""The workload registry and the metric names ``BENCHMARK.json`` lists."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

from ingest import ingest_append
from inproc import commute_repeat, trips_unique
from served import serve_open

WORKLOADS = {
    "trips-unique": trips_unique,
    "commute-repeat": commute_repeat,
    "serve-open": serve_open,
    "ingest-append": ingest_append,
}

#: Per-layer metric prefixes a workload never reaches; the traced run
#: reports them as 0.
NOT_EXERCISED = {
    "trips-unique": ("server.", "gen.", "sharded.", "store."),
    "commute-repeat": ("server.", "gen.", "sharded.", "store."),
    "serve-open": ("sharded.", "store."),
    "ingest-append": ("server.", "gen."),
}


def metric_units(trace: bool) -> Dict[str, str]:
    """``{name: unit}`` of the metrics a run prints, in spec order."""
    spec = json.loads(Path("BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
