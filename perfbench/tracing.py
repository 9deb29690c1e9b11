"""Spans recorded around calls into the program's layers, from outside.

The traced run passes proxies through the program's public parameters:

* :class:`IndexProxy` is handed to ``open_db(index)``;
* :class:`CacheProxy` is handed to ``open_db(cache=...)``;
* :func:`store_proxy` wraps a ``ShardStore`` handed to ``save`` /
  ``load_any_index``;

and :func:`install_wrappers` swaps ``Histogram.from_values`` and
``repro.core.exec.convolve_histograms`` for timing wrappers for the
duration of a ``with`` block.  A proxy exposes an optional fast path
(``isa_ranges_many``, ``get_travel_times_many``, ``get_results_many``,
``put_results_many``) only when the wrapped object has it: the executor
chooses its code path with ``getattr``, so a proxy that always offered
them would measure a different program.

Spans stay in memory (:class:`Tracer`) and are written out when the run
ends.  Untraced runs construct none of this.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

#: One span: [name, start_ns, end_ns, parent index or -1, request id,
#: own index].
Span = List[Any]


class Tracer:
    """In-memory span recorder with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Quantities summed per name (bytes moved, demands per call...).
        self.amounts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_request = 0

    def new_request(self) -> int:
        with self._lock:
            self._next_request += 1
            return self._next_request

    def begin(self, name: str, request: Optional[int] = None) -> list:
        """Open a span; the caller must :meth:`end` it on the same thread."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        if request is None:
            request = parent[4] if parent else 0
        entry = [name, 0, 0, parent[5] if parent else -1, request, 0]
        with self._lock:
            entry[5] = len(self.spans)
            self.spans.append(entry)
        stack.append(entry)
        entry[1] = time.perf_counter_ns()
        return entry

    def end(self, entry: list) -> None:
        entry[2] = time.perf_counter_ns()
        self._local.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, request: Optional[int] = None) -> Iterator[None]:
        entry = self.begin(name, request)
        try:
            yield
        finally:
            self.end(entry)

    def add(self, name: str, amount: float) -> None:
        with self._lock:
            self.amounts[name] += amount

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, wall ``s`` and ``self_s``.

        A span's self time is its duration minus the part its child
        spans cover (the children of one thread never overlap).
        """
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for i, (name, start, end, _, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += (end - start) / 1e9
            entry["self_s"] += (end - start - child_ns[i]) / 1e9
        return out

    def write(self, path: Path) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, rid, _ in self.spans:
                record = {
                    "name": name,
                    "start_ns": start,
                    "end_ns": end,
                    "parent": parent,
                    "request": rid,
                }
                handle.write(json.dumps(record) + "\n")


Observer = Callable[[tuple], None]


class _Proxy:
    """Forwards every attribute it does not wrap to the inner object."""

    def __init__(self, inner: Any, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name: str) -> Any:
        if name == "_inner":  # not yet set (e.g. during copy)
            raise AttributeError(name)
        return getattr(self._inner, name)

    def _wrap(
        self,
        method: str,
        span: str,
        before: Optional[Observer] = None,
        after: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Time ``method`` under ``span`` — only if the inner has it."""
        target = getattr(self._inner, method, None)
        if target is None:
            return
        tracer = self._tracer

        def wrapped(*args, **kwargs):
            if before is not None:
                before(args)
            entry = tracer.begin(span)
            try:
                result = target(*args, **kwargs)
            finally:
                tracer.end(entry)
            if after is not None:
                after(result)
            return result

        setattr(self, method, wrapped)


class IndexProxy(_Proxy):
    """An ``IndexReader`` proxy timing backward search, scans and counts."""

    def __init__(self, inner: Any, tracer: Tracer) -> None:
        super().__init__(inner, tracer)
        self.scan_results = 0
        self.empty_scans = 0

        def count_paths(args: tuple) -> None:
            tracer.add("fmindex.isa_ranges_many.paths", len(args[0]))

        def count_demands(args: tuple) -> None:
            tracer.add("sntindex.scan.demands", len(args[0]))

        def one_scan(args: tuple) -> None:
            tracer.add("sntindex.scan.demands", 1)

        def note_scan(result: Any) -> None:
            self._note([result])

        self._wrap("isa_ranges", "fmindex.isa_ranges")
        self._wrap("isa_ranges_many", "fmindex.isa_ranges_many", count_paths)
        self._wrap("get_travel_times", "sntindex.scan", one_scan, note_scan)
        self._wrap(
            "get_travel_times_many", "sntindex.scan", count_demands, self._note
        )
        self._wrap("count_matches", "sntindex.count_matches")

    def _note(self, results: Any) -> None:
        if isinstance(results, list):
            self.scan_results += len(results)
            self.empty_scans += sum(1 for r in results if r.is_empty)


class CacheProxy(_Proxy):
    """A ``CacheBackend`` proxy timing every get and put.

    Also records every result key probed, in probe order: the plan and
    dedup counts are derived from them.
    """

    def __init__(self, inner: Any, tracer: Tracer) -> None:
        super().__init__(inner, tracer)
        self.result_keys: List[Any] = []
        keys = self.result_keys
        for section in ("ranges", "histogram"):
            self._wrap(f"get_{section}", "service.cache.get")
            self._wrap(f"put_{section}", "service.cache.put")
        self._wrap(
            "get_result", "service.cache.get", lambda a: keys.append(a[0])
        )
        self._wrap("put_result", "service.cache.put")
        self._wrap(
            "get_results_many", "service.cache.get", lambda a: keys.extend(a[0])
        )
        self._wrap("put_results_many", "service.cache.put")


def _tree_bytes(path: Path) -> int:
    root = Path(path)
    if root.is_file():
        return root.stat().st_size
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def store_proxy(inner: Any, tracer: Tracer) -> Any:
    """Wrap a ``ShardStore`` so its object and directory planes are timed.

    ``as_store`` accepts only ``ShardStore`` instances, so the proxy
    subclasses the program's abstract base (imported lazily: the
    checkout's ``src`` is put on the path at run time).
    """
    from repro.sntindex.store import ShardStore

    class _StoreProxy(ShardStore):
        @property
        def uri(self) -> str:
            return inner.uri

        def get(self, key):
            with tracer.span("store.get"):
                data = inner.get(key)
            tracer.add("store.get.bytes", len(data))
            return data

        def put(self, key, data):
            tracer.add("store.put.bytes", len(data))
            with tracer.span("store.put"):
                inner.put(key, data)

        def list(self, prefix=""):
            return inner.list(prefix)

        def exists(self, key):
            return inner.exists(key)

        def etag(self, key):
            return inner.etag(key)

        def localize(self, prefix=""):
            with tracer.span("store.localize"):
                local = inner.localize(prefix)
            tracer.add("store.get.bytes", _tree_bytes(local))
            return local

        def install(self, prefix, marker_file, writer, what="saved SNT-index"):
            def measured(target):
                writer(target)
                tracer.add("store.put.bytes", _tree_bytes(target))

            with tracer.span("store.install"):
                return inner.install(prefix, marker_file, measured, what)

        def local_anchor(self):
            return inner.local_anchor()

        def __getattr__(self, name):
            return getattr(inner, name)

    return _StoreProxy()


@contextlib.contextmanager
def install_wrappers(tracer: Tracer) -> Iterator[None]:
    """Time ``Histogram.from_values`` and ``convolve_histograms``."""
    import repro.core.exec as exec_module
    from repro.histogram.histogram import Histogram

    original_from_values = Histogram.__dict__["from_values"]
    original_convolve = exec_module.convolve_histograms
    build = original_from_values.__func__

    def from_values(cls, values, bucket_width):
        with tracer.span("histogram.build"):
            return build(cls, values, bucket_width)

    def convolve(histograms, bucket_width_s):
        with tracer.span("histogram.convolve"):
            return original_convolve(histograms, bucket_width_s)

    Histogram.from_values = classmethod(from_values)
    exec_module.convolve_histograms = convolve
    try:
        yield
    finally:
        Histogram.from_values = original_from_values
        exec_module.convolve_histograms = original_convolve
