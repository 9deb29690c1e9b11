"""The :class:`TravelTimeDB` session facade and :func:`open_db`.

One entry point for every workload over one index::

    import repro

    db = repro.open_db("world/index", network="world/network.json")
    result = db.query(repro.TripRequest(path=(1, 2, 3), interval=...))
    for result in db.stream(requests):      # order-preserving, bounded
        ...

A session owns the index reader (monolithic :class:`~repro.SNTIndex` or
sharded :class:`~repro.ShardedSNTIndex`, loaded transparently via
``load_any_index`` when a path is given), the road network, one
:class:`~repro.api.EngineConfig`, and the cross-query cache backend its
``cache`` spec selects (an in-process
:class:`~repro.service.SubQueryCache` by default, a cross-process
:class:`~repro.service.cachetier.SharedCacheTier`, or none).  All three
batch surfaces —
:meth:`TravelTimeDB.query`, :meth:`~TravelTimeDB.query_many`, and the
streaming generator :meth:`~TravelTimeDB.stream` — run through the one
deduplicating batch executor and answer bit-identically to sequential
Procedure 6; they differ only in how requests are grouped into batches.
"""

from __future__ import annotations

from itertools import islice
from os import PathLike
from pathlib import Path
from typing import (
    Any,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
    cast,
)

from ..core.engine import QueryEngine, TripQueryResult
from ..core.exec import DedupStats
from ..core.spq import StrictPathQuery
from ..errors import ConfigurationError, RequestValidationError
from ..network.graph import RoadNetwork
from ..network.io import load_network
from ..service.cache import CacheStats
from ..service.cachetier import CacheBackend, resolve_cache_backend
from ..sntindex.reader import IndexReader
from ..sntindex.sharded import load_any_index
from .config import EngineConfig
from .request import TripRequest

__all__ = ["TravelTimeDB", "open_db"]

PathSource = Union[str, PathLike]

#: One batch item: (strict path query, excluded ids, estimator mode).
TripTask = Tuple[StrictPathQuery, Tuple[int, ...], object]


def _as_task(request: TripRequest) -> TripTask:
    return (request.to_spq(), request.exclude_ids, request.estimator)


class TravelTimeDB:
    """A query session over one travel-time index.

    Build via :func:`open_db` (or directly from an in-memory reader).
    The session is cheap to keep open: the index is immutable, the cache
    is LRU-bounded, and every public method is safe to call from
    multiple threads (the engine is stateless per call and the cache is
    locked).

    Parameters
    ----------
    index, network:
        The index reader (monolithic or sharded) and the road network
        it was built over.
    config:
        An :class:`EngineConfig`; ``None`` uses defaults.
    cache:
        ``"default"`` resolves the backend from ``config`` (the
        ``config.cache`` spec — in-process :class:`SubQueryCache`,
        cross-process :class:`~repro.service.cachetier.SharedCacheTier`,
        or none, bounded by ``config.cache_entries``); ``None`` disables
        cross-query caching; or pass a backend directly to control its
        bounds or to share one cache between sessions *over the same
        index and network* — a cache binds permanently to the first
        (index, network) pair it serves and rejects any other.

    Usable as a context manager; closing clears the shared cache.
    """

    def __init__(
        self,
        index: IndexReader,
        network: Optional[RoadNetwork],
        config: Optional[EngineConfig] = None,
        cache: Union[CacheBackend, None, str] = "default",
    ) -> None:
        if network is None:
            # Fail fast with the typed error surface: partitioners and
            # the estimateTT fallback need the network, and a session
            # without one would only crash (opaquely) on its first query.
            raise ConfigurationError(
                "a TravelTimeDB session requires the road network the "
                "index was built over — pass network=RoadNetwork or a "
                "path to its network.json"
            )
        self._config = config if config is not None else EngineConfig()
        # A cache object the caller passed in may be shared with other
        # sessions over the same index; only a session-built cache is
        # cleared on close().
        self._owns_cache = cache == "default"
        if self._owns_cache:
            cache = resolve_cache_backend(self._config, index)
        elif isinstance(cache, str):
            raise ConfigurationError(
                f"cache must be a cache backend (SubQueryCache / "
                f"SharedCacheTier), None, or 'default'; got {cache!r}"
            )
        self._cache = cast(Optional[CacheBackend], cache)
        self._engine = QueryEngine(
            index, network, self._config, cache=self._cache
        )
        self._last_dedup_stats = DedupStats()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def index(self) -> IndexReader:
        return cast(IndexReader, self._engine.index)

    @property
    def network(self) -> Optional[RoadNetwork]:
        return cast(Optional[RoadNetwork], self._engine.network)

    @property
    def config(self) -> EngineConfig:
        return self._config

    @property
    def engine(self) -> QueryEngine:
        """The underlying engine (advanced use; prefer the db methods)."""
        return self._engine

    def cache_stats(self) -> Optional[CacheStats]:
        """Shared-cache statistics, or ``None`` when caching is off."""
        if self._cache is None:
            return None
        return self._cache.stats()

    @property
    def last_dedup_stats(self) -> DedupStats:
        """Dedup accounting of the most recent batch (or whole stream).

        How many sub-queries the batch planned, how many were unique,
        how many the cache answered, and how many scans the
        deduplication absorbed; all zeros before the first batch.
        Last-writer-wins across concurrent batches — take the stats from
        :meth:`query_many_with_stats` when that matters.
        """
        return self._last_dedup_stats

    def clear_cache(self) -> None:
        if self._cache is not None:
            self._cache.clear()

    def __enter__(self) -> "TravelTimeDB":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Release session resources.

        Closes the session's own cache backend: an in-process
        :class:`SubQueryCache` empties, a cross-process
        :class:`~repro.service.cachetier.SharedCacheTier` releases its
        store connection but *keeps its entries* (warming later
        sessions is the point of the tier).  A caller-provided backend
        is left untouched — other sessions may still be serving warm
        hits from it.  Use :meth:`clear_cache` to empty one explicitly.
        """
        if self._owns_cache and self._cache is not None:
            self._cache.close()

    def __repr__(self) -> str:
        return (
            f"TravelTimeDB(index={type(self.index).__name__}, "
            f"partitioner={self._config.partitioner!r}, "
            f"n_workers={self._config.n_workers})"
        )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def query(self, request: TripRequest) -> TripQueryResult:
        """Answer one :class:`TripRequest` through the shared cache."""
        # engine.query guards the request type itself.
        return cast(TripQueryResult, self._engine.query(request))

    def query_many(
        self,
        requests: Sequence[TripRequest],
        n_workers: Optional[int] = None,
    ) -> List[TripQueryResult]:
        """Answer a batch of independent requests.

        The batch runs through the deduplicating executor: identical
        sub-queries are scanned once per round, and each round's scans
        fan out over ``n_workers`` threads (default
        ``config.n_workers``).  Results come back in submission order;
        the accounting lands in :attr:`last_dedup_stats`.
        """
        results, _ = self.query_many_with_stats(requests, n_workers=n_workers)
        return results

    def query_many_with_stats(
        self,
        requests: Sequence[TripRequest],
        n_workers: Optional[int] = None,
    ) -> Tuple[List[TripQueryResult], DedupStats]:
        """:meth:`query_many`, also returning this batch's dedup stats.

        :attr:`last_dedup_stats` is last-writer-wins, so a caller
        running *concurrent* batches over one session — the HTTP
        serving tier's collection rounds — must take the accounting
        from the return value, where it cannot be clobbered by another
        batch.
        """
        workers = self._workers(n_workers)
        requests = list(requests)
        for request in requests:
            self._check_request(request)
        results, stats = self._engine.run_batch(
            [_as_task(r) for r in requests], n_workers=workers
        )
        self._last_dedup_stats = stats
        for request, result in zip(requests, results):
            result.request = request
        return results, stats

    def stream(
        self,
        requests: Iterable[TripRequest],
        n_workers: Optional[int] = None,
        window: Optional[int] = None,
    ) -> Iterator[TripQueryResult]:
        """Answer a request stream, yielding results in request order.

        An order-preserving generator over an *iterable* of requests,
        answered in ``window``-sized :meth:`query_many` batches: at most
        ``window`` requests are materialised at once, so a
        million-request stream is answered with bounded memory, and the
        input iterable is consumed lazily, one window at a time.  The
        default window is one request with one worker (fully lazy: one
        request is answered per ``next()``) and ``4 x n_workers``
        otherwise.  :attr:`last_dedup_stats` aggregates over the whole
        stream.
        """
        workers = self._workers(n_workers)
        if window is None:
            window = 1 if workers == 1 else workers * 4
        if window < 1:
            raise ConfigurationError("window must be positive")
        return self._stream(requests, workers, window)

    def _stream(
        self,
        requests: Iterable[TripRequest],
        workers: int,
        window: int,
    ) -> Iterator[TripQueryResult]:
        total = DedupStats()
        iterator = iter(requests)
        while True:
            chunk = list(islice(iterator, window))
            if not chunk:
                return
            results, stats = self.query_many_with_stats(
                chunk, n_workers=workers
            )
            total.absorb(stats)
            self._last_dedup_stats = total
            yield from results

    def _workers(self, n_workers: Optional[int]) -> int:
        workers = self._config.n_workers if n_workers is None else n_workers
        if workers < 1:
            raise ConfigurationError("n_workers must be positive")
        return workers

    def _check_request(self, request: TripRequest) -> None:
        if not isinstance(request, TripRequest):
            # A malformed *request* is client input, not a session
            # misconfiguration — keep the documented error taxonomy
            # (RequestValidationError -> e.g. HTTP 400 at a front end).
            raise RequestValidationError(
                "expected a TripRequest; got "
                f"{type(request).__name__} — legacy StrictPathQuery "
                "callers should use TripRequest.from_spq(...)"
            )


def open_db(
    path_or_index: Union[PathSource, IndexReader, None] = None,
    network: Union[RoadNetwork, PathSource, None] = None,
    config: Optional[EngineConfig] = None,
    cache: Union[CacheBackend, None, str] = "default",
) -> TravelTimeDB:
    """Open a travel-time query session — the one public entry point.

    Parameters
    ----------
    path_or_index:
        A saved index directory (monolithic ``meta.json`` layout or
        sharded ``manifest.json`` layout, auto-detected), a shard-store
        URI (``file:...`` or ``object://...``, see
        :mod:`repro.sntindex.store`), or an in-memory
        :class:`IndexReader`.  ``None`` falls back to
        ``config.store``; omitting both is a
        :class:`ConfigurationError`.
    network:
        The road network the index was built over — a
        :class:`RoadNetwork` or a path to its ``network.json``.  When a
        network is given and the index is loaded from disk, the
        manifest's alphabet size is validated *before* any FM partition
        is unpickled.
    config:
        An :class:`EngineConfig`; ``None`` uses defaults.
    cache:
        As for :class:`TravelTimeDB`: ``"default"`` resolves the backend
        from ``config`` (its ``cache`` spec can select the cross-process
        shared tier), ``None`` disables cross-query caching, or pass a
        backend (:class:`SubQueryCache` /
        :class:`~repro.service.cachetier.SharedCacheTier`) directly.
    """
    if path_or_index is None:
        # The config can carry the index location (EngineConfig.store)
        # so deployments name it once; an explicit argument wins.
        if config is None or config.store is None:
            raise ConfigurationError(
                "open_db needs an index: pass path_or_index (a "
                "directory, store URI, or IndexReader) or set "
                "EngineConfig.store"
            )
        path_or_index = config.store
    if network is None:
        # Fail before load_any_index touches disk: unpickling a large
        # sharded index only to reject the session would waste minutes.
        raise ConfigurationError(
            "open_db requires the road network the index was built over "
            "— pass network=RoadNetwork or a path to its network.json"
        )
    loaded_network: RoadNetwork
    if isinstance(network, RoadNetwork):
        loaded_network = network
    else:
        loaded_network = cast(RoadNetwork, load_network(Path(network)))

    index: IndexReader
    if isinstance(path_or_index, (str, PathLike)):
        # Pass strings through untouched: a store URI such as
        # ``object://...`` must reach as_store() un-mangled (Path()
        # collapses the double slash).
        index = cast(
            IndexReader,
            load_any_index(
                path_or_index,
                expected_alphabet_size=getattr(
                    loaded_network, "alphabet_size", None
                ),
            ),
        )
    else:
        index = path_or_index
    return TravelTimeDB(index, loaded_network, config=config, cache=cache)
