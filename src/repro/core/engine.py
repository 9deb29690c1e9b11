"""The travel-time query engine: ``tripQuery`` (paper Procedure 6).

Pipeline per query (Figure 2), run as an explicit staged pipeline:

1. **plan** (:mod:`repro.core.plan`) — the Query Partitioner splits the
   trip path into sub-queries using a ``pi`` method, the optional
   Cardinality Estimator pre-emptively relaxes doomed sub-queries via
   the Sub-query Splitter (``sigma``), later sub-queries' periodic
   intervals are adapted with shift-and-enlarge (Dai et al.), and empty
   or insufficient retrievals are expanded through the relaxation ladder;
2. **fetch** (:mod:`repro.core.exec`) — ``getTravelTimes`` answers each
   planned sub-query from the cache backend or an SNT-index scan;
3. **combine** — the Histogram Builder turns each travel-time set into a
   histogram and convolves them into the answer for the full path.

The engine itself is a thin driver over those stages: every query —
:meth:`QueryEngine.query` is a batch of one — runs through
:meth:`QueryEngine.run_batch`, which builds one
:class:`~repro.core.exec.TripMachine` per trip and drives them with the
deduplicating :class:`~repro.core.exec.BatchExecutor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import QueryError, RequestValidationError
from ..histogram.histogram import Histogram
from ..network.graph import RoadNetwork
from ..sntindex.reader import IndexReader
from .estimator import CardinalityEstimator
from .exec import (
    BatchExecutor,
    DedupStats,
    TripMachine,
    prefetch_ranges_many,
)
from .plan import PlanPolicy
from .spq import StrictPathQuery

if TYPE_CHECKING:  # the api layer sits above core; runtime imports are lazy
    from ..api.config import EngineConfig
    from ..api.request import TripRequest

__all__ = [
    "SubQueryOutcome",
    "TripQueryResult",
    "QueryEngine",
    "PerTripCache",
]

def _default_config() -> "EngineConfig":
    """The default :class:`EngineConfig` (lazy: api sits above core)."""
    from ..api.config import EngineConfig

    return EngineConfig()


class PerTripCache:
    """The range cache of an uncached session: one FM-index backward
    search per distinct sub-path per trip (estimator, retrieval, and
    interval-widening retries share it), discarded when the trip
    completes.

    It implements the same protocol as :class:`repro.service.SubQueryCache`
    but caches ranges only — retrieval results and histograms are never
    shared, because within one trip a sub-query is retrieved at most once
    per interval.
    """

    __slots__ = ("_ranges",)

    def __init__(self):
        self._ranges: dict = {}

    def get_ranges(self, path):
        return self._ranges.get(path)

    def put_ranges(self, path, ranges):
        self._ranges[path] = ranges

    def get_result(self, key):
        return None

    def put_result(self, key, result):
        pass

    def get_histogram(self, key):
        return None

    def put_histogram(self, key, histogram):
        pass


@dataclass
class SubQueryOutcome:
    """One completed sub-query, in path order."""

    query: StrictPathQuery
    values: np.ndarray
    histogram: Histogram
    from_fallback: bool

    @property
    def mean(self) -> float:
        """``X_bar_j`` — used by the sMAPE / weighted-error metrics."""
        return float(self.values.mean())

    @property
    def path_length(self) -> int:
        return self.query.length


@dataclass
class TripQueryResult:
    """Answer for a full trip path."""

    histogram: Histogram
    outcomes: List[SubQueryOutcome]
    #: Number of getTravelTimes index dispatches (including retries).
    n_index_scans: int
    #: Sub-queries skipped by the cardinality estimator before any scan.
    n_estimator_skips: int
    #: Wall-clock seconds until this trip's answer was ready, measured
    #: from the start of the batch it ran in (a lone query is a batch of
    #: one).  Trips wait on shared rounds, so summing it across a batch
    #: overcounts the batch's actual work.
    elapsed_s: float
    #: Sub-query retrievals answered without this trip paying a scan:
    #: from the shared cache, or from another trip's scan of the same
    #: sub-query in the same round.  The scan count of an uncached
    #: sequential run equals ``n_index_scans + n_cache_hits``, except
    #: when concurrent batches share one cache, where two batches
    #: missing the same key simultaneously may each scan it once
    #: (answers are still identical; the sum can only over-count scans,
    #: never miss work).
    n_cache_hits: int = 0
    #: The :class:`repro.api.TripRequest` this result answers, when the
    #: query entered through the typed API (``None`` on legacy paths).
    request: Optional["TripRequest"] = None

    @property
    def estimated_mean(self) -> float:
        """Sum of sub-query means — the paper's point estimate."""
        return float(sum(o.mean for o in self.outcomes))

    # ------------------------------------------------------------------ #
    # Wire form (external cache / HTTP tier contract)
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible wire form, inverse of :meth:`from_dict`.

        Carries everything a remote consumer (or an external cache tier)
        needs to reconstruct the answer: the convolved histogram, the
        per-sub-query outcomes (query, raw travel times, histogram), the
        accounting counters, and the originating request's wire form.
        """

        def outcome_payload(outcome: SubQueryOutcome) -> Dict[str, Any]:
            from ..api.request import _interval_to_dict

            return {
                "path": list(outcome.query.path),
                "interval": _interval_to_dict(outcome.query.interval),
                "user": outcome.query.user,
                "beta": outcome.query.beta,
                "shift_applied": outcome.query.shift_applied,
                "values": [float(v) for v in outcome.values],
                "histogram": outcome.histogram.to_wire(),
                "from_fallback": outcome.from_fallback,
            }

        return {
            "histogram": self.histogram.to_wire(),
            "outcomes": [outcome_payload(o) for o in self.outcomes],
            "n_index_scans": self.n_index_scans,
            "n_estimator_skips": self.n_estimator_skips,
            "elapsed_s": self.elapsed_s,
            "n_cache_hits": self.n_cache_hits,
            "request": self.request.to_dict() if self.request else None,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TripQueryResult":
        """Reconstruct a result from its wire form."""
        from ..api.request import TripRequest, _interval_from_dict

        outcomes = [
            SubQueryOutcome(
                query=StrictPathQuery(
                    path=tuple(o["path"]),
                    interval=_interval_from_dict(o["interval"]),
                    user=o.get("user"),
                    beta=o.get("beta"),
                    shift_applied=bool(o.get("shift_applied", False)),
                ),
                values=np.asarray(o["values"], dtype=np.float64),
                histogram=Histogram.from_wire(o["histogram"]),
                from_fallback=bool(o["from_fallback"]),
            )
            for o in payload["outcomes"]
        ]
        request = payload.get("request")
        return cls(
            histogram=Histogram.from_wire(payload["histogram"]),
            outcomes=outcomes,
            n_index_scans=int(payload["n_index_scans"]),
            n_estimator_skips=int(payload["n_estimator_skips"]),
            elapsed_s=float(payload["elapsed_s"]),
            n_cache_hits=int(payload.get("n_cache_hits", 0)),
            request=(
                TripRequest.from_dict(request) if request is not None else None
            ),
        )

    @property
    def final_subpaths(self) -> List[Tuple[int, ...]]:
        return [o.query.path for o in self.outcomes]

    @property
    def mean_subpath_length(self) -> float:
        """Average final sub-query path length (Figure 7)."""
        lengths = [o.path_length for o in self.outcomes]
        return float(np.mean(lengths)) if lengths else 0.0


class QueryEngine:
    """Answers strict path queries over any :class:`IndexReader`.

    The engine never touches index internals: spatial lookups, estimator
    statistics, and retrieval all go through the reader protocol, so the
    monolithic :class:`repro.sntindex.SNTIndex` and the time-sliced
    :class:`repro.sntindex.ShardedSNTIndex` answer identically here.
    """

    def __init__(
        self,
        index: IndexReader,
        network: RoadNetwork,
        config: Optional["EngineConfig"] = None,
        *,
        estimator: Optional[CardinalityEstimator] = None,
        cache=None,
    ):
        """
        Parameters
        ----------
        index, network:
            The index reader (monolithic or sharded SNT-index) and its
            road network.
        config:
            An :class:`repro.api.EngineConfig`; ``None`` uses defaults.
            (The pre-redesign keyword/positional forms — ``partitioner=``
            and friends — were removed on the PR-3 deprecation schedule;
            pass a config object.)
        estimator:
            Optional :class:`CardinalityEstimator` instance used as the
            engine default.  When omitted and ``config.estimator_mode``
            is set, one is built from the mode.  A request's own
            ``estimator`` mode always overrides the engine default.
        cache:
            Optional sub-query cache shared across trips (e.g.
            :class:`repro.service.SubQueryCache`).  ``None`` gives each
            trip a fresh :class:`PerTripCache`; trips of one batch still
            share their identical scans.  A shared cache must be
            thread-safe when the engine is used from multiple threads.
        """
        if config is None:
            config = _default_config()
        if not hasattr(config, "partitioner"):
            raise TypeError(
                f"config must be an EngineConfig; got "
                f"{type(config).__name__} — pass "
                "config=repro.EngineConfig(...)"
            )
        # A mismatched pair answers silently wrong: edges beyond the
        # index's alphabet get empty ISA ranges and fall through to the
        # other network's estimateTT fallback.
        network_alphabet = getattr(network, "alphabet_size", None)
        if network_alphabet is not None and network_alphabet != index.alphabet_size:
            raise QueryError(
                f"index alphabet size {index.alphabet_size} does not match "
                f"the network's {network_alphabet}; index and network must "
                "come from the same world"
            )
        self.index = index
        self.network = network
        self.config = config
        #: The planner's config snapshot; shared by every trip machine.
        self.policy = PlanPolicy.from_config(config)
        #: Estimators built per requested mode, shared across trips.  A
        #: CardinalityEstimator is stateless after construction, so one
        #: instance per mode serves concurrent threads; the dict itself
        #: is only mutated under the GIL (worst case two threads build
        #: the same mode once each — identical objects, last write wins).
        self._estimators: Dict[str, CardinalityEstimator] = {}
        if estimator is None and config.estimator_mode is not None:
            estimator = self._resolve_estimator(config.estimator_mode)
        self.estimator = estimator
        self.cache = cache
        self._bind_cache(cache)

    def _bind_cache(self, cache) -> None:
        """Pin a shared cache to this engine's index and network (keys
        carry no data identity — and cached fallback results embed the
        network's ``estimateTT`` — so cross-data sharing must be
        rejected)."""
        bind = getattr(cache, "bind_index", None)
        if bind is not None:
            bind(self.index, self.network)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def query(self, request: "TripRequest") -> TripQueryResult:
        """Answer one typed :class:`repro.api.TripRequest`.

        A batch of one through :meth:`run_batch`: the request's
        estimator mode overrides the engine default, and the result
        carries the request as a back-reference.
        """
        if not hasattr(request, "to_spq"):
            # The exact migration mistake the deprecation message invites:
            # passing a legacy StrictPathQuery here.  Keep it typed.
            raise RequestValidationError(
                f"QueryEngine.query expects a TripRequest; got "
                f"{type(request).__name__} — wrap legacy queries with "
                "TripRequest.from_spq(...)"
            )
        (result,), _ = self.run_batch(
            [(request.to_spq(), request.exclude_ids, request.estimator)]
        )
        result.request = request
        return result

    def _resolve_estimator(
        self, mode
    ) -> Optional[CardinalityEstimator]:
        """Map a per-request estimator mode to an estimator instance.

        ``None`` inherits the engine default; the ``"none"`` mode
        (``EstimatorMode.NONE``) explicitly disables the pre-check; any
        other mode is built once and shared across trips.
        """
        if mode is None:
            return self.estimator
        value = str(getattr(mode, "value", mode))
        if value == "none":
            return None
        built = self._estimators.get(value)
        if built is None:
            built = CardinalityEstimator(
                self.index,
                mode=value,
                user_selectivity=self.config.user_selectivity,
            )
            self._estimators[value] = built
        return built

    def run_batch(
        self,
        tasks: Sequence[Tuple[StrictPathQuery, Tuple[int, ...], Any]],
        n_workers: int = 1,
        cache=None,
    ) -> Tuple[List[TripQueryResult], DedupStats]:
        """Answer a batch with cross-trip sub-query deduplication.

        ``tasks`` are ``(query, exclude_ids, estimator_mode)`` triples.
        All trips plan against the shared cache backend (the engine's,
        or ``cache`` when given; a ``None`` engine cache means per-trip
        caches and in-batch dedup only), and the
        :class:`~repro.core.exec.BatchExecutor` scans each unique
        planned sub-query once per round — bit-identical to the
        sequential per-trip loop, including relaxation re-planning when
        a shared scan comes back empty.  ``n_workers`` fans each
        round's scans out over threads.  Returns the results in
        submission order plus the batch's dedup accounting.
        """
        shared = cache if cache is not None else self.cache
        if shared is not None:
            self._prepare_cache(shared)
        # Machines are built (and their clocks started) together, so in
        # batch mode a result's ``elapsed_s`` is its completion latency
        # relative to the batch start — the serving-side metric — not
        # the trip's solo service time; timing is explicitly outside
        # the bit-identity contract.
        # Prefetch is pooled: the whole batch's planned sub-queries
        # resolve through one batched backward search (the levelwise
        # frontier descent needs batch-of-trips scale to pay off).
        machines = [
            TripMachine(
                self.policy,
                self.index,
                self.network,
                shared if shared is not None else PerTripCache(),
                self._resolve_estimator(estimator_mode),
                query,
                exclude_ids,
            )
            for query, exclude_ids, estimator_mode in tasks
        ]
        prefetch_ranges_many(self.index, machines)
        executor = BatchExecutor(
            self.index,
            self.network,
            cache=shared,
            n_workers=n_workers,
        )
        return executor.run(machines), executor.stats

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _prepare_cache(self, cache) -> None:
        """Bind a cache backend and adopt the reader's current epoch."""
        self._bind_cache(cache)
        # Appendable readers bump their epoch on mutation; a shared
        # cache drops entries cached against the earlier index state.
        sync_epoch = getattr(cache, "sync_epoch", None)
        if sync_epoch is not None:
            sync_epoch(self.index)
