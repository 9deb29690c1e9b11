"""Sequential Procedure 6, independent of the batch executor.

The equivalence suites compare every answer path against this loop: one
trip at a time, one :class:`~repro.core.exec.TripMachine`, every demand
answered by the public per-query ``repro.get_travel_times`` and fed
straight back, no shared cache.  It shares the planner with the program
but none of the executor — no rounds, no grouping of demands, no
deduplication — so it checks the one execution path instead of
re-running it.
"""

from repro import QueryEngine, TripRequest, get_travel_times
from repro.core.engine import PerTripCache
from repro.core.exec import TripMachine


def sequential_query(engine, request):
    """Answer one request with the uncached per-trip loop."""
    machine = TripMachine(
        engine.policy,
        engine.index,
        engine.network,
        PerTripCache(),
        engine._resolve_estimator(request.estimator),
        request.to_spq(),
        request.exclude_ids,
    )
    demand = machine.advance()
    while demand is not None:
        answer = get_travel_times(
            engine.index,
            demand.task.query,
            fallback_tt=engine.network.estimate_tt,
            exclude_ids=demand.task.exclude_ids,
            isa_ranges=demand.ranges,
        )
        demand = machine.resume(answer, True)
    result = machine.result
    result.request = request
    return result


def sequential_answers(index, network, config, requests):
    """:func:`sequential_query` over a list, one engine for all."""
    engine = QueryEngine(index, network, config)
    return [sequential_query(engine, request) for request in requests]


def sequential_trip(engine, query, exclude_ids=()):
    """:func:`sequential_query` for a legacy ``StrictPathQuery``."""
    return sequential_query(
        engine, TripRequest.from_spq(query, exclude_ids=exclude_ids)
    )
