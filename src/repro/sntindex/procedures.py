"""Travel-time retrieval procedures (paper Procedures 3-5).

``buildMap`` scans the temporal index of the *first* segment of a query
path, filtering by time interval, ISA range and user predicate, and maps
``(d, seq)`` to the antecedent aggregate ``a - TT``.  ``probeMap`` scans
the *last* segment and emits ``a_last - (a_first - TT_first)`` — the exact
travel time over the whole path — for every record whose ``(d, seq + 1 -
l)`` hits the map.  ``getTravelTimes`` (Procedure 5) glues both together
behind the FM-index ISA range.

The implementation is column-oriented: the forest returns candidate row
positions for the time predicate, and ISA/user filters are numpy masks.
Matches are taken in ascending entry time and cut at ``beta``, mirroring
the paper's early termination (Procedure 3 line 6).

The probe itself is a sorted-key join, not a hash map: both sides pack
``(d, seq)`` into one int64 composite key
(:func:`repro.temporal.records.pack_probe_keys`), the last segment keeps
a lazily built (and persisted) sort permutation over that key
(:attr:`repro.temporal.forest.EdgeTemporalIndex.probe_order`), and the
probe answers with two ``np.searchsorted`` passes plus a ragged gather —
no Python dict, no per-row loop, no ``np.isin`` full-column scan.
Duplicate ``(d, seq)`` keys among the first-segment matches keep the
*last* occurrence in match order, replicating the historical dict
overwrite; emission order reproduces the historical candidate scan by
sorting the joined rows back to ascending column position.

Both phases answer a whole demand set per index:
:func:`first_segment_matches_many` (Procedure 3's scan and filters) and
:func:`probe_travel_times_many` (Procedures 3-4's map build and probe,
returning the travel times plus the entry timestamps that order them).
Queries are grouped by first (respectively last) edge, each edge's
interval selection and ISA-bound table is built once for the group over
stacked query bounds, and the probe join runs one concatenated
``searchsorted`` per edge.

:func:`travel_times_over_shards` is the one Procedure 5: it runs both
phases over an ordered list of shards, applies the global ascending
entry-time ``beta`` cut and the classification between them, and merges
per-shard outputs on ``(entry time, shard order)``.  A monolithic index
is the one-shard list; the sharded router adds only routing and
partition-id translation.  :func:`count_matches_over_shards` is the one
match counter.  :func:`get_travel_times` and :func:`count_matches` are
the paper-named entry points over any
:class:`~repro.sntindex.reader.IndexReader`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np
import numpy.typing as npt

from ..core.intervals import (
    FixedInterval,
    PeriodicInterval,
    TimeInterval,
    is_periodic,
)
from ..core.spq import StrictPathQuery
from ..temporal.forest import EdgeTemporalIndex
from ..temporal.records import TraversalColumns, pack_probe_keys

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .index import SNTIndex
    from .reader import IndexReader

__all__ = [
    "TravelTimeResult",
    "first_segment_matches",
    "first_segment_matches_many",
    "probe_travel_times_many",
    "travel_times_over_shards",
    "count_matches_over_shards",
    "get_travel_times",
    "count_matches",
]

Int64Array = npt.NDArray[np.int64]
Float64Array = npt.NDArray[np.float64]
IsaRanges = List[Tuple[int, int, int]]
#: One grouped-scan work item: ``(query, exclude_ids, beta, isa_ranges)``.
MatchItem = Tuple[StrictPathQuery, Sequence[int], Optional[int],
                  Optional[IsaRanges]]
#: One grouped-probe work item: ``(query, selected_rows, first_columns)``.
ProbeEntry = Tuple[StrictPathQuery, Int64Array, TraversalColumns]
#: One reader-level demand: ``(query, exclude_ids, isa_ranges)``, where
#: ``None`` ranges are resolved by the index.
TravelTimeItem = Tuple[StrictPathQuery, Sequence[int], Optional[IsaRanges]]
#: One demand over a shard list: ``(query, exclude_ids, scans)``, where
#: ``scans`` names, in ascending list order, each shard position to scan
#: with the query's ISA ranges in that shard's partition ids (``None``
#: resolves them on the shard).
ShardDemand = Tuple[StrictPathQuery, Sequence[int],
                    Sequence[Tuple[int, Optional[IsaRanges]]]]


@dataclass
class TravelTimeResult:
    """Outcome of one strict path sub-query."""

    #: Retrieved travel times ``X`` (or the single fallback estimate).
    values: np.ndarray
    #: Number of trajectories matched in the first-segment scan.
    n_matched: int
    #: True when ``values`` holds the ``estimateTT`` speed-limit fallback.
    from_fallback: bool = False
    #: True when a periodic query matched fewer than ``beta`` trajectories
    #: (Procedure 5 line 7) and therefore returned no values.
    insufficient: bool = False

    @property
    def is_empty(self) -> bool:
        return self.values.size == 0

    # -- wire form (external cache tier contract) ---------------------- #

    def to_wire(self) -> Dict[str, object]:
        """JSON-compatible wire form, inverse of :meth:`from_wire`.

        The payload format of the cross-process
        :class:`~repro.service.cachetier.SharedCacheTier`: float64
        travel times round-trip exactly through JSON ``repr``, so a
        deserialised result is bit-identical to the computed one.
        """
        return {
            "values": np.asarray(self.values, dtype=np.float64).tolist(),
            "n_matched": int(self.n_matched),
            "from_fallback": bool(self.from_fallback),
            "insufficient": bool(self.insufficient),
        }

    @classmethod
    def from_wire(cls, payload: Dict[str, object]) -> "TravelTimeResult":
        values = np.asarray(payload["values"], dtype=np.float64)
        values.setflags(write=False)
        return cls(
            values=values,
            n_matched=int(payload["n_matched"]),  # type: ignore[arg-type]
            from_fallback=bool(payload["from_fallback"]),
            insufficient=bool(payload["insufficient"]),
        )


def _interval_rows(
    index_edge: EdgeTemporalIndex, interval: TimeInterval
) -> Int64Array:
    if is_periodic(interval):
        assert isinstance(interval, PeriodicInterval)
        return index_edge.rows_periodic(interval.start_tod, interval.duration)
    assert isinstance(interval, FixedInterval)
    return index_edge.rows_fixed(interval.start, interval.end)


def _interval_rows_many(
    index_edge: EdgeTemporalIndex, intervals: Sequence[TimeInterval]
) -> List[Int64Array]:
    """Batched :func:`_interval_rows`: fixed and periodic predicates each
    resolve through one stacked bounds pass on the edge."""
    fixed_slots: List[int] = []
    periodic_slots: List[int] = []
    for i, interval in enumerate(intervals):
        (periodic_slots if is_periodic(interval) else fixed_slots).append(i)
    results: List[Optional[Int64Array]] = [None] * len(intervals)
    if fixed_slots:
        los: List[int] = []
        his: List[int] = []
        for i in fixed_slots:
            interval = intervals[i]
            assert isinstance(interval, FixedInterval)
            los.append(interval.start)
            his.append(interval.end)
        for i, rows in zip(fixed_slots, index_edge.rows_fixed_many(los, his)):
            results[i] = rows
    if periodic_slots:
        starts: List[int] = []
        durations: List[int] = []
        for i in periodic_slots:
            interval = intervals[i]
            assert isinstance(interval, PeriodicInterval)
            starts.append(interval.start_tod)
            durations.append(interval.duration)
        for i, rows in zip(
            periodic_slots, index_edge.rows_periodic_many(starts, durations)
        ):
            results[i] = rows
    return [
        rows if rows is not None else np.empty(0, dtype=np.int64)
        for rows in results
    ]


def first_segment_matches(
    index: "SNTIndex",
    query: StrictPathQuery,
    exclude_ids: Sequence[int] = (),
    beta: Optional[int] = None,
    isa_ranges: Optional[IsaRanges] = None,
) -> Optional[Tuple[Int64Array, TraversalColumns]]:
    """Rows of the first segment matching all predicates, beta-cut.

    Returns ``(row_positions, columns)`` of the first segment's index, or
    ``None`` when the path does not occur / the edge has no data.  Row
    positions are in ascending entry time (ties in column order), so a
    prefix of them is exactly the paper's early-terminated match set.
    ``isa_ranges`` lets callers share one backward search between the
    cardinality estimate and the retrieval (the engine does this).
    """
    ranges = (
        isa_ranges if isa_ranges is not None else index.isa_ranges(query.path)
    )
    if not ranges:
        return None
    phi0 = index.edge_index(query.path[0])
    if phi0 is None or len(phi0) == 0:
        return None
    rows = _interval_rows(phi0, query.interval)
    if rows.size == 0:
        columns = phi0.columns
        return rows, columns
    columns = phi0.columns

    st_per_w = np.zeros(index.n_partitions, dtype=np.int64)
    ed_per_w = np.zeros(index.n_partitions, dtype=np.int64)
    for w, st, ed in ranges:
        st_per_w[w], ed_per_w[w] = st, ed
    w_sel = columns.w[rows]
    isa = columns.isa[rows]
    mask = (isa >= st_per_w[w_sel]) & (isa < ed_per_w[w_sel])

    if query.user is not None:
        mask &= index.users[columns.d[rows]] == query.user
    if len(exclude_ids):
        mask &= np.isin(
            columns.d[rows],
            np.asarray(exclude_ids, dtype=np.int64),
            invert=True,
        )

    selected = rows[mask]
    if beta is not None and selected.size > beta:
        selected = selected[:beta]  # ascending entry time (Procedure 3)
    return selected, columns


def first_segment_matches_many(
    index: "SNTIndex", items: Sequence[MatchItem]
) -> List[Optional[Tuple[Int64Array, TraversalColumns]]]:
    """Grouped :func:`first_segment_matches` over a demand set.

    Items sharing a first edge are answered together: the edge's
    interval selection runs once over stacked query bounds, the per-``w``
    ISA bound table is built for the whole group in one scatter, and the
    ISA/user masks evaluate over the group's concatenated candidate
    rows.  An item alone on its first edge runs the scalar scan.  Per
    item, the output (including the ``beta`` prefix cut and the
    ``None``-vs-empty distinction) is exactly the scalar function's.
    """
    n_items = len(items)
    results: List[Optional[Tuple[Int64Array, TraversalColumns]]] = (
        [None] * n_items
    )
    ranges_list: List[Optional[IsaRanges]] = [item[3] for item in items]
    missing = [i for i in range(n_items) if ranges_list[i] is None]
    if missing:
        # One batched backward search resolves every un-resolved path.
        resolved = index.isa_ranges_many(
            [items[i][0].path for i in missing]
        )
        for i, ranges in zip(missing, resolved):
            ranges_list[i] = ranges

    by_edge: Dict[int, List[int]] = {}
    for i in range(n_items):
        if not ranges_list[i]:
            continue  # no occurrence anywhere: scalar returns None
        by_edge.setdefault(int(items[i][0].path[0]), []).append(i)

    for edge, slots in by_edge.items():
        if len(slots) == 1:
            # A lone query on its edge has nothing to share, and the
            # grouping costs about twice the scalar scan per demand.
            (i,) = slots
            query, exclude_ids, beta, _ = items[i]
            results[i] = first_segment_matches(
                index, query, exclude_ids, beta, ranges_list[i]
            )
            continue
        phi0 = index.edge_index(edge)
        if phi0 is None or len(phi0) == 0:
            continue  # scalar returns None for every query on this edge
        columns = phi0.columns
        rows_list = _interval_rows_many(
            phi0, [items[i][0].interval for i in slots]
        )
        sizes = np.asarray([rows.size for rows in rows_list], dtype=np.int64)
        total = int(sizes.sum())
        if total == 0:
            for i, rows in zip(slots, rows_list):
                results[i] = (rows, columns)
            continue

        # Stacked predicate evaluation over the group's candidates,
        # slot-major so each query's chunk stays one contiguous slice.
        rows_cat = np.concatenate(rows_list)
        slot_cat = np.repeat(np.arange(len(slots)), sizes)
        slot_idx: List[int] = []
        w_idx: List[int] = []
        st_vals: List[int] = []
        ed_vals: List[int] = []
        for k, i in enumerate(slots):
            ranges = ranges_list[i]
            assert ranges is not None
            for w, st, ed in ranges:
                slot_idx.append(k)
                w_idx.append(w)
                st_vals.append(st)
                ed_vals.append(ed)
        st2 = np.zeros((len(slots), index.n_partitions), dtype=np.int64)
        ed2 = np.zeros((len(slots), index.n_partitions), dtype=np.int64)
        st2[slot_idx, w_idx] = st_vals
        ed2[slot_idx, w_idx] = ed_vals
        w_cat = columns.w[rows_cat]
        isa_cat = columns.isa[rows_cat]
        d_cat = columns.d[rows_cat]
        mask = (isa_cat >= st2[slot_cat, w_cat]) & (
            isa_cat < ed2[slot_cat, w_cat]
        )

        if any(items[i][0].user is not None for i in slots):
            has_user = np.asarray(
                [items[i][0].user is not None for i in slots], dtype=bool
            )
            user_arr = np.asarray(
                [
                    items[i][0].user if items[i][0].user is not None else 0
                    for i in slots
                ],
                dtype=np.int64,
            )
            mask &= ~has_user[slot_cat] | (
                index.users[d_cat] == user_arr[slot_cat]
            )

        bounds = np.concatenate(([0], np.cumsum(sizes)))
        for k, i in enumerate(slots):
            b0, b1 = int(bounds[k]), int(bounds[k + 1])
            exclude_ids = items[i][1]
            if len(exclude_ids):
                mask[b0:b1] &= np.isin(
                    d_cat[b0:b1],
                    np.asarray(exclude_ids, dtype=np.int64),
                    invert=True,
                )
            selected = rows_cat[b0:b1][mask[b0:b1]]
            beta = items[i][2]
            if beta is not None and selected.size > beta:
                selected = selected[:beta]
            results[i] = (selected, columns)
    return results


def _dedup_probe_targets(
    columns: TraversalColumns, selected: Int64Array, length: int
) -> Tuple[Int64Array, Float64Array]:
    """buildMap as arrays: sorted unique probe keys and their ``a - TT``.

    The probe key of a first-segment match ``(d, seq)`` on a path of
    ``length`` segments is ``(d, seq + length - 1)`` — the ``(d, seq)``
    pair its last-segment record carries.  Duplicate keys keep the last
    occurrence in match order, replicating the dict overwrite of the
    historical per-row ``buildMap``.
    """
    first_seq = np.asarray(columns.seq[selected], dtype=np.int64)
    targets = pack_probe_keys(
        columns.d[selected], first_seq + np.int64(length - 1)
    )
    diffs = columns.a[selected] - columns.tt[selected]
    if targets.size == 0:
        return targets, np.asarray(diffs, dtype=np.float64)
    order = np.argsort(targets, kind="stable")
    sorted_targets = targets[order]
    keep = np.empty(sorted_targets.size, dtype=bool)
    keep[:-1] = sorted_targets[1:] != sorted_targets[:-1]
    keep[-1] = True
    return (
        np.asarray(sorted_targets[keep], dtype=np.int64),
        np.asarray(diffs[order][keep], dtype=np.float64),
    )


def _join_probe(
    phi_last: EdgeTemporalIndex,
    lo: Int64Array,
    counts: Int64Array,
    diffs: Float64Array,
) -> Tuple[Float64Array, Int64Array]:
    """Gather and emit the matches of one query's sorted-key probe.

    ``lo``/``counts`` bound each target's run in the last segment's
    probe order; the ragged gather materialises every hit, and sorting
    the hit rows ascending restores the historical candidate-scan
    emission order (rows are unique — one ``(d, seq)`` key per row).
    """
    total = int(counts.sum())
    last = phi_last.columns
    if total == 0:
        return (np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64))
    starts = np.repeat(lo, counts)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    flat = starts + np.arange(total, dtype=np.int64) - offsets
    rows = phi_last.probe_order[flat]
    target_idx = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    emit = np.argsort(rows, kind="stable")
    rows_emit = rows[emit]
    values = last.a[rows_emit] - diffs[target_idx[emit]]
    return (
        np.asarray(values, dtype=np.float64),
        np.asarray(last.t[rows_emit], dtype=np.int64),
    )


def probe_travel_times_many(
    index: "SNTIndex", entries: Sequence[ProbeEntry]
) -> List[Tuple[Float64Array, Int64Array]]:
    """Procedures 3-4 for a demand set, given each entry's (already
    beta-cut) first-segment rows.

    Returns ``(values, order_t)`` per entry: the travel times of the
    matched traversals in this index's column scan order plus, per
    value, the entry timestamp of the record that emitted it (the first
    segment for single-segment paths, the last segment otherwise) — what
    :func:`travel_times_over_shards` merges on across shards.

    Entries sharing a last edge share its sorted probe-key order: the
    group's probe targets are stacked and bounded with **one**
    ``searchsorted`` pair per edge, then each entry gathers and emits
    its own matches.  Single-segment paths bypass the join — their
    values are the first segment's ``TT`` column directly.
    """
    results: List[Optional[Tuple[Float64Array, Int64Array]]] = (
        [None] * len(entries)
    )
    by_edge: Dict[int, List[int]] = {}
    for i, (query, selected, columns) in enumerate(entries):
        if query.length == 1:
            # The first segment is the last: X is the TT column directly.
            values = columns.tt[selected].astype(np.float64, copy=True)
            results[i] = (values, np.asarray(columns.t[selected],
                                             dtype=np.int64))
        else:
            by_edge.setdefault(int(query.path[-1]), []).append(i)

    for edge, slots in by_edge.items():
        phi_last = index.edge_index(edge)
        if phi_last is None:  # cannot happen when the ISA range was non-empty
            for i in slots:
                results[i] = (
                    np.empty(0, dtype=np.float64),
                    np.empty(0, dtype=np.int64),
                )
            continue
        target_parts: List[Int64Array] = []
        diff_parts: List[Float64Array] = []
        for i in slots:
            query, selected, columns = entries[i]
            targets, diffs = _dedup_probe_targets(
                columns, selected, query.length
            )
            target_parts.append(targets)
            diff_parts.append(diffs)
        keys_sorted = phi_last.probe_keys_sorted()
        targets_cat = np.concatenate(target_parts)
        lo_cat = np.asarray(
            np.searchsorted(keys_sorted, targets_cat, side="left"),
            dtype=np.int64,
        )
        hi_cat = np.asarray(
            np.searchsorted(keys_sorted, targets_cat, side="right"),
            dtype=np.int64,
        )
        counts_cat = hi_cat - lo_cat
        t_sizes = [targets.size for targets in target_parts]
        t_bounds = np.concatenate(([0], np.cumsum(t_sizes)))
        for k, i in enumerate(slots):
            ta, tb = int(t_bounds[k]), int(t_bounds[k + 1])
            results[i] = _join_probe(
                phi_last, lo_cat[ta:tb], counts_cat[ta:tb], diff_parts[k]
            )
    return [
        result
        if result is not None
        else (np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64))
        for result in results
    ]




def _classify_scan(
    query: StrictPathQuery,
    n_matched: int,
    fallback_tt: Optional[Callable[[int], float]],
) -> Optional[TravelTimeResult]:
    """Procedure 5's pre-probe classification; ``None`` means probe."""
    empty = np.empty(0, dtype=np.float64)
    if (
        query.beta is not None
        and n_matched < query.beta
        and is_periodic(query.interval)
    ):
        # Procedure 5 line 7: periodic queries fail below the cardinality
        # requirement; fixed-interval queries proceed regardless of beta.
        return TravelTimeResult(empty, n_matched, insufficient=True)
    if n_matched == 0:
        if query.length == 1 and fallback_tt is not None:
            estimate = np.asarray([fallback_tt(query.path[0])])
            return TravelTimeResult(estimate, 0, from_fallback=True)
        return TravelTimeResult(empty, 0)
    return None


def travel_times_over_shards(
    shards: Sequence["SNTIndex"],
    demands: Sequence[ShardDemand],
    fallback_tt: Optional[Callable[[int], float]] = None,
) -> List[TravelTimeResult]:
    """Procedure 5 for a demand set over an ordered shard list.

    The one retrieval body: a monolithic index answers as the one-shard
    list ``[index]``, a sharded router passes its shards in temporal
    order with each demand routed to a subset of them.  Per demand:

    1. the first-segment scan runs on every routed shard, grouped per
       shard (:func:`first_segment_matches_many`), each chunk capped at
       ``beta``;
    2. the chunks are cut to the ``beta`` earliest entry times across
       shards, and Procedure 5's insufficient/empty/fallback
       classification applies to the global match count;
    3. the surviving chunks are probed, grouped per shard
       (:func:`probe_travel_times_many`), and merged on ``(entry time,
       shard order)``.

    Each shard's columns are a stable restriction of the monolithic
    t-sorted columns, so the cut and the merge reproduce the monolithic
    row order exactly.  A demand answered by one chunk is already in
    that order and skips both.

    A lone demand on a one-shard list — every round of a lone query on
    a monolithic index — runs the same steps without the grouping
    bookkeeping, which costs about a tenth of such a scan.
    """
    if len(demands) == 1 and len(shards) == 1:
        query, exclude_ids, scans = demands[0]
        match = (
            first_segment_matches(
                shards[0], query, exclude_ids, query.beta, scans[0][1]
            )
            if scans
            else None
        )
        n_matched = 0 if match is None else int(match[0].size)
        early = _classify_scan(query, n_matched, fallback_tt)
        if early is not None:
            return [early]
        assert match is not None
        values, _ = probe_travel_times_many(
            shards[0], [(query, match[0], match[1])]
        )[0]
        return [TravelTimeResult(values, n_matched)]
    n_demands = len(demands)
    scan_items: List[List[MatchItem]] = [[] for _ in shards]
    scan_owners: List[List[int]] = [[] for _ in shards]
    for i, (query, exclude_ids, scans) in enumerate(demands):
        for position, ranges in scans:
            scan_items[position].append(
                (query, exclude_ids, query.beta, ranges)
            )
            scan_owners[position].append(i)
    chunks: List[List[Tuple[int, Int64Array, TraversalColumns]]] = [
        [] for _ in range(n_demands)
    ]
    for position, shard in enumerate(shards):
        if not scan_items[position]:
            continue
        for i, match in zip(
            scan_owners[position],
            first_segment_matches_many(shard, scan_items[position]),
        ):
            if match is not None and match[0].size:
                chunks[i].append((position, match[0], match[1]))

    results: List[Optional[TravelTimeResult]] = [None] * n_demands
    matched_counts = [0] * n_demands
    probe_entries: List[List[ProbeEntry]] = [[] for _ in shards]
    probe_owners: List[List[int]] = [[] for _ in shards]
    for i, (query, _, _) in enumerate(demands):
        item_chunks = chunks[i]
        sizes = [int(selected.size) for _, selected, _ in item_chunks]
        n_matched = sum(sizes)
        if len(item_chunks) > 1 and query.beta is not None and (
            n_matched > query.beta
        ):
            # Keep the beta earliest entries across shards (Procedure 3's
            # early termination, applied globally): each chunk keeps the
            # prefix of its rows that the stable (t, shard) order takes.
            stamps = np.concatenate(
                [columns.t[selected] for _, selected, columns in item_chunks]
            )
            kept = np.argsort(stamps, kind="stable")[: query.beta]
            bounds = np.cumsum([0] + sizes)
            source = np.searchsorted(bounds, kept, side="right") - 1
            keep_counts = np.bincount(source, minlength=len(item_chunks))
            item_chunks = [
                (position, selected[: int(keep_counts[k])], columns)
                for k, (position, selected, columns) in enumerate(item_chunks)
            ]
            n_matched = int(query.beta)
        matched_counts[i] = n_matched
        early = _classify_scan(query, n_matched, fallback_tt)
        if early is not None:
            results[i] = early
            continue
        for position, selected, columns in item_chunks:
            if selected.size:
                probe_entries[position].append((query, selected, columns))
                probe_owners[position].append(i)

    value_chunks: List[List[Float64Array]] = [[] for _ in range(n_demands)]
    stamp_chunks: List[List[Int64Array]] = [[] for _ in range(n_demands)]
    for position, shard in enumerate(shards):
        if not probe_entries[position]:
            continue
        for i, (values, stamps) in zip(
            probe_owners[position],
            probe_travel_times_many(shard, probe_entries[position]),
        ):
            value_chunks[i].append(values)
            stamp_chunks[i].append(stamps)
    for i, result in enumerate(results):
        if result is not None:
            continue
        if len(value_chunks[i]) == 1:
            merged = value_chunks[i][0]
        else:
            merged = np.concatenate(value_chunks[i])[
                np.argsort(np.concatenate(stamp_chunks[i]), kind="stable")
            ]
        results[i] = TravelTimeResult(merged, matched_counts[i])
    return [result for result in results if result is not None]


def count_matches_over_shards(
    shards: Sequence["SNTIndex"],
    path: Sequence[int],
    interval: TimeInterval,
    user: Optional[int] = None,
    exclude_ids: Sequence[int] = (),
    limit: Optional[int] = None,
    on_scan: Optional[Callable[[int], None]] = None,
) -> int:
    """Exact strict-path match count over an ordered shard list.

    Sums the first-segment match counts shard by shard and stops at
    ``limit`` (early termination), so a shard after the one that reaches
    it is never scanned; ``on_scan`` is told the list position of each
    shard as it is scanned.  A monolithic index counts as ``[index]``.
    """
    query = StrictPathQuery(
        path=tuple(path), interval=interval, user=user, beta=limit
    )
    total = 0
    for position, shard in enumerate(shards):
        if on_scan is not None:
            on_scan(position)
        matches = first_segment_matches(
            shard, query, exclude_ids=exclude_ids, beta=limit
        )
        if matches is not None:
            total += int(matches[0].size)
        if limit is not None and total >= limit:
            # Each shard's count is capped at limit; the sum can only
            # overshoot it.
            return int(limit)
    return total


def get_travel_times(
    index: "IndexReader",
    query: StrictPathQuery,
    fallback_tt: Optional[Callable[[int], float]] = None,
    exclude_ids: Sequence[int] = (),
    isa_ranges: Optional[IsaRanges] = None,
) -> TravelTimeResult:
    """Procedure 5: retrieve ``X`` for ``spq(P, I, f, beta)``.

    ``fallback_tt`` is ``estimateTT`` for the speed-limit fallback on
    empty single-segment results (Procedure 5 lines 12-13), usually
    ``network.estimate_tt``; ``exclude_ids`` keeps trajectories out of
    the match (the evaluation workload excludes the query's own trip).
    A demand set of one through the reader's grouped retrieval.
    """
    return index.get_travel_times_many(
        [(query, exclude_ids, isa_ranges)], fallback_tt=fallback_tt
    )[0]


def count_matches(
    index: "IndexReader",
    path: Sequence[int],
    interval: TimeInterval,
    user: Optional[int] = None,
    exclude_ids: Sequence[int] = (),
    limit: Optional[int] = None,
) -> int:
    """Exact number of trajectories matching a strict path predicate.

    Used by the longest-prefix splitter (``sigma_L``) and as the q-error
    ground truth ``n = |T|``.  ``limit`` caps the count (early
    termination) when only a threshold comparison is needed.
    """
    return index.count_matches(
        path, interval, user=user, exclude_ids=exclude_ids, limit=limit
    )
