"""Output checks, run outside every timed window.

Each returns ``(checked, wrong)``; a wrong answer counts as a failed
attempt and makes the run incorrect.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from inputs import CHECK, answer_bytes, rng


def oracle(world, requests: Sequence, results: Sequence, seed: int, n: int):
    """Sampled sub-query answers against the index-free linear scan.

    ``naive_travel_times`` scans every trajectory (about 0.16 s per
    sub-query on the ``small`` world), so only ``n`` outcomes are drawn.
    An outcome answered by the speed-limit fallback must be a one-edge
    sub-query with no match, valued at the network's ``estimate_tt``.
    Values compare as multisets, as in the repository's oracle tests:
    occurrences entering at the same second have no defined order.
    """
    from repro import naive_travel_times

    pairs = [
        (i, j) for i, result in enumerate(results) for j in range(len(result.outcomes))
    ]
    gen = rng(seed, CHECK)
    picks = gen.choice(len(pairs), size=min(n, len(pairs)), replace=False)
    wrong = 0
    for pick in picks:
        i, j = pairs[pick]
        outcome = results[i].outcomes[j]
        expected = naive_travel_times(
            world.trajectories, outcome.query, exclude_ids=requests[i].exclude_ids
        )
        if outcome.from_fallback:
            ok = (
                expected.size == 0
                and len(outcome.query.path) == 1
                and list(outcome.values)
                == [world.network.estimate_tt(outcome.query.path[0])]
            )
        else:
            ok = np.array_equal(np.sort(outcome.values), np.sort(expected))
        wrong += not ok
    return len(picks), wrong


def one_at_a_time(index, network, requests: Sequence, results: Sequence,
                  seed: int, n: int) -> Tuple[int, int]:
    """Sampled batch answers against a fresh ``cache=None`` session."""
    from repro import open_db

    gen = rng(seed, CHECK + 100)
    picks = gen.choice(len(requests), size=min(n, len(requests)), replace=False)
    db = open_db(index, network=network, cache=None)
    wrong = 0
    for i in picks:
        wrong += answer_bytes(db.query(requests[i])) != answer_bytes(results[i])
    return len(picks), wrong


def same_answers(expected: Sequence, got: Sequence) -> Tuple[int, int]:
    """Pairwise byte-for-byte comparison of two answer lists."""
    if len(expected) != len(got):
        return max(len(expected), len(got)), max(len(expected), len(got))
    wrong = sum(answer_bytes(a) != answer_bytes(b) for a, b in zip(expected, got))
    return len(expected), wrong


def flatten(pairs: List[Tuple[list, list]]) -> Tuple[list, list]:
    requests, results = [], []
    for batch_requests, batch_results in pairs:
        requests.extend(batch_requests)
        results.extend(batch_results)
    return requests, results
