"""Property tests: bulk rank primitives must match their scalar oracles.

The vectorized paths (``RankBitvector.rank1_bulk``,
``FMIndex.isa_ranges``) exist purely for
throughput — every answer they produce must be bit-identical to the
scalar code they shadow.  Hypothesis drives random bit patterns, texts,
and position sets through both paths, with explicit coverage for the
edge cases the scalar code handles implicitly: empty bitvectors, empty
position arrays, positions on word/block boundaries, and symbols absent
from the alphabet.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fmindex import FMIndex
from repro.fmindex.bitvector import WORD_BITS, WORDS_PER_BLOCK, RankBitvector
from repro.fmindex.wavelet_tree import WaveletTree

BLOCK_BITS = WORD_BITS * WORDS_PER_BLOCK


# ---------------------------------------------------------------------------
# RankBitvector.rank1_bulk
# ---------------------------------------------------------------------------


@given(
    bits=st.lists(st.booleans(), max_size=3 * BLOCK_BITS),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_rank1_bulk_matches_scalar(bits, data):
    bv = RankBitvector(bits)
    positions = data.draw(
        st.lists(st.integers(0, len(bits)), max_size=60).map(
            lambda xs: np.asarray(xs, dtype=np.int64)
        )
    )
    got1 = bv.rank1_bulk(positions)
    for pos, r1 in zip(positions.tolist(), got1.tolist()):
        assert r1 == bv.rank1(pos)
    assert got1.dtype == np.int64


@given(n_blocks=st.integers(0, 3), data=st.data())
@settings(max_examples=60, deadline=None)
def test_rank1_bulk_on_boundary_positions(n_blocks, data):
    """Word and block boundaries exercise the tail-shift and gather mask."""
    n = n_blocks * BLOCK_BITS + data.draw(st.integers(0, BLOCK_BITS))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    bits = rng.integers(0, 2, size=n).astype(bool)
    bv = RankBitvector(bits)
    boundaries = sorted(
        {
            min(p, n)
            for base in range(0, n + 1, WORD_BITS)
            for p in (base - 1, base, base + 1)
            if 0 <= p
        }
        | {0, n}
    )
    positions = np.asarray(boundaries, dtype=np.int64)
    expected = np.concatenate(([0], np.cumsum(bits)))[positions] if n else positions * 0
    assert bv.rank1_bulk(positions).tolist() == expected.tolist()


def test_rank_bulk_empty_bitvector():
    bv = RankBitvector([])
    assert bv.rank1_bulk(np.empty(0, dtype=np.int64)).tolist() == []
    assert bv.rank1_bulk(np.zeros(4, dtype=np.int64)).tolist() == [0, 0, 0, 0]


def test_rank_bulk_empty_positions_short_circuits_dtype_check():
    bv = RankBitvector([1, 0, 1])
    # An empty float array has nothing to truncate; it is accepted.
    assert bv.rank1_bulk(np.empty(0, dtype=np.float64)).size == 0


def test_rank_bulk_rejects_bad_inputs():
    bv = RankBitvector([1, 0, 1, 1])
    with pytest.raises(TypeError):
        bv.rank1_bulk(np.int64(2))  # 0-d
    with pytest.raises(TypeError):
        bv.rank1_bulk(np.array([[1, 2]]))  # 2-d
    with pytest.raises(TypeError, match="truncated"):
        bv.rank1_bulk(np.array([1.5]))
    with pytest.raises(IndexError):
        bv.rank1_bulk(np.array([5]))
    with pytest.raises(IndexError):
        bv.rank1_bulk(np.array([-1]))


# ---------------------------------------------------------------------------
# FMIndex.isa_ranges (batched backward search)
# ---------------------------------------------------------------------------


@given(
    text=st.lists(st.integers(1, 5), min_size=1, max_size=120),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_isa_ranges_matches_scalar(text, data):
    fm = FMIndex(text)
    paths = data.draw(
        st.lists(
            st.lists(
                st.integers(0, 7),  # includes 0 (terminator) and absent 6,7
                min_size=1,
                max_size=6,
            ),
            max_size=40,
        )
    )
    # Mix in real substrings so matches actually occur.
    for _ in range(data.draw(st.integers(0, 10))):
        start = data.draw(st.integers(0, len(text) - 1))
        end = data.draw(st.integers(start + 1, len(text)))
        paths.append(list(text[start:end]))
    batched = fm.isa_ranges(paths)
    assert batched == [fm.isa_range(path) for path in paths]


def test_isa_ranges_empty_batch_and_empty_path():
    fm = FMIndex([1, 2, 1])
    assert fm.isa_ranges([]) == []
    with pytest.raises(ValueError):
        fm.isa_ranges([[1], []])


# ---------------------------------------------------------------------------
# WaveletTree.rank_pairs_frontier (levelwise multi-symbol descent)
# ---------------------------------------------------------------------------


@given(
    text=st.lists(st.integers(1, 9), min_size=1, max_size=200),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_rank_pairs_frontier_matches_scalar(text, data):
    """The levelwise descent equals per-pair ``rank_pair`` exactly —
    including absent symbols (``(0, 0)``) and enough pairs to keep the
    vectorised path live past the ``_FRONTIER_MIN`` scalar tail."""
    tree = WaveletTree(text)
    n = len(tree)
    pairs = data.draw(st.integers(1, 150))
    symbols = data.draw(
        st.lists(
            st.integers(0, 11),  # includes symbols absent from the text
            min_size=pairs,
            max_size=pairs,
        )
    )
    i_pos = np.asarray(
        data.draw(
            st.lists(
                st.integers(0, n), min_size=pairs, max_size=pairs
            )
        ),
        dtype=np.int64,
    )
    j_pos = np.asarray(
        data.draw(
            st.lists(
                st.integers(0, n), min_size=pairs, max_size=pairs
            )
        ),
        dtype=np.int64,
    )
    out_i, out_j = tree.rank_pairs_frontier(symbols, i_pos, j_pos)
    for k, symbol in enumerate(symbols):
        expected = tree.rank_pair(symbol, int(i_pos[k]), int(j_pos[k]))
        assert (int(out_i[k]), int(out_j[k])) == expected


def test_isa_ranges_large_batch_exercises_frontier():
    """A service-scale batch (well above ``_BULK_MIN_PAIRS``) must stay
    bit-identical through the levelwise frontier rounds."""
    rng = np.random.default_rng(7)
    text = np.where(
        rng.random(5000) < 0.02, 0, rng.integers(1, 40, size=5000)
    )
    fm = FMIndex(text)
    paths = []
    for _ in range(300):
        start = int(rng.integers(0, len(text) - 1))
        length = int(rng.integers(1, 7))
        paths.append([int(s) for s in text[start : start + length]])
    assert fm.isa_ranges(paths) == [fm.isa_range(p) for p in paths]


def test_wavelet_flat_payload_mismatch_rejected():
    """`from_arrays` with a flat payload that disagrees with the node
    set must fail loudly, not mis-slice."""
    tree = WaveletTree([1, 2, 3, 1, 2, 1])
    nodes = tree.nodes
    with pytest.raises(ValueError, match="flat node payload"):
        WaveletTree.from_arrays(
            len(tree),
            tree.codes,
            nodes,
            flat_words=np.zeros(1, dtype=np.uint64),
            flat_blocks=np.zeros(1, dtype=np.int64),
        )
