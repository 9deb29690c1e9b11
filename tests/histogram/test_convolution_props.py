"""Property-based tests for histogram convolution (ISSUE 1 satellite).

Convolution is the algebra the whole pipeline rests on (paper Section
2.3: ``H = H1 * H2 * ... * Hk``), and the cached fast paths reuse
histogram objects across trips — so the algebraic invariants must hold
for arbitrary inputs, not just the worked example:

* unit mass is preserved (probability histograms stay probability
  histograms);
* support bounds add: ``(H1*H2)^min = H1^min + H2^min`` and likewise for
  ``max``;
* convolution is commutative and associative within float tolerance;
* ``convolve_histograms`` (the combine stage) handles the
  empty-outcomes edge case.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Histogram
from repro.core.exec import convolve_histograms

BUCKET_WIDTH = 10.0


@st.composite
def histograms(draw, min_buckets=1, max_buckets=12):
    """Non-empty count histograms with a shared bucket width."""
    offset = draw(st.integers(min_value=0, max_value=50))
    n = draw(st.integers(min_value=min_buckets, max_value=max_buckets))
    counts = draw(
        st.lists(
            st.integers(min_value=0, max_value=40),
            min_size=n,
            max_size=n,
        ).filter(lambda values: sum(values) > 0)
    )
    return Histogram(BUCKET_WIDTH, offset, np.asarray(counts, dtype=float))


def assert_histograms_close(left: Histogram, right: Histogram) -> None:
    lo = min(left.offset, right.offset)
    hi = max(left.offset + left.counts.size, right.offset + right.counts.size)

    def dense(histogram: Histogram) -> np.ndarray:
        out = np.zeros(hi - lo)
        start = histogram.offset - lo
        out[start : start + histogram.counts.size] = histogram.counts
        return out

    np.testing.assert_allclose(dense(left), dense(right), rtol=1e-9, atol=1e-9)


@given(h1=histograms(), h2=histograms())
@settings(max_examples=120, deadline=None)
def test_unit_mass_is_preserved(h1, h2):
    result = h1.scaled_to_unit_mass() * h2.scaled_to_unit_mass()
    assert result.total == pytest.approx(1.0, rel=1e-9)


@given(h1=histograms(), h2=histograms())
@settings(max_examples=120, deadline=None)
def test_support_bounds_add(h1, h2):
    result = h1 * h2
    assert result.min_value == pytest.approx(h1.min_value + h2.min_value)
    # Bucket maxima are upper *edges*: [a, a+h) + [b, b+h) sums of draws
    # live in [a+b, a+b+2h), one bucket width below the naive edge sum.
    assert result.max_value == pytest.approx(
        h1.max_value + h2.max_value - BUCKET_WIDTH
    )


@given(h1=histograms(), h2=histograms())
@settings(max_examples=120, deadline=None)
def test_convolution_is_commutative(h1, h2):
    assert_histograms_close(h1 * h2, h2 * h1)


@given(h1=histograms(), h2=histograms(), h3=histograms())
@settings(max_examples=80, deadline=None)
def test_convolution_is_associative(h1, h2, h3):
    assert_histograms_close((h1 * h2) * h3, h1 * (h2 * h3))


@given(h1=histograms(), h2=histograms())
@settings(max_examples=80, deadline=None)
def test_total_mass_multiplies(h1, h2):
    # Counts convolve to all pairs of draws: |H1| * |H2| observations.
    assert (h1 * h2).total == pytest.approx(h1.total * h2.total, rel=1e-9)


@given(h=histograms())
@settings(max_examples=60, deadline=None)
def test_identity_element(h):
    identity = Histogram(BUCKET_WIDTH, 0, [1.0])
    assert_histograms_close(h * identity, h)
    assert_histograms_close(identity * h, h)


@given(h=histograms())
@settings(max_examples=60, deadline=None)
def test_convolving_with_empty_yields_empty(h):
    empty = Histogram(BUCKET_WIDTH, 0, np.zeros(0))
    assert (h * empty).is_empty()
    assert (empty * h).is_empty()


def test_width_mismatch_rejected():
    with pytest.raises(ValueError):
        Histogram(10.0, 0, [1.0]) * Histogram(5.0, 0, [1.0])


class TestEngineConvolve:
    """The engine's combine stage, ``convolve_histograms``, on edge
    cases: no outcomes, one outcome, many factors."""

    def test_no_outcomes_yields_empty_histogram(self):
        result = convolve_histograms([], BUCKET_WIDTH)
        assert result.is_empty()
        assert result.counts.size == 0
        assert result.bucket_width == BUCKET_WIDTH

    def test_single_outcome_is_unit_normalised(self):
        h = Histogram(BUCKET_WIDTH, 3, [2.0, 6.0])
        result = convolve_histograms([h], BUCKET_WIDTH)
        assert result.total == pytest.approx(1.0)
        assert result.offset == 3
        np.testing.assert_allclose(result.counts, [0.25, 0.75])

    def test_many_factors_keep_unit_mass(self):
        factors = [Histogram(BUCKET_WIDTH, i, [1.0, 1.0]) for i in range(30)]
        result = convolve_histograms(factors, BUCKET_WIDTH)
        # Raw count convolution would be 2**30; normalisation keeps mass 1.
        assert result.total == pytest.approx(1.0, rel=1e-9)
        assert result.min_value == pytest.approx(
            sum(range(30)) * BUCKET_WIDTH
        )
