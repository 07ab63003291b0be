"""``percentile``, ``cdf`` and ``summarize`` against numpy, bit for bit.

The helpers run on the standard library; the figures they feed were first
computed with ``np.percentile``, ``np.sort`` and ``ndarray.mean``, and
those stay the oracles here.
"""

import math
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.stats import cdf, percentile, summarize


def same_bits(mine: float, theirs: float, sample=()) -> bool:
    """Bit for bit; by value only where ``sample`` holds both 0.0 and
    -0.0, since ``np.sort`` and ``min``/``max`` do not keep equal values
    in order and so pick either zero."""
    if math.isnan(theirs):
        return math.isnan(mine)
    if mixed_zeros(sample):
        return mine == theirs
    return struct.pack("<d", mine) == struct.pack("<d", float(theirs))


def mixed_zeros(sample) -> bool:
    signs = {math.copysign(1.0, v) for v in sample if v == 0.0}
    return len(signs) == 2


#: finite latencies and delays, a few huge magnitudes and infinities
values = st.floats(allow_nan=False, width=64)
#: ties: a handful of distinct values drawn again and again
tied = st.lists(st.sampled_from([0.0, -0.0, 1.5, 1.5, 2.25, 7.0, 1e300]), min_size=1)
samples = st.one_of(
    st.lists(values, min_size=1, max_size=300),
    st.lists(values, min_size=1, max_size=1),
    tied,
    st.lists(st.floats(0.0, 500.0), min_size=100, max_size=2000),
)
quantiles = st.one_of(
    st.sampled_from([0, 100, 0.0, 100.0, 10, 50, 90, 99]),
    st.floats(0.0, 100.0),
)


@settings(max_examples=400, deadline=None)
@given(sample=samples, q=quantiles)
def test_percentile_is_numpys(sample, q):
    assert same_bits(
        percentile(sample, q), np.percentile(np.asarray(sample), q), sample
    )


@settings(max_examples=300, deadline=None)
@given(sample=samples)
def test_cdf_is_numpys_sort(sample):
    want = np.sort(np.asarray(sample, dtype=float))
    got = cdf(sample)
    assert len(got) == len(want)
    for i, ((value, share), expected) in enumerate(zip(got, want)):
        assert same_bits(value, expected, sample) and share == (i + 1) / len(want)


@settings(max_examples=300, deadline=None)
@given(sample=samples)
def test_summarize_is_numpys(sample):
    array = np.asarray(sample, dtype=float)
    got = summarize(sample)
    want = {
        "mean": array.mean(),
        "min": array.min(),
        "p10": np.percentile(array, 10),
        "p50": np.percentile(array, 50),
        "p90": np.percentile(array, 90),
        "max": array.max(),
    }
    assert list(got) == list(want)
    for key in want:
        assert same_bits(got[key], want[key], sample), key


def test_the_edges():
    assert percentile([3.0], 0) == percentile([3.0], 100) == 3.0
    assert percentile([1.0, 2.0], 100) == 2.0
    assert summarize([2.0]) == {
        "mean": 2.0, "min": 2.0, "p10": 2.0, "p50": 2.0, "p90": 2.0, "max": 2.0
    }
    assert cdf([]) == []
    # numpy weighs the top index against -1, and so reads inf - inf there
    assert math.isnan(percentile([1.0, math.inf], 100))
    # Mixed zeros: equal by value, the sign as the sort leaves it.
    zeros = [0.0, -0.0, 1.0, -0.0, 0.0]
    assert [v for v, _ in cdf(zeros)] == [-0.0, 0.0, -0.0, 0.0, 1.0]
    assert summarize(zeros)["min"] == np.min(zeros) == 0.0
