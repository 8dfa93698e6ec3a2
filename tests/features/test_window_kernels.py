"""The pair-free window kernels against brute force over explicit windows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features.windows import (
    WindowChain,
    previous_same,
    range_reduce,
    witnessed,
)


@st.composite
def chained_windows(draw):
    """Keys over a few segments of sorted times, and equal-length windows
    ``[t - w, t]`` at sample times drawn in any order (a chain once
    sorted)."""
    n_segs = draw(st.integers(1, 3))
    sizes = [draw(st.integers(0, 12)) for _ in range(n_segs)]
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    times = np.concatenate(
        [np.sort(draw(st.lists(st.integers(0, 20), min_size=k, max_size=k)))
         for k in sizes]
    ).astype(float)
    keys = np.asarray(
        draw(st.lists(st.integers(0, 3), min_size=len(times),
                      max_size=len(times))),
        dtype=np.int64,
    )
    width = draw(st.integers(0, 8))
    lo, hi = [], []
    for _ in range(draw(st.integers(1, 12))):
        seg = draw(st.integers(0, n_segs - 1))
        t = draw(st.integers(-2, 24))
        segment = times[offsets[seg] : offsets[seg + 1]]
        lo.append(offsets[seg] + np.searchsorted(segment, t - width))
        hi.append(offsets[seg] + np.searchsorted(segment, t, side="right"))
    return keys, np.asarray(lo, dtype=np.int64), np.asarray(hi, dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(case=chained_windows())
def test_chain_statistics_match_brute_force(case):
    keys, lo, hi = case
    _, prev = previous_same(keys)
    chain = WindowChain(lo, hi, keys.size)
    windows = [keys[a:b] for a, b in zip(lo, hi)]
    assert chain.distinct(prev).tolist() == [
        np.unique(w).size for w in windows
    ]
    assert chain.max_count(prev).tolist() == [
        np.unique(w, return_counts=True)[1].max() if w.size else 0
        for w in windows
    ]


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.integers(-50, 50), min_size=0, max_size=40),
    bounds=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                    min_size=1, max_size=10),
)
def test_range_reduce_matches_brute_force(values, bounds):
    values = np.asarray(values, dtype=float)
    lo = np.asarray([min(a, b, values.size) for a, b in bounds])
    hi = np.asarray([min(max(a, b), values.size) for a, b in bounds])
    for ufunc in (np.maximum, np.minimum):
        expected = [
            ufunc.reduce(values[a:b]) if b > a else 0.0
            for a, b in zip(lo, hi)
        ]
        assert range_reduce(ufunc, values, lo, hi).tolist() == expected


def test_witnessed_reads_the_prefix_max():
    first = np.array([-1, 0, -1, 2, -1])
    lo = np.array([0, 1, 1, 3, 2])
    hi = np.array([2, 2, 4, 5, 2])
    assert witnessed(first, lo, hi).tolist() == [True, False, True, False, False]


def test_windows_that_are_not_a_chain_are_rejected():
    with pytest.raises(ValueError, match="chain"):
        WindowChain(np.array([0, 1]), np.array([5, 3]), 6)
