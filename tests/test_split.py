"""The lazy split against the eager reference splits.

``split_band`` / ``split_multiway`` classify once into compact labels and
gather on demand; the contraction loop and the sketch pre-filter rely on
them returning exactly what ``partition3`` / ``partition_band`` /
``partition_multiway`` return — counts, every segment, every segment
range, and element order, since order feeds positional sample draws.
Inputs cover NaN, ±inf, ±0.0 (told apart by ``np.signbit``) and int64
extremes.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.kernels.partition import (
    partition3,
    partition_band,
    partition_multiway,
    split_band,
    split_multiway,
)

I64 = np.iinfo(np.int64)
FLOAT_POOL = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 2.5, 1e308]
INT_POOL = [I64.min, I64.min + 1, -1, 0, 1, I64.max - 1, I64.max]

float_arrays = st.lists(
    st.one_of(
        st.sampled_from(FLOAT_POOL),
        st.floats(allow_nan=True, allow_infinity=True),
    ),
    max_size=60,
).map(lambda xs: np.array(xs, dtype=np.float64))

int_arrays = st.lists(
    st.one_of(
        st.sampled_from(INT_POOL),
        st.integers(int(I64.min), int(I64.max)),
    ),
    max_size=60,
).map(lambda xs: np.array(xs, dtype=np.int64))

arrays = st.one_of(float_arrays, int_arrays)


def _pool(arr):
    """Candidate cut values: the keys themselves plus the domain's
    specials, deduplicated in NumPy's sort order (NaN last)."""
    extra = FLOAT_POOL if arr.dtype.kind == "f" else INT_POOL
    return np.unique(np.concatenate([arr, np.asarray(extra, arr.dtype)]))


def assert_same(ref, got):
    """Bit-for-bit: dtype, values (NaN == NaN), order and zero signs."""
    assert got.dtype == ref.dtype
    np.testing.assert_array_equal(got, ref)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(ref))


def assert_split_matches(split, ref_segs):
    assert split.counts.tolist() == [s.size for s in ref_segs]
    n = len(ref_segs)
    for j in range(n):
        assert_same(ref_segs[j], split.segment(j))
    # Every range (the pre-filter's survivors) and both outer sides (the
    # pivot fork): one array per segment, grouped in segment order.
    selections = [list(range(first, last + 1))
                  for first in range(n) for last in range(first, n)]
    for ids in selections + [[0, n - 1]]:
        got = split.parts(ids)
        assert len(got) == len(ids)
        for j, part in zip(ids, got):
            assert_same(ref_segs[j], part)
        assert_same(np.concatenate([ref_segs[j] for j in ids]),
                    np.concatenate(got))


@given(arr=arrays, data=st.data())
def test_pivot_split_matches_partition3(arr, data):
    pivot = data.draw(st.sampled_from(list(_pool(arr))))
    ref = partition3(arr, pivot)
    assert_split_matches(split_band(arr, pivot, pivot),
                         [ref.lt, ref.eq, ref.gt])


@given(arr=arrays, data=st.data())
def test_band_split_matches_partition_band(arr, data):
    pool = list(_pool(arr))
    lo, hi = sorted(data.draw(st.lists(st.sampled_from(pool), min_size=2,
                                       max_size=2)),
                    key=lambda v: (v != v, v))
    assert_split_matches(split_band(arr, lo, hi),
                         list(partition_band(arr, lo, hi)))


@given(arr=arrays, data=st.data())
def test_multiway_split_matches_partition_multiway(arr, data):
    pool = _pool(arr)
    n_cuts = data.draw(st.integers(1, min(len(pool), 9)))
    picks = set(data.draw(st.lists(st.integers(0, len(pool) - 1),
                                   min_size=n_cuts, max_size=n_cuts,
                                   unique=True)))
    if data.draw(st.booleans()):
        # The pool's top value: NaN for floats, int64 max for ints.
        picks.add(len(pool) - 1)
    cuts = pool[sorted(picks)]
    assert_split_matches(split_multiway(arr, cuts),
                         partition_multiway(arr, cuts))


def test_int64_cuts_spanning_the_whole_range():
    arr = np.array(INT_POOL * 3, dtype=np.int64)
    cuts = np.array([I64.min + 1, 0, I64.max - 1], dtype=np.int64)
    assert_split_matches(split_multiway(arr, cuts),
                         partition_multiway(arr, cuts))


@pytest.mark.parametrize("bad_cuts", [
    [],
    [[1.0, 2.0]],
    [2.0, 1.0],
    [1.0, 1.0],
    [0.0, -0.0],
    [np.nan, 1.0],
    [1.0, np.nan, np.nan],
    np.array([I64.max, I64.min], dtype=np.int64),
])
def test_bad_cut_lists_refused_the_same_way(bad_cuts):
    arr = np.arange(6.0)
    with pytest.raises(ConfigurationError) as ref:
        partition_multiway(arr, bad_cuts)
    with pytest.raises(ConfigurationError) as lazy:
        split_multiway(arr, bad_cuts)
    assert str(lazy.value) == str(ref.value)


def test_band_out_of_order_refused():
    # The eager split would put keys between hi and lo on both sides;
    # one label per key cannot, so the lazy split refuses the band.
    with pytest.raises(ConfigurationError, match="out of order"):
        split_band(np.arange(6.0), 4.0, 2.0)


def test_labels_use_the_smallest_unsigned_dtype():
    arr = np.linspace(0.0, 1.0, 1000)
    assert split_band(arr, 0.25, 0.75).labels.dtype == np.uint8
    assert split_multiway(arr, np.linspace(0.0, 1.0, 127)).labels.dtype \
        == np.uint8
    assert split_multiway(arr, np.linspace(0.0, 1.0, 128)).labels.dtype \
        == np.uint16
