"""Vectorised partition kernels (Step 4/5 of every selection algorithm).

The paper's pseudocode partitions local lists into ``<= pivot`` / ``> pivot``.
That 2-way scheme livelocks when all surviving keys equal the pivot, so the
library's algorithms use the 3-way split (``<``, ``==``, ``>``) and terminate
the moment the target rank lands in the ``==`` band (DESIGN.md deviation #1).
Both kernels are provided; the 2-way one is kept for the ablation bench that
demonstrates the livelock on duplicate-heavy inputs.

All kernels are single NumPy passes (boolean masks) per the hpc-parallel
guide: no Python-level loops over elements.

The contraction loop runs the lazy :class:`Split` instead (classify ->
Combine counts -> gather kept segments); the eager splits stay as the
reference oracles it is tested against, element order included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..machine.cost_model import CostModel

__all__ = [
    "Partition2",
    "Partition3",
    "Split",
    "partition2",
    "partition3",
    "count3",
    "partition_band",
    "partition_cost",
    "partition_multiway",
    "partition_multiway_cost",
    "split_band",
    "split_multiway",
]


@dataclass(frozen=True)
class Partition2:
    """Result of a 2-way split around ``pivot``."""

    le: np.ndarray
    gt: np.ndarray

    @property
    def n_le(self) -> int:
        return int(self.le.size)

    @property
    def n_gt(self) -> int:
        return int(self.gt.size)


@dataclass(frozen=True)
class Partition3:
    """Result of a 3-way split around ``pivot``."""

    lt: np.ndarray
    eq: np.ndarray
    gt: np.ndarray

    @property
    def n_lt(self) -> int:
        return int(self.lt.size)

    @property
    def n_eq(self) -> int:
        return int(self.eq.size)

    @property
    def n_gt(self) -> int:
        return int(self.gt.size)


def partition2(arr: np.ndarray, pivot) -> Partition2:
    """Split ``arr`` into (``<= pivot``, ``> pivot``) — the paper's Step 4."""
    mask = arr <= pivot
    return Partition2(le=arr[mask], gt=arr[~mask])


def partition3(arr: np.ndarray, pivot) -> Partition3:
    """Split ``arr`` into (``< pivot``, ``== pivot``, ``> pivot``)."""
    lt_mask = arr < pivot
    gt_mask = arr > pivot
    eq_mask = ~(lt_mask | gt_mask)
    return Partition3(lt=arr[lt_mask], eq=arr[eq_mask], gt=arr[gt_mask])


def count3(arr: np.ndarray, pivot) -> tuple[int, int, int]:
    """Counts of (``<``, ``==``, ``>``) without materialising the splits."""
    lt = int(np.count_nonzero(arr < pivot))
    gt = int(np.count_nonzero(arr > pivot))
    return lt, int(arr.size - lt - gt), gt


def partition_band(arr: np.ndarray, lo, hi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split ``arr`` into (``< lo``, ``[lo, hi]``, ``> hi``) — Step 5 of the
    fast randomized algorithm (Algorithm 4)."""
    less_mask = arr < lo
    high_mask = arr > hi
    mid_mask = ~(less_mask | high_mask)
    return arr[less_mask], arr[mid_mask], arr[high_mask]


def partition_cost(model: CostModel, n: int) -> float:
    """Simulated cost of one partition pass over ``n`` local elements."""
    return model.compute.partition * max(0, n)


def partition_multiway(arr: np.ndarray, cuts) -> list[np.ndarray]:
    """Split ``arr`` at ``c`` sorted cut values into ``2c + 1`` segments.

    Segments alternate open ranges and equality bands, in value order::

        (< cuts[0]), (== cuts[0]), (cuts[0], cuts[1]), (== cuts[1]), ...,
        (> cuts[-1])

    With ``c == 1`` this is exactly :func:`partition3`. The multi-rank
    contraction engine uses it to fork the live set at *several* pivots in a
    single pass (one iteration of single-pass multi-rank selection instead
    of one pass per pivot). One vectorised ``searchsorted`` pair classifies
    every element; a stable argsort groups the segments.
    """
    cuts = _check_cuts(cuts)
    # Element strictly between cuts j-1 and j lands in segment 2j; an
    # element equal to cuts[j] lands in segment 2j + 1.
    seg = np.searchsorted(cuts, arr, side="left") + np.searchsorted(
        cuts, arr, side="right"
    )
    order = np.argsort(seg, kind="stable")
    sizes = np.bincount(seg, minlength=2 * cuts.size + 1)
    grouped = arr[order]
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    return [
        grouped[bounds[j]: bounds[j + 1]] for j in range(2 * cuts.size + 1)
    ]


def _check_cuts(cuts) -> np.ndarray:
    """``cuts`` as a 1-D array, refused unless strictly ascending in
    NumPy's sort order (only the last cut may be NaN). Neighbours are
    compared, not differenced: ``np.diff`` wraps around for int64."""
    cuts = np.asarray(cuts)
    if cuts.ndim != 1 or cuts.size == 0:
        raise ConfigurationError(
            "partition_multiway needs a 1-D, non-empty cut list"
        )
    head = cuts[:-1]
    if np.any(cuts[1:] <= head) or np.any(head != head):
        raise ConfigurationError(
            "cut values must be strictly ascending (dedupe first)"
        )
    return cuts


class Split:
    """A lazy split: ``labels`` (each element's segment, smallest unsigned
    dtype) and int64 ``counts`` now, gathers on demand. Segment ``j`` is
    the eager reference's segment ``j``, element order included."""

    __slots__ = ("arr", "labels", "counts")

    def __init__(self, arr: np.ndarray, labels: np.ndarray,
                 counts: np.ndarray):
        self.arr = arr
        self.labels = labels
        self.counts = counts

    def segment(self, j: int) -> np.ndarray:
        """Segment ``j`` in original element order."""
        mask = self.labels == j
        if _INDEX_GATHER_MIN * mask.size < self.counts[j] \
                < _INDEX_GATHER_MAX * mask.size:
            return self.arr[np.flatnonzero(mask)]
        return self.arr[mask]

    def parts(self, ids) -> list[np.ndarray]:
        """Segments ``ids`` (ascending), one array each, in original
        element order: a masked gather per segment for a few; for many,
        one gather grouped by a stable sort of the one-byte labels (a
        radix pass), cut up."""
        ids = list(ids)
        if len(ids) <= _MASKED_PARTS_MAX:
            return [self.segment(j) for j in ids]
        keep = np.zeros(self.counts.size, dtype=bool)
        keep[ids] = True
        mask = keep[self.labels]
        order = np.argsort(self.labels[mask], kind="stable")
        bounds = np.cumsum(self.counts[ids])[:-1]
        return np.split(self.arr[mask][order], bounds)


#: Segment densities between these fractions gather through an index
#: array: a boolean gather mispredicts a branch per key there (28 ms
#: against 13 ms for half of 4M float64 keys).
_INDEX_GATHER_MIN, _INDEX_GATHER_MAX = 0.1, 0.75
#: Beyond this many segments one grouped gather beats a mask per segment.
_MASKED_PARTS_MAX = 3


def _split3(arr: np.ndarray, less: np.ndarray, more: np.ndarray) -> Split:
    """Segments 0 / 1 / 2 from disjoint ``less`` / ``more`` masks."""
    n_less = int(np.count_nonzero(less))
    n_more = int(np.count_nonzero(more))
    labels = more.view(np.uint8) + np.uint8(1)
    labels -= less.view(np.uint8)
    counts = np.array([n_less, arr.size - n_less - n_more, n_more],
                      dtype=np.int64)
    return Split(arr, labels, counts)


def split_band(arr: np.ndarray, lo, hi) -> Split:
    """Lazy :func:`partition_band` (:func:`partition3` when ``lo == hi``):
    segments ``< lo``, ``[lo, hi]``, ``> hi``; keys comparing false to
    both bounds (NaN) land in the middle, as in the reference."""
    if lo > hi:
        raise ConfigurationError(f"band bounds out of order: [{lo}, {hi}]")
    return _split3(arr, arr < lo, arr > hi)


def split_multiway(arr: np.ndarray, cuts) -> Split:
    """Lazy :func:`partition_multiway`: one ``searchsorted(side="left")``
    finds each key's open range, and an equality test against the cut
    there (a NaN key equals a NaN last cut, as in NumPy's sort order)
    moves it onto the ``==`` band. One non-NaN cut needs only masks."""
    cuts = _check_cuts(cuts)
    c = int(cuts.size)
    last = cuts[-1]
    if c == 1 and last == last:
        # NaN keys sort above a number: "not <= cut" is the top segment.
        return _split3(arr, arr < last, ~(arr <= last))
    left = np.searchsorted(cuts, arr, side="left")
    labels = left.astype(np.min_scalar_type(2 * c))
    labels *= 2
    np.minimum(left, c - 1, out=left)
    at = arr == cuts[left]
    if last != last:
        at |= np.isnan(arr)
    labels += at.view(np.uint8)
    return Split(arr, labels, np.bincount(labels, minlength=2 * c + 1))


def partition_multiway_cost(model: CostModel, n: int, n_cuts: int) -> float:
    """Simulated cost of a multiway partition pass: each of the ``n``
    elements binary-searches the ``c`` cut values (``ceil(log2(c + 1))``
    probe depth) and is moved once."""
    depth = max(1.0, np.ceil(np.log2(max(n_cuts, 1) + 1)))
    return model.compute.partition * max(0, n) * depth
