"""Wall-clock-tuned twins of the hot reference kernels.

The kernel here is value-identical to its reference twin in
:mod:`repro.kernels.buckets` and is only ever selected by
:class:`~repro.kernels.costed.CostedKernels` in ``fast`` mode (see
:mod:`repro.kernels.dispatch` for the contract). Simulated
charges are untouched: they are computed from the reference cost formulas
before the executing kernel is chosen.

Partitioning has no twin: both modes run the lazy
:class:`~repro.kernels.partition.Split` (classify -> Combine counts ->
gather kept segments). What ``fast`` mode still changes:

* :func:`fast_build_buckets` — the reference recursively halves with
  ``log2(B)`` full ``np.partition`` levels. One multi-kth
  ``np.partition`` at the recursion's final boundaries produces the same
  bucket *multisets* in a single pass. Intra-bucket order differs, which
  is immaterial: every downstream bucket operation (kth via
  ``np.partition``, straddler counts, min/max fences) is value-based.
* the introselect endgame — in fast mode the *executing* sequential
  selection is ``introselect`` (``np.partition``) whatever method is
  charged, generalising the long-standing ``impl_override`` contract: the
  k-th smallest is a unique value, so every implementation agrees, and no
  rng handed to a select kernel ever feeds a later positional draw.

``numba`` accelerates nothing critical here (NumPy already executes these
as C loops), so it is probed but optional — a soft dependency that must
never be required.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..machine.topology import next_power_of_two
from .buckets import LocalBuckets

try:  # soft dependency: used opportunistically, never required
    import numba  # noqa: F401

    HAVE_NUMBA = True
except Exception:  # pragma: no cover - depends on host environment
    HAVE_NUMBA = False

__all__ = ["HAVE_NUMBA", "fast_build_buckets"]


def _halved_sizes(n: int, b: int) -> list[int]:
    """Final segment sizes of the reference build's halving recursion."""
    sizes = [n]
    while len(sizes) < b:
        nxt: list[int] = []
        for s in sizes:
            if s <= 1:
                nxt.extend([s, 0])
            else:
                mid = s // 2
                nxt.extend([mid, s - mid])
        sizes = nxt
    return sizes


def fast_build_buckets(arr: np.ndarray, n_buckets: int) -> LocalBuckets:
    """Reference-equivalent bucket build in one multi-kth partition pass.

    The reference recursion only ever splits segments at positional
    medians, so its final buckets are, as multisets, consecutive slices of
    the sorted array at deterministic boundaries. Reproducing those
    boundary sizes and handing them to one ``np.partition`` call yields
    buckets with identical sizes, mins and maxes — everything
    :class:`LocalBuckets` exposes to the algorithms.
    """
    if n_buckets < 1:
        raise ConfigurationError(f"n_buckets must be >= 1, got {n_buckets}")
    arr = np.asarray(arr)
    if arr.ndim != 1:
        raise ConfigurationError("LocalBuckets expects a 1-D array")
    b = next_power_of_two(n_buckets)
    sizes = _halved_sizes(int(arr.size), b)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    kth = [int(x) - 1 for x in bounds[1:-1] if 0 < x < arr.size]
    part = np.partition(arr, kth) if kth else arr.copy()
    return LocalBuckets(
        [part[bounds[j]: bounds[j + 1]] for j in range(b)]
    )
