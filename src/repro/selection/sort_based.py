"""Sort-based selection baseline (related-work strawman).

The paper's related work covers sorting-based selection (Berthome et al. [6]
on hypercubic networks): sort all the keys, then read off rank ``k``. It is
the obvious upper bound every dedicated selection algorithm must beat —
selection is interesting *because* ``O(n/p)`` beats ``O((n log n)/p)`` and a
full sort's communication volume.

Implemented here over the same sample-sort substrate fast randomized
selection uses, so the comparison in the benches is apples-to-apples:

1. parallel sample sort of the *entire* input;
2. one Global Concatenate of run lengths + a broadcast from the owner of
   global rank ``k`` (a batched lookup for several ranks).
"""

from __future__ import annotations

import numpy as np

from ..kernels.costed import CostedKernels
from ..machine.engine import ProcContext
from ..psort.sample_sort import (
    element_at_global_rank,
    elements_at_global_ranks,
    sample_sort,
)
from .base import SelectionConfig, check_rank
from .engine import MultiSelectionStats

__all__ = ["sort_based_multi_select"]


def sort_based_multi_select(
    ctx: ProcContext, shard: np.ndarray, ks: list[int], cfg: SelectionConfig
) -> tuple[list, MultiSelectionStats]:
    """SPMD entry point: ONE full parallel sort answers every rank.

    This is where sorting-based selection stops being a strawman: the sort
    cost amortises over all ``q`` targets, so for large ``q`` it converges
    on the dedicated algorithms. The batched rank lookup costs two extra
    collectives total, not two per rank; a single rank is looked up with
    one Global Concatenate of run lengths and a Broadcast from its owner.
    """
    K = CostedKernels(ctx, kernels=cfg.kernels)
    arr = np.asarray(shard)
    n = int(ctx.comm.allreduce_sum(int(arr.size)))
    for k in ks:
        check_rank(n, k)
    stats = MultiSelectionStats(
        algorithm="sort_based", n=n, p=ctx.size, ks=list(ks)
    )
    sorted_run = sample_sort(ctx, K, arr)
    if len(ks) == 1:
        values = [element_at_global_rank(ctx, sorted_run, ks[0])]
    else:
        values = elements_at_global_ranks(ctx, sorted_run, list(ks))
    # No iterate-and-discard phase at all: every rank is read off the sort.
    stats.found_by_pivot = len(ks)
    return values, stats
