"""The four parallel selection algorithms (paper Section 3) + hybrids.

All of them share the contraction engine of :mod:`repro.selection.engine`
(iterate-shrink-endgame with pluggable pivot strategies); each algorithm
module contributes only its pivot rule. A single-target ``select`` is the
one-rank case of multiple selection, so every launch runs through ONE
SPMD entry, :class:`SelectionRunner`.

Registry keys of :data:`ALGORITHMS` (used by :func:`repro.select` and the
bench harness):

=========================  ==============================================
``median_of_medians``      Algorithm 1 (deterministic; needs balancing)
``bucket_based``           Algorithm 2 (deterministic; no balancing)
``randomized``             Algorithm 3 (expected O(log n) iterations)
``fast_randomized``        Algorithm 4 (O(log log n) iterations w.h.p.)
``hybrid_median_of_medians``  Section 5 hybrid of Algorithm 1
``hybrid_bucket_based``       Section 5 hybrid of Algorithm 2
``sort_based``                related-work baseline: full sort + index
=========================  ==============================================
"""

from __future__ import annotations

from dataclasses import dataclass

from ..kernels.select import SelectMethod
from .base import (
    IterationRecord,
    SelectionConfig,
    SelectionStats,
    endgame_threshold,
)
from .bucket_based import BucketStrategy
from .engine import (
    ContractionEngine,
    MultiSelectionStats,
    PivotStrategy,
    contract_multi_select,
)
from .fast_randomized import FastRandomizedParams, FastRandomizedStrategy
from .median_of_medians import MedianOfMediansStrategy
from .randomized import RandomizedStrategy
from .sort_based import sort_based_multi_select


@dataclass(frozen=True)
class Algorithm:
    """One registry entry: the pivot rule and the paper's pairings."""

    #: Pivot-strategy class (``None``: the sort-based baseline, which has
    #: no contraction).
    strategy: type[PivotStrategy] | None
    #: Default sequential kernel for local selections and the endgame.
    sequential_method: SelectMethod
    #: The paper pairs the algorithm with load balancing by default.
    needs_balancing: bool
    #: Section 5 hybrid: the sequential parts are randomized whatever the
    #: plan asks for (the parallel skeleton stays deterministic).
    hybrid: bool = False


ALGORITHMS: dict[str, Algorithm] = {
    "median_of_medians": Algorithm(MedianOfMediansStrategy, "deterministic", True),
    "bucket_based": Algorithm(BucketStrategy, "deterministic", False),
    "randomized": Algorithm(RandomizedStrategy, "randomized", False),
    "fast_randomized": Algorithm(FastRandomizedStrategy, "randomized", False),
    "hybrid_median_of_medians": Algorithm(
        MedianOfMediansStrategy, "randomized", True, hybrid=True),
    "hybrid_bucket_based": Algorithm(
        BucketStrategy, "randomized", False, hybrid=True),
    "sort_based": Algorithm(None, "randomized", False),
}


@dataclass(frozen=True)
class SelectionRunner:
    """The one SPMD selection entry: ``runner(ctx, shard, ks, cfg)``
    answers every rank of ``ks`` (sorted ascending, distinct) over this
    rank's ``shard`` and returns ``(values, MultiSelectionStats)``.

    It carries only the algorithm *name* and resolves the strategy on the
    executing rank: a plain frozen dataclass pickles, which is what lets
    the ``pool`` backend ship launches to its already-running workers.
    """

    algorithm: str
    fast_params: FastRandomizedParams | None = None

    def __call__(self, ctx, shard, ks, cfg):
        strategy = ALGORITHMS[self.algorithm].strategy
        if strategy is None:
            return sort_based_multi_select(ctx, shard, ks, cfg)
        if strategy is FastRandomizedStrategy:
            pivots: PivotStrategy = FastRandomizedStrategy(self.fast_params)
        else:
            pivots = strategy()
        return contract_multi_select(ctx, shard, ks, cfg, pivots,
                                     algorithm=self.algorithm)


__all__ = [
    "ALGORITHMS",
    "Algorithm",
    "ContractionEngine",
    "IterationRecord",
    "MultiSelectionStats",
    "PivotStrategy",
    "SelectionConfig",
    "SelectionRunner",
    "SelectionStats",
    "contract_multi_select",
    "endgame_threshold",
    "BucketStrategy",
    "FastRandomizedParams",
    "FastRandomizedStrategy",
    "MedianOfMediansStrategy",
    "RandomizedStrategy",
    "sort_based_multi_select",
]
