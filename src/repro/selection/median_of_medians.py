"""Algorithm 1 — Median of Medians selection (paper Section 3.1).

Straightforward parallelisation of the deterministic sequential algorithm
(Blum et al.), as implemented on distributed-memory machines by Bader &
JaJa: every iteration each processor finds its *local median* with
sequential deterministic selection, the medians are gathered, processor 0
selects their median (the "median of medians"), broadcasts it as the
estimated global median, and every processor partitions its keys around it.
A Combine of the split counts picks the surviving side.

The iterate-shrink-endgame skeleton lives in
:mod:`repro.selection.engine`; this module contributes only the pivot rule
(:class:`MedianOfMediansStrategy`). ``sequential_method`` is
``"deterministic"`` for the paper's Algorithm 1 and ``"randomized"`` for
the Section 5 hybrid (registry name ``hybrid_median_of_medians``).

The algorithm *requires* load balancing between iterations (Step 7): its
pivot guarantee assumes near-equal local counts. The paper's figures pair it
with global exchange; that is this implementation's default when the caller
passes no balancer (``select(..., algorithm="median_of_medians")`` resolves
the default at the API layer).

Expected time with balancing: ``O(n/p + tau log p log n + mu p log n)``
(paper Table 1).
"""

from __future__ import annotations

import numpy as np

from ..kernels.select import median_rank, select_cost, select_kth
from .engine import PivotProposal, PivotStrategy

__all__ = ["MedianOfMediansStrategy"]


class MedianOfMediansStrategy(PivotStrategy):
    """Steps 1-3: local median (the expensive part — the deterministic
    constant is what Section 5 blames), Gather, P0 median of the pool,
    Broadcast."""

    name = "median_of_medians"

    def _start(self) -> None:
        self.rng = np.random.default_rng((self.cfg.seed, self.ctx.rank, 0xA1))

    def propose(self, interval) -> PivotProposal:
        ctx, K, cfg = self.ctx, self.K, self.cfg
        ni = interval.live.count

        # Step 1: local median via sequential selection.
        if ni:
            local_med = K.select_kth(
                interval.live.arr, median_rank(ni), cfg.sequential_method,
                rng=self.rng, impl=cfg.impl_override,
            )
        else:
            local_med = None

        # Steps 2-3: Gather medians; P0 selects their median; Broadcast.
        medians = ctx.comm.gather(local_med, root=0)
        if ctx.rank == 0:
            pool = np.array([m for m in medians if m is not None])
            ctx.charge_compute(
                select_cost(ctx.model, pool.size, cfg.sequential_method)
            )
            mom = select_kth(
                pool, median_rank(pool.size),
                method=cfg.impl_override or cfg.sequential_method,
                rng=self.rng,
            )
        else:
            mom = None
        return PivotProposal(ctx.comm.broadcast(mom, root=0))

    @property
    def endgame_rng(self) -> np.random.Generator:
        return self.rng
