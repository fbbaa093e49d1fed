"""Algorithm 3 — Randomized selection (paper Section 3.3; Floyd & Rivest).

Every processor runs an identical random number generator with an identical
seed (the paper's trick to avoid communicating the pivot choice): all ranks
draw the same global index ``nr`` in ``[0, n)``; a parallel prefix over the
live counts tells each rank whether it owns that index; the owner broadcasts
the key, and every rank 3-way-partitions its live keys around it. One
Combine decides the surviving side.

The iterate-shrink-endgame skeleton lives in
:mod:`repro.selection.engine`; this module contributes only the pivot rule
(:class:`RandomizedStrategy`: prefix + shared draw + owner Combine).

Expected time without balancing on well-behaved data (paper Table 1):
``O(n/p + (tau + mu) log p log n)``. Load balancing is optional (Step 7) —
the paper's experiments show it *never* pays off for this algorithm, which
the benches reproduce.
"""

from __future__ import annotations

import numpy as np

from .engine import PivotProposal, PivotStrategy

__all__ = ["RandomizedStrategy"]


class _Nothing:
    """Identity element for the pivot-combine (exactly one rank deposits)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<nothing>"


_NOTHING = _Nothing()


def _keep_value(a, b):
    """Binary op selecting the single non-sentinel deposit."""
    return b if isinstance(a, _Nothing) else a


class RandomizedStrategy(PivotStrategy):
    """Steps 1-3: prefix the live counts, draw one shared global index, the
    owner deposits the pivot into a Combine (the paper's realised
    Broadcast — identical ``(tau + mu) log p`` cost)."""

    name = "randomized"

    def _start(self) -> None:
        # The shared stream: same seed on every rank => same draws
        # everywhere. One draw per iteration regardless of interval.
        self.shared_rng = np.random.default_rng((self.cfg.seed, 0x5A))
        self.local_rng = np.random.default_rng(
            (self.cfg.seed, self.ctx.rank, 0x5B)
        )

    def propose(self, interval) -> PivotProposal:
        ctx, K = self.ctx, self.K
        ni = interval.live.count

        # Step 1: inclusive prefix sum of live counts.
        s = int(ctx.comm.prefix_sum(ni))

        # Step 2: one shared random draw — identical on all ranks.
        K.rng_draw()
        nr = int(self.shared_rng.integers(0, interval.n))

        # Step 3: the owner (s - ni <= nr < s) deposits the pivot. The
        # paper writes this as a Broadcast rooted at the owner; ranks other
        # than the owner cannot name the root from their local prefix
        # alone, so (as a real MPI code would) we realise it as a Combine
        # with a select-the-deposit operator.
        if s - ni <= nr < s:
            pivot = interval.live.arr[nr - (s - ni)]
        else:
            pivot = None
        pivot = ctx.comm.combine(
            pivot if pivot is not None else _NOTHING, _keep_value
        )
        return PivotProposal(pivot)

    @property
    def endgame_rng(self) -> np.random.Generator:
        return self.local_rng
