"""Algorithm 4 — Fast randomized selection (paper Section 3.4; Rajasekaran
et al. [17]).

Instead of one random pivot per iteration, sample ``o(n)`` keys, sort the
sample in parallel, and pick *two* keys ``k1 <= k2`` whose sample ranks
bracket the target's expected rank by ``±sqrt(|S| log n)``. With high
probability the answer lies in ``[k1, k2]``, and everything outside the band
is discarded — the live set shrinks geometrically and only
``O(log log n)`` iterations are needed.

Two refinements from the paper are implemented:

* **one-sided rescue** — if the target's rank falls outside the band (an
  "unsuccessful" iteration), the far side is still discarded rather than
  repeating the iteration verbatim (Section 3.4's modification);
* **sample size** ``|S| ~ n^delta`` with ``delta = 0.6``, the value the
  paper found best experimentally (DESIGN.md deviation #3 documents the
  reconstruction of the garbled pseudocode).

The iterate-shrink-endgame skeleton lives in
:mod:`repro.selection.engine`; this module contributes the sampling rule
(:class:`FastRandomizedStrategy`). When an interval carries **several**
target ranks (``repro.multi_select``), one sorted sample brackets *all* of
them at once — per-target rank brackets are merged, every boundary key is
fetched with a single batched lookup, and the live keys fork multiway in
one partition pass (the regular-sampling multi-selection of
arXiv:1611.05549).

Expected time (paper Table 1): ``O(n/p + (tau + mu) log p log log n)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..psort.sample_sort import (
    element_at_global_rank,
    elements_at_global_ranks,
    sample_sort,
)
from .base import endgame_threshold
from .engine import BandProposal, EndgameProposal, MultiCutProposal, PivotStrategy

__all__ = ["FastRandomizedParams", "FastRandomizedStrategy"]


@dataclass(frozen=True)
class FastRandomizedParams:
    """Tuning knobs of Algorithm 4.

    ``delta`` is the sample-size exponent (``|S| ~ n^delta``); the paper
    settled on 0.6. ``stall_limit`` bounds consecutive iterations without
    shrinkage before the algorithm falls back to the endgame (duplicates or
    pathological samples can pin the band). ``endgame_floor`` is the paper's
    constant ``C`` (declared in Algorithm 4's preamble): below it the
    geometric shrink stalls — the ±sqrt(|S| log n) band covers most of a
    small live set — so survivors are gathered and solved directly.
    """

    delta: float = 0.6
    stall_limit: int = 3
    min_sample: int = 8
    endgame_floor: int = 2048


class FastRandomizedStrategy(PivotStrategy):
    """Steps 1-4: per-rank Bernoulli sample, parallel sample sort, bracket
    the expected sample rank(s) by ``±sqrt(|S| log n)``, fetch the
    bracketing keys from the sorted sample."""

    name = "fast_randomized"

    def __init__(self, params: FastRandomizedParams | None = None):
        self.params = params if params is not None else FastRandomizedParams()
        self.stall_limit = self.params.stall_limit

    def _start(self) -> None:
        self.local_rng = np.random.default_rng(
            (self.cfg.seed, self.ctx.rank, 0xF5)
        )

    def threshold(self, p: int) -> int:
        t = endgame_threshold(self.cfg, p)
        if self.cfg.endgame_threshold is None:
            # Algorithm 4's constant C: while (n > max(p^2, C)).
            t = max(t, self.params.endgame_floor)
        return t

    def propose(self, interval):
        ctx, K, params = self.ctx, self.K, self.params
        n = interval.n
        ni = interval.live.count
        arr = interval.live.arr

        # Step 1: per-rank sample — expected global size n^delta, each key
        # kept independently with probability n^delta / n so the expected
        # per-rank share is n_i * n^delta / n (the paper's Step 1).
        s_target = max(params.min_sample, int(math.ceil(n ** params.delta)))
        prob = min(1.0, s_target / n)
        take = int(self.local_rng.binomial(ni, prob)) if ni else 0
        take = min(take, ni)
        if take:
            idx = self.local_rng.choice(ni, size=take, replace=False)
            sample = arr[idx]
        else:
            sample = arr[:0]
        K.scan_pass(take)

        # Step 2: parallel sort of the sample.
        sorted_run = sample_sort(ctx, K, sample)
        slen = int(ctx.comm.allreduce_sum(int(sorted_run.size)))
        if slen == 0:
            # No rank sampled anything (tiny n): bail out to the endgame.
            # Consistent on every rank — slen came from an allreduce.
            return EndgameProposal()

        # Step 3: bracket each target's expected sample rank by
        # ±sqrt(|S| log n).
        spread = int(math.ceil(
            math.sqrt(slen * max(1.0, math.log(max(n, 2))))
        ))

        if len(interval.targets) == 1:
            k = interval.targets[0].k
            m = -((-k * slen) // n)  # ceil(k * |S| / n)
            r1 = max(1, min(slen, m - spread))
            r2 = max(1, min(slen, m + spread))
            # Step 4: broadcast k1, k2 (owner lookup in the sorted sample).
            k1 = element_at_global_rank(ctx, sorted_run, r1)
            k2 = element_at_global_rank(ctx, sorted_run, r2)
            return BandProposal(k1, k2)

        # Multi-target: bracket every target, fetch ALL boundary keys in
        # one batched lookup, and let the engine fork the interval multiway
        # at the (deduplicated) keys. Every boundary stays a cut — even
        # when neighbouring brackets overlap — so each target ends up in
        # its own narrow segment and the stretches *between* targets are
        # discarded wholesale (merging overlapping brackets instead would
        # collapse dense targets into one giant band that barely shrinks).
        ranks: set[int] = set()
        for t in interval.targets:
            m = -((-t.k * slen) // n)
            ranks.add(max(1, min(slen, m - spread)))
            ranks.add(max(1, min(slen, m + spread)))
        values = elements_at_global_ranks(ctx, sorted_run, sorted(ranks))
        cuts = np.unique(np.asarray(values))
        return MultiCutProposal(tuple(cuts.tolist()))

    @property
    def endgame_rng(self) -> np.random.Generator:
        return self.local_rng
