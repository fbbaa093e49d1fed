"""Shared scaffolding for the four parallel selection algorithms.

Every algorithm in Section 3 has the same skeleton: iterate, shrinking the
set of live keys, while the global count exceeds ``p^2``; then gather the
survivors on processor 0 and finish with sequential selection (the paper's
final Steps). This module holds that skeleton's common pieces:

* :class:`SelectionConfig` — knobs shared by all algorithms (target rank,
  balancer, sequential method, seeds, iteration guard);
* :class:`IterationRecord` — per-iteration evidence (live counts, pivots,
  balance invocations) used by tests and the bench harness (e.g. to verify
  the O(log n) / O(log log n) iteration-count claims);
* :class:`SelectionStats` — the one-rank view of a launch's
  :class:`~repro.selection.engine.MultiSelectionStats`, carried by every
  :class:`~repro.core.reports.SelectionReport`;
* :func:`check_rank` / :func:`endgame_threshold` — the rank guard and the
  paper's ``while (n > p^2)`` bound.

The skeleton itself — iterate, 3-way Step 6, batched endgame — lives once
in :mod:`repro.selection.engine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..balance.base import Balancer, NoBalance
from ..errors import ConfigurationError
from ..kernels.select import SelectMethod

__all__ = [
    "SelectionConfig",
    "IterationRecord",
    "SelectionStats",
    "endgame_threshold",
    "check_rank",
]


@dataclass
class SelectionConfig:
    """Run-time knobs common to all four algorithms.

    Attributes
    ----------
    balancer:
        Load-balancing strategy applied at the end of each iteration
        (:class:`~repro.balance.base.NoBalance` disables, the paper's
        default for the randomized algorithms).
    sequential_method:
        Sequential kernel used for local medians and the endgame. The
        deterministic algorithms use ``"deterministic"`` per the paper; the
        hybrid experiment of Section 5 swaps in ``"randomized"``.
    seed:
        Seed for every stochastic choice. The paper's randomized algorithms
        require all processors to draw identical random numbers; each rank
        seeds an identical PCG64 stream from this value.
    max_iterations:
        Safety guard; a correct run needs ~log2(n) at most.
    endgame_threshold:
        Stop iterating when the live count drops to this value or below
        (``None`` = the paper's ``p^2``).
    impl_override:
        Sequential kernel that *executes* local selections (simulated cost
        still follows ``sequential_method``). Set to ``"introselect"`` by
        the bench harness on huge grids: the selected value is identical for
        every implementation, so results and simulated times are unchanged
        while wall-clock drops by the deterministic kernel's constant.
    kernels:
        Executing kernel mode for per-rank local work (``"reference"`` or
        ``"fast"``, see :mod:`repro.kernels.dispatch`); ``None`` defers to
        ``$REPRO_KERNELS``. Values and simulated times are unchanged —
        only host wall clock.
    """

    balancer: Balancer = field(default_factory=NoBalance)
    sequential_method: SelectMethod = "randomized"
    seed: int = 0
    max_iterations: int | None = None
    endgame_threshold: int | None = None
    impl_override: SelectMethod | None = None
    kernels: str | None = None

    def iteration_guard(self, n: int) -> int:
        if self.max_iterations is not None:
            return self.max_iterations
        return 4 * max(1, int(np.ceil(np.log2(max(n, 2))))) + 64


@dataclass(frozen=True)
class IterationRecord:
    """What one while-loop iteration did, as seen by every rank."""

    n_before: int
    n_after: int
    k_before: int
    k_after: int
    pivot: object
    local_before: int
    local_after: int
    balanced: bool
    successful: bool = True
    #: Simulated-clock interval of the iteration as this rank saw it
    #: (``ctx.clock.now`` checkpoints stamped by the contraction engine;
    #: deterministic — identical across backends — and the source the
    #: observability layer derives iteration spans from). Both 0.0 for
    #: records constructed outside the engine.
    t_sim0: float = 0.0
    t_sim1: float = 0.0

    @property
    def shrink(self) -> float:
        return self.n_after / self.n_before if self.n_before else 0.0

    @property
    def sim_duration(self) -> float:
        """Simulated seconds the iteration spanned (0.0 when unstamped)."""
        return self.t_sim1 - self.t_sim0


@dataclass
class SelectionStats:
    """One target rank's view of a launch's evidence (identical content on
    every rank); built from the launch's
    :class:`~repro.selection.engine.MultiSelectionStats`."""

    algorithm: str = ""
    n: int = 0
    p: int = 0
    k: int = 0
    iterations: list[IterationRecord] = field(default_factory=list)
    endgame_n: int = 0
    found_by_pivot: bool = False
    balance_invocations: int = 0
    unsuccessful_iterations: int = 0
    #: Sketch pre-filter evidence (a
    #: :class:`~repro.core.reports.PrefilterStats`) when the run was
    #: sketch-accelerated; ``None`` for plain contractions.
    prefilter: object = None

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)


def check_rank(n: int, k: int) -> None:
    if n <= 0:
        raise ConfigurationError(f"selection from empty input (n={n})")
    if not (1 <= k <= n):
        raise ConfigurationError(f"rank k={k} out of range [1, {n}]")


def endgame_threshold(cfg: SelectionConfig, p: int) -> int:
    """The paper's ``while (n > p^2)`` bound (overridable)."""
    if cfg.endgame_threshold is not None:
        return max(1, cfg.endgame_threshold)
    return max(1, p * p)
