"""Legacy one-shot API: :func:`select`, :func:`multi_select`,
:func:`median`, :func:`quantiles`, :func:`rebalance`.

These are thin shims over the Plan/Session layer, kept for the historical
call shape (``repro.select(data, k, algorithm=..., seed=...)``). Each call
builds a validated :class:`~repro.core.plan.SelectionPlan` from its kwargs
and runs it through an uncached one-shot
:class:`~repro.core.session.Session` — one SPMD launch per call, no
memoisation. ``select`` values, RNG streams and simulated times are
bit-identical to the pre-Session API, and ``multi_select([k])`` equals
``select(k)``.

New code should prefer the composable surface::

    import repro

    machine = repro.Machine(n_procs=32)
    data = machine.generate(1 << 21, distribution="random", seed=7)
    plan = repro.SelectionPlan(algorithm="fast_randomized", seed=7)

    # Fluent, cached:
    report = data.median(plan)

    # Coalesced serving: many rank queries, ONE SPMD launch on flush.
    with machine.session(plan) as s:
        futures = [s.select(data, k) for k in (1000, data.n // 2, data.n)]
    print([f.value for f in futures])

:class:`Machine` / :class:`DistributedArray` live in
:mod:`repro.core.array`, the report types in :mod:`repro.core.reports`;
they are re-exported here for backwards compatibility.
"""

from __future__ import annotations

from typing import Sequence

from ..machine.engine import SPMDResult
from ..selection.fast_randomized import FastRandomizedParams
from .array import DistributedArray, Machine
from .plan import SelectionPlan
from .reports import MultiSelectionReport, SelectionReport
from .session import Session

__all__ = [
    "Machine",
    "DistributedArray",
    "SelectionReport",
    "MultiSelectionReport",
    "select",
    "multi_select",
    "median",
    "quantiles",
    "rebalance",
]


def _one_shot(data: DistributedArray) -> Session:
    """An uncached throwaway session: exactly one launch per query, the
    historical cost model of the legacy functions."""
    return Session(data.machine, cache=False)


def select(
    data: DistributedArray,
    k: int,
    algorithm: str = "fast_randomized",
    balancer="default",
    seed: int = 0,
    sequential_method: str | None = None,
    endgame_threshold: int | None = None,
    max_iterations: int | None = None,
    fast_params: FastRandomizedParams | None = None,
    impl_override: str | None = None,
    backend: str | None = None,
) -> SelectionReport:
    """Find the key of global rank ``k`` (1-based) in ``data``.

    Parameters
    ----------
    data:
        The distributed input (left untouched: shards are copied before the
        algorithms shrink them).
    k:
        Target rank, ``1 <= k <= len(data)``.
    algorithm:
        One of :data:`repro.selection.ALGORITHMS`.
    balancer:
        Load balancing strategy name (``"none"``, ``"omlb"``,
        ``"modified_omlb"``, ``"dimension_exchange"``, ``"global_exchange"``)
        or ``"default"`` for the paper's pairing.
    seed:
        Drives every stochastic choice; equal seeds give bit-identical runs
        (values *and* simulated times).

    Returns
    -------
    SelectionReport
    """
    plan = SelectionPlan(
        algorithm=algorithm,
        balancer=balancer,
        seed=seed,
        sequential_method=sequential_method,
        endgame_threshold=endgame_threshold,
        max_iterations=max_iterations,
        fast_params=fast_params,
        impl_override=impl_override,
        backend=backend,
    )
    return _one_shot(data).run_select(data, k, plan)


def multi_select(
    data: DistributedArray,
    ks: Sequence[int],
    algorithm: str = "fast_randomized",
    balancer="default",
    seed: int = 0,
    sequential_method: str | None = None,
    endgame_threshold: int | None = None,
    max_iterations: int | None = None,
    fast_params: FastRandomizedParams | None = None,
    impl_override: str | None = None,
    backend: str | None = None,
) -> MultiSelectionReport:
    """Find the keys of *every* global rank in ``ks`` in ONE SPMD launch.

    The contraction engine tracks the whole set of target ranks through a
    single iterate-shrink pass: when a pivot lands between two targets the
    live set forks into independent sub-intervals (each over disjoint
    keys), so the total partitioning work is ``O((n/p) log q)`` for ``q``
    ranks instead of ``q`` full contractions, and the endgame costs one
    Gather + Broadcast however many intervals survive. This is how
    :func:`quantiles` computes all its cut points at once.

    Parameters
    ----------
    data:
        The distributed input (left untouched; shards are copied first).
    ks:
        Target ranks, each in ``1 <= k <= len(data)``. Duplicates and
        arbitrary order are fine — ``values`` aligns with the input.
    algorithm:
        Any key of :data:`repro.selection.ALGORITHMS`. ``sort_based``
        answers every rank from one full parallel sort; on a single
        processor every algorithm takes a sequential one-pass
        multi-selection fast path.
    seed:
        Drives every stochastic choice; equal seeds give bit-identical
        runs (values *and* simulated times).

    Returns
    -------
    MultiSelectionReport
    """
    plan = SelectionPlan(
        algorithm=algorithm,
        balancer=balancer,
        seed=seed,
        sequential_method=sequential_method,
        endgame_threshold=endgame_threshold,
        max_iterations=max_iterations,
        fast_params=fast_params,
        impl_override=impl_override,
        backend=backend,
    )
    return _one_shot(data).run_multi_select(data, ks, plan)


def median(data: DistributedArray, **kwargs) -> SelectionReport:
    """The paper's flagship special case: rank ``ceil(n/2)`` selection."""
    from ..kernels.select import median_rank

    return select(data, median_rank(data.n), **kwargs)


def quantiles(
    data: DistributedArray, qs: Sequence[float], **kwargs
) -> list[SelectionReport]:
    """Exact quantiles via single-pass multi-rank selection (the paper's
    statistics motivation, batched).

    ``qs`` are fractions in ``(0, 1]``; quantile ``q`` maps to rank
    ``ceil(q * n)`` (so ``q=0.5`` is the paper's median). All quantiles
    are answered by **one** :func:`multi_select` launch — one contraction
    over the data instead of one full selection per quantile, which is
    where the batched path wins its ``~q``-fold saving in scanned keys.

    Returns one :class:`SelectionReport` per quantile, in input order, for
    compatibility with the historical per-quantile API; the reports share
    the batched run's simulated metrics (``simulated_time``, ``breakdown``
    and the iteration evidence describe the single launch that answered
    *all* of them, so summing across reports would double-count). Keyword
    arguments become :class:`SelectionPlan` fields.
    """
    from .session import quantile_rank

    # Historical validation order: quantile fractions are checked (and the
    # empty set returned) before the plan kwargs are validated.
    if not [quantile_rank(q, data.n) for q in qs]:
        return []
    plan = SelectionPlan(**kwargs)
    return _one_shot(data).run_quantiles(data, qs, plan)


def rebalance(
    data: DistributedArray, method="global_exchange"
) -> tuple[DistributedArray, SPMDResult]:
    """Standalone load balancing of a distributed array.

    Returns the rebalanced array plus the raw :class:`SPMDResult` (for its
    simulated-time breakdown).
    """
    return data.rebalance(method)
