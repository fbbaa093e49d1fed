"""The serving layer: :class:`Session` — query coalescing + result caching.

The paper's algorithms select one rank; the contraction engine answers
a whole *set* of ranks in one launch, and one rank is just the smallest
set. So every query, single-target or not, takes ONE path: a launch of
:func:`execute_multi_select` over the ranks that are not cached yet, with
single-target answers read off it as per-rank views. A Session is the API
that lets callers exploit that without hand-assembling rank batches:

* **Deferred queries.** ``session.select(data, k)``, ``.median(data)`` and
  ``.quantiles(data, qs)`` return lightweight futures immediately; nothing
  launches until :meth:`Session.flush` (or context-manager exit, or the
  first ``future.result()``).
* **Coalescing.** ``flush()`` groups every pending rank query by
  ``(array fingerprint, plan)`` and answers each group with ONE
  ``multi_select`` SPMD launch through the batched contraction engine —
  ``q`` same-array queries cost one launch, not ``q``.
* **Result cache.** Answers are cached per ``(array fingerprint, plan,
  rank)``; re-queried ranks are served with ZERO new launches (selection is
  deterministic per plan, so cached values *and* simulated metrics are
  exactly what a relaunch would produce). Reports served from cache set
  ``cached=True``.
* **Immediate paths.** :meth:`run_select` / :meth:`run_multi_select` /
  :meth:`run_quantiles` answer now through the same group server a flush
  uses (still cache-aware). A lone rank, deferred or immediate, gives the
  same value and simulated time as the legacy :func:`repro.select`.

Module-level :func:`execute_select` / :func:`execute_multi_select` are the
uncached launch primitives; ``execute_select`` is the one-rank view of
``execute_multi_select``.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..errors import ConfigurationError, RankMismatchError
from ..kernels.select import median_rank
from ..machine.clock import TimeBreakdown
from ..obs import get_recorder
from ..obs.metrics import REGISTRY
from ..selection import MultiSelectionStats, SelectionRunner, SelectionStats
from .plan import SelectionPlan, as_plan, validate_rank, validate_targets
from .reports import MultiSelectionReport, SelectionReport

if TYPE_CHECKING:
    from .array import DistributedArray, Machine

__all__ = [
    "Session",
    "SessionStats",
    "SelectionFuture",
    "MultiSelectionFuture",
    "execute_select",
    "execute_multi_select",
]


# --------------------------------------------------------------------------
# Launch primitives (uncached)
# --------------------------------------------------------------------------


# Shared launch plumbing: the plain path below and the sketch-prefiltered
# path of repro.stream.refine differ only in the SPMD program body (and its
# per-rank args); resolution, validation, the empty-set report and the
# report assembly live here ONCE so the two paths cannot drift apart —
# which is what keeps the "bit-identical to plain" contract honest.


def resolve_launch(plan: SelectionPlan):
    """``(cfg, balancer_name, runner)`` for one launch.

    ``runner(ctx, arr, ks_sorted, cfg)`` answers every rank over ``arr``
    (the full shard for the plain path, the survivors for the sketch
    path) and returns ``(values, MultiSelectionStats)``.
    """
    cfg, balancer_name = plan.resolve()
    return cfg, balancer_name, SelectionRunner(plan.algorithm,
                                               plan.fast_params)


@dataclass(frozen=True)
class _ShardProgram:
    """Picklable SPMD program body: defensive-copy the rank shard, then
    delegate to ``runner(ctx, shard.copy(), *launch_args)``.

    A frozen dataclass around a picklable runner pickles whenever the plan
    does, which lets the ``pool`` backend reuse its running workers.
    """

    runner: SelectionRunner

    def __call__(self, ctx, shard, *args):
        return self.runner(ctx, shard.copy(), *args)


def empty_multi_report(
    data: "DistributedArray", plan: SelectionPlan, balancer_name: str
) -> MultiSelectionReport:
    """The historical empty-``ks`` answer: an empty report, no launch."""
    return MultiSelectionReport(
        values=[], ks=[], n=data.n, p=data.p, algorithm=plan.algorithm,
        balancer=balancer_name, simulated_time=0.0, wall_time=0.0,
        breakdown=TimeBreakdown(),
        stats=MultiSelectionStats(algorithm=plan.algorithm, n=data.n,
                                  p=data.p),
        backend=plan.backend or data.machine.backend_name,
        # Reports carry the topology *name* (a plan spec may append a
        # ":<cluster_size>" parameter).
        topology=(plan.topology or data.machine.topology_name).split(":")[0],
    )


def predict_simulated(plan: SelectionPlan, n: int, p: int, model,
                      topology) -> float | None:
    """Closed-form predicted simulated seconds for one launch, or ``None``.

    Delegates to :func:`repro.planner.cost.predict_on_topology` (lazy
    import: the planner package imports the bench layer, which imports
    core), which prices the crossbar with the legacy closed forms
    bit-identically and every other shape by injecting that topology's
    lowered-Schedule collective prices into the same skeleton.
    ``topology`` is whatever the launch resolved against — a spec string,
    a :class:`~repro.machine.topology.Topology` instance, or ``None`` for
    the default. Only the four algorithms with closed forms predict —
    hybrids and sort-based plans return ``None`` rather than a
    knowingly-wrong number, as do sketch-prefiltered launches (they do
    work the closed forms don't model).
    """
    if n <= 0:
        return None
    if plan.prefilter is not None:
        return None
    try:
        from ..planner.cost import predict_on_topology
    except ImportError:  # pragma: no cover - planner is always shipped
        return None
    try:
        return predict_on_topology(plan.algorithm, n, p, model,
                                   topology).total
    except ConfigurationError:
        return None


def observe_launch(data: "DistributedArray", plan: SelectionPlan,
                   ks: Sequence[int], result, stats,
                   predicted: float | None) -> None:
    """Post-launch observability: residual metric + launch-span enrichment.

    Always records the predicted-vs-actual residual histogram (the metrics
    registry is process-wide and cheap); span work only happens when a
    capture is active AND the runtime attached a span to the result. Pure
    bookkeeping — never touches values, RNG or simulated time.
    """
    residual = (result.simulated_time - predicted
                if predicted is not None else None)
    if residual is not None:
        REGISTRY.histogram(
            "repro.launch.cost_residual", algorithm=plan.algorithm
        ).observe(residual)
        # Self-calibration: the planner's residual store learns a
        # per-(algorithm, topology, p-bucket) correction from every
        # predicted launch (lazy import: planner imports bench).
        from ..planner.residuals import default_store

        default_store().observe(plan.algorithm, result.topology, data.p,
                                predicted, result.simulated_time)
    recorder = get_recorder()
    span = getattr(result, "span", None)
    if not recorder.enabled or span is None or not span:
        return
    prefilter = getattr(stats, "prefilter", None)
    span.set(
        algorithm=plan.algorithm,
        n=data.n,
        ks=list(ks),
        iterations=stats.n_iterations,
        predicted_s=predicted,
        residual_s=residual,
        survivor_fraction=(prefilter.survivor_fraction
                           if prefilter is not None else None),
    )
    # Iteration spans from the engine's deterministic sim-clock stamps
    # (rank 0's view), laid onto the launch span's cumulative sim axis.
    base = span.sim_t0 if span.sim_t0 is not None else 0.0
    last = base
    for i, rec in enumerate(stats.iterations):
        recorder.add(
            "iteration", parent=span,
            sim_t0=base + rec.t_sim0, sim_t1=base + rec.t_sim1,
            index=i, n_before=rec.n_before, n_after=rec.n_after,
            balanced=rec.balanced, successful=rec.successful,
        )
        last = base + rec.t_sim1
    if getattr(stats, "endgame_n", 0):
        recorder.add("endgame", parent=span, sim_t0=last,
                     sim_t1=span.sim_t1, endgame_n=stats.endgame_n)


def _same_answer(a, b) -> bool:
    """Equal keys, with NaN equal to NaN (``np.sort`` ranks NaN keys
    too, so a NaN answer is a valid answer every rank can agree on)."""
    return bool(a == b) or (a != a and b != b)


def finish_launch(
    data: "DistributedArray", ks: list[int], unique_ks: list[int],
    plan: SelectionPlan, balancer_name: str, result,
) -> MultiSelectionReport:
    """Unpack one launch result into its report (``values`` align with the
    caller's ``ks``, duplicates and input order preserved).

    Raises :class:`~repro.errors.RankMismatchError` when the ranks return
    different answers: every rank must end a selection holding the same
    broadcast values.
    """
    all_values = [v[0] for v in result.values]
    stats: MultiSelectionStats = result.values[0][1]
    first = all_values[0]
    for rank, values in enumerate(all_values):
        if len(values) != len(first) or not all(
            _same_answer(a, b) for a, b in zip(values, first)
        ):
            raise RankMismatchError(
                f"ranks disagree on the answers: rank 0 holds {first!r}, "
                f"rank {rank} holds {values!r}"
            )
    by_rank = dict(zip(unique_ks, first))
    # The closed forms price a single-target contraction; batched launches
    # tracking several live intervals have no form, so don't pretend.
    predicted = (
        predict_simulated(
            plan, data.n, data.p, data.machine.cost_model,
            plan.topology if plan.topology is not None
            else data.machine.topology,
        )
        if len(unique_ks) == 1 else None
    )
    observe_launch(data, plan, ks, result, stats, predicted)
    return MultiSelectionReport(
        values=[by_rank[k] for k in ks],
        ks=ks,
        n=data.n,
        p=data.p,
        algorithm=plan.algorithm,
        balancer=balancer_name,
        simulated_time=result.simulated_time,
        wall_time=result.wall_time,
        breakdown=result.breakdown,
        stats=stats,
        result=result,
        backend=result.backend,
        topology=result.topology,
        predicted_time=predicted,
    )


def execute_multi_select(
    data: "DistributedArray", ks: Sequence[int], plan: SelectionPlan
) -> MultiSelectionReport:
    """One launch answering every rank in ``ks``.

    Every rank in ``ks`` is answered by ONE contraction: the engine tracks
    the whole target set through a single iterate-shrink pass, forking the
    live set when a pivot lands between two targets, and the endgame costs
    one Gather + Broadcast however many intervals survive. Plans carrying
    ``prefilter="sketch"`` route to the sketch-accelerated exact path
    (:mod:`repro.stream.refine`): same answers, same launch accounting,
    smaller live set for the contraction.
    """
    if plan.algorithm == "auto":
        # Cost-model-driven choice (lazy import: planner imports bench).
        from ..planner.planner import resolve_auto

        plan = resolve_auto(data, plan)
    with get_recorder().span("query", algorithm=plan.algorithm, n=data.n,
                             p=data.p, n_ks=len(ks)):
        if plan.prefilter == "sketch":
            from ..stream.refine import execute_sketch_multi_select

            return execute_sketch_multi_select(data, ks, plan)
        ks = validate_targets(ks, data.n)
        cfg, balancer_name, runner = resolve_launch(plan)
        if not ks:
            return empty_multi_report(data, plan, balancer_name)
        unique_ks = sorted(set(ks))
        result = data.machine.run(
            _ShardProgram(runner),
            rank_args=[(s,) for s in data.shards],
            args=(unique_ks, cfg),
            backend=plan.backend,
            topology=plan.topology,
            trace=plan.trace,
        )
        return finish_launch(data, ks, unique_ks, plan, balancer_name,
                             result)


def execute_select(
    data: "DistributedArray", k: int, plan: SelectionPlan
) -> SelectionReport:
    """One single-rank launch: the one-rank view of
    :func:`execute_multi_select`.

    ``k`` is range-checked BEFORE any launch is assembled: an out-of-range
    rank raises :class:`~repro.errors.ConfigurationError` with
    ``Machine.launch_count`` unchanged.
    """
    k = validate_rank(k, data.n)
    multi = execute_multi_select(data, [k], plan)
    return per_rank_view(multi, k, multi.values[0])


def per_rank_view(metrics: MultiSelectionReport, k: int, value,
                  cached: bool = False) -> SelectionReport:
    """A per-rank :class:`SelectionReport` view of one launch's evidence:
    the correct target rank, a SelectionStats-shaped stats block, and
    iteration records aliased from the launch that produced every
    answer."""
    return SelectionReport(
        value=value,
        k=k,
        n=metrics.n,
        p=metrics.p,
        algorithm=metrics.algorithm,
        balancer=metrics.balancer,
        simulated_time=metrics.simulated_time,
        wall_time=metrics.wall_time,
        breakdown=metrics.breakdown,
        stats=SelectionStats(
            algorithm=metrics.stats.algorithm,
            n=metrics.stats.n,
            p=metrics.stats.p,
            k=k,
            iterations=metrics.stats.iterations,
            endgame_n=metrics.stats.endgame_n,
            found_by_pivot=bool(metrics.stats.found_by_pivot),
            balance_invocations=metrics.stats.balance_invocations,
            unsuccessful_iterations=metrics.stats.unsuccessful_iterations,
            prefilter=metrics.stats.prefilter,
        ),
        result=metrics.result,
        cached=cached,
        backend=metrics.backend,
        topology=metrics.topology,
        predicted_time=metrics.predicted_time,
    )


def quantile_rank(q: float, n: int) -> int:
    """Quantile fraction -> 1-based rank: ``ceil(q * n)`` (``q=0.5`` is the
    paper's median). Raises for ``q`` outside ``(0, 1]``."""
    if not (0.0 < q <= 1.0):
        raise ConfigurationError(f"quantile {q!r} outside (0, 1]")
    return max(1, int(np.ceil(q * n)))


# --------------------------------------------------------------------------
# Session internals
# --------------------------------------------------------------------------


@dataclass
class _CacheEntry:
    """One answered rank: its value + the report of the launch that
    answered it."""

    value: object
    metrics: MultiSelectionReport


@dataclass
class SessionStats:
    """Serving counters (what the bench/acceptance assertions read)."""

    #: Rank queries accepted (deferred futures + immediate run_* calls).
    queries: int = 0
    #: SPMD launches this session paid for.
    launches: int = 0
    #: flush() calls that found pending work.
    flushes: int = 0
    #: Deferred queries answered by a shared (coalesced) launch or cache.
    coalesced_queries: int = 0
    #: Individual ranks served from the result cache.
    cache_hits: int = 0
    #: Individual ranks looked up in the result cache and not found (a
    #: session without a cache looks nothing up).
    cache_misses: int = 0


class MultiSelectionFuture:
    """A pending rank-set query; ``result()`` flushes the session.

    Resolved (or failed) by the owning session's group server, which every
    query path shares.
    """

    __slots__ = ("_session", "data", "plan", "ks", "_report", "_error")

    def __init__(self, session: "Session", data: "DistributedArray",
                 ks: list[int], plan: SelectionPlan):
        self._session = session
        self.data = data
        self.plan = plan
        self.ks = ks
        self._report: MultiSelectionReport | SelectionReport | None = None
        self._error: BaseException | None = None

    @property
    def done(self) -> bool:
        """True once a flush has produced this future's report (or its
        launch failed — ``result()`` then re-raises the launch error)."""
        return self._report is not None or self._error is not None

    def _resolve(self, report: MultiSelectionReport) -> None:
        self._report = report

    def result(self):
        """The :class:`MultiSelectionReport` (coalesced flush on first
        call)."""
        if self._report is None and self._error is None:
            self._session.flush()
        if self._error is not None:
            raise self._error
        if self._report is None:  # pragma: no cover - internal invariant
            raise RuntimeError("flush did not resolve this future")
        return self._report

    @property
    def values(self) -> list:
        """Shortcut for ``result().values``."""
        return self.result().values


class SelectionFuture(MultiSelectionFuture):
    """A pending single-rank query: the one-rank view of a
    :class:`MultiSelectionFuture`; ``result()`` is a
    :class:`SelectionReport`."""

    __slots__ = ()

    def __init__(self, session, data, k: int, plan):
        super().__init__(session, data, [k], plan)

    @property
    def k(self) -> int:
        return self.ks[0]

    def _resolve(self, report: MultiSelectionReport) -> None:
        self._report = per_rank_view(report, self.k, report.values[0],
                                     cached=report.cached)

    @property
    def value(self):
        """Shortcut for ``result().value``."""
        return self.result().value


class Session:
    """A query-serving session bound to one :class:`Machine`.

    Parameters
    ----------
    machine:
        The machine every query's data must live on.
    plan:
        Default :class:`SelectionPlan` for queries that do not carry one.
    cache:
        Enable the result cache (per ``(array fingerprint, plan, rank)``).
    max_cache_entries:
        LRU bound on cached ranks.

    Usage::

        with machine.session() as s:
            f50 = s.select(data, n // 2)
            f90 = s.select(data, 9 * n // 10)
            f99 = s.select(data, 99 * n // 100)
        # exiting flushed: ONE SPMD launch answered all three
        print(f50.value, f90.value, f99.value)
    """

    def __init__(
        self,
        machine: "Machine",
        plan: SelectionPlan | None = None,
        cache: bool = True,
        max_cache_entries: int = 65536,
    ):
        if plan is not None and not isinstance(plan, SelectionPlan):
            raise ConfigurationError(
                f"plan must be a SelectionPlan or None, "
                f"got {type(plan).__name__}"
            )
        if max_cache_entries < 1:
            raise ConfigurationError(
                f"max_cache_entries must be >= 1, got {max_cache_entries}"
            )
        self.machine = machine
        self.plan = plan if plan is not None else SelectionPlan()
        self.cache_enabled = bool(cache)
        self.max_cache_entries = max_cache_entries
        self.stats = SessionStats()
        self._pending: list[MultiSelectionFuture] = []
        self._cache: OrderedDict[tuple, _CacheEntry] = OrderedDict()

    # ----------------------------------------------------------- plumbing

    def _plan_for(self, plan: SelectionPlan | None,
                  overrides: dict) -> SelectionPlan:
        if plan is None and not overrides:
            return self.plan
        if plan is None:
            return self.plan.replace(**overrides)
        return as_plan(plan, overrides)

    def _check_data(self, data: "DistributedArray") -> None:
        if data.machine is not self.machine:
            raise ConfigurationError(
                "query data lives on a different Machine than this session"
            )

    def _check_rank(self, k: int, n: int) -> int:
        return validate_rank(k, n)

    # LRU cache primitives -------------------------------------------------

    def _cache_get(self, key: tuple) -> _CacheEntry | None:
        entry = self._cache.get(key)
        if entry is not None:
            self._cache.move_to_end(key)
        return entry

    def _cache_put(self, key: tuple, entry) -> None:
        self._cache[key] = entry
        self._cache.move_to_end(key)
        while len(self._cache) > self.max_cache_entries:
            self._cache.popitem(last=False)

    def clear_cache(self) -> None:
        """Drop every cached result."""
        self._cache.clear()

    @property
    def cache_size(self) -> int:
        return len(self._cache)

    @property
    def pending_count(self) -> int:
        """Queries queued but not yet flushed."""
        return len(self._pending)

    # ------------------------------------------------------ deferred queries

    def select(self, data: "DistributedArray", k: int,
               plan: SelectionPlan | None = None,
               **overrides) -> SelectionFuture:
        """Queue a rank-``k`` query; returns a future. Nothing launches
        until :meth:`flush` — same-array queries coalesce into one batched
        launch."""
        self._check_data(data)
        k = self._check_rank(k, data.n)
        fut = SelectionFuture(self, data, k, self._plan_for(plan, overrides))
        self._pending.append(fut)
        self.stats.queries += 1
        return fut

    def median(self, data: "DistributedArray",
               plan: SelectionPlan | None = None,
               **overrides) -> SelectionFuture:
        """Queue the rank-``ceil(n/2)`` query."""
        return self.select(data, median_rank(data.n), plan, **overrides)

    def quantiles(self, data: "DistributedArray", qs: Sequence[float],
                  plan: SelectionPlan | None = None,
                  **overrides) -> list[SelectionFuture]:
        """Queue one query per quantile fraction; all of them (plus any
        other pending same-array queries) share one flush launch."""
        self._check_data(data)
        ks = [quantile_rank(q, data.n) for q in qs]
        return [self.select(data, k, plan, **overrides) for k in ks]

    def multi_select(self, data: "DistributedArray", ks: Sequence[int],
                     plan: SelectionPlan | None = None,
                     **overrides) -> MultiSelectionFuture:
        """Queue a whole rank set as one future (``values`` align with
        ``ks``, duplicates and arbitrary order preserved)."""
        self._check_data(data)
        checked = [self._check_rank(k, data.n) for k in ks]
        fut = MultiSelectionFuture(
            self, data, checked, self._plan_for(plan, overrides)
        )
        self._pending.append(fut)
        self.stats.queries += 1
        return fut

    # --------------------------------------------------------------- flush

    def flush(self) -> list:
        """Answer every pending query.

        Pending queries are grouped by ``(array fingerprint, plan)``; each
        group's not-yet-cached ranks are answered by ONE batched
        ``multi_select`` SPMD launch, then every future is served from the
        (now warm) result cache. Returns the resolved futures.

        A failing group does not strand the others: every remaining group
        is still served, the failing group's futures record the launch
        error (their ``result()`` re-raises it), and the first error is
        re-raised once all groups have been attempted.
        """
        pending, self._pending = self._pending, []
        if not pending:
            return []
        self.stats.flushes += 1
        groups: OrderedDict[tuple, list[MultiSelectionFuture]] = OrderedDict()
        for fut in pending:
            key = (fut.data.fingerprint, fut.plan.cache_key())
            groups.setdefault(key, []).append(fut)
        first_error: BaseException | None = None
        recorder = get_recorder()
        with recorder.span("session.flush", queries=len(pending),
                           groups=len(groups)):
            for (fp, _plan_key), futs in groups.items():
                try:
                    with recorder.span(
                        "session.group", algorithm=futs[0].plan.algorithm,
                        queries=len(futs),
                        ranks=len({k for fut in futs for k in fut.ks}),
                    ):
                        self._serve_group(fp, futs)
                except Exception as exc:
                    for fut in futs:
                        if fut._report is None:
                            fut._error = exc
                    if first_error is None:
                        first_error = exc
        if first_error is not None:
            raise first_error
        return pending

    def _serve_group(self, fp: str | None,
                     futs: list[MultiSelectionFuture],
                     coalesced: bool = True) -> None:
        """Answer one ``(array, plan)`` group: cached ranks from the cache,
        every other rank from ONE launch, then resolve each future.
        ``fp`` is ``None`` when the session has no cache."""
        data, plan = futs[0].data, futs[0].plan
        needed = sorted({k for fut in futs for k in fut.ks})
        entries: dict[int, _CacheEntry] = {}
        missing = needed
        if self.cache_enabled:
            plan_key = plan.cache_key()
            missing = []
            for k in needed:
                entry = self._cache_get((fp, plan_key, k))
                if entry is None:
                    missing.append(k)
                else:
                    entries[k] = entry
            self.stats.cache_hits += len(entries)
            self.stats.cache_misses += len(missing)
        hit_ks = set(entries)
        if missing:
            launched = execute_multi_select(data, missing, plan)
            self.stats.launches += 1
            for k, value in zip(missing, launched.values):
                entries[k] = _CacheEntry(value=value, metrics=launched)
                if self.cache_enabled:
                    self._cache_put((fp, plan_key, k), entries[k])
        for fut in futs:
            if coalesced:
                self.stats.coalesced_queries += 1
            fut._resolve(self._report_for(fut, entries, hit_ks))

    @staticmethod
    def _report_for(fut: MultiSelectionFuture,
                    entries: dict[int, _CacheEntry],
                    hit_ks: set[int]) -> MultiSelectionReport:
        if not fut.ks:
            # Historical empty-set behaviour: an empty report, no launch.
            return execute_multi_select(fut.data, [], fut.plan)
        # A fully-cached report must carry its *originating* launch's
        # metrics (what a relaunch would produce); any other report, those
        # of the launch that answered its uncached ranks.
        fresh = [k for k in fut.ks if k not in hit_ks]
        metrics = entries[fresh[0] if fresh else fut.ks[0]].metrics
        return dataclasses.replace(
            metrics, values=[entries[k].value for k in fut.ks],
            ks=list(fut.ks), cached=not fresh,
        )

    # ---------------------------------------------------- immediate queries

    def _answer_now(self, fut: MultiSelectionFuture):
        """Serve one query NOW through the group server a flush uses (not
        counted as a coalesced deferred query)."""
        self.stats.queries += 1
        fp = fut.data.fingerprint if self.cache_enabled else None
        self._serve_group(fp, [fut], coalesced=False)
        return fut._report

    def run_select(self, data: "DistributedArray", k: int,
                   plan: SelectionPlan | None = None,
                   **overrides) -> SelectionReport:
        """Answer rank ``k`` NOW: a one-rank :meth:`run_multi_select`.

        Cache-aware: a repeat of an answered ``(array, plan, k)`` costs
        zero launches and returns the original launch's value and
        simulated metrics with ``cached=True``. This is the path the
        legacy :func:`repro.select` shim and the fluent ``data.select(k)``
        ride.
        """
        self._check_data(data)
        k = self._check_rank(k, data.n)
        return self._answer_now(
            SelectionFuture(self, data, k, self._plan_for(plan, overrides))
        )

    def run_median(self, data: "DistributedArray",
                   plan: SelectionPlan | None = None,
                   **overrides) -> SelectionReport:
        """Answer the median NOW (rank ``ceil(n/2)`` via
        :meth:`run_select`)."""
        return self.run_select(data, median_rank(data.n), plan, **overrides)

    def run_multi_select(self, data: "DistributedArray", ks: Sequence[int],
                         plan: SelectionPlan | None = None,
                         **overrides) -> MultiSelectionReport:
        """Answer every rank in ``ks`` NOW: at most one batched launch,
        with cached ranks excluded from the launch entirely."""
        self._check_data(data)
        plan = self._plan_for(plan, overrides)
        return self._answer_now(MultiSelectionFuture(
            self, data, [self._check_rank(k, data.n) for k in ks], plan
        ))

    def run_quantiles(self, data: "DistributedArray", qs: Sequence[float],
                      plan: SelectionPlan | None = None,
                      **overrides) -> list[SelectionReport]:
        """Answer exact quantiles NOW via one batched launch.

        Returns one :class:`SelectionReport` per quantile, in input order
        (the historical per-quantile shape); the reports share the batched
        run's simulated metrics, so summing across them would
        double-count.
        """
        self._check_data(data)
        plan = self._plan_for(plan, overrides)
        ks = [quantile_rank(q, data.n) for q in qs]
        if not ks:
            return []
        multi = self.run_multi_select(data, ks, plan)
        return [
            per_rank_view(multi, k, value, cached=multi.cached)
            for k, value in zip(ks, multi.values)
        ]

    # ------------------------------------------------------ context manager

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Flush pending work on a clean exit. On an exception the queue is
        # left intact: futures stay pending and can still be resolved by a
        # later flush() or future.result().
        if exc_type is None:
            self.flush()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Session(p={self.machine.n_procs}, pending={self.pending_count}, "
            f"cached={self.cache_size}, launches={self.stats.launches}, "
            f"hits={self.stats.cache_hits})"
        )
