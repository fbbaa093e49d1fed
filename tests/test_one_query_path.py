"""One query path: a single-target select is a one-rank multi_select.

Every entry point that answers one rank — the legacy one-shot functions,
the fluent array method, the Session's immediate and deferred paths and
the serving tier — runs the same launch, so the same ``(array, plan, k)``
gives the same value, simulated time and iteration evidence through all of
them. The agreement check that finishes every launch is a real check
(it survives ``python -O``) and treats NaN answers as agreeing.
"""

import asyncio

import numpy as np
import pytest

import repro
from repro.core import session as core_session
from repro.errors import RankMismatchError
from repro.selection import ALGORITHMS, SelectionRunner
from repro.serve import SelectionService

N = 6000
K = 2345


def _evidence(report):
    return (repr(report.value), repr(report.simulated_time),
            report.stats.n_iterations, report.stats.endgame_n)


def _entry_points(data, plan, k):
    """name -> one-rank report of every entry point, each on a fresh
    session so no answer is served from another entry point's cache."""
    machine = data.machine

    def deferred():
        session = repro.Session(machine, cache=False)
        fut = session.select(data, k, plan)
        session.flush()
        return fut.result()

    def multi_view(multi):
        return core_session.per_rank_view(multi, k, multi.values[0])

    async def served():
        async with SelectionService(machine, plan, window=0.0) as svc:
            return await svc.select(data, k)

    points = {
        "data.select": lambda: data.select(k, plan),
        "run_select": lambda: repro.Session(machine).run_select(
            data, k, plan),
        "deferred select": deferred,
        "run_multi_select": lambda: multi_view(repro.Session(
            machine).run_multi_select(data, [k], plan)),
        "SelectionService.select": lambda: asyncio.run(served()),
    }
    if plan.prefilter is None:
        # The legacy one-shot functions take the plan's fields as keyword
        # arguments and have no prefilter keyword.
        points["repro.select"] = lambda: repro.select(
            data, k, algorithm=plan.algorithm, seed=plan.seed)
        points["repro.multi_select"] = lambda: multi_view(repro.multi_select(
            data, [k], algorithm=plan.algorithm, seed=plan.seed))
    return points


@pytest.mark.parametrize("prefilter", [None, "sketch"])
@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_every_entry_point_gives_identical_evidence(algorithm, p, prefilter):
    machine = repro.Machine(n_procs=p)
    data = machine.generate(N, distribution="random", seed=7)
    plan = repro.SelectionPlan(algorithm=algorithm, prefilter=prefilter,
                               seed=3)
    want = np.sort(data.gather())[K - 1]
    points = _entry_points(data, plan, K)
    evidence = {name: _evidence(run()) for name, run in points.items()}
    assert evidence["data.select"][0] == repr(want)
    reference = evidence["data.select"]
    for name, got in evidence.items():
        assert got == reference, f"{name} differs from data.select"


# ---------------------------------------------------------------------------
# The launch's agreement check
# ---------------------------------------------------------------------------

NAN_KEYS = np.array([3.0, np.nan, 1.0, 5.0, np.nan, 2.0, 7.0, 4.0])


def _same(a, b) -> bool:
    return (np.isnan(a) and np.isnan(b)) or a == b


@pytest.mark.parametrize("backend", ["serial", "threaded"])
@pytest.mark.parametrize("algorithm", ["fast_randomized", "sort_based"])
class TestNaNAnswers:
    def test_select_answers_nan_rank(self, backend, algorithm):
        data = repro.Machine(n_procs=2, backend=backend).distribute(NAN_KEYS)
        want = np.sort(data.gather())
        for k in range(1, NAN_KEYS.size + 1):
            got = repro.select(data, k, algorithm=algorithm).value
            assert _same(got, want[k - 1]), k

    def test_multi_select_answers_nan_rank(self, backend, algorithm):
        data = repro.Machine(n_procs=2, backend=backend).distribute(NAN_KEYS)
        want = np.sort(data.gather())
        got = repro.multi_select(data, [8, 2], algorithm=algorithm).values
        assert _same(got[0], want[7]) and _same(got[1], want[1])


class _DisagreeingRunner(SelectionRunner):
    """Rank 1 reports every answer shifted by one."""

    def __call__(self, ctx, shard, ks, cfg):
        values, stats = super().__call__(ctx, shard, ks, cfg)
        if ctx.rank == 1:
            values = [v + 1 for v in values]
        return values, stats


@pytest.mark.parametrize("backend", ["serial", "threaded"])
class TestRankDisagreement:
    @pytest.fixture(autouse=True)
    def _disagree(self, monkeypatch):
        monkeypatch.setattr(core_session, "SelectionRunner",
                            _DisagreeingRunner)

    def test_select_raises(self, backend):
        data = repro.Machine(n_procs=2, backend=backend).generate(100, seed=1)
        with pytest.raises(RankMismatchError, match="disagree"):
            repro.select(data, 5)

    def test_multi_select_raises(self, backend):
        data = repro.Machine(n_procs=2, backend=backend).generate(100, seed=1)
        with pytest.raises(RankMismatchError, match="disagree"):
            repro.multi_select(data, [5, 50])
