"""Failure injection across the stack: a failing rank must surface as a
clean WorkerError, never a hang, wherever the failure happens — on every
execution backend."""

import multiprocessing
import threading
import time

import numpy as np
import pytest

import repro
from repro.balance import get_balancer
from repro.errors import WorkerError
from repro.kernels import CostedKernels
from repro.machine import run_spmd

BACKENDS = ["serial", "threaded", "process", "pool"]


class Poison(Exception):
    """Module-level so it pickles: forked ranks ship the original
    exception type back across the result queue, and a local class would
    degrade the cause to ``UnpicklableWorkerFailure``."""


def _transient_children() -> list:
    """Live child processes, ignoring the pool's persistent workers (they
    outlive launches by design; their own lifecycle is covered by
    ``tests/test_pool_backend.py``)."""
    return [
        pr for pr in multiprocessing.active_children()
        if not pr.name.startswith("repro-pool-")
    ]


def _assert_no_leaked_workers(threads_before: int) -> None:
    """Threads decay to the pre-launch count; no child process survives."""
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        if (
            threading.active_count() <= threads_before
            and not _transient_children()
        ):
            return
        time.sleep(0.01)
    assert threading.active_count() <= threads_before, (
        f"leaked threads: {[t.name for t in threading.enumerate()]}"
    )
    assert not _transient_children(), "leaked worker processes"


class TestFailurePhases:
    @pytest.mark.parametrize("fail_at", ["entry", "after_prefix", "in_gather",
                                         "in_alltoall", "at_exit"])
    def test_single_rank_failure_any_phase(self, fail_at):
        def prog(ctx):
            if fail_at == "entry" and ctx.rank == 1:
                raise RuntimeError(fail_at)
            ctx.comm.prefix_sum(1)
            if fail_at == "after_prefix" and ctx.rank == 1:
                raise RuntimeError(fail_at)
            if fail_at == "in_gather" and ctx.rank == 1:
                raise RuntimeError(fail_at)
            ctx.comm.gather(ctx.rank)
            if fail_at == "in_alltoall" and ctx.rank == 1:
                raise RuntimeError(fail_at)
            ctx.comm.alltoallv([None] * ctx.size)
            if fail_at == "at_exit" and ctx.rank == 1:
                raise RuntimeError(fail_at)

        with pytest.raises(WorkerError) as ei:
            run_spmd(prog, 4)
        assert ei.value.rank == 1
        assert str(ei.value.cause) == fail_at

    def test_multiple_simultaneous_failures_report_lowest_rank(self):
        def prog(ctx):
            raise ValueError(f"r{ctx.rank}")

        with pytest.raises(WorkerError) as ei:
            run_spmd(prog, 4)
        assert isinstance(ei.value.cause, ValueError)

    def test_failure_inside_balancer(self):
        def prog(ctx, shard):
            k = CostedKernels(ctx)
            if ctx.rank == 2:
                raise Poison("balancer blew up")
            return get_balancer("global_exchange").rebalance(ctx, k, shard)

        shards = [np.arange(10.0) for _ in range(4)]
        with pytest.raises(WorkerError) as ei:
            run_spmd(prog, 4, rank_args=[(s,) for s in shards])
        assert isinstance(ei.value.cause, Poison)

    def test_machine_usable_after_failure(self):
        m = repro.Machine(n_procs=4)

        def bad(ctx):
            if ctx.rank == 0:
                raise RuntimeError("x")
            ctx.comm.barrier()

        with pytest.raises(WorkerError):
            m.run(bad)
        # The machine (fresh engine per run) still works.
        d = m.generate(1000, seed=0)
        rep = repro.median(d)
        assert rep.value == np.sort(d.gather())[499]

    def test_error_chains_original_traceback(self):
        def prog(ctx):
            if ctx.rank == 0:
                raise ZeroDivisionError("oops")
            ctx.comm.barrier()

        with pytest.raises(WorkerError) as ei:
            run_spmd(prog, 2)
        assert ei.value.__cause__ is ei.value.cause
        assert isinstance(ei.value.cause, ZeroDivisionError)


@pytest.mark.parametrize("backend", BACKENDS)
class TestEveryBackendFailsClean:
    """The backends satellite: a rank raising mid-iteration aborts cleanly
    on each backend — WorkerError chains the original exception, nothing
    leaks, and the Machine keeps serving."""

    def test_mid_iteration_failure_chains_original(self, backend):
        def prog(ctx, shard):
            k = CostedKernels(ctx)
            total = ctx.comm.allreduce_sum(int(shard.size))
            assert total == 40
            k.count3(shard, float(np.median(shard)))
            if ctx.rank == 2:
                raise ValueError("mid-iteration failure")
            ctx.comm.gather(ctx.rank)
            ctx.comm.barrier()

        threads_before = threading.active_count()
        machine = repro.Machine(n_procs=4, backend=backend)
        shards = [np.arange(10.0) + r for r in range(4)]
        with pytest.raises(WorkerError) as ei:
            machine.run(prog, rank_args=[(s,) for s in shards])
        assert ei.value.rank == 2
        assert isinstance(ei.value.cause, ValueError)
        assert str(ei.value.cause) == "mid-iteration failure"
        assert ei.value.__cause__ is ei.value.cause
        _assert_no_leaked_workers(threads_before)

    def test_machine_reusable_after_failure(self, backend):
        machine = repro.Machine(n_procs=4, backend=backend)

        def bad(ctx):
            if ctx.rank == 0:
                raise RuntimeError("x")
            ctx.comm.barrier()

        with pytest.raises(WorkerError):
            machine.run(bad)
        data = machine.generate(1000, seed=0)
        rep = data.median()
        assert rep.value == np.sort(data.gather())[499]
        assert rep.backend == backend

    def test_failure_during_selection_is_clean(self, backend):
        machine = repro.Machine(n_procs=4, backend=backend)
        data = machine.generate(2000, seed=1)

        def poisoned(ctx, shard):
            if ctx.rank == 1:
                raise ZeroDivisionError("poisoned shard")
            # Healthy ranks enter the selection engine and block at its
            # first collective; the abort must unwind them.
            from repro.selection import SelectionConfig, SelectionRunner

            return SelectionRunner("randomized")(
                ctx, shard.copy(), [1], SelectionConfig(seed=0)
            )

        threads_before = threading.active_count()
        with pytest.raises(WorkerError) as ei:
            machine.run(poisoned, rank_args=[(s,) for s in data.shards])
        assert ei.value.rank == 1
        assert isinstance(ei.value.cause, ZeroDivisionError)
        _assert_no_leaked_workers(threads_before)


class TestBadProgramShapes:
    def test_nan_data_still_selects(self):
        # NaN keys would poison comparisons; the library's contract is on
        # totally-ordered inputs, but a NaN-free subset must be unaffected.
        m = repro.Machine(n_procs=2)
        d = m.distribute(np.array([3.0, 1.0, 2.0, 5.0]))
        assert repro.select(d, 2).value == 2.0

    def test_mismatched_shard_dtypes_still_work(self):
        m = repro.Machine(n_procs=2)
        d = m.from_shards([np.arange(5, dtype=np.int64),
                           np.arange(5, dtype=np.float64) + 0.5])
        rep = repro.select(d, 1)
        assert rep.value == 0
