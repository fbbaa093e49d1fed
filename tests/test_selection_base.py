"""Units of the shared selection scaffolding (config, stats, guards)."""

import numpy as np
import pytest

import repro
from repro.balance.base import NoBalance
from repro.errors import ConfigurationError, ConvergenceError
from repro.selection import MultiSelectionStats
from repro.selection.base import (
    IterationRecord,
    SelectionConfig,
    check_rank,
    endgame_threshold,
)


class TestCheckRank:
    def test_accepts_valid(self):
        check_rank(10, 1)
        check_rank(10, 10)

    @pytest.mark.parametrize("n,k", [(0, 1), (10, 0), (10, 11), (-5, 1)])
    def test_rejects_invalid(self, n, k):
        with pytest.raises(ConfigurationError):
            check_rank(n, k)


class TestSelectionConfig:
    def test_defaults(self):
        cfg = SelectionConfig()
        assert isinstance(cfg.balancer, NoBalance)
        assert cfg.sequential_method == "randomized"
        assert cfg.impl_override is None

    def test_iteration_guard_scales_with_n(self):
        cfg = SelectionConfig()
        assert cfg.iteration_guard(1 << 20) > cfg.iteration_guard(16)

    def test_explicit_max_iterations_wins(self):
        cfg = SelectionConfig(max_iterations=7)
        assert cfg.iteration_guard(1 << 30) == 7

    def test_endgame_threshold_default_p_squared(self):
        assert endgame_threshold(SelectionConfig(), 8) == 64
        assert endgame_threshold(SelectionConfig(), 1) == 1

    def test_endgame_threshold_override(self):
        cfg = SelectionConfig(endgame_threshold=5000)
        assert endgame_threshold(cfg, 128) == 5000

    def test_endgame_threshold_floor_one(self):
        cfg = SelectionConfig(endgame_threshold=0)
        assert endgame_threshold(cfg, 2) == 1


class TestStats:
    def test_record_counts(self):
        stats = MultiSelectionStats(algorithm="x", n=100, p=2, ks=[50])
        stats.record(IterationRecord(100, 40, 50, 50, 1.5, 50, 20, True))
        stats.record(IterationRecord(40, 10, 50, 10, 2.5, 20, 5, False,
                                     successful=False))
        assert stats.n_iterations == 2
        assert stats.balance_invocations == 1
        assert stats.unsuccessful_iterations == 1

    def test_shrink(self):
        rec = IterationRecord(100, 25, 1, 1, 0, 0, 0, False)
        assert rec.shrink == 0.25


def _endgame_program(arr_for_rank, k):
    """SPMD program sending one interval straight to the engine's batched
    endgame with the given per-rank keys and target rank."""
    from repro.selection import ContractionEngine, RandomizedStrategy
    from repro.selection.engine import ArrayLive, _Interval, _Target

    def prog(ctx):
        arr = arr_for_rank(ctx.rank)
        engine = ContractionEngine(ctx, SelectionConfig(),
                                   RandomizedStrategy(),
                                   MultiSelectionStats(ks=[k]))
        engine.results = [None]
        engine._run_endgame([_Interval(ArrayLive(arr), arr.size,
                                       [_Target(0, k)])])
        return engine.results

    return prog


class TestConvergenceGuards:
    def test_endgame_with_empty_survivors_raises(self):
        # Force a state where the endgame receives nothing: n=0 cannot be
        # produced through the API (check_rank guards), so exercise the
        # guard through a raw SPMD program.
        from repro.machine import run_spmd

        prog = _endgame_program(lambda rank: np.array([]), 1)
        with pytest.raises(repro.WorkerError) as ei:
            run_spmd(prog, 2)
        assert isinstance(ei.value.cause, ConvergenceError)
        assert "endgame reached with no surviving keys" in str(ei.value.cause)

    def test_endgame_with_bad_rank_raises(self):
        from repro.machine import run_spmd

        prog = _endgame_program(
            lambda rank: np.arange(3.0) if rank == 0 else np.array([]), 99
        )
        with pytest.raises(repro.WorkerError) as ei:
            run_spmd(prog, 2)
        assert isinstance(ei.value.cause, ConvergenceError)
        assert "endgame rank 99 inconsistent with 3 survivors" in str(
            ei.value.cause
        )
