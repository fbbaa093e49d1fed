"""Edge-case grid: the degenerate shapes every query path must survive,
plus the regression pins for the two serving-tier bugfixes —

* out-of-range ranks are rejected BEFORE any SPMD launch (they used to
  burn a launch and surface as WorkerError), and
* in-place shard mutation changes the array fingerprint (the result
  cache used to serve pre-mutation answers).
"""

import numpy as np
import pytest

import repro
from repro.selection import ALGORITHMS as REGISTRY

# The six contraction algorithms (every registry entry with a pivot
# strategy), plus "auto": the planner must never crash where the
# algorithms themselves must not.
ALGORITHMS = sorted(
    name for name, spec in REGISTRY.items() if spec.strategy is not None
) + ["auto"]


def oracle(data, k):
    return float(np.sort(data.gather())[k - 1])


# ---------------------------------------------------------------------------
# Regression: out-of-range rank k must never reach a launch
# ---------------------------------------------------------------------------


class TestOutOfRangeRankPreLaunch:
    """A bad rank used to execute a full SPMD launch and come back as
    WorkerError; now every entry path raises ConfigurationError with
    ``Machine.launch_count`` unchanged."""

    @pytest.fixture
    def setup(self):
        machine = repro.Machine(n_procs=4)
        data = machine.generate(1000, seed=0)
        return machine, data

    @pytest.mark.parametrize("bad_k", [0, -1, 1001, 10**9])
    def test_fluent_select(self, setup, bad_k):
        machine, data = setup
        before = machine.launch_count
        with pytest.raises(repro.ConfigurationError, match="out of range"):
            data.select(bad_k)
        assert machine.launch_count == before

    def test_legacy_select_and_multi_select(self, setup):
        machine, data = setup
        before = machine.launch_count
        with pytest.raises(repro.ConfigurationError, match="out of range"):
            repro.select(data, 0)
        with pytest.raises(repro.ConfigurationError, match="out of range"):
            repro.multi_select(data, [1, 500, 1001])
        assert machine.launch_count == before

    def test_deferred_session_query(self, setup):
        machine, data = setup
        session = machine.session()
        before = machine.launch_count
        with pytest.raises(repro.ConfigurationError, match="out of range"):
            session.select(data, -5)
        with pytest.raises(repro.ConfigurationError, match="out of range"):
            session.multi_select(data, [500, 0])
        assert session.pending_count == 0, (
            "a rejected query must not linger in the pending queue"
        )
        assert machine.launch_count == before

    def test_sketch_prefilter_path(self, setup):
        machine, data = setup
        before = machine.launch_count
        with pytest.raises(repro.ConfigurationError, match="out of range"):
            data.select(1001, prefilter="sketch")
        assert machine.launch_count == before

    def test_non_integral_rank(self, setup):
        machine, data = setup
        before = machine.launch_count
        for bad in (1.5, "7", True):
            with pytest.raises(repro.ConfigurationError):
                data.select(bad)
        assert machine.launch_count == before

    def test_boundary_ranks_still_work(self, setup):
        _machine, data = setup
        assert data.select(1).value == oracle(data, 1)
        assert data.select(1000).value == oracle(data, 1000)


# ---------------------------------------------------------------------------
# Regression: in-place shard mutation must not serve stale cached answers
# ---------------------------------------------------------------------------


class TestMutationInvalidatesCache:
    def test_inplace_overwrite_changes_median(self):
        machine = repro.Machine(n_procs=4)
        data = machine.distribute(np.arange(1.0, 101.0))
        stale = data.median().value
        data.shards[0][:] = 999.0
        fresh = data.median()
        assert fresh.value != stale, (
            "post-mutation query served a stale cached answer"
        )
        assert fresh.value == oracle(data, (data.n + 1) // 2)

    def test_single_element_edit_at_probe_point(self):
        machine = repro.Machine(n_procs=2)
        data = machine.distribute(np.arange(1.0, 11.0))
        assert data.select(10).value == 10.0
        data.shards[1][-1] = 1000.0  # last element: probe-visible
        assert data.select(10).value == 1000.0

    def test_fingerprint_changes_on_mutation(self):
        machine = repro.Machine(n_procs=2)
        data = machine.distribute(np.arange(1.0, 101.0))
        fp = data.fingerprint
        data.shards[0][0] = -1.0
        assert data.fingerprint != fp

    def test_probe_invisible_mutation_needs_invalidate(self):
        # The documented limit of the 3-point probe: an interior write
        # that leaves first/middle/last of every shard intact still
        # requires an explicit invalidate().
        machine = repro.Machine(n_procs=1)
        data = machine.distribute(np.arange(1.0, 102.0))
        fp = data.fingerprint
        data.shards[0][1] = 500.0  # interior, probe-blind
        assert data.fingerprint == fp
        data.invalidate()
        assert data.fingerprint != fp

    def test_mutation_through_service(self):
        import asyncio

        from repro.serve import SelectionService

        machine = repro.Machine(n_procs=2)

        async def main():
            async with SelectionService(machine, window=0.001) as svc:
                data = svc.register("d", np.arange(1.0, 101.0))
                stale = (await svc.median("d")).value
                data.shards[0][:] = 999.0
                fresh = (await svc.median("d")).value
                return stale, fresh, oracle(data, (data.n + 1) // 2)

        stale, fresh, expected = asyncio.run(main())
        assert fresh != stale and fresh == expected


# ---------------------------------------------------------------------------
# Degenerate sizes: n=1, n < p, empty
# ---------------------------------------------------------------------------


class TestDegenerateSizes:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_single_element(self, algorithm):
        machine = repro.Machine(n_procs=4)
        data = machine.distribute(np.array([7.25]))
        rep = data.select(1, algorithm=algorithm)
        assert rep.value == 7.25
        assert data.median(algorithm=algorithm).value == 7.25

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_fewer_keys_than_processors(self, algorithm):
        machine = repro.Machine(n_procs=8)
        data = machine.distribute(np.array([5.0, 1.0, 3.0]))
        got = [data.select(k, algorithm=algorithm).value for k in (1, 2, 3)]
        assert got == [1.0, 3.0, 5.0]

    def test_single_element_quantiles(self):
        machine = repro.Machine(n_procs=4)
        data = machine.distribute(np.array([2.5]))
        reports = data.quantiles([0.25, 0.5, 1.0])
        assert [r.value for r in reports] == [2.5, 2.5, 2.5]

    def test_empty_array_queries_fail_clean(self):
        machine = repro.Machine(n_procs=4)
        data = machine.distribute(np.array([]))
        before = machine.launch_count
        with pytest.raises(repro.ConfigurationError):
            data.select(1)
        with pytest.raises(repro.ConfigurationError):
            data.median()
        assert data.multi_select([]).values == []
        assert machine.launch_count == before


# ---------------------------------------------------------------------------
# Streaming edges: empty stream, retire-all-then-query
# ---------------------------------------------------------------------------


class TestStreamingEdges:
    def test_empty_stream_query(self):
        machine = repro.Machine(n_procs=4)
        stream = machine.stream()
        before = machine.launch_count
        assert stream.n == 0
        with pytest.raises(repro.ConfigurationError):
            stream.select(1)
        with pytest.raises(repro.ConfigurationError):
            stream.median()
        assert machine.launch_count == before

    def test_retire_all_then_query(self):
        machine = repro.Machine(n_procs=4)
        stream = machine.stream(window=2, window_mode="sliding")
        stream.append(np.arange(0.0, 10.0))
        stream.append(np.arange(10.0, 20.0))
        assert stream.median().value is not None
        # Two more appends slide BOTH original batches out...
        stream.append(np.arange(100.0, 110.0))
        stream.append(np.arange(110.0, 120.0))
        assert stream.n == 20
        assert stream.select(1).value == 100.0
        # ...and retiring down to nothing must fail clean, not launch.
        empty = machine.stream()
        bid = empty.append(np.arange(4.0))
        empty.retire(bid)
        assert empty.n == 0
        before = machine.launch_count
        with pytest.raises(repro.ConfigurationError):
            empty.select(1)
        assert machine.launch_count == before


# ---------------------------------------------------------------------------
# Duplicate-heavy and duplicate-target queries
# ---------------------------------------------------------------------------


class TestDuplicatesAndQuantiles:
    def test_all_equal_keys_under_sketch_prefilter(self):
        machine = repro.Machine(n_procs=4)
        data = machine.distribute(np.full(5000, 3.5))
        plain = data.select(2500)
        sketchy = data.select(2500, prefilter="sketch")
        assert plain.value == sketchy.value == 3.5

    def test_quantile_bounds(self):
        machine = repro.Machine(n_procs=4)
        data = machine.generate(1000, seed=1)
        before = machine.launch_count
        for bad_q in (0.0, -0.1, 1.0001):
            with pytest.raises(repro.ConfigurationError, match="outside"):
                data.quantiles([bad_q])
        assert machine.launch_count == before
        lo, hi = data.quantiles([1e-9, 1.0])
        assert lo.value == oracle(data, 1)
        assert hi.value == oracle(data, 1000)

    def test_duplicate_quantile_targets(self):
        machine = repro.Machine(n_procs=4)
        data = machine.generate(1000, seed=2)
        reports = data.quantiles([0.5, 0.5, 0.5])
        assert len({r.value for r in reports}) == 1

    def test_duplicate_multi_select_targets(self):
        machine = repro.Machine(n_procs=4)
        data = machine.generate(1000, seed=3)
        rep = data.multi_select([500, 7, 500, 7, 500])
        assert rep.ks == [500, 7, 500, 7, 500]
        assert rep.values[0] == rep.values[2] == rep.values[4]
        assert rep.values[1] == rep.values[3] == oracle(data, 7)
