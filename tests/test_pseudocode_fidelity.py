"""Primitive-level fidelity: each algorithm issues exactly the collectives
its pseudocode box in the paper prescribes, per iteration.

Algorithm 3 (randomized):    Step 1 PrefixSum, Step 3 pivot Combine
                             (realised broadcast), Step 5 Combine.
Algorithm 1 (MoM, no LB):    Step 2 Gather, Step 3 Broadcast, Step 5 Combine.
Algorithm 2 (bucket):        Step 2 Gather (pairs), Step 3 Broadcast,
                             Step 5 Combine.
Endgame (all):               one Gather + one Broadcast.

These tests use the tracer, so they pin the *communication structure*, not
timing — a refactor that quietly added or dropped a collective per
iteration would fail here.
"""


import repro
from repro.selection import ALGORITHMS, SelectionConfig, SelectionRunner


def traced_run(algo, n=20_000, p=4, seed=0, balancer=None, dist="random"):
    machine = repro.Machine(n_procs=p, trace=True)
    data = machine.generate(n, distribution=dist, seed=seed)
    run = SelectionRunner(algo)
    from repro.balance import get_balancer

    cfg = SelectionConfig(
        balancer=get_balancer(balancer),
        sequential_method=ALGORITHMS[algo].sequential_method,
        seed=seed,
    )

    def program(ctx, shard):
        return run(ctx, shard.copy(), [(n + 1) // 2], cfg)

    result = machine.run(program, rank_args=[(s,) for s in data.shards])
    values, stats = result.values[0]
    return result.tracer, stats


class TestRandomizedStructure:
    def test_collectives_per_iteration(self):
        tracer, stats = traced_run("randomized", seed=3)
        it = stats.n_iterations
        endgame = 0 if stats.found_by_pivot else 1
        # Step 1 prefix per iteration.
        assert tracer.count("prefix", rank=0) == it
        # Initial size allreduce + per iteration: pivot combine + counts
        # combine.
        assert tracer.count("combine", rank=0) == 1 + 2 * it
        # Endgame: one gather + one broadcast.
        assert tracer.count("gather", rank=0) == endgame
        assert tracer.count("broadcast", rank=0) == endgame
        # Nothing else.
        assert tracer.count("alltoallv", rank=0) == 0
        assert tracer.count("pairwise_exchange", rank=0) == 0

    def test_all_ranks_issue_identical_sequences(self):
        tracer, _ = traced_run("randomized", seed=5)
        seq0 = [e.op for e in tracer.events(rank=0)]
        for r in range(1, 4):
            assert [e.op for e in tracer.events(rank=r)] == seq0


class TestMedianOfMediansStructure:
    def test_collectives_per_iteration_no_lb(self):
        tracer, stats = traced_run("median_of_medians", seed=1, balancer=None)
        it = stats.n_iterations
        endgame = 0 if stats.found_by_pivot else 1
        # Step 2 gather + endgame gather.
        assert tracer.count("gather", rank=0) == it + endgame
        # Step 3 broadcast + endgame broadcast.
        assert tracer.count("broadcast", rank=0) == it + endgame
        # Initial allreduce + Step 5 combine.
        assert tracer.count("combine", rank=0) == 1 + it

    def test_global_exchange_adds_one_transport_per_iteration(self):
        tracer, stats = traced_run("median_of_medians", seed=1,
                                   balancer="global_exchange")
        balanced_iters = stats.balance_invocations
        # Each global exchange: one Global Concatenate + one alltoallv.
        assert tracer.count("alltoallv", rank=0) == balanced_iters
        assert tracer.count("allgather", rank=0) == balanced_iters


class TestBucketStructure:
    def test_collectives_match_mom_shape(self):
        tracer, stats = traced_run("bucket_based", seed=2)
        it = stats.n_iterations
        endgame = 0 if stats.found_by_pivot else 1
        assert tracer.count("gather", rank=0) == it + endgame
        assert tracer.count("broadcast", rank=0) == it + endgame
        assert tracer.count("combine", rank=0) == 1 + it
        assert tracer.count("alltoallv", rank=0) == 0  # no balancing, ever


class TestDimensionExchangeStructure:
    def test_log_p_rounds_per_invocation(self):
        tracer, stats = traced_run("randomized", seed=4, p=8,
                                   balancer="dimension_exchange",
                                   dist="sorted")
        # Each invocation: log2(8)=3 dims x 2 exchanges (counts + data).
        exchanges = tracer.count("pairwise_exchange", rank=0)
        assert exchanges == stats.balance_invocations * 6


class TestFastRandomizedStructure:
    def test_sample_sort_present_each_iteration(self):
        tracer, stats = traced_run("fast_randomized", n=200_000, seed=6)
        it = stats.n_iterations
        # Each iteration runs one sample sort (1 alltoallv) and no other
        # transport when unbalanced.
        assert tracer.count("alltoallv", rank=0) == it
        # Two rank lookups (k1, k2) -> 2 broadcasts + 2 allgathers per
        # iteration, plus the sample-sort splitter broadcast, plus endgame.
        endgame = 0 if stats.found_by_pivot else 1
        assert tracer.count("broadcast", rank=0) == 3 * it + endgame
