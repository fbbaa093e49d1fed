"""CostedKernels: every kernel does the work AND charges the right cost."""

import numpy as np
import pytest

from repro.kernels import CostedKernels
from repro.kernels.buckets import BucketScan
from repro.machine import CM5, run_spmd


def run_with_kernels(fn):
    """Run fn(K, ctx) on one rank; return (result, compute_seconds)."""

    def prog(ctx):
        K = CostedKernels(ctx)
        out = fn(K, ctx)
        return out, ctx.clock.breakdown().compute

    res = run_spmd(prog, 1)
    return res.values[0]


class TestPartitionCharges:
    def test_partition3_charges_per_element(self):
        # The pivot split: a band collapsed onto one value.
        arr = np.arange(1000.0)
        (split, cost) = run_with_kernels(
            lambda K, ctx: K.split_band(arr, 500.0, 500.0)
        )
        assert split.counts.tolist() == [500, 1, 499]
        assert cost == pytest.approx(1000 * CM5.compute.partition)

    def test_partition2(self):
        arr = np.arange(100.0)
        (parts, cost) = run_with_kernels(lambda K, ctx: K.partition2(arr, 50.0))
        assert parts.n_le == 51
        assert cost == pytest.approx(100 * CM5.compute.partition)

    def test_count3(self):
        arr = np.arange(64.0)
        (counts, cost) = run_with_kernels(lambda K, ctx: K.count3(arr, 10.0))
        assert counts == (10, 1, 53)
        assert cost > 0

    def test_partition_band(self):
        arr = np.arange(10.0)
        (split, cost) = run_with_kernels(
            lambda K, ctx: K.split_band(arr, 3.0, 6.0)
        )
        assert split.counts.tolist() == [3, 4, 3]
        assert split.segment(1).tolist() == [3, 4, 5, 6]
        assert cost == pytest.approx(10 * CM5.compute.partition)

    @pytest.mark.parametrize(
        "n_cuts, depth", [(1, 1), (2, 2), (3, 2), (4, 3), (7, 3), (8, 4)]
    )
    def test_partition_multiway_charges_probe_depth(self, n_cuts, depth):
        # Each key binary-searches the cuts: ceil(log2(c + 1)) probes.
        arr = np.arange(1000.0)
        cuts = np.linspace(100.0, 900.0, n_cuts)
        (split, cost) = run_with_kernels(
            lambda K, ctx: K.split_multiway(arr, cuts)
        )
        assert int(split.counts.sum()) == 1000
        assert cost == pytest.approx(1000 * depth * CM5.compute.partition)


class TestSelectCharges:
    def test_method_sets_price_not_impl(self):
        arr = np.random.default_rng(0).random(2000)

        (_, det_cost) = run_with_kernels(
            lambda K, ctx: K.select_kth(arr, 1000, "deterministic",
                                        impl="introselect")
        )
        (_, rnd_cost) = run_with_kernels(
            lambda K, ctx: K.select_kth(arr, 1000, "randomized",
                                        impl="introselect")
        )
        assert det_cost == pytest.approx(2000 * CM5.compute.select_deterministic)
        assert rnd_cost == pytest.approx(2000 * CM5.compute.select_randomized)

    def test_value_same_across_impls(self):
        arr = np.random.default_rng(1).random(999)
        (a, _) = run_with_kernels(
            lambda K, ctx: K.select_kth(arr, 500, "deterministic")
        )
        (b, _) = run_with_kernels(
            lambda K, ctx: K.select_kth(arr, 500, "deterministic",
                                        impl="introselect")
        )
        assert a == b

    def test_local_median(self):
        arr = np.array([3.0, 1.0, 2.0])
        (v, _) = run_with_kernels(lambda K, ctx: K.local_median(arr, "randomized"))
        assert v == 2.0

    def test_sort_charges_nlogn(self):
        arr = np.random.default_rng(2).random(1024)
        (_, cost) = run_with_kernels(lambda K, ctx: K.sort(arr))
        assert cost == pytest.approx(CM5.compute.sort_per_cmp * 1024 * 10)


class TestBucketCharges:
    def test_build_buckets_charges(self):
        arr = np.random.default_rng(3).random(512)
        (b, cost) = run_with_kernels(lambda K, ctx: K.build_buckets(arr, 8))
        assert b.total == 512
        assert cost > 0

    def test_scan_evidence_partition_vs_select(self):
        scan = BucketScan(touched=100, probes=3)

        (_, part_cost) = run_with_kernels(
            lambda K, ctx: K.charge_scan_evidence(scan)
        )
        (_, sel_cost) = run_with_kernels(
            lambda K, ctx: K.charge_scan_evidence(scan,
                                                  select_method="deterministic")
        )
        assert sel_cost > part_cost


class TestMiscCharges:
    def test_weighted_median(self):
        (v, cost) = run_with_kernels(
            lambda K, ctx: K.weighted_median(np.array([1.0, 5.0]),
                                             np.array([1.0, 3.0]))
        )
        assert v == 5.0 and cost > 0

    def test_rng_draw(self):
        (_, cost) = run_with_kernels(lambda K, ctx: K.rng_draw())
        assert cost == pytest.approx(CM5.compute.rng_draw)

    def test_scan_pass(self):
        (_, cost) = run_with_kernels(lambda K, ctx: K.scan_pass(100))
        assert cost == pytest.approx(100 * CM5.compute.scan)

    def test_scan_pass_negative_clamped(self):
        (_, cost) = run_with_kernels(lambda K, ctx: K.scan_pass(-10))
        assert cost == 0.0
