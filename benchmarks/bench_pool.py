"""Persistent pool backend + fast kernels: the perf PR's acceptance bar.

Claims pinned here:

1. A repeated-launch workload (many selections over the same distributed
   array — the Session serving pattern) produces the SAME values and the
   SAME summed simulated seconds on ``threaded``, ``process`` and
   ``pool``, and the pool's fork receipt for the whole sequence is
   exactly ONE: launches after the first ride warm workers over pinned
   shared-memory shards.
2. On a multi-core host at the paper's large n (>= 2M), the pool's
   whole-sequence wall clock beats BOTH per-launch rivals: ``process``
   (which re-forks and re-pickles every launch) and ``threaded`` (which
   serialises the GIL-churning sequential kernels). Skipped on
   single-core machines, where no forked backend can win wall clock.
3. The lazy split is a real wall-clock win where it matters most: a
   single-cut multiway split — the contraction loop's hottest kernel —
   materialising all three segments runs >= 3x faster than the eager
   reference ``partition_multiway`` on large arrays (runs on any host;
   pure local CPU).

Full grid: ``python -m repro.bench pool --scale paper``.
"""

import os
import time

import numpy as np
import pytest

from repro.bench.harness import KILO, run_pool_point
from repro.kernels.partition import partition_multiway, split_multiway

N_IDENTITY = 128 * KILO
N_SPEEDUP = 2048 * KILO  # the acceptance bar: n >= 2M
P = 4
LAUNCHES = 6

MULTICORE = (os.cpu_count() or 1) >= 2


@pytest.mark.parametrize("algorithm", ["fast_randomized", "randomized"])
def test_repeated_launches_identical_and_one_fork(benchmark, algorithm):
    pt = benchmark.pedantic(
        run_pool_point, args=(algorithm, N_IDENTITY, P),
        kwargs=dict(launches=LAUNCHES, trials=1), rounds=1, iterations=1,
    )
    benchmark.extra_info["wall_times_s"] = dict(pt.wall_times)
    benchmark.extra_info["fork_counts"] = dict(pt.fork_counts)
    assert pt.values_agree, f"backends disagree on the answers: {pt.values}"
    assert pt.simulated_times_agree, (
        f"backends disagree on simulated time: {pt.simulated_times}"
    )
    assert pt.fork_counts["pool"] == 1, (
        f"{pt.launches} launches must cost ONE pool fork, got "
        f"{pt.fork_counts['pool']}"
    )


@pytest.mark.skipif(
    not MULTICORE,
    reason="single-core host: no forked backend can win wall clock",
)
def test_pool_beats_per_launch_backends_large_n(benchmark):
    """n >= 2M with the paper's sequential kernels (``impl_override=None``):
    forked ranks escape the GIL and the pool additionally amortises the
    per-launch fork + shard pickling that ``process`` pays every time."""
    pt = benchmark.pedantic(
        run_pool_point, args=("median_of_medians", N_SPEEDUP, P),
        kwargs=dict(launches=LAUNCHES, trials=2, impl_override=None),
        rounds=1, iterations=1,
    )
    benchmark.extra_info["wall_times_s"] = dict(pt.wall_times)
    benchmark.extra_info["pool_vs_process"] = pt.speedup("pool", "process")
    benchmark.extra_info["pool_vs_threaded"] = pt.speedup("pool", "threaded")
    assert pt.values_agree
    assert pt.simulated_times_agree
    assert pt.speedup("pool", "process") > 1.0, (
        f"pool must beat process on repeated launches, got "
        f"{pt.speedup('pool', 'process'):.2f}x "
        f"(process={pt.wall_times['process']:.3f}s, "
        f"pool={pt.wall_times['pool']:.3f}s)"
    )
    assert pt.speedup("pool", "threaded") > 1.0, (
        f"pool must beat threaded at large n on a multi-core host, got "
        f"{pt.speedup('pool', 'threaded'):.2f}x "
        f"(threaded={pt.wall_times['threaded']:.3f}s, "
        f"pool={pt.wall_times['pool']:.3f}s)"
    )


def test_fast_single_cut_partition_speedup(benchmark):
    """The contraction loop's hottest kernel: a one-cut multiway split.
    The eager reference classifies with two ``searchsorted`` passes and
    groups with an int64 stable argsort; the lazy split labels with two
    masks and gathers each segment with one more. Even materialising all
    three segments (the contraction keeps one), it is order-preserving,
    so bit-identical."""
    rng = np.random.default_rng(0)
    arr = rng.random(4 * N_SPEEDUP // 2)  # 4M doubles
    cuts = [float(np.median(arr))]

    def best_of(fn, repeats=5):
        walls = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn(arr, cuts)
            walls.append(time.perf_counter() - t0)
        return min(walls)

    def all_segments(values, cut_values):
        return split_multiway(values, cut_values).parts(range(3))

    def measure():
        return best_of(partition_multiway), best_of(all_segments)

    ref_wall, fast_wall = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = ref_wall / fast_wall
    benchmark.extra_info["reference_wall_s"] = ref_wall
    benchmark.extra_info["fast_wall_s"] = fast_wall
    benchmark.extra_info["speedup"] = speedup
    ref_parts = partition_multiway(arr, cuts)
    fast_parts = all_segments(arr, cuts)
    for r, f in zip(ref_parts, fast_parts):
        np.testing.assert_array_equal(r, f)
    assert speedup >= 3.0, (
        f"lazy single-cut split must be >= 3x reference, got "
        f"{speedup:.2f}x (ref={ref_wall * 1e3:.1f} ms, "
        f"fast={fast_wall * 1e3:.1f} ms)"
    )
