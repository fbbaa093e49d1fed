"""Benchmark of the selection library: one workload, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload point_select --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` is a timed run: one pass of the workload with tracing off,
reporting the end-to-end metrics. ``--trace 1`` is the traced run: an
untraced pass, two traced passes and one pass under ``repro.obs.capture()``
of the same seed, reporting the per-layer metrics and failing (exit 3,
naming the metric) if a count or the simulated time differs between
passes. Both print every metric with its unit, then a provenance line,
then, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Every answer is checked
against ``np.partition`` of the benchmark's own copy of the keys; a wrong
answer makes the run exit 1. Results, and the spans of the traced run,
are also written under ``.bench_out/``.

The library is imported from ``src/`` of the checkout this file sits in;
without it the run exits 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

#: name -> (unit, better); the order is the print order.
END_TO_END = {
    "latency_p50_xpart": ("ratio", "lower"),
    "latency_p90_xpart": ("ratio", "lower"),
    "throughput_xpart": ("ratio", "higher"),
    "sim_time_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "answered_frac": ("fraction", "higher"),
}
PER_LAYER = {
    "serve.launches_per_query": ("ratio", "lower"),
    "serve.cache_hit_frac": ("fraction", "higher"),
    "serve.flush_cycles": ("count", "lower"),
    "serve.flush_ms_p50": ("ms", "lower"),
    "session.launches": ("count", "lower"),
    "session.cache_misses": ("count", "lower"),
    "session.query_overhead_ms": ("ms", "lower"),
    "planner.resolve_ms_p50": ("ms", "lower"),
    "planner.resolves_per_query": ("ratio", "lower"),
    "stream.append_ms_p50": ("ms", "lower"),
    "stream.fingerprint_ms_p50": ("ms", "lower"),
    "stream.shards_ms_p50": ("ms", "lower"),
    "stream.sketch_ms_p50": ("ms", "lower"),
    "stream.survivor_frac": ("fraction", "lower"),
    "machine.launches_per_query": ("ratio", "lower"),
    "machine.forks_per_launch": ("ratio", "lower"),
    "machine.reuses_per_launch": ("ratio", "higher"),
    "machine.launch_ms_p50": ("ms", "lower"),
    "machine.empty_launch_ms": ("ms", "lower"),
    "machine.combine_us": ("us", "lower"),
    "collectives.calls_per_query": ("count", "lower"),
    "collectives.ms_per_query": ("ms", "lower"),
    "collectives.share": ("fraction", "lower"),
    "kernels.calls_per_query": ("count", "lower"),
    "kernels.ms_per_query": ("ms", "lower"),
    "kernels.share": ("fraction", "lower"),
    "selection.iterations_per_query": ("count", "lower"),
    "selection.endgame_keys": ("count", "lower"),
    "selection.sim_comm_frac": ("fraction", "lower"),
    "obs.capture_overhead_frac": ("fraction", "lower"),
    "host.np_partition_ms": ("ms", "lower"),
    "host.latency_p50_ms": ("ms", "lower"),
    "host.latency_p90_ms": ("ms", "lower"),
    "host.trace_overhead_frac": ("fraction", "lower"),
}

#: Deterministic counts only the traced passes see.
TRACED_COUNTS = ("collectives.calls_per_query", "kernels.calls_per_query")


class NonDeterminism(Exception):
    """Two passes of one seed disagreed on a count or a simulated time."""


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q))


def end_to_end(res) -> dict[str, float]:
    base = statistics.median(res.baselines)
    answered = res.attempted - len(res.failures)
    return {
        "latency_p50_xpart": percentile(res.latencies, 50) / base,
        "latency_p90_xpart": percentile(res.latencies, 90) / base,
        "throughput_xpart": len(res.latencies) / res.busy_s * base,
        "sim_time_s": statistics.median(res.sims),
        "setup_s": statistics.median(res.setup_s),
        "peak_rss_mb": res.peak_rss_mb,
        "answered_frac": answered / res.attempted,
    }


def repeatables(res, tracer=None) -> dict:
    """The values a pass must reproduce exactly."""
    out = {"sim_time_s": list(res.sims),
           "selection.iterations_per_query": list(res.iterations)}
    out.update({k if "." in k else f"machine.{k}": v
                for k, v in res.counts.items()})
    if tracer is not None:
        layer = tracer.layer_metrics(res.attempted, res.timed_from_ns)
        out.update({k: layer[k] for k in TRACED_COUNTS})
    return out


def compare(label: str, first: dict, second: dict) -> None:
    for key in sorted(set(first) & set(second)):
        if first[key] != second[key]:
            raise NonDeterminism(
                f"{key} differs between two passes of one seed ({label}): "
                f"{_short(first[key])} vs {_short(second[key])}"
            )


def _short(value) -> str:
    text = repr(value)
    return text if len(text) < 120 else text[:117] + "..."


def overhead(slow, plain) -> float:
    """Extra wall time per query of pass ``slow`` over pass ``plain``,
    each normalised by its own baseline so host drift between the two
    passes cancels."""
    def cost(res):
        return res.busy_s / res.attempted / statistics.median(res.baselines)
    return cost(slow) / cost(plain) - 1.0


def traced_run(workload_cls, seed: int, count: int):
    import repro.obs
    from tracing import SpanTracer
    from workloads import machine_probes

    plain = workload_cls(seed).run(count)
    tracers, traced = [], []
    for _ in range(2):
        tracer = SpanTracer()
        with tracer.installed():
            traced.append(workload_cls(seed).run(count))
        tracers.append(tracer)
    with repro.obs.capture(max_spans=1_000_000):
        captured = workload_cls(seed).run(count)

    first = repeatables(traced[0], tracers[0])
    compare("traced vs traced", first,
            repeatables(traced[1], tracers[1]))
    compare("untraced vs traced", repeatables(plain), first)
    compare("obs capture vs traced", repeatables(captured), first)

    res, tracer = traced[0], tracers[0]
    q = res.attempted
    c = res.counts
    launches = c["launches"]
    lookups = c.get("serve.cache_hits", 0) + c["session.cache_misses"]
    metrics = {
        "serve.launches_per_query": c.get("serve.launches", 0) / q,
        "serve.cache_hit_frac":
            c.get("serve.cache_hits", 0) / lookups if lookups else 0.0,
        "serve.flush_cycles": c.get("serve.flush_cycles", 0),
        "session.launches": c["session.launches"],
        "session.cache_misses": c["session.cache_misses"],
        "stream.survivor_frac": statistics.median(res.survivors),
        "machine.launches_per_query": launches / q,
        "machine.forks_per_launch": c["forks"] / launches if launches else 0,
        "machine.reuses_per_launch": c["reuses"] / launches if launches else 0,
        "selection.iterations_per_query": statistics.fmean(res.iterations),
        "selection.endgame_keys": statistics.median(res.endgames),
        "selection.sim_comm_frac": statistics.median(res.comm_fracs),
        "obs.capture_overhead_frac": overhead(captured, plain),
        "host.np_partition_ms": statistics.median(plain.baselines) * 1e3,
        "host.latency_p50_ms": percentile(plain.latencies, 50) * 1e3,
        "host.latency_p90_ms": percentile(plain.latencies, 90) * 1e3,
        "host.trace_overhead_frac": overhead(res, plain),
    }
    metrics.update(tracer.layer_metrics(q, res.timed_from_ns))
    metrics.update(machine_probes(res.machine))
    passes = [plain, *traced, captured]
    return metrics, passes, tracer


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) CPU ticks of the host so far, from ``/proc/stat``."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    except OSError:
        return None
    ticks = [int(x) for x in fields[1:9]]
    return ticks[7], sum(ticks)


def provenance(args, count: int, ticks_before) -> dict:
    ticks_after = cpu_ticks()
    steal = None
    if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
        # Share of CPU time the hypervisor gave to other guests while this
        # run was measuring: the usual cause of a slow outlier run.
        steal = ((ticks_after[0] - ticks_before[0])
                 / (ticks_after[1] - ticks_before[1]))
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "queries": count,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu": cpu,
        "cpus_used": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(), "numpy": np.__version__,
        "commit": _commit(), "src_sha1": src.hexdigest(),
        "steal_frac": steal,
    }


def _commit() -> str:
    """HEAD of the checkout's git repository, if it is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["point_select", "quantile_batch",
                                 "serve_stream"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import SETUP_REPS, WORKLOADS, query_count

    ticks = cpu_ticks()
    count = query_count(args.workload, args.seconds, bool(args.trace))
    workload_cls = WORKLOADS[args.workload]
    if workload_cls.pin_one_cpu and hasattr(os, "sched_setaffinity"):
        # Before any thread starts: threads inherit the creator's mask.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        try:
            metrics, passes, tracer = traced_run(workload_cls, args.seed,
                                                 count)
        except NonDeterminism as exc:
            print(f"perfbench: NOT DETERMINISTIC: {exc}", file=sys.stderr)
            return 3
        tracer.write_jsonl(OUT / f"spans-{tag}.jsonl")
        table = PER_LAYER
    else:
        passes = [workload_cls(args.seed).run(count, setup_reps=SETUP_REPS)]
        metrics = end_to_end(passes[0])
        table = END_TO_END

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    correct = not any(p.wrong for p in passes)
    prov = provenance(args, count, ticks)
    for name, (unit, _better) in table.items():
        print(f"{name:34s} {metrics[name]:>16.6g} {unit}")
    for line in failures:
        print(f"FAILED {line}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, (unit, _better) in table.items()},
    }
    OUT.mkdir(exist_ok=True)
    # Raw wall figures of the untraced pass, kept for inspection.
    raw = {
        "np_partition_ms": statistics.median(passes[0].baselines) * 1e3,
        "latency_p50_ms": percentile(passes[0].latencies, 50) * 1e3,
        "latency_p90_ms": percentile(passes[0].latencies, 90) * 1e3,
        "setup_s": passes[0].setup_s,
        "latencies_s": passes[0].latencies,
        "baselines_s": passes[0].baselines,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {**result, "raw": raw, "provenance": prov, "failures": failures},
        indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
