#!/usr/bin/env python
"""Unified telemetry in one screen: spans, metrics, Perfetto export.

One traced multi-rank query runs under an active :class:`repro.obs.capture`.
The capture records the whole span tree — query → SPMD launch → contraction
iterations and per-collective rounds — on both the wall clock and the
simulated clock, the metrics registry counts launches and
predicted-vs-actual cost residuals, and the span set exports to a Chrome
trace-event file loadable at https://ui.perfetto.dev.

Capture is OFF by default and free: the same query without it produces
bit-identical values, RNG streams and simulated times.

Run:  python examples/obs_quickstart.py
"""

import json
import tempfile
from pathlib import Path

import repro
from repro import obs
from repro.obs.export import validate_chrome
from repro.obs.metrics import REGISTRY
from repro.obs.spans import format_tree


def main():
    n, p = 200_000, 4

    # Baseline: capture off (the default). Nothing is recorded.
    base_data = repro.Machine(p).generate(n, seed=11)
    baseline = base_data.multi_select([1, n // 2, n])
    base_median = base_data.select(n // 2)
    assert not obs.enabled()

    # Same queries under a capture, with per-launch tracing for round spans.
    with obs.capture() as rec:
        machine = repro.Machine(p, trace=True)
        data = machine.generate(n, seed=11)
        report = data.multi_select([1, n // 2, n])
        # A one-shot launch of its own: data.select(n // 2) would be served
        # from the multi_select's cache entry, and a three-rank launch has
        # no closed-form cost prediction to show.
        median = repro.select(data, n // 2)

    assert report.values == baseline.values, "capture must not perturb"
    assert report.simulated_time == baseline.simulated_time
    assert median.value == base_median.value

    print(f"multi_select(n={n}, p={p}) -> {len(report.values)} answers, "
          f"{report.simulated_time * 1e3:.2f} ms simulated")
    print(f"select(k={n // 2}): cost model predicted "
          f"{median.predicted_time * 1e3:.2f} ms, actual "
          f"{median.simulated_time * 1e3:.2f} ms "
          f"(residual {median.cost_residual * 1e3:+.3f} ms)")

    print(f"\ncaptured {len(rec.spans)} spans:")
    tree = format_tree(rec, max_children=4)
    print("\n".join(tree.splitlines()[:16]))

    print("\nmetrics registry:")
    for metric in REGISTRY.find("repro."):
        row = metric.as_row()
        keys = ("value", "count", "mean")
        stats = ", ".join(f"{k}={row[k]:.6g}" for k in keys if k in row)
        print(f"  {row['name']}: {stats}")

    out = Path(tempfile.mkdtemp()) / "trace.json"
    n_events = obs.export(out, recorder=rec)
    doc = json.loads(out.read_text())
    assert not validate_chrome(doc), "export must be a valid Chrome trace"
    print(f"\nwrote {n_events} Chrome trace events to {out}")
    print("open https://ui.perfetto.dev and load the file to explore "
          "(sim-time and wall-time tracks, one row per rank)")


if __name__ == "__main__":
    main()
