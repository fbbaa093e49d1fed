"""Per-layer tracing from outside the library.

The traced run wraps the public entry points of each layer of ``repro``
(serve -> session -> planner -> stream -> machine -> collectives ->
kernels) for the duration of one pass, records one span per call, and
restores every attribute afterwards. ``src/`` is never edited: the
wrappers are installed on the classes and modules at run time.

A span is ``(id, parent, root, name, t0_ns, t1_ns, thread)``. ``root`` is
the id of the outermost span of the unit of work: one query in the
single-caller workloads, one flush cycle (which answers several queries)
under the serving tier. Spans are kept in memory and written out once,
after the pass.

Rank threads of the ``threaded`` backend start with an empty span stack;
their collective and kernel spans hang under the launch span that is in
flight (the workloads make one launch at a time). On the ``pool``
backend ranks run in worker processes, so the trace there stops at the
launch span.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import statistics
import threading
import time
from pathlib import Path

import repro.planner.planner as planner_module
from repro.core.session import Session
from repro.kernels.costed import CostedKernels
from repro.machine.collectives import CollectiveEngine
from repro.machine.engine import SPMDRuntime
from repro.serve.service import SelectionService
from repro.stream.stream import StreamingArray

COLLECTIVE_METHODS = (
    "broadcast", "combine", "prefix", "gather", "allgather", "alltoallv",
    "pairwise_exchange", "barrier_sync",
)
KERNEL_METHODS = tuple(
    name for name, fn in vars(CostedKernels).items()
    if callable(fn) and not name.startswith("_")
)
SESSION_METHODS = ("flush", "run_select", "run_multi_select")


class SpanTracer:
    """In-memory span recorder shared by every thread of one pass."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: The launch span in flight: parent of rank-thread spans.
        self._launch: tuple[int, int] | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, nest: bool = True):
        """Record one span around the body.

        ``nest=False`` records a root span that does not become the parent
        of later spans in this thread (coroutines of one event loop
        interleave, so a stack would mis-nest them).
        """
        stack = self._stack()
        if not nest:
            parent, root = None, None
        elif stack:
            parent, root = stack[-1]
        elif self._launch is not None:
            parent, root = self._launch
        else:
            parent, root = None, None
        sid = next(self._ids)
        if root is None:
            root = sid
        if nest:
            stack.append((sid, root))
        t0 = time.perf_counter_ns()
        try:
            yield sid, root
        finally:
            t1 = time.perf_counter_ns()
            if nest:
                stack.pop()
            self.spans.append(
                (sid, parent, root, name, t0, t1, threading.get_ident())
            )

    # ------------------------------------------------------------ wrappers

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _wrap_launch(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span("machine.launch") as ids:
                previous, self._launch = self._launch, ids
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._launch = previous
        return wrapper

    def _wrap_async(self, name: str, fn):
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            with self.span(name, nest=False):
                return await fn(*args, **kwargs)
        return wrapper

    def _wrap_lazy_property(self, name: str, prop, memo_attr: str):
        """Record only the accesses that compute (memo slot empty); the
        memoised accesses are attribute reads and would swamp the p50."""
        def fget(obj):
            if getattr(obj, memo_attr) is not None:
                return prop.fget(obj)
            with self.span(name):
                return prop.fget(obj)
        return property(fget, doc=prop.__doc__)

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block."""
        patches: list[tuple[object, str, object]] = [
            (SelectionService, "quantile",
             self._wrap_async("serve.query", SelectionService.quantile)),
            (planner_module, "resolve_auto",
             self._wrap("planner.resolve_auto", planner_module.resolve_auto)),
            (SPMDRuntime, "run", self._wrap_launch(SPMDRuntime.run)),
            (StreamingArray, "append",
             self._wrap("stream.append", StreamingArray.append)),
            (StreamingArray, "local_sketches",
             self._wrap("stream.sketch", StreamingArray.local_sketches)),
            (StreamingArray, "fingerprint", self._wrap_lazy_property(
                "stream.fingerprint", vars(StreamingArray)["fingerprint"],
                "_fingerprint")),
            (StreamingArray, "shards", self._wrap_lazy_property(
                "stream.shards", vars(StreamingArray)["shards"],
                "_shards_cache")),
        ]
        patches += [
            (Session, m, self._wrap(f"session.{m}", getattr(Session, m)))
            for m in SESSION_METHODS
        ]
        patches += [
            (CollectiveEngine, m,
             self._wrap(f"collectives.{m}", getattr(CollectiveEngine, m)))
            for m in COLLECTIVE_METHODS
        ]
        patches += [
            (CostedKernels, m,
             self._wrap(f"kernels.{m}", getattr(CostedKernels, m)))
            for m in KERNEL_METHODS
        ]
        saved = [(owner, attr, vars(owner)[attr])
                 for owner, attr, _ in patches]
        try:
            for owner, attr, new in patches:
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, old in saved:
                setattr(owner, attr, old)

    # ------------------------------------------------------------ analysis

    def self_times(self) -> dict[int, int]:
        """Span id -> duration minus the union of its children's
        intervals (children may overlap: rank threads run in parallel)."""
        children: dict[int, list[tuple[int, int]]] = {}
        for sid, parent, _root, _name, t0, t1, _tid in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((t0, t1))
        out = {}
        for sid, _parent, _root, _name, t0, t1, _tid in self.spans:
            covered = 0
            cur_lo = cur_hi = None
            for lo, hi in sorted(children.get(sid, ())):
                lo, hi = max(lo, t0), min(hi, t1)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[sid] = (t1 - t0) - covered
        return out

    def layer_metrics(self, n_queries: int,
                      since_ns: int = 0) -> dict[str, float]:
        """The span-derived per-layer metrics of one traced pass, over the
        spans that started at ``since_ns`` or later (the timed queries;
        set-up and its warm query stay out)."""
        selfs = self.self_times()
        spans = [s for s in self.spans if s[4] >= since_ns]
        by_layer: dict[str, list[tuple]] = {}
        for span in spans:
            by_layer.setdefault(span[3].split(".", 1)[0], []).append(span)

        def durations_ms(name: str) -> list[float]:
            return [(s[5] - s[4]) / 1e6 for s in spans if s[3] == name]

        def p50(values: list[float]) -> float:
            return statistics.median(values) if values else 0.0

        q = max(n_queries, 1)
        coll = by_layer.get("collectives", [])
        kern = by_layer.get("kernels", [])
        coll_ms = sum(s[5] - s[4] for s in coll) / 1e6
        kern_ms = sum(selfs[s[0]] for s in kern) / 1e6
        rank_ms = coll_ms + kern_ms
        launch_ms_by_parent: dict[int, float] = {}
        for s in by_layer.get("machine", []):
            if s[1] is not None:
                launch_ms_by_parent[s[1]] = (
                    launch_ms_by_parent.get(s[1], 0.0) + (s[5] - s[4]) / 1e6
                )
        # Query wall minus launch wall, over the session calls that
        # launched (cache-only flushes have nothing to subtract).
        overheads = [
            (s[5] - s[4]) / 1e6 - launch_ms_by_parent[s[0]]
            for s in by_layer.get("session", [])
            if s[0] in launch_ms_by_parent
        ]
        return {
            "serve.flush_ms_p50": p50(durations_ms("session.flush")),
            "session.query_overhead_ms": p50(overheads),
            "planner.resolve_ms_p50": p50(durations_ms("planner.resolve_auto")),
            "planner.resolves_per_query":
                len(durations_ms("planner.resolve_auto")) / q,
            "stream.append_ms_p50": p50(durations_ms("stream.append")),
            "stream.fingerprint_ms_p50": p50(durations_ms("stream.fingerprint")),
            "stream.shards_ms_p50": p50(durations_ms("stream.shards")),
            "stream.sketch_ms_p50": p50(durations_ms("stream.sketch")),
            "machine.launch_ms_p50": p50(durations_ms("machine.launch")),
            "collectives.calls_per_query": len(coll) / q,
            "collectives.ms_per_query": coll_ms / q,
            "collectives.share": coll_ms / rank_ms if rank_ms else 0.0,
            "kernels.calls_per_query": len(kern) / q,
            "kernels.ms_per_query": kern_ms / q,
            "kernels.share": kern_ms / rank_ms if rank_ms else 0.0,
        }

    def write_jsonl(self, path: Path) -> None:
        """Write every span, with its self time, one JSON object a line."""
        selfs = self.self_times()
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for sid, parent, root, name, t0, t1, tid in sorted(
                    self.spans, key=lambda s: s[4]):
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "root": root, "name": name,
                    "start_ns": t0, "end_ns": t1, "self_ns": selfs[sid],
                    "thread": tid,
                }) + "\n")
