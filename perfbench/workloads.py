"""The three benchmark workloads and the passes that drive them.

Every input — keys, query ranks, plan seeds, quantile levels, appended
batches — is a pure function of the workload seed, and a pass answers a
fixed number of queries, so two passes of one seed launch the same
programs on the same data and must report identical counts and
simulated times.

* ``point_select``: one caller, closed loop, uncached single-rank
  queries (median plus seeded offsets, one plan seed per query) over
  4,000,000 ``random`` float64 keys on a threaded p=4 machine, the
  process pinned to one CPU (see ``_ClosedLoop.pin_one_cpu``).
  1M keys (8 MB) per rank exceed a 2 MB L2, so local kernels dominate the
  rank time and collective calls are few: kernel changes show here.
* ``quantile_batch``: one caller, closed loop, one uncached
  ``multi_select`` of the 31 cut points of 32-quantiles per query over
  262,144 keys, same plan, backend and p. The multi-rank engine splits
  the live set into many key intervals, so collectives dominate over
  shards that fit in L2: rendezvous and launch-path changes show here.
* ``serve_stream``: two tenant clients (coroutines of one event loop,
  each awaiting its answer before asking again) query a
  ``SelectionService`` with its defaults (auto plan, result cache, 2 ms
  window) over a sliding 16-batch ``StreamingArray`` on a pool p=2
  machine, while a writer coroutine appends the next seeded batch after
  every 48 queries sent. The only workload with writes beside reads:
  each append invalidates the cache, rebuilds sketches and re-forks the
  pool generation, and the reads in between coalesce and hit the cache.

Latency is reported relative to the honest host-sequential baseline,
``np.partition`` for the same ranks on the benchmark's own gathered copy,
timed interleaved with the queries. Raw wall time drifts by a fifth
between processes on a small shared host; the ratio drifts far less as
long as the queries and the baseline run on the same CPUs (see
``_ClosedLoop.pin_one_cpu``).
"""

from __future__ import annotations

import asyncio
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import repro
from repro.core.session import quantile_rank
from repro.kernels.select import median_rank
from repro.planner import ResidualStore, use_store

#: Wall-clock limit of one query. A query past it counts as failed; the
#: SPMD join timeout is lowered to it too, so a stuck launch aborts
#: instead of stalling the run for the default 120 s.
QUERY_LIMIT_S = 30.0

#: Set-ups per timed run; ``setup_s`` is their median. The first one or
#: two run cold, so the median needs several more.
SETUP_REPS = 7

#: Queries per second of ``--seconds``, calibrated on a 2-core Xeon so a
#: run lasts about ``--seconds``. The count is a function of ``--seconds``
#: only, never of the clock, so count metrics repeat exactly.
QUERY_RATE = {"point_select": 7.0, "quantile_batch": 6.5, "serve_stream": 80.0}

#: Copies of the gathered keys the baseline rotates over. Where a large
#: array lands in physical memory moves ``np.partition`` over 4M keys by
#: up to a fifth from one process to the next; the queries copy their
#: shards afresh each launch and so average that out, and the baseline
#: must too.
BASELINE_COPIES = 4

#: The p90 of a timed run needs at least ten samples beyond it.
MIN_TIMED_QUERIES = 110
#: A traced run makes four passes, each a quarter of a timed run long.
TRACED_SHARE = 0.25
MIN_TRACED_QUERIES = 20


def query_count(workload: str, seconds: float, traced: bool) -> int:
    if traced:
        count = max(MIN_TRACED_QUERIES,
                    round(seconds * TRACED_SHARE * QUERY_RATE[workload]))
    else:
        count = max(MIN_TIMED_QUERIES, round(seconds * QUERY_RATE[workload]))
    if workload == "serve_stream":
        count = -(-count // SERVE_PHASE) * SERVE_PHASE
    return count


def _rss_mb() -> float:
    """Peak resident memory of this process plus its reaped children
    (the pool workers), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


@dataclass
class PassResult:
    """What one pass of a workload measured."""

    attempted: int = 0
    #: One line per failed query: error, refusal, time limit or a value
    #: other than the oracle's.
    failures: list[str] = field(default_factory=list)
    wrong: int = 0
    latencies: list[float] = field(default_factory=list)
    baselines: list[float] = field(default_factory=list)
    sims: list[float] = field(default_factory=list)
    iterations: list[int] = field(default_factory=list)
    endgames: list[int] = field(default_factory=list)
    comm_fracs: list[float] = field(default_factory=list)
    survivors: list[float] = field(default_factory=list)
    #: Wall seconds spent with queries in flight.
    busy_s: float = 0.0
    setup_s: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: Counters read off the library, as deltas over the timed queries.
    counts: dict = field(default_factory=dict)
    #: ``perf_counter_ns`` when the first timed query started.
    timed_from_ns: int = 0
    machine: object = None

    def record_report(self, report) -> None:
        stats = report.stats
        total = report.breakdown.total
        self.sims.append(report.simulated_time)
        self.iterations.append(stats.n_iterations)
        self.endgames.append(stats.endgame_n)
        self.comm_fracs.append(
            report.breakdown.communication / total if total else 0.0
        )
        pre = stats.prefilter
        self.survivors.append(pre.survivor_fraction if pre is not None
                              else 1.0)

    def fail(self, index: int, why: str) -> None:
        self.failures.append(f"query {index}: {why}")


def _counts(machine, session, service=None) -> dict:
    """Snapshot of the counters a pass reports as deltas."""
    out = {key: machine.counters()[key]
           for key in ("launches", "forks", "reuses")}
    out["session.launches"] = session.stats.launches
    out["session.cache_misses"] = session.stats.cache_misses
    if service is not None:
        stats = service.stats
        out["serve.launches"] = stats.launches
        out["serve.cache_hits"] = stats.cache_hits
        out["serve.flush_cycles"] = stats.flush_cycles
    return out


def _delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before[key] for key in after}


def _plan(seed: int) -> repro.SelectionPlan:
    return repro.SelectionPlan(algorithm="fast_randomized",
                               kernels="reference", backend="threaded",
                               seed=int(seed))


# --------------------------------------------------------------------------
# One caller, closed loop
# --------------------------------------------------------------------------


class _ClosedLoop:
    """Shared closed-loop runner of the two single-caller workloads."""

    n_keys: int
    n_procs = 4
    stream_id: int
    #: Run the whole process on one CPU. The four rank threads take turns
    #: under the GIL either way, and on a 2-vCPU guest the hypervisor
    #: steals time from each vCPU independently: unpinned, every stall of
    #: either vCPU holds up all ranks at the next rendezvous while the
    #: single-threaded baseline slips past on the other vCPU, so the
    #: latency ratio tracked host steal (quantile_batch p90 ranged
    #: 16.9-36.6 over ten runs). Pinned, the queries and the baseline
    #: share one CPU and its stalls, and the ratio held within a few
    #: percent of its median.
    pin_one_cpu = True

    def __init__(self, seed: int):
        self.seed = seed

    def _rng(self, *salt: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.stream_id, *salt])

    def setup(self):
        machine = repro.Machine(self.n_procs, backend="threaded")
        machine.runtime.join_timeout = QUERY_LIMIT_S
        data = machine.generate(self.n_keys, "random",
                                seed=int(self._rng(0).integers(2**31)))
        session = machine.session(cache=False)
        self.call(session, data, self.warm_query(data))
        gathered = data.gather()
        copies = [gathered] + [gathered.copy()
                               for _ in range(BASELINE_COPIES - 1)]
        return machine, data, session, copies

    def run(self, count: int, setup_reps: int = 1) -> PassResult:
        res = PassResult()
        for _ in range(setup_reps):
            # Free the previous set-up first, or peak memory doubles.
            state = None
            # A fresh residual store per set-up: the planner state a pass
            # starts from must not depend on the number of set-ups.
            store = ResidualStore()
            t0 = time.perf_counter()
            with use_store(store):
                state = self.setup()
            res.setup_s.append(time.perf_counter() - t0)
        machine, data, session, copies = state
        queries = self.queries(data.n, count)
        before = _counts(machine, session)
        answers = []
        res.timed_from_ns = time.perf_counter_ns()
        with use_store(store):
            for i, query in enumerate(queries):
                res.attempted += 1
                t0 = time.perf_counter()
                try:
                    report = self.call(session, data, query)
                except Exception as exc:  # counted, never fatal to the run
                    report = None
                    res.fail(i, f"{type(exc).__name__}: {exc}")
                t1 = time.perf_counter()
                self.baseline(copies[i % BASELINE_COPIES], query)
                t2 = time.perf_counter()
                res.baselines.append(t2 - t1)
                if report is None:
                    continue
                if t1 - t0 > QUERY_LIMIT_S:
                    res.fail(i, f"over the {QUERY_LIMIT_S} s limit")
                    continue
                res.latencies.append(t1 - t0)
                res.busy_s += t1 - t0
                res.record_report(report)
                answers.append((i, query, self.values(report)))
        res.peak_rss_mb = _rss_mb()
        res.counts = _delta(_counts(machine, session), before)
        self.check(copies[0], answers, res)
        res.machine = machine
        return res

    @staticmethod
    def baseline(gathered, query):
        """``np.partition`` for the query's ranks on the gathered copy."""
        return np.partition(gathered, [k - 1 for k in query[0]])

    @staticmethod
    def check(gathered, answers, res: PassResult) -> None:
        ks = sorted({k for _i, (q_ks, _plan), _got in answers for k in q_ks})
        if not ks:
            return
        part = np.partition(gathered, [k - 1 for k in ks])
        for i, (q_ks, _plan), got in answers:
            for k, value in zip(q_ks, got):
                if value != part[k - 1]:
                    res.wrong += 1
                    res.fail(i, f"rank {k}: got {value}, "
                                f"oracle {part[k - 1]}")
                    break


class PointSelect(_ClosedLoop):
    n_keys = 4_000_000
    stream_id = 1

    def warm_query(self, data):
        return [median_rank(data.n)], _plan(0)

    def queries(self, n: int, count: int):
        rng = self._rng(1)
        spread = n // 64
        mid = median_rank(n)
        return [([mid + int(rng.integers(-spread, spread + 1))],
                 _plan(rng.integers(2**31)))
                for _ in range(count)]

    @staticmethod
    def call(session, data, query):
        (k,), plan = query
        return session.run_select(data, k, plan)

    @staticmethod
    def values(report):
        return [report.value]


class QuantileBatch(_ClosedLoop):
    n_keys = 262_144
    stream_id = 2

    @staticmethod
    def cut_ranks(n: int) -> list[int]:
        return [quantile_rank(i / 32, n) for i in range(1, 32)]

    def warm_query(self, data):
        return self.cut_ranks(data.n), _plan(0)

    def queries(self, n: int, count: int):
        rng = self._rng(1)
        ks = self.cut_ranks(n)
        return [(ks, _plan(rng.integers(2**31))) for _ in range(count)]

    @staticmethod
    def call(session, data, query):
        ks, plan = query
        return session.run_multi_select(data, ks, plan)

    @staticmethod
    def values(report):
        return list(report.values)


# --------------------------------------------------------------------------
# Serving tier: two tenant clients plus a writer
# --------------------------------------------------------------------------

SERVE_PROCS = 2
SERVE_BATCH = 65_536
SERVE_WINDOW = 16
#: Queries sent between appends; also the phase length, so each phase
#: ends with a quiet gap (no query in flight) where the baseline is timed.
SERVE_PHASE = 48
SERVE_CLIENTS = 2
#: Each phase, client ``c`` walks these levels from a seeded start plus
#: ``c`` half-turns, so every phase asks every level six times and the
#: share of cycles that miss the cache is the same for every seed (a
#: seed-dependent hit share would move the p50 and p90 between runs).
SERVE_LEVELS = (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99)
#: Baseline samples per quiet gap.
SERVE_BASE_REPS = 4


class ServeStream:
    #: The pool workers need a core each.
    pin_one_cpu = False

    def __init__(self, seed: int):
        self.seed = seed
        self._batch_rng = np.random.default_rng([seed, 3, 0])
        self.batches: list[np.ndarray] = []

    def batch(self, index: int) -> np.ndarray:
        """The ``index``-th batch of the seeded arrival stream."""
        while len(self.batches) <= index:
            self.batches.append(self._batch_rng.random(SERVE_BATCH))
        return self.batches[index]

    def window(self, version: int) -> np.ndarray:
        """The live window after ``version`` appends past the prefill."""
        return np.concatenate(
            [self.batch(b) for b in range(version, version + SERVE_WINDOW)]
        )

    async def _setup(self):
        machine = repro.Machine(SERVE_PROCS, backend="pool")
        machine.runtime.join_timeout = QUERY_LIMIT_S
        stream = machine.stream(dtype=np.float64, window=SERVE_WINDOW)
        for b in range(SERVE_WINDOW):
            stream.append(self.batch(b))
        service = repro.SelectionService(machine)
        service.register("window", stream)
        await asyncio.wait_for(service.quantile("window", 0.5),
                               QUERY_LIMIT_S)
        return machine, stream, service

    def run(self, count: int, setup_reps: int = 1) -> PassResult:
        res = PassResult()
        asyncio.run(self._run(count, setup_reps, res))
        return res

    async def _run(self, count: int, setup_reps: int,
                   res: PassResult) -> None:
        for rep in range(setup_reps):
            store = ResidualStore()
            t0 = time.perf_counter()
            with use_store(store):
                machine, stream, service = await self._setup()
            res.setup_s.append(time.perf_counter() - t0)
            if rep < setup_reps - 1:
                await service.close()
        with use_store(store):
            await self._serve(machine, stream, service, count, res)

    async def _serve(self, machine, stream, service, count: int,
                     res: PassResult) -> None:
        level_rng = np.random.default_rng([self.seed, 3, 1])
        n_levels = len(SERVE_LEVELS)
        base_rng = np.random.default_rng([self.seed, 3, 2])
        n = stream.n
        before = _counts(machine, service.session, service)
        version = 0
        sent = 0
        answers: list[tuple[int, float, int, int, object]] = []
        appends: asyncio.Queue = asyncio.Queue()

        async def writer():
            nonlocal version
            while await appends.get() is not None:
                stream.append(self.batch(SERVE_WINDOW + version))
                version += 1

        async def client(c: int, start: int, quota: int):
            nonlocal sent
            for j in range(quota):
                i = sent
                sent += 1
                if sent % SERVE_PHASE == 0:
                    appends.put_nowait(True)
                q = SERVE_LEVELS[(start + j + c * n_levels // 2) % n_levels]
                submitted = version
                res.attempted += 1
                t0 = time.perf_counter()
                try:
                    report = await asyncio.wait_for(
                        service.quantile("window", q, tenant=f"tenant{c}"),
                        QUERY_LIMIT_S)
                except Exception as exc:  # counted, never fatal to the run
                    res.fail(i, f"{type(exc).__name__}: {exc}")
                    continue
                res.latencies.append(time.perf_counter() - t0)
                res.record_report(report)
                answers.append((i, q, submitted, version, report.value))

        res.timed_from_ns = time.perf_counter_ns()
        writer_task = asyncio.get_running_loop().create_task(writer())
        per_client = SERVE_PHASE // SERVE_CLIENTS
        for _phase in range(count // SERVE_PHASE):
            start = int(level_rng.integers(n_levels))
            t0 = time.perf_counter()
            await asyncio.gather(*(client(c, start, per_client)
                                   for c in range(SERVE_CLIENTS)))
            res.busy_s += time.perf_counter() - t0
            # Quiet gap: no query in flight, the flusher idle.
            live = self.window(version)
            for _ in range(SERVE_BASE_REPS):
                q = SERVE_LEVELS[int(base_rng.integers(len(SERVE_LEVELS)))]
                t1 = time.perf_counter()
                np.partition(live, quantile_rank(q, n) - 1)
                res.baselines.append(time.perf_counter() - t1)
        appends.put_nowait(None)
        await writer_task
        res.counts = _delta(_counts(machine, service.session, service), before)
        await service.close()
        res.peak_rss_mb = _rss_mb()
        res.machine = machine
        self.check(n, answers, res)

    def check(self, n: int, answers, res: PassResult) -> None:
        """An append can land while a flush is running, so an answer is
        right if it matches any window version from submit to resolve."""
        wanted: dict[int, set[int]] = {}
        for _i, q, lo, hi, _value in answers:
            for v in range(lo, hi + 1):
                wanted.setdefault(v, set()).add(quantile_rank(q, n))
        truth: dict[tuple[int, int], float] = {}
        for v, ks in wanted.items():
            ks_sorted = sorted(ks)
            part = np.partition(self.window(v), [k - 1 for k in ks_sorted])
            for k in ks_sorted:
                truth[(v, k)] = part[k - 1]
        for i, q, lo, hi, value in answers:
            k = quantile_rank(q, n)
            if not any(truth[(v, k)] == value for v in range(lo, hi + 1)):
                res.wrong += 1
                res.fail(i, f"quantile {q} (rank {k}): got {value}, no "
                            f"window version {lo}..{hi} has it")


WORKLOADS = {
    "point_select": PointSelect,
    "quantile_batch": QuantileBatch,
    "serve_stream": ServeStream,
}


# --------------------------------------------------------------------------
# Machine micro-probes (module-level so the pool ships them to its warm
# workers instead of forking a one-shot generation)
# --------------------------------------------------------------------------

PROBE_COMBINES = 200
PROBE_REPS = 15


def empty_program(ctx):
    return None


def combine_program(ctx, rounds):
    for _ in range(rounds):
        ctx.comm.combine(1)


def machine_probes(machine) -> dict[str, float]:
    """Median empty-launch wall time and the per-call cost of ``combine``,
    measured through ``Machine.run`` on the workload's own machine."""
    machine.run(empty_program)
    machine.run(combine_program, args=(PROBE_COMBINES,))
    empty, comb = [], []
    for _ in range(PROBE_REPS):
        t0 = time.perf_counter()
        machine.run(empty_program)
        t1 = time.perf_counter()
        machine.run(combine_program, args=(PROBE_COMBINES,))
        t2 = time.perf_counter()
        empty.append(t1 - t0)
        comb.append(t2 - t1)
    machine.release_workers()
    empty_s = statistics.median(empty)
    return {
        "machine.empty_launch_ms": empty_s * 1e3,
        "machine.combine_us":
            max(statistics.median(comb) - empty_s, 0.0) / PROBE_COMBINES * 1e6,
    }
