#!/usr/bin/env python3
"""The repository benchmark: MaxBRSTkNN serving latency and indexed throughput.

Run from the repository root::

    python3 perfbench/run.py --workload serve_sharded --seed 1 --seconds 45 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``serve_sharded`` open loop, Poisson arrivals at 4 q/s, into
  ``MaxBRSTkNNServer`` over a 2-shard ``ShardedEngine`` (hash
  partitioner, shm arena, one pool worker per shard, result cache on),
  with k in {5, 10, 20} and 30% of requests repeating a query sent at
  least 2 s earlier;
* ``indexed_batch`` closed loop, one caller issuing
  ``engine.query_batch`` on batches of 8 distinct ``Mode.INDEXED``
  queries (MIUR-tree, users on simulated disk).

With ``--trace 0`` the run reports the end-to-end metrics listed in
BENCHMARK.json; with ``--trace 1`` it repeats the workload once more
with spans and counters recorded and reports the per-layer metrics,
writing the spans as Chrome trace-event JSON under ``perfbench/out``.
Every answer is checked against an independent sequential engine; a
mismatch, a failed query, a leaked shm segment or child process, or a
lagging load generator makes the command exit non-zero.  The last line
of standard output is one JSON object with the run's result.
"""

from __future__ import annotations

import argparse
import asyncio
import copy
import gc
import importlib
import itertools
import json
import math
import multiprocessing
from multiprocessing import resource_tracker
import os
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

if not os.path.isdir(os.path.join(SRC, "repro")) or not os.path.isfile(BENCHMARK_JSON):
    sys.stderr.write(f"perfbench: no program to measure (expected {SRC}/repro "
                     f"and {BENCHMARK_JSON}); run from a repository checkout\n")
    sys.exit(2)
sys.path.insert(0, SRC)
# One OpenBLAS thread per process, set before numpy loads.  Each workload
# has one computing caller; on 2 vCPUs a second BLAS thread spin-waits
# on the other core, doubling CPU use while making indexed_batch slower.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from repro import (  # noqa: E402
    Backend, EngineConfig, MaxBRSTkNNEngine, Method, Mode, QueryOptions,
)
from repro.core.bounds import BoundCalculator  # noqa: E402
from repro.core.kernels import DatasetArrays  # noqa: E402
from repro.serve import (  # noqa: E402
    MaxBRSTkNNServer, ServerConfig, ServerOverloaded, make_engine,
)
from repro.storage.shm import SHM_PREFIX, arena_segments  # noqa: E402

import loadgen  # noqa: E402
from reference import answer_of, reference_answers  # noqa: E402
from spans import Tracer  # noqa: E402

#: Offered load of the open-loop workload.  About a quarter of one
#: core's capacity at ~60 ms per query: queueing stays modest, so p90
#: measures the service path rather than the queue's instability.
RATE_QPS = 4.0
#: Set-ups per run, before and after the timed phase; ``setup_s`` is
#: the median of all of them.
SETUPS_BEFORE = 3
SETUPS_AFTER = 2
SHARDS = 2
SHARDED_KS = (5, 10, 20)
REPEAT_SHARE = 0.3
REPEAT_MIN_AGE_S = 2.0
INDEXED_BATCH = 8
#: Distinct queries of indexed_batch, cycled in a fresh seeded order.
INDEXED_POOL = 64
#: The closed loop always runs at least this many batches; the traced
#: run's I/O counts cover exactly these, so they repeat exactly.
MIN_BATCHES = 3
#: A run whose generator sent its 99th-percentile request later than
#: this after its due time is invalid (the generator, not the program,
#: fell behind).
LATE_LIMIT_MS = 100.0

JOINT_OPTIONS = QueryOptions(method=Method.APPROX, mode=Mode.JOINT, backend=Backend.NUMPY)
INDEXED_OPTIONS = JOINT_OPTIONS.with_(mode=Mode.INDEXED)

STAGES = ("traverse", "refine", "select", "shortlist", "search", "indexed-search")


class RunFailed(Exception):
    """The run cannot produce a valid result (exit non-zero, no JSON)."""


# ----------------------------------------------------------------------
# Small helpers
# ----------------------------------------------------------------------

def pct(values, q: float) -> float:
    """Linear-interpolated percentile; inf (a failed request) propagates."""
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def rss_peak_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def live_children() -> List[int]:
    """Pids of this process's children that have not exited.

    The interpreter's shared-memory resource tracker is not counted: it
    is started on first shm use and lives as long as the interpreter
    (:func:`stop_resource_tracker` ends it at exit).
    """
    multiprocessing.active_children()  # reaps finished multiprocessing children
    me, kids = os.getpid(), []
    tracker = resource_tracker._resource_tracker._pid
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[1]) == me and fields[0] != "Z" and int(entry) != tracker:
            kids.append(int(entry))
    return kids


def stop_resource_tracker() -> None:
    """End the shm resource tracker and wait for it, if one was started."""
    resource_tracker._resource_tracker._stop()


def hygiene_check() -> None:
    """After a server stops: no arena segment of ours, no live child."""
    deadline = time.monotonic() + 5.0
    while True:
        segments = arena_segments(f"{SHM_PREFIX}{os.getpid()}-")
        kids = live_children()
        if not segments and not kids:
            return
        if time.monotonic() > deadline:
            break
        time.sleep(0.05)
    for pid in kids:  # fail the run, but leave nothing running
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except OSError:
            pass
    raise RunFailed(f"hygiene gate: {len(segments)} shm segment(s) {segments[:3]} "
                    f"and {len(kids)} live child process(es) after server.stop()")


def median_dict(rows: List[Dict[str, float]]) -> Dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


# ----------------------------------------------------------------------
# What one pass measures
# ----------------------------------------------------------------------

@dataclass
class FlushProbe:
    """Per-flush accounting, filled by the traced ``query_batch`` wrapper."""

    flush_s: List[float] = field(default_factory=list)
    queue_wait_s: List[float] = field(default_factory=list)
    stage_s: Dict[str, float] = field(default_factory=dict)
    queries: int = 0
    retries: int = 0
    degraded: int = 0
    bytes_out: int = 0
    bytes_in: int = 0
    submitted_at: Dict[int, float] = field(default_factory=dict)

    def install(self, engine, tracer: Tracer) -> None:
        """Wrap ``engine.query_batch`` (the name the server looks up)."""
        original = engine.query_batch
        flush_ids = itertools.count(1)

        def query_batch(queries, *args, **kwargs):
            start = time.perf_counter()
            for query in queries:
                sent = self.submitted_at.get(id(query))
                if sent is not None:
                    self.queue_wait_s.append(start - sent)
            results = tracer.call("engine.query_batch", original, (queries,) + args,
                                  kwargs, request=f"flush{next(flush_ids)}")
            self.flush_s.append(time.perf_counter() - start)
            self.queries += len(queries)
            report = engine.last_flush_report
            for st in report.stages:
                self.stage_s[st.stage] = self.stage_s.get(st.stage, 0.0) + st.time_s
                self.retries += st.retries
                self.degraded += st.degraded
                self.bytes_out += st.payload_bytes_out
                self.bytes_in += st.payload_bytes_in
            return results

        engine.query_batch = query_batch


@dataclass
class PassResult:
    e2e: Dict[str, float]
    setup: Dict[str, float]
    answers: Dict[int, object]          # send/query index -> served result
    attempted: int
    failed: int
    shed: int
    late_ms: List[float] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)


def install_tracer(tracer: Tracer) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    # By module path: ``repro.core.joint_topk`` the attribute is a function.
    candidate_selection = importlib.import_module("repro.core.candidate_selection")
    indexed_users = importlib.import_module("repro.core.indexed_users")
    joint_topk = importlib.import_module("repro.core.joint_topk")
    keyword_selection = importlib.import_module("repro.core.keyword_selection")
    tracer.wrap_function(keyword_selection, "select_keywords_greedy",
                         "keyword_selection.select_keywords_greedy")
    tracer.wrap_function(candidate_selection, "search_shortlists",
                         "candidate_selection.search_shortlists")
    tracer.wrap_function(candidate_selection, "shortlist_locations",
                         "candidate_selection.shortlist_locations")
    tracer.wrap_function(joint_topk, "joint_traversal", "joint_topk.joint_traversal")
    tracer.wrap_function(joint_topk, "individual_topk", "joint_topk.individual_topk")
    tracer.wrap_function(indexed_users, "indexed_search", "indexed_users.indexed_search")
    tracer.wrap_method(DatasetArrays, "threshold_mask_many", "kernels.threshold_mask_many")
    tracer.wrap_method(DatasetArrays, "brstknn", "kernels.brstknn")
    tracer.wrap_method(DatasetArrays, "candidate_score_matrix",
                       "kernels.candidate_score_matrix")
    # Called per (user, location) pair: counted, not spanned.
    tracer.wrap_method(BoundCalculator, "location_upper_user",
                       "bounds.location_upper_user", span=False)


#: Span and counter names that must fire in the parent process on each
#: workload (in-worker layers of serve_sharded are read from counters).
EXPECTED_FIRING = {
    "serve_sharded": (
        "engine.query_batch", "joint_topk.joint_traversal",
    ),
    "indexed_batch": (
        "engine.query_batch", "keyword_selection.select_keywords_greedy",
        "joint_topk.joint_traversal", "joint_topk.individual_topk",
        "indexed_users.indexed_search", "kernels.threshold_mask_many",
        "kernels.brstknn", "kernels.candidate_score_matrix",
        "bounds.location_upper_user",
    ),
}

#: Spanned functions whose total time the traced run reports ...
SPANNED = (
    "keyword_selection.select_keywords_greedy",
    "kernels.threshold_mask_many", "kernels.brstknn", "kernels.candidate_score_matrix",
    "candidate_selection.search_shortlists", "candidate_selection.shortlist_locations",
    "joint_topk.joint_traversal", "joint_topk.individual_topk",
)
#: ... and those with spanned children, whose self time it also reports.
SELF_TIMED = (
    "engine.query_batch", "candidate_selection.search_shortlists",
    "keyword_selection.select_keywords_greedy", "joint_topk.individual_topk",
)
COUNTED = (
    "keyword_selection.select_keywords_greedy", "kernels.threshold_mask_many",
    "kernels.brstknn", "kernels.candidate_score_matrix", "joint_topk.individual_topk",
    "bounds.location_upper_user",
)


def tracer_layers(tracer: Tracer) -> Dict[str, float]:
    out: Dict[str, float] = {}
    self_s = tracer.self_times()
    for name in SPANNED:
        out[f"{name}.ms"] = 1000.0 * sum(tracer.durations(name))
    for name in SELF_TIMED:
        out[f"{name}.self_ms"] = 1000.0 * self_s.get(name, 0.0)
    for name in COUNTED:
        out[f"{name}.calls"] = float(tracer.calls.get(name, 0))
    return out


def probe_layers(probe: FlushProbe) -> Dict[str, float]:
    n = max(1, probe.queries)
    flushes = max(1, len(probe.flush_s))
    out = {
        "flush.ms.p50": 1000.0 * pct(probe.flush_s, 50),
        "stage.retries": float(probe.retries),
        "stage.degraded": float(probe.degraded),
        "scatter.bytes_out_per_flush": probe.bytes_out / flushes,
        "scatter.bytes_in_per_flush": probe.bytes_in / flushes,
    }
    for stage in STAGES:
        out[f"stage.{stage}.ms_per_query"] = 1000.0 * probe.stage_s.get(stage, 0.0) / n
    return out


# ----------------------------------------------------------------------
# Open-loop serving workloads
# ----------------------------------------------------------------------

def make_sharded_engine(dataset):
    return make_engine(dataset, EngineConfig(num_shards=SHARDS, partitioner="hash",
                                             use_shm=True))


SERVER_CONFIG = ServerConfig(options=JOINT_OPTIONS, pool_workers=1, cache=True)


def serve_inputs(workload, seed: int, seconds: int):
    rng = np.random.default_rng([seed, 1])
    count = max(1, round(RATE_QPS * seconds))
    times = loadgen.poisson_schedule(RATE_QPS, count, rng)
    sends = loadgen.open_loop_stream(times, REPEAT_SHARE, REPEAT_MIN_AGE_S, rng)
    distinct = sum(1 for s in sends if not s.repeat)
    pool = loadgen.query_pool(workload, distinct)
    ks = loadgen.balanced(SHARDED_KS, distinct, rng)
    queries = [loadgen.with_k(pool[int(i)], k)
               for i, k in zip(rng.permutation(distinct), ks)]
    return queries, sends


async def serve_setup(dataset, warmup):
    t0 = time.perf_counter()
    engine = make_sharded_engine(loadgen.fresh_dataset(dataset))
    t1 = time.perf_counter()
    engine.prewarm_kernels()
    t2 = time.perf_counter()
    server = MaxBRSTkNNServer(engine, SERVER_CONFIG)
    await server.start()
    t3 = time.perf_counter()
    await server.submit(warmup)
    t4 = time.perf_counter()
    phases = {"setup_s": t4 - t0, "engine_build_s": t1 - t0, "prewarm_s": t2 - t1,
              "pool_start_s": t3 - t2, "warmup_s": t4 - t3}
    return server, engine, phases


async def open_loop(server, queries, sends, probe: Optional[FlushProbe], tracer):
    """Send on schedule regardless of replies; time each from its due time."""
    latencies = [math.inf] * len(sends)
    answers: Dict[int, object] = {}
    late_ms: List[float] = []
    done_at: List[float] = []
    counts = {"failed": 0, "shed": 0}

    async def one(i: int, due: float) -> None:
        query = queries[sends[i].query_id]
        try:
            result = await server.submit(query)
        except ServerOverloaded:
            counts["shed"] += 1
            return
        except Exception:  # noqa: BLE001 - a failed request is counted, not fatal
            counts["failed"] += 1
            return
        end = time.perf_counter()
        latencies[i] = end - due
        answers[i] = result
        done_at.append(end)
        if tracer is not None:
            tracer.record("server.submit", due, end, request=f"q{i}")

    tasks = []
    start = time.perf_counter() + 0.05
    for i, send in enumerate(sends):
        due = start + send.at_s
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        sent = time.perf_counter()
        late_ms.append(1000.0 * max(0.0, sent - due))
        if probe is not None:
            probe.submitted_at[id(queries[send.query_id])] = sent
        tasks.append(asyncio.create_task(one(i, due)))
    await asyncio.gather(*tasks)
    elapsed = (max(done_at) if done_at else time.perf_counter()) - start
    e2e = {
        "latency_p50_ms": 1000.0 * pct(latencies, 50),
        "latency_p90_ms": 1000.0 * pct(latencies, 90),
        "qps": len(done_at) / elapsed,
    }
    return e2e, answers, late_ms, counts


def stats_delta(after, before, key: str) -> float:
    """Change of one ``ServerStats`` counter over the timed phase."""
    return float(getattr(after, key) - getattr(before, key))


def settle() -> None:
    """Between set-ups: collect the dropped engine, then run the hygiene gate."""
    gc.collect()
    hygiene_check()


async def serve_pass(dataset, warmup, queries, sends,
                     setups_before: int, setups_after: int,
                     tracer: Optional[Tracer]) -> PassResult:
    """Set up ``setups_before`` times (serving from the last), run the
    open loop, then set up ``setups_after`` more times.  Spreading the
    set-ups over the run keeps ``setup_s`` from sampling one moment."""
    setups = []
    for rep in range(setups_before):
        server, engine, phases = await serve_setup(dataset, warmup)
        setups.append(phases)
        if rep < setups_before - 1:
            await server.stop()
            server = engine = None
            settle()
    probe = None
    if tracer is not None:
        probe = FlushProbe()
        probe.install(engine, tracer)
    shards_before = server.stats_snapshot().get("shards", [])
    before = copy.copy(server.stats)
    io_before = engine.io.snapshot()
    try:
        e2e, answers, late_ms, counts = await open_loop(
            server, queries, sends, probe, tracer)
        snapshot = server.stats_snapshot()
        after = copy.copy(server.stats)
    finally:
        io_after = engine.io.snapshot()
        await server.stop()
    server = engine = None
    settle()
    for _ in range(setups_after):
        server, _, phases = await serve_setup(dataset, warmup)
        setups.append(phases)
        await server.stop()
        server = None
        settle()
    e2e["rss_peak_mb"] = rss_peak_mb()
    result = PassResult(e2e, median_dict(setups), answers, len(sends),
                        counts["failed"], counts["shed"], late_ms)
    if probe is None:
        return result

    result.layers = server_layers(probe, tracer, before, after, snapshot, shards_before,
                                  io_after - io_before, late_ms)
    return result


def server_layers(probe, tracer, before, after, snapshot, shards_before, io_delta,
                  late_ms) -> Dict[str, float]:
    """Per-layer metrics of one traced serving pass."""
    layers = probe_layers(probe)
    layers.update(tracer_layers(tracer))
    hits = stats_delta(after, before, "cache_hits")
    lookups = hits + stats_delta(after, before, "cache_misses")
    flushes = stats_delta(after, before, "batches_executed")
    layers.update({
        "server.queue_wait_ms.p50": 1000.0 * pct(probe.queue_wait_s, 50),
        "server.queue_wait_ms.p90": 1000.0 * pct(probe.queue_wait_s, 90),
        "server.batch_size.mean":
            stats_delta(after, before, "batch_queries_sum") / max(1.0, flushes),
        "server.flushes": flushes,
        "server.cache_hits": hits,
        "server.cache_lookups": lookups,
        "server.cache_hit_share": hits / lookups if lookups else 0.0,
        "server.queries_failed": stats_delta(after, before, "queries_failed"),
        "server.queries_shed": stats_delta(after, before, "queries_shed"),
        "pool.worker_deaths": float(after.worker_deaths),
        "pool.respawns": float(after.pool_respawns),
        "shard.partition_skew": float(snapshot.get("partition_skew", 0.0)),
    })
    codec = snapshot.get("shm_codec", {})
    layers["codec.delta_hits"] = float(codec.get("delta_hits", 0))
    layers["codec.inline_fallbacks"] = float(codec.get("inline_fallbacks", 0))
    shards_after = snapshot.get("shards", [])
    for i in range(SHARDS):
        if i < len(shards_after):
            a, b = shards_after[i], shards_before[i]
            rounds = a["scatter_flushes"] - b["scatter_flushes"]
            layers[f"shard.{i}.shortlist_ms"] = (
                (a["shortlist_ms"] - b["shortlist_ms"]) / rounds if rounds else 0.0)
            layers[f"shard.{i}.queue_depth_peak"] = float(a["queue_depth_peak"])
        else:
            layers[f"shard.{i}.shortlist_ms"] = 0.0
            layers[f"shard.{i}.queue_depth_peak"] = 0.0
    executed = max(1, probe.queries)
    layers["io.node_visits_per_query"] = io_delta.node_visits / executed
    layers["io.invfile_blocks_per_query"] = io_delta.invfile_blocks / executed
    layers["indexed_users.search.ms_per_query"] = 0.0
    layers["loadgen.late_ms.p99"] = pct(late_ms, 99)
    return layers


def run_serve(name: str, seed: int, seconds: int, trace: bool, trace_path: str):
    dataset, workload = loadgen.build_dataset()
    queries, sends = serve_inputs(workload, seed, seconds)
    warmup = loadgen.warmup_query(workload, max(SHARDED_KS))
    digest = loadgen.stream_digest(queries, sends)
    print(f"inputs: {len(sends)} sends, {len(queries)} distinct queries, "
          f"{sum(s.repeat for s in sends)} repeats, digest {digest}", flush=True)

    passes = [asyncio.run(serve_pass(dataset, warmup, queries, sends,
                                     SETUPS_BEFORE, SETUPS_AFTER, None))]
    if trace:
        tracer = Tracer()
        install_tracer(tracer)
        origin = time.perf_counter()
        try:
            passes.append(asyncio.run(serve_pass(dataset, warmup, queries, sends,
                                                 1, 0, tracer)))
        finally:
            tracer.unwrap_all()
        check_fired(name, tracer)
        tracer.write_chrome_trace(trace_path, origin)

    for p in passes:
        check_late(p.late_ms)
    expected = reference_answers("joint", dataset, queries)
    wrong = sum(
        1 for p in passes for i, result in p.answers.items()
        if answer_of(result) != expected[sends[i].query_id]
    )
    return passes, wrong, digest


# ----------------------------------------------------------------------
# Closed-loop indexed batches
# ----------------------------------------------------------------------

def indexed_setup(dataset, warmup):
    t0 = time.perf_counter()
    engine = MaxBRSTkNNEngine(loadgen.fresh_dataset(dataset), EngineConfig(index_users=True))
    t1 = time.perf_counter()
    engine.prewarm_kernels()
    t2 = time.perf_counter()
    engine.query_batch([warmup], INDEXED_OPTIONS)
    t3 = time.perf_counter()
    return engine, {"setup_s": t3 - t0, "engine_build_s": t1 - t0, "prewarm_s": t2 - t1,
                    "pool_start_s": 0.0, "warmup_s": t3 - t2}


def indexed_pass(dataset, warmup, batches, seconds: int, setups_before: int,
                 setups_after: int, tracer: Optional[Tracer]) -> PassResult:
    """Closed loop: one caller issues batch after batch for ``seconds``."""
    setups, engine = [], None
    for _ in range(setups_before):
        engine = None
        gc.collect()
        engine, phases = indexed_setup(dataset, warmup)
        setups.append(phases)
    probe = None
    if tracer is not None:
        probe = FlushProbe()
        probe.install(engine, tracer)
    engine.reset_io()
    answers: Dict[int, object] = {}
    latencies: List[float] = []
    failed = issued = 0
    io_counts = None
    start = time.perf_counter()
    for b, batch in enumerate(batches):
        if b >= MIN_BATCHES and time.perf_counter() - start >= seconds:
            break
        t0 = time.perf_counter()
        try:
            results = engine.query_batch(batch, INDEXED_OPTIONS)
        except Exception:  # noqa: BLE001 - a failed call is counted, not fatal
            failed += len(batch)
            latencies.append(math.inf)
        else:
            latencies.append(time.perf_counter() - t0)
            for j, result in enumerate(results):
                answers[issued + j] = result
        issued += len(batch)
        if b + 1 == MIN_BATCHES:
            io_counts = engine.io.snapshot()
    elapsed = time.perf_counter() - start
    for _ in range(setups_after):
        engine = None
        gc.collect()
        engine, phases = indexed_setup(dataset, warmup)
        setups.append(phases)
    e2e = {
        "latency_p50_ms": 1000.0 * pct(latencies, 50),
        "latency_p90_ms": 1000.0 * pct(latencies, 90),
        "qps": len(answers) / elapsed,
        "rss_peak_mb": rss_peak_mb(),
    }
    result = PassResult(e2e, median_dict(setups), answers, issued, failed, 0)
    if probe is None:
        return result
    layers = probe_layers(probe)
    layers.update(tracer_layers(tracer))
    first = MIN_BATCHES * INDEXED_BATCH
    searches = tracer.durations("indexed_users.indexed_search")
    layers.update({
        "io.node_visits_per_query": io_counts.node_visits / first,
        "io.invfile_blocks_per_query": io_counts.invfile_blocks / first,
        "indexed_users.search.ms_per_query":
            1000.0 * sum(searches) / len(searches) if searches else 0.0,
    })
    for name in SERVER_ONLY:
        layers[name] = 0.0
    result.layers = layers
    return result


#: Per-layer metrics of the serving and scatter layers, which the
#: indexed workload does not run.
SERVER_ONLY = (
    "server.queue_wait_ms.p50", "server.queue_wait_ms.p90", "server.batch_size.mean",
    "server.flushes", "server.cache_hits", "server.cache_lookups",
    "server.cache_hit_share", "server.queries_failed", "server.queries_shed",
    "pool.worker_deaths", "pool.respawns", "shard.partition_skew",
    "codec.delta_hits", "codec.inline_fallbacks",
    "shard.0.shortlist_ms", "shard.1.shortlist_ms",
    "shard.0.queue_depth_peak", "shard.1.queue_depth_peak",
    "loadgen.late_ms.p99",
)


def run_indexed(name: str, seed: int, seconds: int, trace: bool, trace_path: str):
    dataset, workload = loadgen.build_dataset()
    pool = loadgen.query_pool(workload, INDEXED_POOL)
    # The pool in a fresh seeded order per cycle, for as many cycles as
    # a program at 64 q/s would use; today's ~3 q/s uses about one.
    rng = np.random.default_rng([seed, 2])
    order = [int(i) for _ in range(max(1, 64 * seconds // INDEXED_POOL))
             for i in rng.permutation(INDEXED_POOL)]
    stream = [pool[i] for i in order]
    batches = [stream[i:i + INDEXED_BATCH] for i in range(0, len(stream), INDEXED_BATCH)]
    warmup = loadgen.warmup_query(workload, loadgen.DEFAULTS.k)
    digest = loadgen.stream_digest(stream)
    print(f"inputs: pool of {INDEXED_POOL} distinct queries, {len(batches)} batches "
          f"of {INDEXED_BATCH} queued, digest {digest}", flush=True)

    passes = [indexed_pass(dataset, warmup, batches, seconds, SETUPS_BEFORE,
                           SETUPS_AFTER, None)]
    if trace:
        tracer = Tracer()
        install_tracer(tracer)
        origin = time.perf_counter()
        try:
            passes.append(indexed_pass(dataset, warmup, batches, seconds, 1, 0, tracer))
        finally:
            tracer.unwrap_all()
        check_fired(name, tracer)
        tracer.write_chrome_trace(trace_path, origin)

    issued = sorted(set(order[:max(p.attempted for p in passes)]))
    expected = dict(zip(issued, reference_answers(
        "indexed", dataset, [pool[i] for i in issued])))
    wrong = sum(
        1 for p in passes for i, result in p.answers.items()
        if answer_of(result) != expected[order[i]]
    )
    return passes, wrong, digest


# ----------------------------------------------------------------------
# Checks and output
# ----------------------------------------------------------------------

def check_fired(workload: str, tracer: Tracer) -> None:
    silent = [n for n in EXPECTED_FIRING[workload] if not tracer.calls.get(n)]
    if silent:
        raise RunFailed(f"trace gate: wrappers never fired on {workload}: {silent}")


def check_late(late_ms: List[float]) -> None:
    if late_ms and pct(late_ms, 99) > LATE_LIMIT_MS:
        raise RunFailed(f"invalid run: load generator fell behind "
                        f"(late p99 {pct(late_ms, 99):.1f} ms > {LATE_LIMIT_MS} ms)")


def load_metric_specs():
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    return workloads, spec["end_to_end"], spec["per_layer"]


def main(argv=None) -> int:
    workloads, end_to_end, per_layer = load_metric_specs()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    trace_path = os.path.join(HERE, "out", f"trace-{args.workload}-s{args.seed}.json")
    runner = run_indexed if args.workload == "indexed_batch" else run_serve
    try:
        passes, wrong, digest = runner(args.workload, args.seed, args.seconds,
                                       bool(args.trace), trace_path)
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        stop_resource_tracker()
        sys.stdout.flush()
        sys.stderr.flush()
        # Skip interpreter teardown: after the hygiene gate killed leaked
        # pool workers, multiprocessing's exit finalizers would block on
        # the dead workers' queue locks.
        os._exit(3)
    finally:
        stop_resource_tracker()

    base = passes[0]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed + p.shed for p in passes) + wrong
    correct = failed == 0
    metrics: Dict[str, float] = dict(base.e2e)
    metrics["setup_s"] = base.setup["setup_s"]
    metrics["success_share"] = 1.0 - failed / attempted
    if args.trace:
        traced = passes[1]
        layers = dict(traced.layers)
        for phase in ("engine_build_s", "prewarm_s", "pool_start_s", "warmup_s"):
            layers[f"setup.{phase}"] = base.setup[phase]
        layers["trace.overhead.latency_p50_ms"] = (
            traced.e2e["latency_p50_ms"] - base.e2e["latency_p50_ms"])
        layers["trace.overhead.qps"] = traced.e2e["qps"] - base.e2e["qps"]
        specs, metrics = per_layer, layers
        print(f"trace: {trace_path}")
    else:
        specs = end_to_end

    missing = [s["name"] for s in specs if s["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 4
    out = {}
    print(f"workload {args.workload} seed {args.seed} digest {digest}")
    for s in specs:
        value = metrics[s["name"]]
        print(f"  {s['name']:<48} {value:>14.4f} {s['unit']}")
        out[s["name"]] = {"value": value if math.isfinite(value) else None,
                          "unit": s["unit"]}
    print(f"  attempted {attempted}, failed/shed {failed - wrong}, wrong answers {wrong}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
