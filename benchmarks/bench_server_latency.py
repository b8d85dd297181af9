"""Micro-batching server: latency percentiles and throughput vs max_wait_ms.

Not a paper figure — this benchmarks the ``repro.serve`` subsystem.
``concurrency`` closed-loop clients each submit their share of a fixed
query pool through one :class:`MaxBRSTkNNServer`; the sweep varies the
micro-batch window ``max_wait_ms`` in {0, 2, 10} and reports p50/p95
per-query latency and sustained queries/sec.

Two per-query baselines anchor the numbers:

* ``sequential engine.query`` — the seed's serving model (every request
  pays the full cold query); the headline speedup is micro-batching vs
  this, expected well above 2x at concurrency 32;
* a ``max_batch=1`` server — the async stack without micro-batching
  (phase-1 memo still applies), isolating the batching win from the
  engine-level memo.

Run::

    python benchmarks/bench_server_latency.py            # full sweep
    python benchmarks/bench_server_latency.py --tiny     # CI smoke

Exits non-zero if any served result differs from a sequential
python-backend ``engine.query`` (built-in equivalence check), or if
micro-batching fails the >= 2x acceptance bar (full sweep only).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro import EngineConfig, MaxBRSTkNNEngine, QueryOptions  # noqa: E402
from repro.bench.harness import build_workbench  # noqa: E402
from repro.bench.params import DEFAULTS  # noqa: E402
from repro.bench.metrics import percentile  # noqa: E402
from repro.datagen.users import generate_users, query_pool  # noqa: E402
from repro.serve import MaxBRSTkNNServer, ServerConfig  # noqa: E402


def make_queries(workload, config, count: int):
    return query_pool(
        workload, count, num_locations=config.num_locations, ws=config.ws,
        k=config.k, seed=config.seed, seed_stride=101,
    )


def run_server(engine, queries, options, max_batch, max_wait_ms, concurrency):
    """Closed-loop clients; returns (elapsed_s, latencies_s, stats, results)."""
    latencies = []
    results = [None] * len(queries)
    chunks = [
        list(enumerate(queries))[i::concurrency] for i in range(concurrency)
    ]
    config = ServerConfig(
        max_batch=max_batch, max_wait_ms=max_wait_ms, options=options
    )

    async def client(server, chunk):
        for idx, query in chunk:
            t0 = time.perf_counter()
            results[idx] = await server.submit(query)
            latencies.append(time.perf_counter() - t0)

    async def main():
        engine.clear_topk_cache()
        async with MaxBRSTkNNServer(engine, config) as server:
            t0 = time.perf_counter()
            await asyncio.gather(
                *(client(server, chunk) for chunk in chunks if chunk)
            )
            elapsed = time.perf_counter() - t0
            return elapsed, server.stats

    elapsed, stats = asyncio.run(main())
    return elapsed, sorted(latencies), stats, results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--objects", type=int, default=DEFAULTS.num_objects)
    parser.add_argument("--users", type=int, default=DEFAULTS.num_users)
    parser.add_argument("--locations", type=int, default=DEFAULTS.num_locations)
    parser.add_argument("--k", type=int, default=DEFAULTS.k)
    parser.add_argument("--seed", type=int, default=DEFAULTS.seed)
    parser.add_argument("--backend", choices=["python", "numpy"],
                        default="numpy")
    parser.add_argument("--concurrency", type=int, default=32)
    parser.add_argument("--queries", type=int, default=96,
                        help="total queries across all clients")
    parser.add_argument("--max-wait-sweep", type=float, nargs="+",
                        default=[0.0, 2.0, 10.0])
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test scale for CI")
    parser.add_argument("--no-verify", action="store_true")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write machine-readable results to PATH "
                             "(CI uploads these as artifacts)")
    args = parser.parse_args(argv)

    config = DEFAULTS.with_(
        num_objects=args.objects,
        num_users=args.users,
        num_locations=args.locations,
        k=args.k,
        seed=args.seed,
        backend=args.backend,
    )
    if args.tiny:
        config = config.with_(num_objects=300, num_users=40, num_locations=5)
        args.concurrency = 8
        args.queries = 16
        args.max_wait_sweep = [0.0, 2.0]

    print(f"dataset: {config.label()}  "
          f"(concurrency={args.concurrency}, queries={args.queries})", flush=True)
    bench = build_workbench(config, cached=False)
    engine = MaxBRSTkNNEngine(bench.dataset, EngineConfig(fanout=config.fanout))
    workload = generate_users(
        bench.dataset.objects,
        num_users=config.num_users,
        keywords_per_user=config.ul,
        unique_keywords=config.uw,
        area_side=config.area,
        seed=config.seed,
    )
    queries = make_queries(workload, config, args.queries)
    options = QueryOptions(backend=args.backend)

    # Baseline 1: the seed's serving model — every request is a cold
    # sequential engine.query.
    t0 = time.perf_counter()
    for query in queries:
        engine.query(query, options)
    seq_elapsed = time.perf_counter() - t0
    seq_qps = len(queries) / seq_elapsed
    print(f"\n{'configuration':<38} {'q/s':>8} {'p50 ms':>8} {'p95 ms':>8} "
          f"{'avg batch':>10}")
    print(f"{'sequential engine.query (per-query)':<38} {seq_qps:>8.1f} "
          f"{1000 * seq_elapsed / len(queries):>8.1f} "
          f"{1000 * seq_elapsed / len(queries):>8.1f} {'1.0':>10}")

    # Baseline 2: the async stack without micro-batching.
    elapsed, lats, stats, _ = run_server(
        engine, queries, options, 1, 0.0, args.concurrency
    )
    print(f"{'server max_batch=1 (no batching)':<38} "
          f"{len(queries) / elapsed:>8.1f} "
          f"{1000 * percentile(lats, 0.5):>8.1f} "
          f"{1000 * percentile(lats, 0.95):>8.1f} "
          f"{stats.avg_batch_size:>10.1f}")

    # The sweep: micro-batching with increasing windows.
    best_qps = 0.0
    served = None
    sweep_rows = []
    for wait_ms in args.max_wait_sweep:
        elapsed, lats, stats, results = run_server(
            engine, queries, options, args.concurrency, wait_ms, args.concurrency
        )
        qps = len(queries) / elapsed
        best_qps = max(best_qps, qps)
        served = results
        sweep_rows.append(
            {
                "max_wait_ms": wait_ms,
                "queries_per_sec": qps,
                "p50_ms": 1000 * percentile(lats, 0.5),
                "p95_ms": 1000 * percentile(lats, 0.95),
                "avg_batch_size": stats.avg_batch_size,
            }
        )
        label = f"micro-batch max_wait_ms={wait_ms:g}"
        print(f"{label:<38} {qps:>8.1f} "
              f"{1000 * percentile(lats, 0.5):>8.1f} "
              f"{1000 * percentile(lats, 0.95):>8.1f} "
              f"{stats.avg_batch_size:>10.1f}")

    speedup = best_qps / seq_qps
    print(f"\nmicro-batching vs per-query sequential: {speedup:.2f}x queries/sec")

    if args.json:
        payload = {
            "benchmark": "server_latency",
            "dataset": config.label(),
            "concurrency": args.concurrency,
            "queries": len(queries),
            "sequential_queries_per_sec": seq_qps,
            "micro_batch_sweep": sweep_rows,
            "best_speedup_vs_sequential": speedup,
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")

    if not args.no_verify:
        reference = QueryOptions(backend="python")
        mismatches = sum(
            1
            for query, result in zip(queries, served)
            if (
                result.location != (solo := engine.query(query, reference)).location
                or result.keywords != solo.keywords
                or result.brstknn != solo.brstknn
            )
        )
        if mismatches:
            print(f"EQUIVALENCE FAILURE: {mismatches} served results differ")
            return 1
        print(f"equivalence check: served == sequential on {len(queries)} queries")
    if not args.tiny and speedup < 2.0:
        print("ACCEPTANCE FAILURE: micro-batching speedup below 2x")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
