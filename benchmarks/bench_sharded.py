"""Sharded scatter/gather serving: throughput vs shard count.

Not a paper figure — this benchmarks ``repro.serve.sharded``.  A fixed
query pool is answered in micro-batches (``--batch-size`` per flush,
the server's flush shape) through engines with shards ∈ ``--shards``
(default 1, 2, 4), each populated shard backed by its own fork-once
:class:`PersistentWorkerPool`.  Shard 1 is the single-engine baseline.

Every sweep's results are compared against a sequential single-engine
reference (the built-in equivalence assertion CI relies on): location,
keyword set and BRSTkNN set must match exactly — the sharded layer's
headline guarantee.

Honesty on 1-CPU hosts: scatter parallelism is *process* parallelism,
so a single-core container shows overhead, not speedup.  The bench
therefore also reports an Amdahl-style scaling model from the measured
phase split — per-shard scatter work (refine + shortlist, the part
that parallelizes) vs everything else (walk, merge, central search,
dispatch) — and the ≥ 1.5x acceptance gate applies only on hosts with
enough cores to express the parallelism (``os.cpu_count() >= 2``, full
run only).

``--mode indexed`` runs the same sweep through the MIUR pipeline: one
central root walk per flush (cross-k shared), per-query best-first
searches fanned out over the root search pool with I/O-charge ledgers;
the scatter column is 0 by design (MIUR pruning replaces the O(|U|)
refine), so the parallel share of the model is the search fan-out.

Run::

    python benchmarks/bench_sharded.py                  # full sweep
    python benchmarks/bench_sharded.py --tiny --shards 1 2   # CI smoke
    python benchmarks/bench_sharded.py --tiny --shards 2 --mode indexed
"""

from __future__ import annotations

import argparse
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
from repro.datagen.users import generate_users, query_pool  # noqa: E402
from repro.serve import ShardedEngine  # noqa: E402


def chunked(items, size):
    for i in range(0, len(items), size):
        yield items[i:i + size]


def run_engine(engine, queries, options, batch_size):
    """Answer the pool in flush-sized batches; returns (elapsed, results)."""
    engine.clear_topk_cache()
    results = []
    t0 = time.perf_counter()
    for chunk in chunked(queries, batch_size):
        results.extend(engine.query_batch(chunk, options))
    return time.perf_counter() - t0, results


def assert_equivalent(reference, results, label):
    mismatches = sum(
        1
        for a, b in zip(reference, results)
        if a.location != b.location
        or a.keywords != b.keywords
        or a.brstknn != b.brstknn
    )
    if mismatches:
        print(f"EQUIVALENCE FAILURE: {label}: {mismatches} results differ")
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--objects", type=int, default=DEFAULTS.num_objects)
    parser.add_argument("--users", type=int, default=800)
    parser.add_argument("--locations", type=int, default=DEFAULTS.num_locations)
    parser.add_argument("--k", type=int, default=DEFAULTS.k)
    parser.add_argument("--seed", type=int, default=DEFAULTS.seed)
    parser.add_argument("--backend", choices=["python", "numpy"],
                        default="numpy")
    parser.add_argument("--mode", choices=["joint", "indexed"], default="joint",
                        help="query pipeline; indexed shares one MIUR-root "
                             "walk per flush and fans the searches out")
    parser.add_argument("--shards", type=int, nargs="+", default=[1, 2, 4])
    parser.add_argument("--partitioner", choices=["hash", "grid"], default="hash")
    parser.add_argument("--pool-workers", type=int, default=1,
                        help="workers per shard pool (0 = in-process scatter)")
    parser.add_argument("--queries", type=int, default=64)
    parser.add_argument("--batch-size", type=int, default=32,
                        help="queries per flush (the server's micro-batch)")
    parser.add_argument("--mixed-k", action="store_true",
                        help="alternate k and k//2 across the pool")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test scale for CI")
    parser.add_argument("--json", metavar="PATH", default=None)
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
        config = config.with_(num_objects=300, num_users=60, num_locations=5, k=3)
        args.queries = 16
        args.batch_size = 8

    print(f"dataset: {config.label()}  (mode={args.mode}, "
          f"queries={args.queries}, "
          f"batch={args.batch_size}, partitioner={args.partitioner}, "
          f"pool_workers/shard={args.pool_workers}, cpus={os.cpu_count()})",
          flush=True)
    bench = build_workbench(config, cached=False)
    workload = generate_users(
        bench.dataset.objects,
        num_users=config.num_users,
        keywords_per_user=config.ul,
        unique_keywords=config.uw,
        area_side=config.area,
        seed=config.seed,
    )
    queries = query_pool(
        workload, args.queries, num_locations=config.num_locations,
        ws=config.ws, k=config.k, seed=config.seed, seed_stride=101,
    )
    if args.mixed_k:
        for i, q in enumerate(queries):
            if i % 2:
                q.k = max(1, config.k // 2)
    options = QueryOptions(mode=args.mode, backend=args.backend)
    index_users = args.mode == "indexed"

    # Sequential single-engine reference for the equivalence assertion.
    reference_engine = MaxBRSTkNNEngine(
        bench.dataset,
        EngineConfig(fanout=config.fanout, index_users=index_users),
    )
    ref_options = QueryOptions(mode=args.mode, backend="python")
    reference = [reference_engine.query(q, ref_options) for q in queries]

    print(f"\n{'configuration':<30} {'q/s':>8} {'total ms':>10} "
          f"{'scatter ms':>11} {'central ms':>11}")
    rows = []
    qps_by_shards = {}
    ok = True
    for num_shards in args.shards:
        ecfg = EngineConfig(
            fanout=config.fanout, num_shards=num_shards,
            partitioner=args.partitioner, index_users=index_users,
        )
        if num_shards == 1:
            engine = MaxBRSTkNNEngine(bench.dataset, ecfg)
            elapsed, results = run_engine(engine, queries, options, args.batch_size)
            scatter_s = 0.0
        else:
            engine = ShardedEngine(bench.dataset, ecfg)
            if args.pool_workers > 0:
                engine.start_pools(args.pool_workers)
            try:
                elapsed, results = run_engine(
                    engine, queries, options, args.batch_size
                )
            finally:
                engine.close_pools()
            scatter_s = sum(
                s["refine_ms"] + s["shortlist_ms"] for s in engine.shard_stats()
            ) / 1000.0
        qps = len(queries) / elapsed if elapsed > 0 else float("inf")
        qps_by_shards[num_shards] = qps
        label = f"shards={num_shards}"
        ok &= assert_equivalent(reference, results, label)
        print(f"{label:<30} {qps:>8.1f} {1000 * elapsed:>10.1f} "
              f"{1000 * scatter_s:>11.1f} "
              f"{1000 * max(0.0, elapsed - scatter_s):>11.1f}")
        rows.append(
            {
                "shards": num_shards,
                "queries_per_sec": qps,
                "total_ms": 1000 * elapsed,
                "scatter_work_ms": 1000 * scatter_s,
            }
        )

    base = min(args.shards)
    peak = max(args.shards)
    speedup = qps_by_shards[peak] / qps_by_shards[base]
    print(f"\nshards={peak} vs shards={base}: {speedup:.2f}x queries/sec")

    # Amdahl-style scaling model.  Per-shard wall clocks measured under
    # pool contention over-count (a worker's window includes slices
    # where other processes hold the CPU), so the phase split comes
    # from a dedicated *in-process* pass at peak shards: there the
    # per-shard refine+shortlist times and the per-query central-search
    # times are true single-core work.  Both fan out under pools (the
    # searches over the root search pool), so the parallel share is
    # their sum; the serial remainder — the one tree walk, the merges,
    # dispatch — is what sharding cannot touch.
    model = None
    if peak > 1:
        ip_engine = ShardedEngine(
            bench.dataset,
            EngineConfig(fanout=config.fanout, num_shards=peak,
                         partitioner=args.partitioner,
                         index_users=index_users),
        )
        ip_elapsed, ip_results = run_engine(
            ip_engine, queries, options, args.batch_size
        )
        ok &= assert_equivalent(reference, ip_results, f"shards={peak} in-process")
        ip_scatter = sum(
            s["refine_ms"] + s["shortlist_ms"] for s in ip_engine.shard_stats()
        ) / 1000.0
        ip_search = ip_engine.gather_stats()["search_ms"] / 1000.0
        ip_parallel = min(ip_elapsed, ip_scatter + ip_search)
        parallel = ip_parallel / ip_elapsed if ip_elapsed > 0 else 0.0
        serial_s = max(0.0, ip_elapsed - ip_parallel)
        modeled_s = serial_s + ip_parallel / peak
        modeled_qps = len(queries) / modeled_s if modeled_s > 0 else float("inf")
        # Name the comparison honestly: "vs single" only when a real
        # 1-shard run is in the sweep; otherwise vs the smallest config.
        base_label = "the single engine" if base == 1 else f"shards={base}"
        speedup_key = (
            "modeled_speedup_vs_single" if base == 1
            else "modeled_speedup_vs_base"
        )
        model = {
            "in_process_total_ms": 1000 * ip_elapsed,
            "scatter_work_ms": 1000 * ip_scatter,
            "central_search_ms": 1000 * ip_search,
            "parallel_fraction": parallel,
            "modeled_queries_per_sec": modeled_qps,
            speedup_key: modeled_qps / qps_by_shards[base],
        }
        print(f"scaling model (in-process pass, no pool contention): "
              f"parallelizable work (scatter {1000 * ip_scatter:.0f} ms + "
              f"searches {1000 * ip_search:.0f} ms) is {100 * parallel:.0f}% "
              f"of {1000 * ip_elapsed:.0f} ms wall at shards={peak}; with "
              f"{peak} real cores that projects {modeled_qps:.1f} q/s = "
              f"{model[speedup_key]:.2f}x {base_label} "
              f"(measured on {os.cpu_count()} CPU(s))")

    if args.json:
        payload = {
            "benchmark": "sharded_scatter_gather",
            "mode": args.mode,
            "dataset": config.label(),
            "partitioner": args.partitioner,
            "pool_workers_per_shard": args.pool_workers,
            "queries": len(queries),
            "batch_size": args.batch_size,
            "cpus": os.cpu_count(),
            "sweep": rows,
            "speedup_peak_vs_base": speedup,
            "scaling_model": model,
            "equivalent_to_single_engine": ok,
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")

    if not ok:
        return 1
    print(f"equivalence check: sharded == single-engine sequential on "
          f"{len(queries)} queries x {len(args.shards)} configurations")
    multi_core = (os.cpu_count() or 1) >= 2
    if (not args.tiny and peak >= 4 and peak != base and multi_core
            and speedup < 1.5):
        print("ACCEPTANCE FAILURE: sharded speedup below 1.5x on a "
              "multi-core host")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
