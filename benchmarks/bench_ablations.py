"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not paper figures — these quantify the cost/benefit of individual
design decisions so a downstream user can tune them:

* **MIR vs IR postings** — the extra min-weight per posting buys the
  joint traversal's lower bounds; measure the storage overhead and the
  baseline search cost on both layouts.
* **Buffer pool** — the paper evaluates cold queries; an LRU buffer
  models the warm case and bounds the attainable I/O saving.
* **Fanout** — wider nodes mean fewer levels but coarser bounds; the
  joint traversal is sensitive to both.
* **Greedy prefix evaluation** — our greedy selector evaluates every
  prefix of the greedy choice (a deviation fixing non-monotone LM
  scores); measure its cost against the raw greedy pick.
"""

import pytest

from repro import Dataset, EngineConfig, MaxBRSTkNNEngine
from repro.bench.harness import measure_topk_joint, measure_selection
from repro.datagen import candidate_locations, flickr_like, generate_users
from repro.index.irtree import IRTree, MIRTree
from repro.topk.single import topk_all_users_individually

from conftest import BENCH_BASE, bench_for, run_once


def _small_world(seed=5):
    objects, vocab = flickr_like(num_objects=1000, seed=seed)
    workload = generate_users(objects, num_users=100, seed=seed)
    candidate_locations(workload, num_locations=10, seed=seed)
    dataset = Dataset(objects, workload.users, relevance="LM", vocabulary=vocab)
    return dataset


@pytest.mark.parametrize("layout", ["ir", "mir"])
def test_ablation_posting_layout_build(benchmark, layout):
    """Index build cost and on-disk size, IR vs MIR posting layout."""
    dataset = _small_world()

    def build():
        cls = IRTree if layout == "ir" else MIRTree
        if layout == "ir":
            return IRTree(dataset.objects, dataset.relevance, minmax=False)
        return MIRTree(dataset.objects, dataset.relevance)

    tree = benchmark.pedantic(build, rounds=1, iterations=1)
    benchmark.extra_info["inverted_bytes"] = tree.total_inverted_bytes()


@pytest.mark.parametrize("buffer_pages", [0, 1000, 100000])
def test_ablation_buffer_pool(benchmark, buffer_pages):
    """Warm-cache upside of the per-user baseline search."""
    dataset = _small_world()
    engine = MaxBRSTkNNEngine(dataset, EngineConfig(buffer_pages=buffer_pages))

    def run():
        engine.reset_io()
        topk_all_users_individually(
            engine.object_tree, dataset, 10, store=engine.store
        )
        return engine.io.total

    io = run_once(benchmark, run)
    benchmark.extra_info["total_io"] = io
    if engine.store.buffer is not None:
        benchmark.extra_info["hit_rate"] = round(engine.store.buffer.hit_rate, 3)


@pytest.mark.parametrize("fanout", [8, 32, 128])
def test_ablation_fanout(benchmark, fanout):
    """Tree fanout vs joint-traversal cost."""
    bench = bench_for(None, None, BENCH_BASE.with_(fanout=fanout))
    metrics = run_once(benchmark, measure_topk_joint, bench)
    benchmark.extra_info["total_io"] = metrics.total_io


@pytest.mark.parametrize("ws", [2, 4])
def test_ablation_greedy_prefix_cost(benchmark, ws):
    """The greedy selector including its prefix evaluations."""
    bench = bench_for("ws", ws)
    metrics = run_once(benchmark, measure_selection, bench, "approx")
    benchmark.extra_info["combinations_scored"] = metrics.combinations_scored


@pytest.mark.parametrize("variant", ["mir", "mdir"])
def test_ablation_dir_grouping(benchmark, variant):
    """Text-aware (DIR-style) vs purely spatial leaf grouping: build
    cost, leaf text cohesion, and joint-traversal I/O."""
    from repro.core.joint_topk import joint_traversal
    from repro.index.dirtree import MDIRTree, leaf_cohesion
    from repro.index.irtree import MIRTree
    from repro.storage.iostats import IOCounter
    from repro.storage.pager import PageStore

    dataset = _small_world(seed=11)
    by_id = {o.item_id: o for o in dataset.objects}

    def build():
        if variant == "mir":
            return MIRTree(dataset.objects, dataset.relevance, fanout=16)
        return MDIRTree(dataset.objects, dataset.relevance, fanout=16, beta=0.3)

    tree = benchmark.pedantic(build, rounds=1, iterations=1)
    counter = IOCounter()
    joint_traversal(tree, dataset, 10, store=PageStore(counter=counter))
    benchmark.extra_info["leaf_cohesion"] = round(leaf_cohesion(tree, by_id), 4)
    benchmark.extra_info["traversal_io"] = counter.total
