"""Unified phase-pipeline executor: one logical plan, many physical executors.

Before PR 5, batch orchestration lived twice: :mod:`repro.core.batch`
hand-rolled the single-engine flow (phase-1 sharing, process fan-out,
pool chunking) while :mod:`repro.serve.sharded` re-implemented the same
traverse → refine → shortlist → search flow as per-phase scatter loops.
Keeping the two in lockstep was manual work, and every asymmetry showed
up as a planner rejection (``Mode.INDEXED`` could not shard, could not
share pools across k, could not fan its search out).

This module makes the flow first-class.  A flush is an
:class:`ExecutionPipeline` — an ordered tuple of typed :class:`Stage`\\ s,
each with declared inputs/outputs over a :class:`FlushContext`
blackboard and per-phase time/I-O accounting (:class:`StageStats`).
Central stages run on the root engine; scatter stages obey a **pure
scatter contract**::

    split(ctx, shard)  ->  payload list          (pure, no mutation)
    run(dataset, payload[, context])             (the worker entry)
    merge(ctx, partials per shard)               (gather, writes outputs)

``run`` is :func:`execute_shard_payload` — the ONE worker entry point
shared by persistent pool workers and the deterministic in-process
fallback, so both execution modes are the same code path.  Two
executors drive the pipeline:

* :class:`LocalExecutor` — one engine, one implicit shard (the full
  dataset), behind ``MaxBRSTkNNEngine.query_batch``.  Phase 2
  optionally fans out over an injected persistent pool.
* :class:`ShardedExecutor` — N partitioned engines; replaces the
  per-phase fan-out loops in ``ShardedEngine``.  Refine/shortlist
  scatter once per shard per phase, the per-query searches fan out
  over the root search pool.

Pipelines by mode (both executors):

* ``joint``    — traverse → refine → shortlist+search (local fuses the
  last two per query: with one partition there is nothing to merge
  between them; sharded splits them so the merge barrier sits exactly
  where cross-shard data meets).
* ``baseline`` — per-user topk → select (local only; no mergeable
  group traversal).
* ``indexed``  — root-traverse → best-first search per query.  Since
  the node-RSk reformulation (:mod:`repro.core.indexed_users`) every
  per-k quantity derives pool-independently from one ``k_max`` walk,
  so indexed batches share a single traversal like joint batches do,
  and the searches fan out over the root search pool against
  read-only :meth:`~repro.storage.pager.PageStore.ledger_view` stores
  whose :class:`~repro.storage.pager.IOCharge` ledgers replay onto the
  engine's counter at gather time.

Result identity is the invariant throughout: results, I/O traces and
selection stats equal the single sequential engine's across
``{joint, indexed}`` × shards × partitioners × mixed-k × backends
(property-tested in ``tests/core/test_pipeline.py`` and
``tests/serve/test_sharded.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..storage.pager import IOCharge
from .query import MaxBRSTkNNQuery, MaxBRSTkNNResult, QueryStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..serve.pool import PersistentWorkerPool
    from .engine import MaxBRSTkNNEngine
    from .planner import QueryPlan

__all__ = [
    "ScatterFailure",
    "StageStats",
    "FlushReport",
    "FlushContext",
    "Stage",
    "TraverseStage",
    "RefineStage",
    "ShortlistStage",
    "SearchStage",
    "SelectStage",
    "IndexedSearchStage",
    "ExecutionPipeline",
    "build_pipeline",
    "LocalExecutor",
    "ShardedExecutor",
    "execute_shard_payload",
]


class ScatterFailure(RuntimeError):
    """A pooled scatter round failed to produce results.

    The pool-transport half of the scatter contract: raised (or
    subclassed — see :mod:`repro.serve.errors`) when a worker pool
    could not complete a round for *transport* reasons — a worker
    process died, the round outlived its deadline, the pool is closed
    or broken.  Executors catch exactly this type and re-run the same
    payloads in-process: ``execute_shard_payload`` is pure, so the
    degraded round is bitwise-identical, only slower.  Genuine task
    exceptions (bugs that would reproduce in-process) are re-raised to
    the caller once retries are exhausted, never swallowed.
    """


# ----------------------------------------------------------------------
# Per-phase accounting
# ----------------------------------------------------------------------

@dataclass(slots=True)
class StageStats:
    """Wall time, simulated I/O and scatter width of one stage run."""

    stage: str
    items: int = 0          # work items (queries, ks) the stage covered
    scatter_width: int = 1  # partitions/pools the stage fanned out to
    time_s: float = 0.0
    io_node_visits: int = 0
    io_invfile_blocks: int = 0
    retries: int = 0        # supervised pool rounds re-dispatched
    degraded: int = 0       # partitions that fell back to in-process
    #: Serialized bytes crossing the pool pipes this stage: dispatched
    #: payloads out, returned chunks in.  0 for in-process rounds (the
    #: payloads never leave the parent, there is nothing to serialize).
    payload_bytes_out: int = 0
    payload_bytes_in: int = 0

    def snapshot(self) -> dict:
        return {
            "stage": self.stage,
            "items": self.items,
            "scatter_width": self.scatter_width,
            "time_ms": round(1000 * self.time_s, 3),
            "io_node_visits": self.io_node_visits,
            "io_invfile_blocks": self.io_invfile_blocks,
            "retries": self.retries,
            "degraded": self.degraded,
            "payload_bytes_out": self.payload_bytes_out,
            "payload_bytes_in": self.payload_bytes_in,
        }


@dataclass(slots=True)
class FlushReport:
    """Per-stage accounting of one executed flush (introspection)."""

    mode: str
    batch_size: int
    stages: List[StageStats] = field(default_factory=list)

    def stage(self, name: str) -> Optional[StageStats]:
        for st in self.stages:
            if st.stage == name:
                return st
        return None

    @property
    def total_retries(self) -> int:
        """Pool rounds re-dispatched across every stage of this flush."""
        return sum(st.retries for st in self.stages)

    @property
    def degraded_partitions(self) -> int:
        """Partitions that fell back to in-process across all stages."""
        return sum(st.degraded for st in self.stages)

    @property
    def payload_bytes_out(self) -> int:
        """Serialized payload bytes dispatched to pools this flush."""
        return sum(st.payload_bytes_out for st in self.stages)

    @property
    def payload_bytes_in(self) -> int:
        """Serialized result bytes collected from pools this flush."""
        return sum(st.payload_bytes_in for st in self.stages)

    def snapshot(self) -> dict:
        return {
            "mode": self.mode,
            "batch_size": self.batch_size,
            "payload_bytes_out": self.payload_bytes_out,
            "payload_bytes_in": self.payload_bytes_in,
            "stages": [st.snapshot() for st in self.stages],
        }


class FlushContext(dict):
    """The pipeline blackboard: named slots stages read and write.

    A plain dict plus a checked getter so a mis-wired pipeline fails
    with the missing slot's name instead of a bare ``KeyError``.
    """

    def require(self, key: str):
        if key not in self:
            raise RuntimeError(
                f"pipeline slot {key!r} not produced by any upstream stage"
            )
        return self[key]


# ----------------------------------------------------------------------
# The worker entry point (pure scatter contract's `run`)
# ----------------------------------------------------------------------

def execute_shard_payload(dataset, payload: tuple, context=None):
    """Run one scatter work item against ``dataset``.

    The ONE implementation behind both execution modes: forked pool
    workers call it with their copy-on-write dataset (and ``context`` —
    the MIUR-tree for indexed search payloads), the in-process fallback
    passes both explicitly.  Payload kinds:

    * ``("refine", traversal, ks, backend, shard_id)`` — Algorithm 2
      for the shard's users at each k against the shared pool.
    * ``("shortlist", su, queries, rsk_by_k, group_by_k, backend,
      shard_id)`` — Algorithm 3's per-user shortlist test.
    * ``("search", items, rsk, rsk_group, method, backend)`` — the
      gather-side central best-first searches over merged shortlists
      (``dataset`` = the FULL dataset here).
    * ``("indexed_search", queries, views, traversal, rsk_group,
      users_total, topk_time_s, io_node_visits, io_invfile_blocks,
      method, backend)`` — per-query best-first MIUR searches, each
      against its own read-only
      :meth:`~repro.storage.pager.PageStore.ledger_view` (``views``
      aligns with ``queries``; a view is a tiny (store, charge) pair,
      so shipping them is free); returns ``(result, IOCharge)`` pairs
      so the gather replays the simulated I/O onto the shared counter.
    """
    from .partial import compute_partial, compute_shortlist_partial
    from .payload import decode_shard_payload

    # The ONE decode funnel: arena-encoded payloads (config.use_shm)
    # resolve their ArenaRefs / packed blocks here; plain pickle
    # payloads pass through untouched.  Pool workers, degraded
    # in-process re-runs and the sharded in-process path all land here,
    # so both transports execute identical inputs.
    payload = decode_shard_payload(payload)
    kind = payload[0]
    if kind == "refine":
        _, traversal, ks, backend, shard_id = payload
        return [
            compute_partial(dataset, traversal, k, backend=backend, shard_id=shard_id)
            for k in ks
        ]
    if kind == "shortlist":
        _, su, queries, rsk_by_k, group_by_k, backend, shard_id = payload
        return [
            compute_shortlist_partial(
                dataset, q, rsk_by_k[q.k], group_by_k[q.k], su,
                backend=backend, shard_id=shard_id,
            )
            for q in queries
        ]
    if kind == "search":
        from .partial import run_merged_search

        _, items, rsk, rsk_group, method, backend = payload
        out = []
        for query, kept, ids_per_location, pruned, stats, base_selection_s in items:
            result, _elapsed = run_merged_search(
                dataset, query, kept, ids_per_location, pruned, stats,
                base_selection_s, rsk, rsk_group, method, backend,
            )
            out.append(result)
        return out
    if kind == "indexed_search":
        from .indexed_users import indexed_search
        from .joint_topk import canonical_candidates

        (_, queries, views, traversal, rsk_group, users_total, topk_time_s,
         io_node_visits, io_invfile_blocks, method, backend) = payload
        if context is None:
            raise RuntimeError(
                "indexed_search payload needs the MIUR-tree as worker context"
            )
        # Chunks are grouped per k, so the canonical pool (and its
        # kernel arrays) is one derivation for the whole chunk — the
        # worker-side twin of the RootTraversal per-k memoization.
        canonical = canonical_candidates(traversal, rsk_group)
        pool_arrays = None
        if backend == "numpy":
            from .kernels import CandidatePoolArrays

            pool_arrays = CandidatePoolArrays(dataset, canonical)
        out = []
        for query, (store, charge) in zip(queries, views):
            stats = QueryStats(
                users_total=users_total,
                topk_time_s=topk_time_s,
                io_node_visits=io_node_visits,
                io_invfile_blocks=io_invfile_blocks,
            )
            result = indexed_search(
                context, dataset, query, traversal, rsk_group, stats,
                method=method, backend=backend, store=store,
                canonical=canonical, pool_arrays=pool_arrays,
            )
            out.append((result, charge))
        return out
    raise ValueError(f"unknown shard payload kind {kind!r}")


# ----------------------------------------------------------------------
# Stages
# ----------------------------------------------------------------------

class Stage:
    """One pipeline phase: declared inputs/outputs over the context.

    Central stages implement :meth:`run_central`; scatter stages
    implement the pure contract :meth:`split` / :func:`run`
    (= :func:`execute_shard_payload`) / :meth:`merge`.
    """

    name: str = "stage"
    scatter: bool = False
    #: Context slots this stage reads / writes (wiring is validated by
    #: the executor before the stage runs).
    inputs: Tuple[str, ...] = ()
    outputs: Tuple[str, ...] = ()
    #: Intra-stage slots ``split`` hands to ``merge`` through the
    #: context; the executor drops them when the stage finishes, so
    #: they are never visible downstream.
    scratch: Tuple[str, ...] = ()
    #: Slots read with ``ctx.get(...)`` that may legitimately be
    #: absent (executor hints rather than pipeline products).
    optional: Tuple[str, ...] = ()

    def run_central(self, ctx: FlushContext) -> None:
        raise NotImplementedError

    def split(self, ctx: FlushContext, shard) -> List[tuple]:
        raise NotImplementedError

    #: The scatter contract's `run` — stages share the module-level
    #: worker entry so pooled and in-process execution cannot diverge.
    run = staticmethod(execute_shard_payload)

    def merge(self, ctx: FlushContext, partials_per_shard: List[list]) -> None:
        raise NotImplementedError


class TraverseStage(Stage):
    """Phase 1a (central): ensure the cross-k pool, derive group thresholds.

    Joint mode walks (or reuses) the engine's
    :class:`~repro.core.batch.SharedTraversalPool`; indexed mode the
    MIUR-root :class:`~repro.core.indexed_users.RootTraversal` pool.
    Either way ONE tree walk per pool generation serves every k in the
    batch — ``plan.shared_traversal_k`` names it.
    """

    name = "traverse"
    inputs = ("engine", "plan", "queries")
    outputs = ("pool_state", "group_by_k")

    def run_central(self, ctx: FlushContext) -> None:
        from .batch import _ensure_traversal_pool
        from .config import Mode
        from .indexed_users import ensure_root_pool

        engine = ctx.require("engine")
        plan = ctx.require("plan")
        assert plan.shared_traversal_k is not None
        if plan.mode is Mode.INDEXED:
            pool = ensure_root_pool(engine, plan.shared_traversal_k, plan.backend)
        else:
            pool = _ensure_traversal_pool(engine, plan.shared_traversal_k, plan.backend)
        pool.hits += len(ctx.require("queries"))
        ctx["pool_state"] = pool
        # Both pool kinds memoize the per-k derivation, so repeat
        # flushes pay a dict hit, not an O(pool log pool) sort.
        ctx["group_by_k"] = {
            k: pool.rsk_group_for(k) for k in plan.distinct_ks
        }


class RefineStage(Stage):
    """Phase 1b (scatter over user partitions): exact ``RSk(u)`` per k.

    ``split`` emits one refine payload per worker chunk of the missing
    ks; ``merge`` unions the disjoint per-shard maps back into the
    sequential-identical threshold map per k
    (:func:`repro.core.partial.merge_partials`).
    """

    name = "refine"
    scatter = True
    inputs = ("pool_state", "need_ks", "plan")
    outputs = ("merged_by_k",)

    def split(self, ctx: FlushContext, shard) -> List[tuple]:
        ks = ctx.require("need_ks")
        plan = ctx.require("plan")
        pool_state = ctx.require("pool_state")
        n_chunks = max(1, min(shard.workers, len(ks)))
        return [
            ("refine", pool_state.traversal, ks[c::n_chunks], plan.backend,
             shard.shard_id)
            for c in range(n_chunks)
        ]

    def merge(self, ctx: FlushContext, partials_per_shard: List[list]) -> None:
        from .partial import merge_partials

        ks = ctx.require("need_ks")
        by_k: Dict[int, list] = {k: [] for k in ks}
        for chunks in partials_per_shard:
            for partial in (p for chunk in chunks for p in chunk):
                by_k[partial.k].append(partial)
        merged = ctx.setdefault("merged_by_k", {})
        for k in ks:
            merged[k] = merge_partials(by_k[k])


class ShortlistStage(Stage):
    """Phase 2a (scatter over user partitions): per-user admission test.

    One round covers the whole batch; ``merge`` re-orders every
    location's shard shortlists into dataset user order — the exact
    sequential scan order — at the id level
    (:func:`repro.core.partial.merge_query_shortlist_ids`).
    """

    name = "shortlist"
    scatter = True
    inputs = (
        "queries", "merged_by_k", "group_by_k", "plan", "super_user",
        "pool_state", "user_pos",
    )
    outputs = ("merged_inputs",)

    def split(self, ctx: FlushContext, shard) -> List[tuple]:
        queries = ctx.require("queries")
        plan = ctx.require("plan")
        group_by_k = ctx.require("group_by_k")
        rsk_by_k = {k: shard.rsk_by_k[k] for k in group_by_k}
        n_chunks = max(1, min(shard.workers, len(queries)))
        return [
            ("shortlist", ctx.require("super_user"), queries[c::n_chunks],
             rsk_by_k, group_by_k, plan.backend, shard.shard_id)
            for c in range(n_chunks)
        ]

    def merge(self, ctx: FlushContext, partials_per_shard: List[list]) -> None:
        from .partial import merge_query_shortlist_ids

        queries = ctx.require("queries")
        merged_by_k = ctx.require("merged_by_k")
        pool_state = ctx.require("pool_state")
        user_pos = ctx.require("user_pos")
        # Restore per-query order inside each shard's chunked return.
        per_shard: List[List] = []
        for chunks in partials_per_shard:
            n_chunks = len(chunks)
            ordered = [None] * len(queries)
            for c, chunk in enumerate(chunks):
                for offset, partial in enumerate(chunk):
                    ordered[c + offset * n_chunks] = partial
            per_shard.append(ordered)
        merged_inputs = []
        for qi, q in enumerate(queries):
            merged = merged_by_k[q.k]
            stats = QueryStats(
                users_total=merged.users_total,
                topk_time_s=pool_state.topk_time_s + merged.time_s,
                io_node_visits=pool_state.io_node_visits,
                io_invfile_blocks=pool_state.io_invfile_blocks,
            )
            partials = [shard_partials[qi] for shard_partials in per_shard]
            kept, ids_per_location, pruned = merge_query_shortlist_ids(
                partials, user_pos
            )
            base_selection_s = sum(p.time_s for p in partials)
            merged_inputs.append(
                (q, kept, ids_per_location, pruned, stats, base_selection_s)
            )
        ctx["merged_inputs"] = merged_inputs


class SearchStage(Stage):
    """Phase 2b (scatter over queries): the central best-first searches.

    Each query's search consumes the merged, aggregate-complete inputs,
    so queries are independent — ``split`` chunks them per k (one rsk
    map pickled per chunk) over the root search pool.
    """

    name = "search"
    scatter = True
    inputs = ("merged_inputs", "merged_by_k", "group_by_k", "plan")
    outputs = ("results",)
    scratch = ("search_index_groups",)

    def split(self, ctx: FlushContext, shard) -> List[tuple]:
        plan = ctx.require("plan")
        merged_inputs = ctx.require("merged_inputs")
        merged_by_k = ctx.require("merged_by_k")
        group_by_k = ctx.require("group_by_k")
        by_k: Dict[int, List[int]] = {}
        for i, item in enumerate(merged_inputs):
            by_k.setdefault(item[0].k, []).append(i)
        payloads = []
        index_groups = []
        for k, indices in by_k.items():
            n_chunks = max(1, min(shard.workers, len(indices)))
            merged = merged_by_k[k]
            for c in range(n_chunks):
                chunk = indices[c::n_chunks]
                payloads.append(
                    ("search", [merged_inputs[i] for i in chunk], merged.rsk,
                     group_by_k[k], plan.method.value, plan.backend)
                )
                index_groups.append(chunk)
        ctx["search_index_groups"] = index_groups
        return payloads

    def merge(self, ctx: FlushContext, partials_per_shard: List[list]) -> None:
        merged_inputs = ctx.require("merged_inputs")
        (chunks,) = partials_per_shard  # one logical shard: the root
        index_groups = ctx.require("search_index_groups")
        results: List[Optional[MaxBRSTkNNResult]] = [None] * len(merged_inputs)
        for indices, group in zip(index_groups, chunks):
            for i, result in zip(indices, group):
                results[i] = result
        ctx["results"] = results


class SelectStage(Stage):
    """Local phase 2 (scatter over queries): fused shortlist + search.

    The single-partition specialization: with one user partition there
    is no cross-shard merge between the shortlist and the search, so
    the local executor runs Algorithm 3 whole per query
    (:func:`repro.core.batch._select_one`) — one pool round instead of
    two.  Result-identical to the split stages by construction
    (``select_candidate`` *is* ``shortlist_locations`` +
    ``search_shortlists``).
    """

    name = "select"
    scatter = True
    inputs = ("keyed", "shared_by_key", "plan")
    outputs = ("results",)
    scratch = ("select_index_groups",)

    def split(self, ctx: FlushContext, shard) -> List[tuple]:
        plan = ctx.require("plan")
        keyed = ctx.require("keyed")
        shared_by_key = ctx.require("shared_by_key")
        by_key: Dict[tuple, List[int]] = {}
        for i, (_, key) in enumerate(keyed):
            by_key.setdefault(key, []).append(i)
        payloads, index_groups = [], []
        for key, indices in by_key.items():
            n_chunks = max(1, min(shard.workers, len(indices)))
            for c in range(n_chunks):
                chunk = indices[c::n_chunks]
                payloads.append(
                    ([keyed[i][0] for i in chunk], shared_by_key[key],
                     plan.mode.value, plan.method.value, plan.backend)
                )
                index_groups.append(chunk)
        ctx["select_index_groups"] = index_groups
        return payloads

    def merge(self, ctx: FlushContext, partials_per_shard: List[list]) -> None:
        keyed = ctx.require("keyed")
        (chunks,) = partials_per_shard
        index_groups = ctx.require("select_index_groups")
        results: List[Optional[MaxBRSTkNNResult]] = [None] * len(keyed)
        for indices, group in zip(index_groups, chunks):
            for i, result in zip(indices, group):
                results[i] = result
        ctx["results"] = results


class IndexedSearchStage(Stage):
    """Indexed phase 2 (scatter over queries): best-first MIUR searches.

    Queries chunk per k (the traversal pool pickles once per chunk) and
    run against read-only ledger stores; ``merge`` replays every
    :class:`~repro.storage.pager.IOCharge` onto the engine's shared
    counter in query order, reproducing the sequential totals exactly.
    """

    name = "indexed-search"
    scatter = True
    inputs = ("queries", "pool_state", "group_by_k", "plan", "store",
              "users_total", "io_counter")
    outputs = ("results",)
    scratch = ("indexed_index_groups",)
    optional = ("use_ledgers",)

    def split(self, ctx: FlushContext, shard) -> List[tuple]:
        plan = ctx.require("plan")
        queries = ctx.require("queries")
        pool = ctx.require("pool_state")
        group_by_k = ctx.require("group_by_k")
        users_total = ctx.require("users_total")
        store = ctx.require("store")
        # Fan-out gets one read-only ledger view per query (the
        # executor sets the flag; in-process execution charges the real
        # store and never builds views — a warm LRU buffer forbids them).
        use_ledgers = bool(ctx.get("use_ledgers"))
        by_k: Dict[int, List[int]] = {}
        for i, q in enumerate(queries):
            by_k.setdefault(q.k, []).append(i)
        payloads, index_groups = [], []
        for k, indices in by_k.items():
            n_chunks = max(1, min(shard.workers, len(indices)))
            for c in range(n_chunks):
                chunk = indices[c::n_chunks]
                views = (
                    [store.ledger_view() for _ in chunk] if use_ledgers else None
                )
                payloads.append(
                    ("indexed_search", [queries[i] for i in chunk], views,
                     pool.traversal, group_by_k[k], users_total,
                     pool.topk_time_s, pool.io_node_visits,
                     pool.io_invfile_blocks, plan.method.value, plan.backend)
                )
                index_groups.append(chunk)
        ctx["indexed_index_groups"] = index_groups
        return payloads

    def merge(self, ctx: FlushContext, partials_per_shard: List[list]) -> None:
        queries = ctx.require("queries")
        io_counter = ctx.require("io_counter")
        (chunks,) = partials_per_shard
        index_groups = ctx.require("indexed_index_groups")
        results: List[Optional[MaxBRSTkNNResult]] = [None] * len(queries)
        charges: List[Optional[IOCharge]] = [None] * len(queries)
        for indices, group in zip(index_groups, chunks):
            for i, (result, charge) in zip(indices, group):
                results[i] = result
                charges[i] = charge
        # Replay ledgers in query order: addition commutes, so the
        # shared counter ends exactly where sequential execution would.
        for charge in charges:
            if charge is not None:
                charge.apply(io_counter)
        ctx["results"] = results


def run_indexed_chunk_inprocess(engine, pool_state, payload: tuple) -> list:
    """One indexed-search chunk against the engine's own page store.

    The in-process twin of the worker-side ``indexed_search`` payload
    path: charges go straight to the shared counter (no ledger to
    replay, so the charge slot is ``None``), and the per-k canonical
    pool / kernel arrays come memoized off the
    :class:`~repro.core.indexed_users.RootTraversal` instead of being
    rebuilt per chunk.  Decision-identical to the worker path — both
    call :func:`~repro.core.indexed_users.indexed_search` on the same
    derived inputs.
    """
    from .indexed_users import indexed_search
    from .payload import decode_shard_payload

    (_, queries, _views, traversal, rsk_group, users_total, topk_time_s,
     io_node_visits, io_invfile_blocks, method, backend) = (
        decode_shard_payload(payload)
    )
    out = []
    for query in queries:
        stats = QueryStats(
            users_total=users_total,
            topk_time_s=topk_time_s,
            io_node_visits=io_node_visits,
            io_invfile_blocks=io_invfile_blocks,
        )
        result = indexed_search(
            engine.user_tree, engine.dataset, query, traversal, rsk_group,
            stats, method=method, backend=backend, store=engine.store,
            canonical=pool_state.canonical_for(query.k),
            pool_arrays=(
                pool_state.pool_arrays_for(engine.dataset, query.k)
                if backend == "numpy" else None
            ),
        )
        out.append((result, None))
    return out


# ----------------------------------------------------------------------
# Pipelines
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ExecutionPipeline:
    """An ordered, validated tuple of stages for one plan."""

    mode: str
    stages: Tuple[Stage, ...]

    def stage_names(self) -> Tuple[str, ...]:
        return tuple(stage.name for stage in self.stages)


def build_pipeline(plan: "QueryPlan", sharded: bool) -> ExecutionPipeline:
    """The stage list executing ``plan`` on the given executor kind."""
    from .config import Mode

    if plan.mode is Mode.INDEXED:
        stages: Tuple[Stage, ...] = (TraverseStage(), IndexedSearchStage())
    elif plan.mode is Mode.JOINT and sharded:
        stages = (TraverseStage(), RefineStage(), ShortlistStage(), SearchStage())
    elif plan.mode is Mode.JOINT:
        # Single partition: the refine phase is the central per-k
        # derivation (memoized on the pool), and shortlist+search fuse.
        stages = (TraverseStage(), DeriveThresholdsStage(), SelectStage())
    else:  # baseline: per-user top-k phase 1, fused per-query phase 2
        stages = (BaselineTopkStage(), SelectStage())
    return ExecutionPipeline(mode=plan.mode.value, stages=stages)


class BaselineTopkStage(Stage):
    """Baseline phase 1 (central): per-user top-k scans per distinct k."""

    name = "baseline-topk"
    inputs = ("engine", "plan", "queries")
    outputs = ("keyed", "shared_by_key")

    def run_central(self, ctx: FlushContext) -> None:
        from .batch import _compute_shared_baseline

        engine = ctx.require("engine")
        plan = ctx.require("plan")
        queries = ctx.require("queries")
        cache = engine._shared_topk_cache
        keyed, shared_by_key = [], {}
        for q in queries:
            key = (plan.mode.value, q.k)
            if key not in cache:
                cache[key] = _compute_shared_baseline(engine, q.k)
            entry = cache[key]
            entry.hits += 1
            shared_by_key[key] = entry
            keyed.append((q, key))
        ctx["keyed"] = keyed
        ctx["shared_by_key"] = shared_by_key


class DeriveThresholdsStage(Stage):
    """Local joint phase 1b (central): per-k thresholds off the pool.

    The single-partition refine: Algorithm 2 over the full user set,
    memoized per k on the engine's pool (``pool.by_k``) — value- and
    hit-count-compatible with the pre-pipeline batch path.
    """

    name = "refine"
    inputs = ("engine", "plan", "queries", "pool_state")
    outputs = ("keyed", "shared_by_key")

    def run_central(self, ctx: FlushContext) -> None:
        from .batch import _derive_shared_topk

        engine = ctx.require("engine")
        plan = ctx.require("plan")
        queries = ctx.require("queries")
        pool = ctx.require("pool_state")
        keyed, shared_by_key = [], {}
        for q in queries:
            key = (plan.mode.value, q.k)
            entry = _derive_shared_topk(engine, pool, q.k, plan.backend)
            entry.hits += 1
            shared_by_key[key] = entry
            keyed.append((q, key))
        ctx["keyed"] = keyed
        ctx["shared_by_key"] = shared_by_key


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------

def _encode_payloads(codec, stage_name: str, payloads: list) -> list:
    """Route payloads through the arena codec before a pool dispatch.

    No-op without a codec (``use_shm`` off / arena unavailable) — the
    payloads cross the pipe as plain pickles, the PR-3 path.
    """
    if codec is None:
        return payloads
    from .payload import encode_select_payload, encode_shard_payload

    encode = (
        encode_select_payload if stage_name == "select" else encode_shard_payload
    )
    return [encode(codec, p) for p in payloads]


def _payloads_nbytes(payloads) -> int:
    """Serialized size of a pool round's payloads (or returned chunks).

    Measured as pickle bytes — exactly what the pipe carries — on both
    transports, so the codec's win shows up as a smaller number, not a
    different metric.
    """
    from .payload import payload_nbytes

    return sum(payload_nbytes(p) for p in payloads)


def _decode_gather(chunks: list) -> list:
    """The ONE gather decode funnel for collected pool rounds: inverse
    of the worker-side :func:`repro.core.payload.encode_gather_payload`
    (identity on chunks that were never encoded)."""
    from .payload import decode_gather_payload

    return [decode_gather_payload(c) for c in chunks]


@dataclass(slots=True)
class ShardHandle:
    """What an executor needs to scatter to one partition."""

    shard_id: int
    dataset: object
    workers: int = 1                 # worker chunks to split into
    pool: object = None              # PersistentWorkerPool or None
    rsk_by_k: Dict[int, Dict[int, float]] = field(default_factory=dict)
    context: object = None           # extra worker context (MIUR-tree)
    stats: object = None             # ShardRuntimeStats or None


class _ExecutorBase:
    """Shared drive loop: wiring validation + per-stage accounting."""

    def _drive(self, pipeline: ExecutionPipeline, ctx: FlushContext) -> List[MaxBRSTkNNResult]:
        report = FlushReport(mode=pipeline.mode, batch_size=len(ctx["queries"]))
        io = ctx.get("io_counter")
        for stage in pipeline.stages:
            for slot in stage.inputs:
                if slot not in ctx:
                    raise RuntimeError(
                        f"stage {stage.name!r} needs slot {slot!r} which no "
                        f"upstream stage produced (pipeline "
                        f"{pipeline.stage_names()})"
                    )
            before = io.snapshot() if io is not None else None
            t0 = time.perf_counter()
            if stage.scatter:
                (width, items, retries, degraded,
                 bytes_out, bytes_in) = self._run_scatter(stage, ctx)
            else:
                stage.run_central(ctx)
                width, items, retries, degraded = 1, len(ctx["queries"]), 0, 0
                bytes_out = bytes_in = 0
            stats = StageStats(
                stage=stage.name,
                items=items,
                scatter_width=width,
                time_s=time.perf_counter() - t0,
                retries=retries,
                degraded=degraded,
                payload_bytes_out=bytes_out,
                payload_bytes_in=bytes_in,
            )
            if io is not None:
                delta = io.snapshot() - before
                stats.io_node_visits = delta.node_visits
                stats.io_invfile_blocks = delta.invfile_blocks
            report.stages.append(stats)
            for slot in stage.outputs:
                if slot not in ctx:
                    raise RuntimeError(
                        f"stage {stage.name!r} declared output {slot!r} but "
                        "did not produce it"
                    )
            # Scratch slots are split->merge plumbing, not products:
            # drop them so downstream stages can only see declared
            # outputs (keeps the declared contract enforceable).
            for slot in stage.scratch:
                ctx.pop(slot, None)
        self.last_flush_report = report
        return ctx.require("results")

    def _run_scatter(
        self, stage: Stage, ctx: FlushContext
    ) -> Tuple[int, int, int, int, int, int]:
        """Run one scatter stage: ``(width, items, retries, degraded,
        payload_bytes_out, payload_bytes_in)``."""
        raise NotImplementedError


class LocalExecutor(_ExecutorBase):
    """Drives the pipeline on one engine (the single implicit shard).

    Scatter stages see one :class:`ShardHandle` over the full dataset.
    The query-axis ``select`` stage fans out over the injected
    persistent pool unless the plan keeps it in-process
    (``QueryPlan.select_inprocess``); user-axis stages always run
    in-process (there is exactly one partition).
    """

    def __init__(self, engine: "MaxBRSTkNNEngine",
                 pool: Optional["PersistentWorkerPool"] = None) -> None:
        self.engine = engine
        self.pool = pool
        self.last_flush_report: Optional[FlushReport] = None

    def execute(self, queries: Sequence[MaxBRSTkNNQuery], plan: "QueryPlan") -> List[MaxBRSTkNNResult]:
        engine = self.engine
        ctx = FlushContext(
            engine=engine,
            plan=plan,
            queries=list(queries),
            io_counter=engine.io,
            store=engine.store,
            users_total=len(engine.user_tree) if engine.user_tree is not None else 0,
        )
        pipeline = build_pipeline(plan, sharded=False)
        return self._drive(pipeline, ctx)

    # -- scatter routing -----------------------------------------------
    def _run_scatter(
        self, stage: Stage, ctx: FlushContext
    ) -> Tuple[int, int, int, int, int, int]:
        plan = ctx.require("plan")
        queries = ctx.require("queries")
        if stage.name == "indexed-search":
            # Planned in-process on a single engine (the best-first
            # search reads the engine's own page store; per-k pools are
            # memoized on the RootTraversal across flushes).
            pool_state = ctx.require("pool_state")
            payloads = stage.split(
                ctx, ShardHandle(shard_id=0, dataset=self.engine.dataset)
            )
            chunks = [
                run_indexed_chunk_inprocess(self.engine, pool_state, payload)
                for payload in payloads
            ]
            stage.merge(ctx, [chunks])
            return 1, len(queries), 0, 0, 0, 0

        want_pool = (
            stage.name == "select" and self.pool is not None
            and not plan.select_inprocess
        )
        # A closed/broken pool degrades the round to in-process rather
        # than failing the flush; the split/merge layout is unchanged,
        # so the answer is bitwise-identical (only slower).
        pooled = want_pool and self.pool.available
        degraded = 1 if (want_pool and not pooled) else 0
        workers = self.pool.workers if pooled else 1
        shard = ShardHandle(
            shard_id=0,
            dataset=self.engine.dataset,
            workers=workers,
            pool=self.pool if pooled else None,
            context=self.engine.user_tree,
        )
        payloads = stage.split(ctx, shard)
        retries = 0
        bytes_out = bytes_in = 0
        chunks = None
        if pooled:
            payloads = _encode_payloads(
                getattr(self.engine, "payload_codec", None), stage.name, payloads
            )
            bytes_out = _payloads_nbytes(payloads)
            retries_before = self.pool.health.retries
            try:
                chunks = self.pool.run_selection(payloads)
            except ScatterFailure:
                # Pool transport failed past its retry budget: same
                # payloads, in-process — identity preserved (the decode
                # funnel resolves arena refs in the parent too).
                degraded = 1
            else:
                bytes_in = _payloads_nbytes(chunks)
                chunks = _decode_gather(chunks)
            retries = self.pool.health.retries - retries_before
        if chunks is None:
            from .batch import _select_chunk

            chunks = [_select_chunk(shard.dataset, p) for p in payloads]
        stage.merge(ctx, [chunks])
        return workers, len(queries), retries, degraded, bytes_out, bytes_in


class ShardedExecutor(_ExecutorBase):
    """Drives the pipeline over a :class:`~repro.serve.sharded.ShardedEngine`.

    User-axis stages scatter once per engaged shard (pool-backed shards
    via ``map_async`` — all dispatches before any collect, so shard
    pools run concurrently); query-axis stages scatter over the root
    search pool.  Refine results memoize on the engine across flushes.
    """

    def __init__(self, sharded) -> None:
        self.sharded = sharded
        self.last_flush_report: Optional[FlushReport] = None

    def execute(self, queries: Sequence[MaxBRSTkNNQuery], plan: "QueryPlan") -> List[MaxBRSTkNNResult]:
        from .config import Mode

        sharded = self.sharded
        root = sharded.root
        ctx = FlushContext(
            engine=root,
            plan=plan,
            queries=list(queries),
            io_counter=root.io,
            super_user=sharded._su,
            user_pos=sharded._user_pos,
            merged_by_k=sharded._merged_by_k,
            store=root.store,
            users_total=len(root.user_tree) if root.user_tree is not None else 0,
        )
        if plan.mode is Mode.JOINT:
            ctx["need_ks"] = [
                k for k in plan.distinct_ks if k not in sharded._merged_by_k
            ]
        pipeline = build_pipeline(plan, sharded=True)
        return self._drive(pipeline, ctx)

    # -- scatter routing -----------------------------------------------
    def _run_scatter(
        self, stage: Stage, ctx: FlushContext
    ) -> Tuple[int, int, int, int, int, int]:
        if stage.name in ("search", "indexed-search"):
            return self._scatter_queries(stage, ctx)
        return self._scatter_users(stage, ctx)

    def _scatter_users(
        self, stage: Stage, ctx: FlushContext
    ) -> Tuple[int, int, int, int, int, int]:
        sharded = self.sharded
        queries = ctx.require("queries")
        plan = ctx.require("plan")
        if stage.name == "refine" and not ctx.require("need_ks"):
            # every k already merged (memoized across flushes)
            return 0, 0, 0, 0, 0, 0
        # Observed planner decision: at trivial queue depth the shard
        # pools are pure dispatch overhead — run the same payloads
        # in-process (split/merge and partition layout unchanged).
        inprocess = plan.shard is not None and plan.shard.scatter_inprocess
        degraded = 0
        handles = []
        for shard in sharded._shards:
            if shard.users == 0:
                continue
            pool = None if inprocess else shard.pool
            if pool is not None and not pool.available:
                # Closed/broken pool: this shard's round runs in-process
                # (identical payloads, identical answer) — degradation,
                # not planner choice, so it is counted.
                pool = None
                degraded += 1
                shard.stats.degraded_rounds += 1
            handles.append(
                ShardHandle(
                    shard_id=shard.shard_id,
                    dataset=shard.engine.dataset,
                    workers=pool.workers if pool is not None else 1,
                    pool=pool,
                    rsk_by_k=shard.rsk_by_k,
                    stats=shard.stats,
                )
            )
        items = (
            len(ctx["need_ks"]) if stage.name == "refine" else len(queries)
        )
        for handle in handles:
            handle.stats.queue_depth_peak = max(
                handle.stats.queue_depth_peak, items
            )
            handle.stats.scatter_flushes += 1
        # Dispatch everything before collecting anything: shard pools
        # run concurrently even with one worker each.  A dispatch that
        # fails outright is recovered in the supervised collect below.
        plans = [stage.split(ctx, handle) for handle in handles]
        codec = getattr(sharded.root, "payload_codec", None)
        bytes_out = bytes_in = 0
        for i, handle in enumerate(handles):
            if handle.pool is None:
                continue
            plans[i] = _encode_payloads(codec, stage.name, plans[i])
            bytes_out += _payloads_nbytes(plans[i])
        dispatches: List[Optional[object]] = [None] * len(handles)
        for i, handle in enumerate(handles):
            if handle.pool is None:
                continue
            try:
                dispatches[i] = handle.pool.dispatch(plans[i])
            except ScatterFailure:
                dispatches[i] = None  # run_supervised re-dispatches
        returned: List[Optional[list]] = [None] * len(handles)
        retries = 0
        for i, handle in enumerate(handles):
            if handle.pool is None:
                returned[i] = [
                    execute_shard_payload(handle.dataset, payload)
                    for payload in plans[i]
                ]
                continue
            retries_before = handle.pool.health.retries
            try:
                returned[i] = handle.pool.run_supervised(
                    plans[i], dispatch=dispatches[i]
                )
            except ScatterFailure:
                # Supervision exhausted (respawn failed, repeat
                # deadline, pool broken): re-scatter this shard's round
                # in-process — execute_shard_payload is pure (and the
                # decode funnel resolves arena refs in the parent), so
                # the merged answer is unchanged.
                returned[i] = [
                    execute_shard_payload(handle.dataset, payload)
                    for payload in plans[i]
                ]
                degraded += 1
                handle.stats.degraded_rounds += 1
            else:
                bytes_in += _payloads_nbytes(returned[i])
                returned[i] = _decode_gather(returned[i])
            delta = handle.pool.health.retries - retries_before
            retries += delta
            handle.stats.retries += delta
        self._account(stage, handles, returned, items)
        t_merge = time.perf_counter()
        stage.merge(ctx, returned)
        if stage.name == "shortlist":
            sharded._merge_s += time.perf_counter() - t_merge
        if stage.name == "refine":
            for handle, chunks in zip(handles, returned):
                for partial in (p for chunk in chunks for p in chunk):
                    handle.rsk_by_k[partial.k] = partial.rsk
        return len(handles), items, retries, degraded, bytes_out, bytes_in

    def _account(self, stage, handles, returned, items) -> None:
        for handle, chunks in zip(handles, returned):
            flat = [p for chunk in chunks for p in chunk]
            if stage.name == "refine":
                handle.stats.refine_tasks += items
                handle.stats.refine_time_s += sum(p.time_s for p in flat)
            else:
                handle.stats.queries += items
                handle.stats.shortlist_time_s += sum(p.time_s for p in flat)

    def _scatter_queries(
        self, stage: Stage, ctx: FlushContext
    ) -> Tuple[int, int, int, int, int, int]:
        sharded = self.sharded
        queries = ctx.require("queries")
        plan = ctx.require("plan")
        pool = sharded._search_pool
        root = sharded.root
        # Fan out only when it can pay off AND I/O stays replayable:
        # the indexed search reads MIUR pages, so a warm LRU buffer
        # (global access order) forces the in-process path.  The
        # observed planner can also pull the searches in-process when
        # measured per-query cost is under the dispatch bar.
        want_pool = (
            pool is not None and len(queries) > 1
            and (stage.name != "indexed-search" or root.store.buffer is None)
            and not (plan.shard is not None and plan.shard.search_inprocess)
        )
        use_pool = want_pool and pool.available
        degraded = 1 if (want_pool and not use_pool) else 0
        ctx["use_ledgers"] = use_pool and stage.name == "indexed-search"
        handle = ShardHandle(
            shard_id=-1,
            dataset=sharded.dataset,
            workers=(pool.workers if use_pool else 1),
            pool=pool if use_pool else None,
            context=root.user_tree,
        )
        payloads = stage.split(ctx, handle)
        t0 = time.perf_counter()
        retries = 0
        bytes_out = bytes_in = 0
        chunks = None
        if use_pool:
            payloads = _encode_payloads(
                getattr(sharded.root, "payload_codec", None),
                stage.name, payloads,
            )
            bytes_out = _payloads_nbytes(payloads)
            sharded._search_flushes += 1
            retries_before = pool.health.retries
            try:
                chunks = pool.run_supervised(payloads)
            except ScatterFailure:
                # Search pool lost past its retry budget: re-run the
                # same payloads in the parent.  With ledger views the
                # payloads already carry read-only stores whose
                # IOCharges replay at merge time, so the degraded round
                # charges identically.
                degraded = 1
            else:
                bytes_in = _payloads_nbytes(chunks)
                chunks = _decode_gather(chunks)
            retries = pool.health.retries - retries_before
        if chunks is None:
            if stage.name == "indexed-search" and not ctx["use_ledgers"]:
                # In-process: charge the engine's real store directly
                # (ledger-free), including under a warm buffer.
                chunks = [
                    run_indexed_chunk_inprocess(
                        root, ctx.require("pool_state"), payload
                    )
                    for payload in payloads
                ]
            else:
                chunks = [
                    execute_shard_payload(
                        handle.dataset, payload, context=root.user_tree
                    )
                    for payload in payloads
                ]
        sharded._search_s += time.perf_counter() - t0
        stage.merge(ctx, [chunks])
        return handle.workers, len(queries), retries, degraded, bytes_out, bytes_in
