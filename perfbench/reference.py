"""Reference answers from an independent sequential engine.

Computed after the timed window, query by query, straight from the
paper's algorithm functions on a freshly built engine: no batching,
planner, pipeline, server, cache, shards or pools.

* joint queries: one joint traversal plus Algorithm 2 per distinct k,
  then ``select_candidate`` per query (what a cold ``engine.query``
  computes, without re-walking the tree for every query);
* indexed queries: ``indexed_users_maxbrstknn`` per query, cold.

Answers are cached per query under ``perfbench/.cache``: the serving
and indexed workloads draw from fixed query pools, so after a few runs
in a checkout the reference costs nothing.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Sequence, Tuple

from repro import EngineConfig, MaxBRSTkNNEngine
from repro.core.candidate_selection import select_candidate
from repro.core.indexed_users import indexed_users_maxbrstknn
from repro.core.joint_topk import individual_topk, joint_traversal

from loadgen import SPEC, fresh_dataset, query_signature

Answer = Tuple[float, float, Tuple[int, ...], int]

CACHE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".cache")
#: Answers depend on the dataset, so the cache file is named after it.
SPEC_KEY = hashlib.sha256(repr(SPEC).encode()).hexdigest()[:16]


def answer_of(result) -> Answer:
    """(x, y, sorted keywords, cardinality) of a served result."""
    loc = result.location
    return (float(loc.x), float(loc.y), tuple(sorted(result.keywords)),
            int(result.cardinality))


def _compute_joint(dataset, queries) -> List[Answer]:
    ds = fresh_dataset(dataset)
    engine = MaxBRSTkNNEngine(ds, EngineConfig())
    phase1: Dict[int, tuple] = {}
    answers = []
    for query in queries:
        if query.k not in phase1:
            traversal = joint_traversal(engine.object_tree, ds, query.k, backend="numpy")
            per_user = individual_topk(traversal, ds, query.k, backend="numpy")
            phase1[query.k] = (
                {uid: r.kth_score for uid, r in per_user.items()}, traversal.rsk_group,
            )
        rsk, rsk_group = phase1[query.k]
        answers.append(answer_of(select_candidate(
            ds, query, rsk, rsk_group=rsk_group, method="approx", backend="numpy",
        )))
    return answers


def _compute_indexed(dataset, queries) -> List[Answer]:
    ds = fresh_dataset(dataset)
    engine = MaxBRSTkNNEngine(ds, EngineConfig(index_users=True))
    return [
        answer_of(indexed_users_maxbrstknn(
            engine.object_tree, engine.user_tree, ds, query,
            method="approx", store=engine.store, backend="numpy",
        ))
        for query in queries
    ]


def reference_answers(kind: str, dataset, queries: Sequence) -> List[Answer]:
    """Reference answers for ``queries`` (``kind``: "joint" | "indexed").

    Answers are cached per query (its full signature, k included), so
    only queries no earlier run of this checkout answered are computed.
    """
    path = os.path.join(CACHE_DIR, f"{kind}-{SPEC_KEY}.json")
    cache: Dict[str, list] = {}
    if os.path.exists(path):
        with open(path) as fh:
            cache = json.load(fh)
    keys = [hashlib.sha256(query_signature(q).encode()).hexdigest() for q in queries]
    todo = {key: q for key, q in zip(keys, queries) if key not in cache}
    if todo:
        compute = _compute_joint if kind == "joint" else _compute_indexed
        cache.update(zip(todo, compute(dataset, list(todo.values()))))
        os.makedirs(CACHE_DIR, exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w") as fh:
            json.dump(cache, fh)
        os.replace(tmp, path)
    return [(a[0], a[1], tuple(a[2]), a[3]) for a in (cache[key] for key in keys)]
