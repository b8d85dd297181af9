"""Seeded input generation: the dataset, query streams and arrival schedules.

Everything a run sends is built here before timing starts, from a
fixed dataset, a fixed pool of distinct queries and the workload seed,
so the program under test receives only finished inputs.  :func:`stream_digest` hashes what was generated, so two runs
can prove they offered identical inputs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro import Dataset, MaxBRSTkNNQuery
from repro.bench.params import DEFAULTS
from repro.datagen.users import query_pool as datagen_query_pool
from repro.serve import WorkloadSpec, make_workload

#: The DEFAULTS experiment cell (flickr, |O|=4000, |U|=400, UL=3, UW=20,
#: area 5, LM, alpha=0.5).  The dataset is the same for every seed.
SPEC = WorkloadSpec(
    dataset=DEFAULTS.dataset,
    objects=DEFAULTS.num_objects,
    users=DEFAULTS.num_users,
    ul=DEFAULTS.ul,
    uw=DEFAULTS.uw,
    area=DEFAULTS.area,
    locations=DEFAULTS.num_locations,
    measure=DEFAULTS.measure,
    alpha=DEFAULTS.alpha,
    seed=DEFAULTS.seed,
)

#: Location seeds of the warm-up query and of the measured pool come
#: from disjoint ranges, so the two never share candidate locations.
_WARMUP_BASE = 0
_POOL_BASE = 1 << 20


@dataclass(slots=True)
class Send:
    """One scheduled request of an open-loop stream."""

    at_s: float          # due time, seconds after the stream starts
    query_id: int        # index of the distinct query it carries
    repeat: bool         # True when the query was sent before


def build_dataset():
    """``(dataset, user workload)`` for :data:`SPEC`."""
    return make_workload(SPEC)


def fresh_dataset(dataset) -> Dataset:
    """A new :class:`Dataset` over the same objects and users.

    Kernel arrays hang off the dataset object, so every set-up starts
    from one of these to pay the full build.
    """
    return Dataset(dataset.objects, dataset.users, relevance=SPEC.measure,
                   alpha=SPEC.alpha)


def query_pool(workload, count: int) -> List[MaxBRSTkNNQuery]:
    """The first ``count`` queries of the one fixed pool of distinct queries.

    Each has |L|=20 fresh candidate locations, ws=2 and k=DEFAULTS.k.
    The pool does not depend on the seed: every seed sends the same
    multiset of queries, and the seed decides their order, their k and
    their timing.  Per-query cost is bimodal on this dataset, so a
    seed-drawn sample would move the median by itself.
    """
    return datagen_query_pool(
        workload, count, num_locations=DEFAULTS.num_locations, ws=DEFAULTS.ws,
        k=DEFAULTS.k, seed=_POOL_BASE, seed_stride=1,
    )


def with_k(query: MaxBRSTkNNQuery, k: int) -> MaxBRSTkNNQuery:
    return MaxBRSTkNNQuery(ox=query.ox, locations=query.locations,
                           keywords=query.keywords, ws=query.ws, k=int(k))


def warmup_query(workload, k: int) -> MaxBRSTkNNQuery:
    """The set-up flush's query: never part of any measured stream."""
    query = datagen_query_pool(
        workload, 1, num_locations=DEFAULTS.num_locations, ws=DEFAULTS.ws,
        k=DEFAULTS.k, seed=_WARMUP_BASE,
    )[0]
    return with_k(query, k)


def balanced(values: Sequence[int], count: int, rng: np.random.Generator) -> List[int]:
    """``count`` values cycling through ``values``, in seeded random order."""
    out = [values[i % len(values)] for i in range(count)]
    return [out[int(i)] for i in rng.permutation(count)]


def poisson_schedule(rate: float, count: int, rng: np.random.Generator) -> List[float]:
    """Due times of ``count`` Poisson arrivals at ``rate`` per second.

    The gaps are stratified: they are the ``count`` midpoint quantiles
    of the exponential distribution, in seeded random order.  Every
    seed therefore offers the same gap multiset and the same mean rate;
    only the order of the gaps, and with it the bursts, differs.
    """
    gaps = [-math.log(1.0 - (j + 0.5) / count) / rate for j in range(count)]
    order = rng.permutation(count)
    times, t = [], 0.0
    for j in order:
        t += gaps[int(j)]
        times.append(t)
    return times


def open_loop_stream(times: Sequence[float], repeat_share: float,
                     min_age_s: float, rng: np.random.Generator) -> List[Send]:
    """Assign queries to due times; ``repeat_share`` of sends are repeats.

    A repeat carries a query first sent at least ``min_age_s`` earlier,
    chosen uniformly among those.  The number of repeats is exactly
    ``round(repeat_share * len(times))`` (when enough sends are old
    enough), so cache-hit counts are a property of the stream.
    """
    eligible = [i for i, t in enumerate(times) if t >= times[0] + min_age_s]
    repeats = round(repeat_share * len(times))
    chosen = set(int(i) for i in rng.choice(eligible, size=min(repeats, len(eligible)),
                                           replace=False)) if repeats else set()
    sends: List[Send] = []
    first_sent: List[float] = []  # query_id -> time it was first sent
    for i, t in enumerate(times):
        if i in chosen:
            old = [qid for qid, t0 in enumerate(first_sent) if t0 <= t - min_age_s]
            sends.append(Send(t, old[int(rng.integers(len(old)))], True))
        else:
            sends.append(Send(t, len(first_sent), False))
            first_sent.append(t)
    return sends


def query_signature(query: MaxBRSTkNNQuery) -> str:
    ox = query.ox
    return "|".join((
        repr(ox.item_id), repr((ox.location.x, ox.location.y)),
        repr(sorted(ox.terms.items())),
        repr([(p.x, p.y) for p in query.locations]),
        repr(list(query.keywords)), repr(query.ws), repr(query.k),
    ))


def stream_digest(queries: Sequence[MaxBRSTkNNQuery],
                  sends: Sequence[Send] = ()) -> str:
    """SHA-256 over every generated query and scheduled send."""
    h = hashlib.sha256()
    for query in queries:
        h.update(query_signature(query).encode())
        h.update(b"\n")
    for send in sends:
        h.update(f"{send.at_s!r},{send.query_id},{int(send.repeat)}\n".encode())
    return h.hexdigest()
