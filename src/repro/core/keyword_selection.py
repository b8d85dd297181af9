"""Candidate keyword selection: greedy approximation and pruned exact.

Lemma 1 reduces Maximum Coverage to keyword selection, so even with one
candidate location the problem is NP-hard.  Section 6.2 gives two
solvers, both implemented here:

**Greedy approximation (Section 6.2.1).**  For each candidate keyword
``w`` a user list ``LUW_w`` is precomputed: user ``u`` enters the list
when placing ``ox`` at the chosen location with the *most optimistic*
keyword set containing ``w`` (``HW_{w,u}``: the ``ws`` highest-weight
candidates from ``W ∩ u.d`` including ``w``) reaches ``RSk(u)``.  The
classic max-coverage greedy then picks ``ws`` keywords maximizing the
union of their lists; since the lists are optimistic, the *actual*
BRSTkNN of the chosen set is recomputed before the caller compares
candidates.  Greedy max coverage is the best possible polynomial
approximation (``1 − 1/e``) unless P = NP.

Algorithm 3 calls the greedy selector once per candidate location, and
``HW_{w,u}`` does not depend on the location, so neither does the text
half of the score of any (user, HW set) pair.  The numpy backend keeps
them in a per-query **pair table** (:class:`_PairTable`, held in the
``cache`` scratch the callers pass): one row per pair with the HW
document id, the index of ``w`` among the ascending candidate keywords
and the text score ``TS(ox.d ∪ HW_{w,u}, u)``.  A user's pairs are
appended the first time the user appears in a shortlist, so the
indexed search never scores users it has not resolved.  At a location,
``LUW`` is then one kernel pass over the call's pairs
(:meth:`~repro.core.kernels.DatasetArrays.threshold_mask_many`) that
fills a boolean **cover matrix** (candidate keyword × user); the
max-coverage greedy runs on that matrix (:func:`greedy_cover_matrix`,
the same picks as :func:`greedy_max_coverage`).  The prefix and
fallback evaluations reuse a per-query text-score vector per keyword
set.  Only text scores are stored: the guard band applies where a
score meets a threshold, and pairs inside it are re-scored with the
scalar ``sts_parts``, so every decision matches the python backend.

**Exact (Section 6.2.2, Algorithm 4).**  Enumerates combinations of
size up to ``ws`` (see DESIGN.md §3.5 on why "up to" rather than the
paper's "exactly") of the *useful* candidates (``W ∩ Wu`` where ``Wu``
is the union of the shortlisted users' keywords) with the paper's
prunings — users outside ``LU_l`` are never touched; a combination
is scored against a user only through a memoized per-user won/lost
table (DESIGN.md §3.8) keyed by ``(combo ∩ u.d, |combo|)``, which
turns the scan into set intersections.  The paper's further shortcut
(users won by location alone count for every combination, lines
4.6–4.7) is applied *per combination size* instead of globally: under
length-normalized measures a bare-document win can be lost again once
unmatched keywords dilute the document, so the global version
over-counts (the cross-method equivalence tests caught it against the
exhaustive baseline).
"""

from __future__ import annotations

from itertools import combinations
from typing import (
    Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple,
)

import numpy as np

from ..model.dataset import Dataset
from ..model.objects import STObject, User
from ..spatial.geometry import Point
from .bounds import augmented_document, candidate_term_weight
from .kernels import arrays_for, resolve_backend

__all__ = [
    "KeywordSelection",
    "compute_brstknn",
    "select_keywords_greedy",
    "select_keywords_exact",
    "greedy_max_coverage",
    "greedy_cover_matrix",
]


#: Result of one keyword-selection call: the chosen keyword set, the
#: users it actually wins, and how many combinations were scored (for
#: the benchmark instrumentation).
KeywordSelection = Tuple[FrozenSet[int], FrozenSet[int], int]


def compute_brstknn(
    dataset: Dataset,
    ox: STObject,
    location: Point,
    keywords: Iterable[int],
    users: Sequence[User],
    rsk: Mapping[int, float],
    backend: str = "python",
) -> FrozenSet[int]:
    """Users for whom ``ox`` at ``location`` with ``ox.d ∪ keywords``
    enters the top-k (``STS >= RSk(u)``, ties admit as in the paper).

    ``backend="numpy"`` scores all users as one kernel call; the winner
    set is guaranteed identical to the scalar scan (guard-banded).
    """
    if resolve_backend(backend) == "numpy":
        return arrays_for(dataset).brstknn(ox, location, keywords, users, rsk)
    doc = augmented_document(ox.terms, keywords)
    winners = {
        u.item_id
        for u in users
        if dataset.sts_parts(location, doc, u) >= rsk[u.item_id]
    }
    return frozenset(winners)


def greedy_max_coverage(
    sets: Mapping[int, Set[int]], budget: int
) -> Tuple[List[int], Set[int]]:
    """Plain greedy Maximum Coverage over ``{key: element-set}``.

    Picks up to ``budget`` keys, each step taking the key covering the
    most yet-uncovered elements (ties broken by key for determinism).
    Stops early when no key adds coverage.  Exposed separately so the
    property tests can verify the ``(1 − 1/e)`` guarantee directly.
    """
    chosen: List[int] = []
    covered: Set[int] = set()
    remaining = dict(sets)
    for _ in range(max(0, budget)):
        best_key, best_gain = None, 0
        for key in sorted(remaining):
            gain = len(remaining[key] - covered)
            if gain > best_gain:
                best_key, best_gain = key, gain
        if best_key is None:
            break
        chosen.append(best_key)
        covered |= remaining.pop(best_key)
    return chosen, covered


def greedy_cover_matrix(cover, budget: int):
    """:func:`greedy_max_coverage` over a boolean (key × element) matrix.

    Row ``i`` holds the element set of the ``i``-th key in ascending key
    order, so ``argmax`` taking the first maximum is the ascending-key
    tie-break.  Returns the picked row indices in pick order and the
    covered-element mask.
    """
    chosen: List[int] = []
    covered = np.zeros(cover.shape[1], dtype=bool)
    for _ in range(max(0, budget)):
        gains = np.count_nonzero(cover & ~covered, axis=1)
        if not gains.any():
            break
        best = int(gains.argmax())
        chosen.append(best)
        covered |= cover[best]
    return chosen, covered


def _hw_sets(
    user: User, rank: Mapping[int, float], ws: int
) -> List[Tuple[FrozenSet[int], int]]:
    """``(HW_{w,u}, w)`` for every candidate ``w`` the user holds.

    ``HW_{w,u}`` is the ``ws`` highest-ranked candidates of ``W ∩ u.d``
    (``rank``: optimistic weight per candidate), forced to contain ``w``.
    """
    useful = sorted(rank.keys() & user.keyword_set, key=lambda t: (-rank[t], t))
    head = useful[:ws]
    return [
        (frozenset(head if w in head else useful[: max(ws - 1, 0)] + [w]), w)
        for w in useful
    ]


def _finish_greedy(
    ws: int,
    chosen: Sequence[int],
    coverage_estimate: int,
    has_luw: bool,
    luw_sizes: Callable[[], Mapping[int, int]],
    evaluate: Callable[[FrozenSet[int]], FrozenSet[int]],
    scored: int,
) -> KeywordSelection:
    """The greedy selector's actual-BRSTkNN stage, shared by both backends.

    ``chosen`` is the max-coverage pick over the LUW lists,
    ``evaluate(keywords)`` the actual BRSTkNN of a keyword set and
    ``luw_sizes()`` maps every candidate some user holds to ``|LUW_w|``.
    """
    best_set: FrozenSet[int] = frozenset()
    best_users = evaluate(best_set)
    # The LUW lists are optimistic, and under length-normalized
    # measures a longer keyword set can score *worse*; evaluating
    # every greedy prefix costs ws extra evaluations and only
    # improves the answer (the full set remains a candidate).
    for end in range(1, len(chosen) + 1):
        prefix = frozenset(chosen[:end])
        actual = evaluate(prefix)
        scored += 1
        if len(actual) > len(best_users):
            best_set, best_users = prefix, actual

    # Fallback pass: greedy on the *true* objective, run only when the
    # LUW optimism demonstrably misled — the actual wins fall well short
    # of the coverage estimate.  The LUW lists rank keywords by what
    # they could win under the most optimistic companion set, which can
    # fail when weights are skewed (TF-IDF) or heavily tied (KO).  The
    # pool is capped to the candidates with the largest LUW lists so the
    # pass stays a small constant number of actual BRSTkNN evaluations
    # (DESIGN.md §3); the better of the two greedy answers is returned.
    if has_luw and len(best_users) >= 0.8 * coverage_estimate:
        return best_set, best_users, scored
    sizes = luw_sizes()
    ranked_pool = sorted(sizes, key=lambda t: (-sizes[t], t))[: 2 * ws + 6]
    current: FrozenSet[int] = frozenset()
    current_users = evaluate(current)
    for _ in range(ws):
        step_set, step_users = None, current_users
        for w in ranked_pool:
            if w in current:
                continue
            trial = current | {w}
            winners = evaluate(trial)
            scored += 1
            if len(winners) > len(step_users):
                step_set, step_users = trial, winners
        if step_set is None:
            break
        current, current_users = step_set, step_users
    if len(current_users) > len(best_users):
        best_set, best_users = current, current_users
    return best_set, best_users, scored


class _PairTable:
    """Per-query (user, HW-set) pairs of the numpy greedy selector.

    Pair columns: HW document id (into ``docs``), keyword index (``w``'s
    position in the ascending ``keys``) and the location-independent
    text score ``TS(ox.d ∪ HW_{w,u}, u)``.  Users get a *slot* the first
    time a shortlist holds them; a slot's pairs are the contiguous run
    ``[slot_start, slot_start + slot_count)``; ``slot_thr`` holds the
    user's ``RSk(u)``.  ``set_ts`` caches, per evaluated keyword set,
    the text score of ``ox.d ∪ keywords`` per slot, extended as slots
    are added.  Valid for one query: ``ox``, ``W``, ``ws`` and every
    user's ``RSk(u)`` are fixed for its lifetime.
    """

    def __init__(
        self, dataset: Dataset, ox: STObject, candidate_keywords: Sequence[int], ws: int
    ) -> None:
        self.dataset = dataset
        self.arrays = arrays_for(dataset)
        self.ox = ox
        self.ws = ws
        self.keys = sorted(set(candidate_keywords))
        rank = {t: candidate_term_weight(dataset.relevance, ox.terms, t) for t in self.keys}
        # Key indices by descending optimistic weight (the HW_{w,u}
        # order), with the term column of each candidate users hold.
        order = sorted(range(len(self.keys)), key=lambda i: (-rank[self.keys[i]], self.keys[i]))
        cols = [self.arrays.term_col.get(self.keys[i], -1) for i in order]
        self.rank_order = np.array(order, dtype=np.intp)
        self.rank_held = np.array([c >= 0 for c in cols], dtype=bool)
        self.rank_cols = np.array([c for c in cols if c >= 0], dtype=np.intp)
        self.slot_of: Dict[int, int] = {}
        self.slot_row = np.zeros(0, dtype=np.intp)
        self.slot_start = np.zeros(0, dtype=np.intp)
        self.slot_count = np.zeros(0, dtype=np.intp)
        self.slot_thr = np.zeros(0)
        self.pair_doc = np.zeros(0, dtype=np.intp)
        self.pair_key = np.zeros(0, dtype=np.intp)
        self.pair_ts = np.zeros(0)
        self.docs: List[Dict[int, int]] = []
        self.doc_id: Dict[FrozenSet[int], int] = {}
        self.set_ts: Dict[FrozenSet[int], "np.ndarray"] = {}

    def _slots(self, users: Sequence[User], rsk: Mapping[int, float]):
        slot_of = self.slot_of
        slots = [slot_of.get(u.item_id, -1) for u in users]
        if -1 in slots:
            self._register([u for u, s in zip(users, slots) if s < 0], rsk)
            slots = [slot_of[u.item_id] for u in users]
        return np.array(slots, dtype=np.intp)

    def _register(self, fresh: Sequence[User], rsk: Mapping[int, float]) -> None:
        """Give ``fresh`` users slots and build their pairs.

        The array form of :func:`_hw_sets`: with the candidates in rank
        order, a user's ``j``-th held candidate pairs with the first
        ``ws`` held ones when ``j <= ws``, and with the first ``ws − 1``
        plus itself otherwise.
        """
        user_row = self.arrays.user_row
        rows: List[int] = []
        thresholds: List[float] = []
        for user in fresh:
            if user.item_id not in self.slot_of:
                self.slot_of[user.item_id] = len(self.slot_of)
                rows.append(user_row[user.item_id])
                thresholds.append(rsk[user.item_id])
        rows_arr = np.array(rows, dtype=np.intp)
        held = np.zeros((len(rows), len(self.keys)), dtype=bool)
        held[:, self.rank_held] = self.arrays.user_terms[np.ix_(rows_arr, self.rank_cols)] > 0
        counts = np.count_nonzero(held, axis=1)
        pair_user, pair_rank = np.nonzero(held)  # per user, in rank order
        ordinal = np.cumsum(held, axis=1)[pair_user, pair_rank]
        width = max(self.ws, 1)
        head = np.full((len(rows), width), -1, dtype=np.intp)
        in_head = ordinal <= self.ws
        head[pair_user[in_head], ordinal[in_head] - 1] = pair_rank[in_head]
        hw = head[pair_user]
        hw[~in_head, width - 1] = pair_rank[~in_head]
        # Dense id per distinct HW row, one column at a time (re-densified
        # after each column, so the codes never outgrow the pair count).
        group = np.zeros(len(hw), dtype=np.intp)
        for column in hw.T:
            _, group = np.unique(
                group * (len(self.keys) + 1) + column + 1, return_inverse=True
            )
        _, first = np.unique(group, return_index=True)
        doc_ids = []
        for ranks in hw[first].tolist():
            hw_set = frozenset(self.keys[self.rank_order[r]] for r in ranks if r >= 0)
            doc = self.doc_id.get(hw_set)
            if doc is None:
                doc = self.doc_id[hw_set] = len(self.docs)
                self.docs.append(augmented_document(self.ox.terms, hw_set))
            doc_ids.append(doc)
        pair_doc = np.array(doc_ids, dtype=np.intp)[group]
        ts = self.arrays.pair_text_scores(self.docs, rows_arr[pair_user], pair_doc)
        starts = len(self.pair_doc) + np.cumsum(counts) - counts
        self.slot_row = np.concatenate([self.slot_row, rows_arr])
        self.slot_start = np.concatenate([self.slot_start, starts])
        self.slot_count = np.concatenate([self.slot_count, counts])
        self.slot_thr = np.concatenate([self.slot_thr, thresholds])
        self.pair_doc = np.concatenate([self.pair_doc, pair_doc])
        self.pair_key = np.concatenate([self.pair_key, self.rank_order[pair_rank]])
        self.pair_ts = np.concatenate([self.pair_ts, ts])

    def _set_ts(self, keywords: FrozenSet[int]):
        """``TS(ox.d ∪ keywords, u)`` for every slot."""
        ts = self.set_ts.get(keywords)
        have = 0 if ts is None else len(ts)
        if have < len(self.slot_row):
            more = self.arrays.text_scores(
                augmented_document(self.ox.terms, keywords), self.slot_row[have:]
            )
            ts = self.set_ts[keywords] = more if ts is None else np.concatenate([ts, more])
        return ts

    def select(
        self, location: Point, users: Sequence[User], rsk: Mapping[int, float]
    ) -> KeywordSelection:
        arrays = self.arrays
        slots = self._slots(users, rsk)
        rows = self.slot_row[slots]
        ss = arrays.spatial_scores(location, rows)
        thresholds = self.slot_thr[slots]
        counts = self.slot_count[slots]
        total = int(counts.sum())
        cover = np.zeros((len(self.keys), len(users)), dtype=bool)
        pair_key = self.pair_key[:0]
        if total:
            # The call's pairs, user by user: slot runs laid end to end.
            pos = np.repeat(np.arange(len(users)), counts)
            run_shift = self.slot_start[slots] - (np.cumsum(counts) - counts)
            pair = np.arange(total) + np.repeat(run_shift, counts)

            def rescore(i: int) -> bool:
                user = users[pos[i]]
                doc = self.docs[self.pair_doc[pair[i]]]
                return self.dataset.sts_parts(location, doc, user) >= rsk[user.item_id]

            passed = arrays.threshold_mask_many(
                ss, thresholds, pos, self.pair_ts[pair], rescore
            )
            pair_key = self.pair_key[pair]
            cover[pair_key[passed], pos[passed]] = True
        chosen, covered = greedy_cover_matrix(cover, self.ws)

        def luw_sizes() -> Dict[int, int]:
            sizes = np.count_nonzero(cover, axis=1).tolist()
            return {self.keys[i]: sizes[i] for i in np.unique(pair_key).tolist()}

        def evaluate(keywords: FrozenSet[int]) -> FrozenSet[int]:
            return arrays.brstknn(
                self.ox, location, keywords, users, rsk,
                rows=rows, ss=ss, thresholds=thresholds, ts=self._set_ts(keywords)[slots],
            )

        return _finish_greedy(
            self.ws,
            [self.keys[i] for i in chosen],
            int(np.count_nonzero(covered)),
            bool(cover.any()),
            luw_sizes,
            evaluate,
            total,
        )


def select_keywords_greedy(
    dataset: Dataset,
    ox: STObject,
    location: Point,
    candidate_keywords: Sequence[int],
    ws: int,
    users: Sequence[User],
    rsk: Mapping[int, float],
    backend: str = "python",
    cache: Optional[Dict] = None,
) -> KeywordSelection:
    """Section 6.2.1: greedy approximate keyword selection at ``location``.

    ``users`` is the shortlist ``LU_l`` of Algorithm 3 (only they can be
    BRSTkNNs by the location upper bound); ``rsk`` maps user id to
    ``RSk(u)``.  ``cache`` is an optional per-query scratch dict
    (Algorithm 3 calls this once per candidate location): the optimistic
    keyword weights and each user's HW sets depend only on
    ``(ox, candidate_keywords, ws)``, so they are computed for the first
    location and replayed for the rest — as the pair table under the
    numpy backend.
    """
    cache = cache if cache is not None else {}
    if resolve_backend(backend) == "numpy":
        table = cache.get("pairs")
        if table is None:
            table = cache["pairs"] = _PairTable(dataset, ox, candidate_keywords, ws)
        return table.select(location, users, rsk)

    # Optimistic per-keyword weight (Lemma 3 style): candidate added to
    # ox.d alone.  Used to rank candidates inside HW_{w,u}.
    rank = cache.get("rank")
    if rank is None:
        rank = cache["rank"] = {
            t: candidate_term_weight(dataset.relevance, ox.terms, t)
            for t in set(candidate_keywords)
        }
    # HW_{w,u} evaluations, grouped by the augmented document they
    # score, so each document is built once per location.
    hw_by_user: Dict[int, List[Tuple[FrozenSet[int], int]]] = cache.setdefault(
        "hw_by_user", {}
    )
    hw_evals: Dict[FrozenSet[int], List[Tuple[User, int]]] = {}
    scored = 0
    for user in users:
        entries = hw_by_user.get(user.item_id)
        if entries is None:
            entries = hw_by_user[user.item_id] = _hw_sets(user, rank, ws)
        for hw_set, w in entries:
            hw_evals.setdefault(hw_set, []).append((user, w))
            scored += 1

    luw: Dict[int, Set[int]] = {}
    for hw_set, members in hw_evals.items():
        doc = augmented_document(ox.terms, hw_set)
        for user, w in members:
            if dataset.sts_parts(location, doc, user) >= rsk[user.item_id]:
                luw.setdefault(w, set()).add(user.item_id)
    chosen, covered = greedy_max_coverage(luw, ws)

    def luw_sizes() -> Dict[int, int]:
        held = rank.keys() & {t for u in users for t in u.keyword_set}
        return {t: len(luw.get(t, ())) for t in held}

    def evaluate(keywords: FrozenSet[int]) -> FrozenSet[int]:
        return compute_brstknn(dataset, ox, location, keywords, users, rsk)

    return _finish_greedy(
        ws, chosen, len(covered), bool(luw), luw_sizes, evaluate, scored
    )


def select_keywords_exact(
    dataset: Dataset,
    ox: STObject,
    location: Point,
    candidate_keywords: Sequence[int],
    ws: int,
    users: Sequence[User],
    rsk: Mapping[int, float],
    backend: str = "python",
) -> KeywordSelection:
    """Algorithm 4: exact keyword selection with pruning at ``location``."""
    # Pruning 1+2: only shortlisted users; only candidates some
    # shortlisted user actually has.
    wu: Set[int] = set()
    for u in users:
        wu |= u.keyword_set
    useful = sorted(set(candidate_keywords) & wu)

    # Definition 1 asks for |W'| <= ws, and under length-normalized
    # measures (LM) adding a keyword can *lower* other term weights, so
    # a smaller set can strictly beat every size-ws set.  The paper's
    # Algorithm 4 enumerates only size-ws combinations (implicitly
    # assuming monotone text scores); to stay exact for all three
    # measures we enumerate every size from 0 up to ws.  See DESIGN.md.
    #
    # Scoring is memoized: for a fixed location and combo size s, a
    # user's STS depends only on (combo ∩ u.d, s) — the other combo
    # keywords contribute nothing but document length, which filler
    # terms outside every u.d simulate exactly.  Each user has at most
    # 2^|W ∩ u.d| * ws reachable states, precomputed once, so the
    # combinatorial loop reduces to set intersections and lookups.
    #
    # NB: Algorithm 4's lines 4.6–4.7 count users whose location-only
    # lower bound meets RSk(u) for *every* combination.  That shortcut
    # is unsound for length-normalized measures: a user won by the bare
    # ``ox.d`` can lose it again once unmatched keywords dilute the
    # document.  The memo therefore also carries the *empty* matched
    # subset per size — the user's fate under a combination sharing
    # nothing with them — and per-size base counts replace the
    # "always in" set.
    best_set: FrozenSet[int] = frozenset()
    best_users: FrozenSet[int] = frozenset(
        compute_brstknn(dataset, ox, location, frozenset(), users, rsk, backend=backend)
    )
    scored = 1
    max_size = min(ws, len(useful))

    # won[user_index][(matched_subset, size)] -> bool.  Entries are
    # grouped by their (subset, size) document first: the numpy backend
    # scores each distinct padded document once against every user that
    # reaches that state, the scalar backend evaluates the same groups
    # pair by pair.
    won: List[Dict[Tuple[FrozenSet[int], int], bool]] = [{} for _ in users]
    user_useful: List[FrozenSet[int]] = []
    by_keyword: Dict[int, List[int]] = {t: [] for t in useful}
    fillers = [-(i + 1) for i in range(max_size)]  # pad terms outside any u.d
    states: Dict[Tuple[FrozenSet[int], int], List[int]] = {}
    for idx, u in enumerate(users):
        ku = frozenset(set(useful) & u.keyword_set)
        user_useful.append(ku)
        subsets: List[Tuple[int, ...]] = [()]
        for t in sorted(ku):
            subsets += [s + (t,) for s in subsets]
        for sub in subsets:
            for size in range(max(len(sub), 1), max_size + 1):
                states.setdefault((frozenset(sub), size), []).append(idx)
        for t in ku:
            by_keyword[t].append(idx)

    state_docs = []
    for (sub, size), indices in states.items():
        doc = augmented_document(ox.terms, sub)
        for f in fillers[: size - len(sub)]:
            doc[f] = 1
        state_docs.append(((sub, size), doc, indices))
    if resolve_backend(backend) == "numpy" and state_docs:
        arrays = arrays_for(dataset)
        docs = [doc for _, doc, _ in state_docs]
        pair_pos = np.array(
            [idx for _, _, indices in state_docs for idx in indices], dtype=np.intp
        )
        pair_doc = np.repeat(
            np.arange(len(docs)), [len(indices) for _, _, indices in state_docs]
        )
        rows = arrays.rows_for(users)

        def rescore(i: int) -> bool:
            u = users[pair_pos[i]]
            return dataset.sts_parts(location, docs[pair_doc[i]], u) >= rsk[u.item_id]

        passed = iter(arrays.threshold_mask_many(
            arrays.spatial_scores(location, rows),
            arrays.thresholds_for(users, rsk),
            pair_pos,
            arrays.pair_text_scores(docs, rows[pair_pos], pair_doc),
            rescore,
        ).tolist())
        for key, _doc, indices in state_docs:
            for idx in indices:
                won[idx][key] = next(passed)
    else:
        for key, doc, indices in state_docs:
            for idx in indices:
                u = users[idx]
                won[idx][key] = (
                    dataset.sts_parts(location, doc, u) >= rsk[u.item_id]
                )

    # Users winning a size-s combination they share no keyword with.
    empty = frozenset()
    base_wins = [0] * (max_size + 1)
    for size in range(1, max_size + 1):
        base_wins[size] = sum(1 for table in won if table[(empty, size)])

    for size in range(1, max_size + 1):
        for combo in combinations(useful, size):
            combo_set = frozenset(combo)
            count = base_wins[size]
            touched: Set[int] = set()
            for t in combo:
                for idx in by_keyword[t]:
                    if idx in touched:
                        continue
                    touched.add(idx)
                    matched = combo_set & user_useful[idx]
                    count += won[idx][(matched, size)] - won[idx][(empty, size)]
            scored += 1
            if count > len(best_users):
                winners = set()
                doc = augmented_document(ox.terms, combo_set)
                for idx, u in enumerate(users):
                    if combo_set & u.keyword_set:
                        if dataset.sts_parts(location, doc, u) >= rsk[u.item_id]:
                            winners.add(u.item_id)
                    elif won[idx][(empty, size)]:
                        # Sharing nothing with the combo, the padded
                        # memo document scores term-for-term identically
                        # to the real augmented one.
                        winners.add(u.item_id)
                best_set = combo_set
                best_users = frozenset(winners)
    return best_set, best_users, scored
