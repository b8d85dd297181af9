"""Tests for greedy and exact keyword selection (Section 6.2)."""

import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Dataset, User
from repro.core.bounds import augmented_document, candidate_term_weight
from repro.core.joint_topk import joint_topk
from repro.core.keyword_selection import (
    compute_brstknn,
    greedy_cover_matrix,
    greedy_max_coverage,
    select_keywords_exact,
    select_keywords_greedy,
)
from repro.index.irtree import MIRTree
from repro.model.objects import STObject
from repro.spatial.geometry import Point

from ..conftest import make_random_objects, make_random_users



def build_selection_problem(seed, n_obj=70, n_users=14, vocab=14, k=5):
    rng = random.Random(seed)
    objects = make_random_objects(n_obj, vocab, rng)
    users = make_random_users(n_users, vocab, rng)
    ds = Dataset(objects, users, relevance="LM", alpha=0.5)
    tree = MIRTree(objects, ds.relevance, fanout=4)
    topk = joint_topk(tree, ds, k)
    rsk = {uid: r.kth_score for uid, r in topk.items()}
    ox = STObject(item_id=-1, location=Point(5, 5), terms={})
    location = Point(rng.uniform(2, 8), rng.uniform(2, 8))
    candidates = sorted(rng.sample(range(vocab), 8))
    return ds, ox, location, candidates, rsk


def brute_force_best(ds, ox, location, candidates, ws, users, rsk):
    """Reference: scan every combination of size <= ws."""
    best = frozenset()
    best_n = -1
    pool = sorted(candidates)
    for size in range(0, ws + 1):
        for combo in combinations(pool, size):
            winners = compute_brstknn(ds, ox, location, combo, users, rsk)
            if len(winners) > best_n:
                best, best_n = frozenset(winners), len(winners)
    return best_n


class TestGreedyMaxCoverage:
    def test_simple_instance(self):
        sets = {0: {1, 2, 3}, 1: {3, 4}, 2: {5}}
        chosen, covered = greedy_max_coverage(sets, 2)
        assert chosen[0] == 0
        assert covered == {1, 2, 3, 4} or covered == {1, 2, 3, 5}

    def test_budget_zero(self):
        assert greedy_max_coverage({0: {1}}, 0) == ([], set())

    def test_stops_when_nothing_gained(self):
        chosen, covered = greedy_max_coverage({0: {1}, 1: {1}}, 5)
        assert len(chosen) == 1

    def test_deterministic_tiebreak(self):
        sets = {2: {1, 2}, 1: {3, 4}}
        chosen, _ = greedy_max_coverage(sets, 1)
        assert chosen == [1]  # smallest key wins the tie

    @given(
        st.dictionaries(
            st.integers(0, 8),
            st.sets(st.integers(0, 12), min_size=0, max_size=6),
            min_size=1,
            max_size=8,
        ),
        st.integers(1, 4),
    )
    @settings(max_examples=120, deadline=None)
    def test_property_greedy_ratio(self, sets, budget):
        """Greedy coverage >= (1 - 1/e) * optimal coverage."""
        _, covered = greedy_max_coverage(sets, budget)
        best_opt = 0
        keys = sorted(sets)
        for size in range(1, min(budget, len(keys)) + 1):
            for combo in combinations(keys, size):
                u = set().union(*(sets[k] for k in combo))
                best_opt = max(best_opt, len(u))
        assert len(covered) >= (1 - 1 / 2.718281828) * best_opt - 1e-9


class TestComputeBrstknn:
    def test_threshold_is_inclusive(self, tiny_dataset):
        ds = tiny_dataset
        u = ds.users[0]
        o = ds.objects[0]
        score = ds.sts(o, u)
        winners = compute_brstknn(
            ds, o, o.location, frozenset(), [u], {u.item_id: score}
        )
        assert u.item_id in winners  # ties admit (>=)

    def test_above_threshold_excluded(self, tiny_dataset):
        ds = tiny_dataset
        u = ds.users[0]
        o = ds.objects[0]
        score = ds.sts(o, u)
        winners = compute_brstknn(
            ds, o, o.location, frozenset(), [u], {u.item_id: score + 1e-6}
        )
        assert u.item_id not in winners


class TestExactSelection:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("ws", [1, 2, 3])
    def test_exact_matches_brute_force(self, seed, ws):
        ds, ox, loc, cands, rsk = build_selection_problem(seed)
        chosen, winners, _ = select_keywords_exact(
            ds, ox, loc, cands, ws, ds.users, rsk
        )
        gold = brute_force_best(ds, ox, loc, cands, ws, ds.users, rsk)
        assert len(winners) == gold
        # chosen set must actually achieve the reported winners
        actual = compute_brstknn(ds, ox, loc, chosen, ds.users, rsk)
        assert actual == winners

    def test_small_pool_enumerates_all_subsets(self):
        ds, ox, loc, cands, rsk = build_selection_problem(60)
        # Restrict to 2 candidates with ws 5: the exact method scans all
        # 2^|useful| subsets (smaller sets can win under LM, so there is
        # no single forced answer) and matches the brute-force optimum.
        chosen, winners, scored = select_keywords_exact(
            ds, ox, loc, cands[:2], 5, ds.users, rsk
        )
        useful = set(cands[:2]) & {t for u in ds.users for t in u.keyword_set}
        assert chosen <= useful
        assert scored <= 2 ** len(useful)
        gold = brute_force_best(ds, ox, loc, cands[:2], 5, ds.users, rsk)
        assert len(winners) == gold

    def test_respects_ws_budget(self):
        ds, ox, loc, cands, rsk = build_selection_problem(61)
        for ws in (1, 2, 3):
            chosen, _, _ = select_keywords_exact(ds, ox, loc, cands, ws, ds.users, rsk)
            assert len(chosen) <= ws


class TestGreedySelection:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("ws", [1, 2, 3])
    def test_never_beats_exact_and_is_consistent(self, seed, ws):
        ds, ox, loc, cands, rsk = build_selection_problem(seed)
        g_chosen, g_winners, _ = select_keywords_greedy(
            ds, ox, loc, cands, ws, ds.users, rsk
        )
        e_chosen, e_winners, _ = select_keywords_exact(
            ds, ox, loc, cands, ws, ds.users, rsk
        )
        assert len(g_chosen) <= ws
        assert len(g_winners) <= len(e_winners)
        # reported winners are the actual BRSTkNN of the chosen set
        actual = compute_brstknn(ds, ox, loc, g_chosen, ds.users, rsk)
        assert actual == g_winners

    @pytest.mark.parametrize("seed", range(5))
    def test_reasonable_approximation_quality(self, seed):
        ds, ox, loc, cands, rsk = build_selection_problem(seed)
        ws = 2
        _, g_winners, _ = select_keywords_greedy(ds, ox, loc, cands, ws, ds.users, rsk)
        _, e_winners, _ = select_keywords_exact(ds, ox, loc, cands, ws, ds.users, rsk)
        if e_winners:
            assert len(g_winners) / len(e_winners) >= 0.5

    def test_empty_candidates(self):
        ds, ox, loc, _, rsk = build_selection_problem(62)
        chosen, winners, _ = select_keywords_greedy(ds, ox, loc, [], 2, ds.users, rsk)
        assert chosen == frozenset()

    def test_no_users(self):
        ds, ox, loc, cands, rsk = build_selection_problem(63)
        chosen, winners, _ = select_keywords_greedy(ds, ox, loc, cands, 2, [], rsk)
        assert winners == frozenset()


def _greedy_query_scenario(seed, n_locations=22):
    """A dataset, ``ox``, rsk and per-location shortlists in heap order.

    The largest shortlist leaves users out, so later locations bring in
    users the first call never saw; one shortlist is empty, and a few
    users hold no candidate keyword at all.
    """
    rng = random.Random(seed)
    objects = make_random_objects(80, 14, rng)
    # Up to 7 keywords per user, so many users hold more than ws
    # candidates and get HW sets both with and without the top ws.
    users = [
        User(
            item_id=i,
            location=Point(rng.uniform(0, 10), rng.uniform(0, 10)),
            terms={t: 1 for t in rng.sample(range(14), rng.randint(1, 7))},
        )
        for i in range(30)
    ]
    users += make_random_users(3, 3, rng, start_id=100)  # terms 0..2 only
    ds = Dataset(objects, users, relevance="LM", alpha=0.5)
    tree = MIRTree(objects, ds.relevance, fanout=4)
    rsk = {uid: r.kth_score for uid, r in joint_topk(tree, ds, 4).items()}
    ox = STObject(item_id=-1, location=Point(5, 5), terms={3: 1})
    candidates = sorted(rng.sample(range(3, 14), 8))
    locations = [Point(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n_locations)]
    shortlists = [
        rng.sample(users, rng.randint(1, len(users) - 4)) for _ in range(n_locations - 1)
    ] + [[]]
    order = sorted(range(n_locations), key=lambda i: (-len(shortlists[i]), i))
    return ds, ox, candidates, rsk, [(locations[i], shortlists[i]) for i in order]


def _tie_thresholds(ds, ox, candidates, rsk, plan, ws, rng):
    """Copy of ``rsk`` where some users' threshold equals a scalar STS the
    selector computes (an HW document, or a prefix set), so those pairs
    land inside the guard band."""
    rank = {t: candidate_term_weight(ds.relevance, ox.terms, t) for t in candidates}
    tied = dict(rsk)
    for location, users in plan:
        for user in rng.sample(users, min(3, len(users))):
            useful = sorted(set(candidates) & user.keyword_set, key=lambda t: (-rank[t], t))
            keywords = useful[: max(ws, 1)] if useful and rng.random() < 0.7 else []
            doc = augmented_document(ox.terms, keywords)
            tied[user.item_id] = ds.sts_parts(location, doc, user)
    return tied


class TestGreedyBackendsAgree:
    """The numpy pair-table selector against the scalar reference, call by
    call, with one per-query scratch shared across the locations."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("ws", [0, 1, 2, 3])
    @pytest.mark.parametrize("empty_candidates", [False, True])
    def test_shared_scratch_matches_python(self, monkeypatch, seed, ws, empty_candidates):
        ds, ox, candidates, rsk, plan = _greedy_query_scenario(seed)
        if empty_candidates:
            candidates = []
        rsk = _tie_thresholds(ds, ox, candidates, rsk, plan, ws, random.Random(seed))

        rescored = []
        scalar = Dataset.sts_parts
        monkeypatch.setattr(
            Dataset, "sts_parts",
            lambda self, *a: rescored.append(1) or scalar(self, *a),
        )
        caches = {"numpy": {}, "python": {}}
        numpy_rescores = 0
        for location, users in plan:
            got = {}
            for backend in ("numpy", "python"):
                before = len(rescored)
                got[backend] = select_keywords_greedy(
                    ds, ox, location, candidates, ws, users, rsk,
                    backend=backend, cache=caches[backend],
                )
                if backend == "numpy":
                    numpy_rescores += len(rescored) - before
            assert got["numpy"] == got["python"]
        # The tied thresholds really exercised the scalar band re-check.
        assert numpy_rescores > 0


def _cover_matrix(sets):
    keys = sorted(sets)
    elements = sorted(set().union(*sets.values()))
    column = {e: j for j, e in enumerate(elements)}
    cover = np.zeros((len(keys), len(elements)), dtype=bool)
    for i, key in enumerate(keys):
        for e in sets[key]:
            cover[i, column[e]] = True
    return keys, elements, cover


class TestGreedyCoverMatrix:
    @given(
        st.dictionaries(
            st.integers(0, 12),
            st.sets(st.integers(0, 6), max_size=5),
            max_size=9,
        ),
        st.integers(0, 5),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_picks_as_set_greedy(self, sets, budget):
        """Same keys in the same order, ties (small element range) included."""
        keys, elements, cover = _cover_matrix(sets)
        rows, covered = greedy_cover_matrix(cover, budget)
        chosen, covered_set = greedy_max_coverage(sets, budget)
        assert [keys[i] for i in rows] == chosen
        assert {elements[j] for j in np.flatnonzero(covered)} == covered_set

    def test_tie_goes_to_smallest_key(self):
        keys, _, cover = _cover_matrix({5: {1, 2}, 3: {3, 4}, 9: {5, 6}})
        rows, _ = greedy_cover_matrix(cover, 2)
        assert [keys[i] for i in rows] == [3, 5]
