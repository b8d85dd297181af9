"""Tests for query/result value types."""

import math

import pytest

from repro import MaxBRSTkNNEngine, QueryOptions
from repro.core.query import MaxBRSTkNNQuery, MaxBRSTkNNResult, QueryStats
from repro.model.objects import STObject
from repro.spatial.geometry import Point


def ox():
    return STObject(item_id=-1, location=Point(0, 0), terms={})


class TestQueryValidation:
    def test_requires_locations(self):
        with pytest.raises(ValueError):
            MaxBRSTkNNQuery(ox=ox(), locations=[], keywords=[1], ws=1, k=1)

    def test_rejects_negative_ws(self):
        with pytest.raises(ValueError):
            MaxBRSTkNNQuery(ox=ox(), locations=[Point(0, 0)], keywords=[1], ws=-1, k=1)

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            MaxBRSTkNNQuery(ox=ox(), locations=[Point(0, 0)], keywords=[1], ws=1, k=0)

    def test_clamps_ws_to_pool(self):
        q = MaxBRSTkNNQuery(
            ox=ox(), locations=[Point(0, 0)], keywords=[1, 2], ws=10, k=1
        )
        assert q.ws == 2

    def test_deduplicates_keywords(self):
        q = MaxBRSTkNNQuery(
            ox=ox(), locations=[Point(0, 0)], keywords=[3, 1, 3, 1], ws=1, k=1
        )
        assert q.keywords == [3, 1]


NON_FINITE = [
    Point(math.nan, math.nan),
    Point(0.0, math.nan),
    Point(math.inf, 0.0),
    Point(0.0, -math.inf),
]


class TestNonFiniteCoordinates:
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_rejects_candidate_location(self, bad):
        with pytest.raises(ValueError, match="finite"):
            MaxBRSTkNNQuery(
                ox=ox(), locations=[Point(0, 0), bad], keywords=[1], ws=1, k=1
            )

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_rejects_ox_location(self, bad):
        with pytest.raises(ValueError, match="finite"):
            MaxBRSTkNNQuery(
                ox=STObject(item_id=-1, location=bad, terms={}),
                locations=[Point(0, 0)], keywords=[1], ws=1, k=1,
            )

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_both_backends_raise(self, tiny_dataset, backend):
        # A NaN candidate used to come back as the answer under the
        # python backend (every bound comparison against it is false)
        # while the numpy backend returned a real location.
        engine = MaxBRSTkNNEngine(tiny_dataset)
        with pytest.raises(ValueError, match="finite"):
            engine.query(
                MaxBRSTkNNQuery(
                    ox=STObject(item_id=-1, location=Point(5, 5), terms={}),
                    locations=[Point(5, 5), Point(math.nan, math.nan)],
                    keywords=[0, 1, 2, 3],
                    ws=2,
                    k=3,
                ),
                QueryOptions(backend=backend),
            )


NON_INTEGRAL = [2.5, 3.0, True, False, "3", None]


class TestIntegralKAndWs:
    @pytest.mark.parametrize("bad", NON_INTEGRAL)
    @pytest.mark.parametrize("field", ["k", "ws"])
    def test_rejects_non_integral(self, field, bad):
        kwargs = {"ws": 1, "k": 1, field: bad}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            MaxBRSTkNNQuery(ox=ox(), locations=[Point(0, 0)], keywords=[1, 2], **kwargs)

    def test_numpy_integers_are_integral(self):
        import numpy as np

        q = MaxBRSTkNNQuery(
            ox=ox(), locations=[Point(0, 0)], keywords=[1, 2],
            ws=np.int32(1), k=np.int64(3),
        )
        assert (q.ws, q.k) == (1, 3)
        assert type(q.ws) is int and type(q.k) is int

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("field,bad", [("k", 2.5), ("ws", True)])
    def test_both_backends_raise(self, tiny_dataset, backend, field, bad):
        # k=2.5 used to answer under the python backend and raise
        # TypeError from numpy's partition; ws=True behaved the same.
        engine = MaxBRSTkNNEngine(tiny_dataset)
        kwargs = {"ws": 2, "k": 3, field: bad}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            engine.query(
                MaxBRSTkNNQuery(
                    ox=STObject(item_id=-1, location=Point(5, 5), terms={}),
                    locations=[Point(5, 5), Point(1, 1)],
                    keywords=[0, 1, 2, 3],
                    **kwargs,
                ),
                QueryOptions(backend=backend),
            )


class TestResult:
    def test_cardinality_and_summary(self):
        r = MaxBRSTkNNResult(
            location=Point(1.0, 2.0),
            keywords=frozenset({4, 2}),
            brstknn=frozenset({10, 11, 12}),
        )
        assert r.cardinality == 3
        s = r.summary()
        assert "|BRSTkNN|=3" in s
        assert "[2, 4]" in s

    def test_summary_without_location(self):
        r = MaxBRSTkNNResult(location=None, keywords=frozenset(), brstknn=frozenset())
        assert "<none>" in r.summary()


class TestQueryStats:
    def test_io_total(self):
        s = QueryStats(io_node_visits=3, io_invfile_blocks=4)
        assert s.io_total == 7

    def test_users_pruned_pct(self):
        s = QueryStats(users_pruned=25, users_total=200)
        assert s.users_pruned_pct == pytest.approx(12.5)

    def test_users_pruned_pct_empty(self):
        assert QueryStats().users_pruned_pct == 0.0
