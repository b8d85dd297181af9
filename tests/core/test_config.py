"""Typed configuration layer: enums, QueryOptions, EngineConfig."""

import pytest

from repro import Backend, EngineConfig, Method, Mode, QueryOptions


class TestEnums:
    def test_string_coercion(self):
        assert Method.coerce("exact") is Method.EXACT
        assert Mode.coerce("indexed") is Mode.INDEXED
        assert Backend.coerce("numpy") is Backend.NUMPY

    def test_coercion_is_case_insensitive(self):
        assert Method.coerce("EXACT") is Method.EXACT
        assert Mode.coerce("Joint") is Mode.JOINT

    def test_enum_passthrough(self):
        assert Method.coerce(Method.APPROX) is Method.APPROX

    def test_unknown_values_rejected(self):
        with pytest.raises(ValueError):
            Method.coerce("fuzzy")
        with pytest.raises(ValueError):
            Mode.coerce("turbo")
        with pytest.raises(ValueError):
            Backend.coerce("cuda")

    def test_str_mixin(self):
        # Enums render as their value (log/CLI friendly) and compare to it.
        assert str(Mode.JOINT) == "joint"
        assert Backend.PYTHON == "python"

    def test_backends_are_python_and_numpy(self):
        assert [b.value for b in Backend] == ["python", "numpy"]
        with pytest.raises(ValueError, match="unknown backend 'auto'"):
            Backend.coerce("auto")


class TestQueryOptions:
    def test_defaults(self):
        opts = QueryOptions()
        assert opts.method is Method.APPROX
        assert opts.mode is Mode.JOINT
        assert opts.backend is Backend.NUMPY

    def test_fields_are_method_mode_backend(self):
        from dataclasses import fields

        assert [f.name for f in fields(QueryOptions)] == ["method", "mode", "backend"]

    def test_strings_coerce_in_constructor(self):
        opts = QueryOptions(method="exact", mode="baseline", backend="python")
        assert opts.method is Method.EXACT
        assert opts.mode is Mode.BASELINE
        assert opts.backend is Backend.PYTHON

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            QueryOptions(method="fuzzy")
        with pytest.raises(ValueError):
            QueryOptions(mode="turbo")
        with pytest.raises(ValueError):
            QueryOptions(backend="cuda")
        with pytest.raises(ValueError):
            QueryOptions(backend="auto")

    def test_workers_is_not_an_option(self):
        # Query-axis fan-out comes from an injected PersistentWorkerPool.
        with pytest.raises(TypeError):
            QueryOptions(workers=2)

    def test_frozen(self):
        opts = QueryOptions()
        with pytest.raises(AttributeError):
            opts.backend = Backend.PYTHON

    def test_with_(self):
        opts = QueryOptions().with_(method="exact", mode="baseline")
        assert opts.method is Method.EXACT
        assert opts.mode is Mode.BASELINE
        assert QueryOptions().mode is Mode.JOINT  # original untouched

    def test_shared_default_is_numpy_backend(self):
        """Regression: query defaulted "python", query_batch None.

        Both entry points now resolve through this one default; pinning
        it here keeps them from drifting apart again.
        """
        default = QueryOptions.default()
        assert default == QueryOptions()
        assert default.backend is Backend.NUMPY


class TestSharedDefaultAcrossEntryPoints:
    def test_query_and_query_batch_use_the_same_default(self, monkeypatch):
        """Both kwarg-less entry points must plan with QueryOptions.default()."""
        import random

        import repro.core.engine as engine_mod
        from repro import Dataset, MaxBRSTkNNEngine

        from ..conftest import make_random_objects, make_random_users

        rng = random.Random(3)
        dataset = Dataset(
            make_random_objects(40, 12, rng),
            make_random_users(8, 12, rng),
            relevance="LM",
            alpha=0.5,
        )
        engine = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        from repro.core.query import MaxBRSTkNNQuery
        from repro.model.objects import STObject
        from repro.spatial.geometry import Point

        query = MaxBRSTkNNQuery(
            ox=STObject(item_id=-1, location=Point(1.0, 1.0), terms={}),
            locations=[Point(2.0, 2.0)],
            keywords=[0, 1, 2],
            ws=1,
            k=2,
        )

        seen = []
        real_plan_query = engine_mod.plan_query
        real_plan_batch = engine_mod.plan_batch
        monkeypatch.setattr(
            engine_mod, "plan_query",
            lambda opts, caps, k=0, **kw: (
                seen.append(opts) or real_plan_query(opts, caps, k, **kw)
            ),
        )
        monkeypatch.setattr(
            engine_mod, "plan_batch",
            lambda opts, caps, ks, **kw: (
                seen.append(opts) or real_plan_batch(opts, caps, ks, **kw)
            ),
        )
        engine.query(query)
        engine.query_batch([query])
        assert seen == [QueryOptions.default(), QueryOptions.default()]


class TestOneEntrySurface:
    """Every query entry point takes ``(query|queries, options)`` only."""

    @pytest.fixture(scope="class")
    def engines(self, tiny_dataset):
        from repro import MaxBRSTkNNEngine, MaxBRSTkNNQuery
        from repro.model.objects import STObject
        from repro.serve import make_engine
        from repro.spatial.geometry import Point

        single = MaxBRSTkNNEngine(tiny_dataset, EngineConfig(fanout=4))
        sharded = make_engine(tiny_dataset, EngineConfig(fanout=4, num_shards=2))
        query = MaxBRSTkNNQuery(
            ox=STObject(item_id=-1, location=Point(1.0, 1.0), terms={}),
            locations=[Point(2.0, 2.0)], keywords=[0, 1, 2], ws=1, k=2,
        )
        return single, sharded, query

    @pytest.mark.parametrize("kwarg", ["method", "mode", "backend", "workers"])
    @pytest.mark.parametrize("engine_kind", ["single", "sharded"])
    @pytest.mark.parametrize("entry", ["query", "query_batch"])
    def test_loose_kwargs_rejected(self, engines, engine_kind, entry, kwarg):
        single, sharded, query = engines
        engine = single if engine_kind == "single" else sharded
        arg = query if entry == "query" else [query]
        value = 2 if kwarg == "workers" else "python"
        with pytest.raises(TypeError):
            getattr(engine, entry)(arg, **{kwarg: value})

    @pytest.mark.parametrize("entry", ["query", "query_batch"])
    def test_positional_method_string_rejected(self, engines, entry):
        single, _, query = engines
        arg = query if entry == "query" else [query]
        with pytest.raises(TypeError, match="QueryOptions"):
            getattr(single, entry)(arg, "exact")


class TestEngineConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config.index_users is False
        assert config.buffer_pages == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(fanout=1)
        with pytest.raises(ValueError):
            EngineConfig(buffer_pages=-1)

    @pytest.mark.parametrize("kwargs", [
        # bool is an int subclass: EngineConfig(fanout=True) would
        # otherwise sail through as fanout=1's neighbor.
        {"fanout": True},
        {"buffer_pages": True},
        {"num_shards": True},
        {"index_users": 1},
    ])
    def test_bools_are_not_ints(self, kwargs):
        with pytest.raises(ValueError):
            EngineConfig(**kwargs)

    def test_engine_accepts_config(self, tiny_dataset):
        from repro import MaxBRSTkNNEngine

        engine = MaxBRSTkNNEngine(
            tiny_dataset, EngineConfig(fanout=4, index_users=True)
        )
        assert engine.config.fanout == 4
        assert engine.user_tree is not None

    @pytest.mark.parametrize("config", ["fast", 4])
    def test_engine_rejects_wrong_config_type(self, tiny_dataset, config):
        from repro import MaxBRSTkNNEngine

        with pytest.raises(TypeError):
            MaxBRSTkNNEngine(tiny_dataset, config)

    @pytest.mark.parametrize("kwarg", ["fanout", "index_users", "buffer_pages"])
    def test_engine_takes_build_knobs_only_through_config(self, tiny_dataset, kwarg):
        from repro import MaxBRSTkNNEngine

        with pytest.raises(TypeError):
            MaxBRSTkNNEngine(tiny_dataset, **{kwarg: 4})


class TestOrDefault:
    def test_none_yields_default(self):
        assert QueryOptions.or_default(None) is QueryOptions.default()

    def test_options_passthrough(self):
        opts = QueryOptions(method="exact")
        assert QueryOptions.or_default(opts) is opts

    @pytest.mark.parametrize("value", [42, "exact", {"method": "exact"}])
    def test_wrong_type_rejected(self, value):
        with pytest.raises(TypeError, match="QueryOptions"):
            QueryOptions.or_default(value)
