"""Tests for the epoch-keyed result cache and its engine integration.

Covers the cache data structure itself (LRU bounds, counters, entry
isolation), the ``EngineConfig`` validation of the new cache knobs, serving
behaviour in the serial engine, the per-shard fine-grained invalidation of
sharded sessions, and the ``Session.cached()`` / ``Session.stats()``
surface.
"""

import pytest

from repro.core.cache import ResultCache
from repro.core.engine import EngineConfig, ImpreciseQueryEngine, PointDatabase
from repro.core.queries import NearestNeighborQuery, QueryResult, RangeQuery, RangeQuerySpec
from repro.core.session import Session
from repro.core.statistics import EvaluationStatistics
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.uncertainty.pdf import TruncatedGaussianPdf, UniformPdf
from repro.uncertainty.region import PointObject, UncertainObject


def _issuer(x=5_000.0, y=5_000.0, half=250.0, oid=0):
    region = Rect.from_center(Point(x, y), half, half)
    return UncertainObject(oid=oid, pdf=UniformPdf(region)).with_catalog()


def _gaussian_issuer(x=5_000.0, y=5_000.0, half=250.0, oid=1):
    region = Rect.from_center(Point(x, y), half, half)
    return UncertainObject(oid=oid, pdf=TruncatedGaussianPdf(region)).with_catalog()


class TestResultCacheUnit:
    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            ResultCache(capacity=0)
        with pytest.raises(ValueError, match="capacity"):
            ResultCache(capacity=-3)
        with pytest.raises(ValueError, match="capacity"):
            ResultCache(capacity=1.5)
        with pytest.raises(ValueError, match="capacity"):
            ResultCache(capacity=True)
        assert ResultCache(capacity=1).capacity == 1

    def test_lru_eviction_and_counters(self):
        cache = ResultCache(capacity=2)
        result = QueryResult()
        result.add(7, 0.5)
        cache.store("a", None, result, EvaluationStatistics())
        cache.store("b", None, result, EvaluationStatistics())
        assert cache.lookup("a") is not None  # refreshes "a"
        cache.store("c", None, result, EvaluationStatistics())  # evicts "b"
        assert cache.lookup("b") is None
        assert cache.lookup("a") is not None
        assert cache.lookup("c") is not None
        assert cache.stats.evictions == 1
        assert cache.stats.hits == 3
        assert cache.stats.misses == 1
        assert len(cache) == 2
        assert 0.0 < cache.stats.hit_rate < 1.0

    def test_materialise_returns_independent_copies(self):
        cache = ResultCache(capacity=4)
        result = QueryResult()
        result.add(1, 0.9)
        stats = EvaluationStatistics(results_returned=1)
        stats.record_pruned("filter", 3)
        cache.store("k", None, result, stats)
        result.add(2, 0.1)  # caller mutates after the fill
        stats.record_pruned("filter", 5)
        first, first_stats = cache.lookup("k").materialise()
        assert [answer.oid for answer in first] == [1]
        assert first_stats.pruned == {"filter": 3}
        first.add(3, 0.2)  # hit consumer mutates its copy
        first_stats.record_pruned("filter", 100)
        second, second_stats = cache.lookup("k").materialise()
        assert [answer.oid for answer in second] == [1]
        assert second_stats.pruned == {"filter": 3}

    def test_clear_drops_entries_keeps_counters(self):
        cache = ResultCache(capacity=4)
        cache.store("k", None, QueryResult(), EvaluationStatistics())
        cache.lookup("k")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1


class TestEngineConfigCacheValidation:
    def test_cache_must_be_result_cache(self):
        with pytest.raises(ValueError, match="ResultCache"):
            EngineConfig(cache=128)

    def test_cache_with_stream_plan_rejected(self):
        with pytest.raises(ValueError, match="draw plans were removed"):
            EngineConfig(cache=ResultCache(capacity=8), draw_plan="stream")

    def test_cache_with_deterministic_plans_accepted(self):
        # Every draw is keyed by query content, so any configuration caches.
        config = EngineConfig(cache=ResultCache(capacity=8))
        assert config.cache is not None

    def test_unknown_draw_plan_rejected(self):
        with pytest.raises(ValueError, match="draw_plan"):
            EngineConfig(draw_plan="chaotic")

    def test_fingerprint_excludes_cache(self):
        base = EngineConfig()
        cached = EngineConfig(cache=ResultCache(capacity=8))
        assert base.fingerprint() == cached.fingerprint()
        assert base.fingerprint() != EngineConfig(monte_carlo_samples=99).fingerprint()


@pytest.fixture()
def cached_session(small_points, small_uncertain):
    session = Session.from_objects(points=small_points, uncertain=small_uncertain)
    return session.cached(capacity=256)


class TestSerialEngineCaching:
    def test_repeated_query_served_from_cache(self, cached_session, default_spec):
        issuer = _issuer()
        query = RangeQuery.cipq(issuer, default_spec, 0.3)
        first = cached_session.evaluate(query)
        second = cached_session.evaluate(query)
        stats = cached_session.stats()
        assert stats.cache["hits"] == 1
        assert stats.cache["misses"] == 1
        assert second.probabilities() == first.probabilities()

    def test_cached_answers_identical_to_uncached(
        self, small_points, small_uncertain, default_spec
    ):
        issuers = [_issuer(), _gaussian_issuer()]
        queries = []
        for issuer in issuers:
            queries.append(RangeQuery.ipq(issuer, default_spec))
            queries.append(RangeQuery.ciuq(issuer, default_spec, 0.4))
            queries.append(NearestNeighborQuery(issuer=issuer, samples=64))
        workload = queries * 3  # repeats hit the cache
        plain = Session.from_objects(
            points=small_points,
            uncertain=small_uncertain,
            config=EngineConfig(),
        )
        cached = Session.from_objects(
            points=small_points, uncertain=small_uncertain
        ).cached(capacity=64)
        expected = [e.probabilities() for e in plain.evaluate_many(workload)]
        actual = [e.probabilities() for e in cached.evaluate_many(workload)]
        assert actual == expected
        assert cached.stats().cache["hits"] >= len(queries) * 2

    def test_mutation_invalidates_only_mutated_database(
        self, cached_session, default_spec
    ):
        issuer = _issuer()
        point_query = RangeQuery.ipq(issuer, default_spec)
        uncertain_query = RangeQuery.iuq(issuer, default_spec)
        cached_session.evaluate_many([point_query, uncertain_query])
        cached_session.insert(PointObject.at(999_001, 5_010.0, 5_010.0))
        second = cached_session.evaluate_many([point_query, uncertain_query])
        stats = cached_session.stats()
        # The uncertain answer is still served (epoch unchanged); the point
        # answer recomputed — and sees the new object.
        assert stats.cache["hits"] == 1
        assert stats.cache["misses"] == 3
        assert 999_001 in second[0].oids()
        assert stats.epochs["points"] == 1
        assert stats.epochs["uncertain"] == 0

    def test_sampled_and_draw_free_answers_are_both_cached(self, small_points, default_spec):
        from repro.geometry.circle import Circle
        from repro.uncertainty.pdf import UniformCirclePdf

        config = EngineConfig(cache=ResultCache(capacity=32))
        engine = ImpreciseQueryEngine(
            point_db=PointDatabase.build(small_points), config=config
        )
        exact_query = RangeQuery.ipq(_issuer(), default_spec)  # closed form
        circular = UncertainObject(
            oid=5, pdf=UniformCirclePdf(Circle(Point(5_000.0, 5_000.0), 250.0))
        )
        sampled_query = RangeQuery.ipq(circular, default_spec)  # no closed form → MC
        first, second = [e.probabilities() for e in engine.evaluate_many([sampled_query] * 2)]
        engine.evaluate(exact_query)
        engine.evaluate(exact_query)
        # Both answers were stored: sampled draws are keyed by query content,
        # so the replayed sampled answer equals the computed one bitwise.
        assert config.cache.stats.hits == 2
        assert len(config.cache) == 2
        assert first == second

    def test_nn_default_samples_spellings_share_one_identity(self, small_points):
        """``samples=None`` and an explicit default are the *same* request.

        The content fingerprint, which both the draw token and the cache key
        derive from, resolves the default: the two spellings share one entry
        and one set of draws, so a hit stays bitwise-identical to
        recomputing.
        """
        from repro.core.plan import (
            DEFAULT_NN_SAMPLES,
            query_draw_token,
            query_fingerprint,
        )

        issuer = _gaussian_issuer()
        implicit = NearestNeighborQuery(issuer=issuer)
        explicit = NearestNeighborQuery(issuer=issuer, samples=DEFAULT_NN_SAMPLES)
        assert query_fingerprint(implicit) == query_fingerprint(explicit)
        assert query_draw_token(query_fingerprint(implicit)) == query_draw_token(
            query_fingerprint(explicit)
        )
        # End to end: serving either spelling from an entry filled by the
        # other equals uncached evaluation.
        config = EngineConfig(cache=ResultCache(capacity=8))
        cached_engine = ImpreciseQueryEngine(
            point_db=PointDatabase.build(small_points), config=config
        )
        plain_engine = ImpreciseQueryEngine(
            point_db=PointDatabase.build(small_points),
            config=EngineConfig(),
        )
        cached_engine.evaluate(implicit)
        served = cached_engine.evaluate(explicit)  # hit on implicit's entry
        assert config.cache.stats.hits == 1
        expected = plain_engine.evaluate(explicit)
        assert served.probabilities() == expected.probabilities()

    def test_cache_hit_skips_plan_compilation(self, small_points, default_spec):
        """A hit must not rebuild the pruner's expanded regions."""
        import repro.core.pipeline as pipeline_module

        engine = ImpreciseQueryEngine(
            point_db=PointDatabase.build(small_points),
            config=EngineConfig(cache=ResultCache(capacity=8)),
        )
        query = RangeQuery.cipq(_issuer(), default_spec, 0.4)
        engine.evaluate(query)
        calls = []
        original = pipeline_module.compile_plan

        def counting_compile_plan(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        pipeline_module.compile_plan = counting_compile_plan
        try:
            engine.evaluate(query)  # hit
        finally:
            pipeline_module.compile_plan = original
        assert calls == []

    def test_cross_database_answers_never_shared(self, default_spec):
        """Two engines sharing one config (hence one cache) over different data.

        Regression test: the scope key must embed the database's identity,
        not just its epoch — both databases below sit at epoch 0, and the
        second must not be served the first one's answer.
        """
        config = EngineConfig(cache=ResultCache(capacity=8))
        issuer = _issuer()
        inside = PointObject.at(1, 5_010.0, 5_010.0)
        elsewhere = PointObject.at(2, 9_900.0, 9_900.0)
        first = ImpreciseQueryEngine(
            point_db=PointDatabase.build([inside, elsewhere]), config=config
        )
        second = ImpreciseQueryEngine(
            point_db=PointDatabase.build([elsewhere]), config=config
        )
        query = RangeQuery.ipq(issuer, default_spec)
        assert first.evaluate(query).oids() == {1}
        assert second.evaluate(query).oids() == set()
        assert config.cache.stats.hits == 0

    def test_cross_config_answers_never_shared(self, small_points, default_spec):
        cache = ResultCache(capacity=32)
        query = RangeQuery.ipq(_gaussian_issuer(), default_spec)
        results = {}
        for samples in (32, 64):
            config = EngineConfig(
                cache=cache,
                probability_method="monte_carlo",
                monte_carlo_samples=samples,
            )
            engine = ImpreciseQueryEngine(
                point_db=PointDatabase.build(small_points), config=config
            )
            results[samples] = engine.evaluate(query).probabilities()
        assert cache.stats.hits == 0  # two engines, two fingerprints, no sharing
        assert results[32] != results[64]


class TestShardedCaching:
    def _two_cluster_session(self):
        left = [PointObject.at(i, 100.0 + i, 100.0 + (i % 7)) for i in range(40)]
        right = [PointObject.at(100 + i, 9_000.0 + i, 9_000.0 + (i % 7)) for i in range(40)]
        session = Session.from_objects(points=left + right)
        return session.sharded(2, partitioner="median").cached(capacity=128)

    def test_sharded_hits_and_fine_grained_invalidation(self):
        session = self._two_cluster_session()
        issuer = _issuer(x=150.0, y=150.0, half=50.0)
        query = RangeQuery.ipq(issuer, RangeQuerySpec.square(100.0))
        first = session.evaluate(query)
        assert session.evaluate(query).probabilities() == first.probabilities()
        assert session.stats().cache["hits"] == 1
        # A mutation in the far shard must not evict the cached answer...
        session.move(100, x=9_050.0, y=9_050.0)
        assert session.evaluate(query).probabilities() == first.probabilities()
        assert session.stats().cache["hits"] == 2
        # ...but a mutation in the routed shard must.
        session.move(0, x=120.0, y=120.0)
        session.evaluate(query)
        assert session.stats().cache["hits"] == 2
        epochs = session.stats().epochs["points"]
        assert sorted(epochs.values()) == [1, 1]

    def test_sharded_cached_matches_uncached_sharded(self):
        cached = self._two_cluster_session()
        uncached = Session.from_objects(
            points=[PointObject.at(i, 100.0 + i, 100.0 + (i % 7)) for i in range(40)]
            + [PointObject.at(100 + i, 9_000.0 + i, 9_000.0 + (i % 7)) for i in range(40)]
        ).sharded(2, partitioner="median")
        issuer = _issuer(x=150.0, y=150.0, half=50.0)
        queries = [
            RangeQuery.cipq(issuer, RangeQuerySpec.square(100.0), 0.2),
            NearestNeighborQuery(issuer=issuer, samples=32),
        ] * 2
        expected = [e.probabilities() for e in uncached.evaluate_many(queries)]
        actual = [e.probabilities() for e in cached.evaluate_many(queries)]
        assert actual == expected

    def test_sharded_cached_session_caches_sampled_answers(self, small_points, default_spec):
        session = Session.from_objects(
            points=small_points,
            config=EngineConfig(probability_method="monte_carlo", monte_carlo_samples=64),
        ).sharded(2).cached()
        near = small_points[0].location
        query = RangeQuery.cipq(_gaussian_issuer(near.x, near.y), default_spec, 0.2)
        first = session.evaluate(query)
        second = session.evaluate(query)
        assert first.statistics.monte_carlo_samples > 0
        assert second.probabilities() == first.probabilities()
        cache = session.stats().cache
        assert (cache["hits"], cache["entries"]) == (1, 1)


class TestSessionSurface:
    def test_stats_without_cache(self, small_points):
        session = Session.from_objects(points=small_points)
        stats = session.stats()
        assert stats.cache is None
        assert stats.hit_rate == 0.0
        assert stats.epochs == {"points": 0}

    def test_cached_attaches_a_cache_of_the_given_capacity(self, small_points):
        session = Session.from_objects(points=small_points)
        cached = session.cached(capacity=16)
        assert cached.engine.config.cache.capacity == 16
        assert cached.engine.config == session.engine.config

    def test_cached_shares_live_databases(self, small_points, default_spec):
        session = Session.from_objects(points=small_points)
        cached = session.cached()
        query = RangeQuery.ipq(_issuer(), default_spec)
        cached.evaluate(query)
        session.insert(PointObject.at(999_002, 5_005.0, 5_005.0))  # via the *old* session
        assert 999_002 in cached.evaluate(query).oids()

    def test_experiment_config_cache_knobs(self):
        from repro.experiments.config import ExperimentConfig

        with pytest.raises(ValueError, match="cache_capacity"):
            ExperimentConfig(cache_capacity=-1)
        config = ExperimentConfig(cache_capacity=64).engine_config()
        assert config.cache.capacity == 64
        assert ExperimentConfig().engine_config().cache is None
