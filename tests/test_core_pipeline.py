"""Tests for the staged pipeline, query plans and workload partitioning.

The structural guarantees of the decomposition: plans capture the decisions
the monolithic engine used to make inline, the same
:class:`~repro.core.pipeline.QueryPipeline` stage runner backs the serial
engine and per-shard execution, and the workload splitter shared by both
engines validates and groups mixed query/update streams identically.
"""

import pytest

from repro.core.engine import EngineConfig, ImpreciseQueryEngine
from repro.core.pipeline import QueryPipeline, partition_workload
from repro.core.plan import (
    compile_plan,
    plan_query,
    query_draw_token,
    query_fingerprint,
)
from repro.core.queries import NearestNeighborQuery, RangeQuery, RangeQuerySpec
from repro.core.sharding import ShardedDatabase
from repro.core.updates import UpdateBatch
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.uncertainty.pdf import TruncatedGaussianPdf, UniformPdf
from repro.uncertainty.region import PointObject, UncertainObject


def _issuer(oid=0):
    region = Rect.from_center(Point(5_000.0, 5_000.0), 250.0, 250.0)
    return UncertainObject(oid=oid, pdf=UniformPdf(region)).with_catalog()


class TestQueryPlan:
    def test_point_plan_uses_filter_region(self, default_spec):
        query = RangeQuery.cipq(_issuer(), default_spec, 0.4)
        plan = compile_plan(query, EngineConfig())
        assert plan.target == "points"
        assert plan.window == plan.pruner.filter_region
        assert not plan.use_pti
        assert plan.prefer_columnar
        assert plan.draw_token == _token(query)

    def test_uncertain_plan_engages_pti(self, uncertain_db, default_spec):
        # Only the scalar reference backend runs the PTI's threshold traversal.
        query = RangeQuery.ciuq(_issuer(), default_spec, 0.4)
        plan = compile_plan(
            query, EngineConfig(vectorized=False), uncertain_index=uncertain_db.index
        )
        assert plan.use_pti
        assert not plan.prefer_columnar
        assert plan.window == plan.pruner.qp_expanded_region

    def test_vectorised_uncertain_plan_probes_a_pti_plainly(self, uncertain_db, default_spec):
        # The vectorised backend probes the PTI with the Qp window but never
        # runs the threshold traversal.
        query = RangeQuery.ciuq(_issuer(), default_spec, 0.4)
        plan = compile_plan(query, EngineConfig(), uncertain_index=uncertain_db.index)
        assert not plan.use_pti
        assert not plan.prefer_columnar
        assert plan.window == plan.pruner.qp_expanded_region
        unthresholded = compile_plan(
            RangeQuery.iuq(_issuer(), default_spec),
            EngineConfig(),
            uncertain_index=uncertain_db.index,
        )
        assert not unthresholded.use_pti
        assert unthresholded.prefer_columnar
        assert not compile_plan(
            RangeQuery.iuq(_issuer(), default_spec),
            EngineConfig(vectorized=False),
            uncertain_index=uncertain_db.index,
        ).use_pti

    def test_uncertain_plan_without_pti_prefers_columnar(
        self, uncertain_db_rtree, default_spec
    ):
        query = RangeQuery.ciuq(_issuer(), default_spec, 0.4)
        plan = compile_plan(query, EngineConfig(), uncertain_index=uncertain_db_rtree.index)
        assert not plan.use_pti
        assert plan.prefer_columnar

    def test_nearest_plan_defaults_samples(self):
        plan = compile_plan(NearestNeighborQuery(issuer=_issuer()), EngineConfig())
        assert plan.target == "nearest"
        assert plan.samples == 256

    def test_unplannable_type_rejected(self):
        with pytest.raises(TypeError):
            compile_plan("junk", EngineConfig())

    def test_pruner_cache_shared_across_plans(self, default_spec):
        query = RangeQuery.cipq(_issuer(), default_spec, 0.4)
        shared: dict = {}
        first = compile_plan(query, EngineConfig(), pruner_cache=shared)
        second = compile_plan(query, EngineConfig(), pruner_cache=shared)
        assert first.pruner is second.pruner

    def test_pruner_cache_never_aliases_across_targets(self, default_spec):
        """One shared dict for a mixed batch: CIPQ and CIUQ pruners differ."""
        issuer = _issuer()
        shared: dict = {}
        points_plan = compile_plan(
            RangeQuery.cipq(issuer, default_spec, 0.4), EngineConfig(), pruner_cache=shared
        )
        uncertain_plan = compile_plan(
            RangeQuery.ciuq(issuer, default_spec, 0.4), EngineConfig(), pruner_cache=shared
        )
        assert points_plan.pruner is not uncertain_plan.pruner
        assert uncertain_plan.window == uncertain_plan.pruner.qp_expanded_region


def _token(query):
    return query_draw_token(query_fingerprint(query))


class TestDrawTokens:
    def test_token_per_plan(self, default_spec):
        query = RangeQuery.ipq(_issuer(), default_spec)
        assert compile_plan(query, EngineConfig()).draw_token == _token(query)
        # The frozen suite's shim ignores the position it is handed.
        for position in (0, 9):
            assert plan_query(query, position, EngineConfig()).draw_token == _token(query)

    def test_content_token_position_independent(self, default_spec):
        issuer = _issuer()
        same_a = RangeQuery.cipq(issuer, default_spec, 0.3)
        same_b = RangeQuery.cipq(_issuer(), default_spec, 0.3)  # equal, not identical
        other = RangeQuery.cipq(issuer, default_spec, 0.4)
        assert query_fingerprint(same_a) == query_fingerprint(same_b)
        assert _token(same_a) == _token(same_b)
        assert _token(same_a) != _token(other)
        assert 0 <= _token(same_a) < 2**63

    def test_nn_and_range_tokens_distinct(self):
        issuer = _issuer()
        nn = NearestNeighborQuery(issuer=issuer, threshold=0.0)
        rq = RangeQuery.ipq(issuer, RangeQuerySpec.square(500.0))
        assert _token(nn) != _token(rq)

    def test_issuer_pdf_is_part_of_the_identity(self, default_spec):
        """A uniform and a Gaussian issuer over one box are two queries."""
        region = _issuer().region
        uniform = UncertainObject(oid=0, pdf=UniformPdf(region))
        gaussian = UncertainObject(oid=0, pdf=TruncatedGaussianPdf(region))
        a = RangeQuery.cipq(uniform, default_spec, 0.3)
        b = RangeQuery.cipq(gaussian, default_spec, 0.3)
        assert query_fingerprint(a) != query_fingerprint(b)
        assert _token(a) != _token(b)

    def test_catalog_levels_are_part_of_the_identity(self, default_spec):
        """Catalog levels change the C-IUQ pruner's window, hence the statistics."""
        issuer = UncertainObject(oid=0, pdf=UniformPdf(_issuer().region))
        a = RangeQuery.ciuq(issuer.with_catalog(), default_spec, 0.3)
        b = RangeQuery.ciuq(issuer.with_catalog((0.0, 0.25, 0.5)), default_spec, 0.3)
        assert query_fingerprint(a) != query_fingerprint(b)
        assert _token(a) != _token(b)


class TestPartitionWorkload:
    def test_groups_preserve_order(self, default_spec):
        a = RangeQuery.ipq(_issuer(), default_spec)
        b = RangeQuery.ipq(_issuer(1), default_spec)
        batch = UpdateBatch().insert(PointObject.at(900, 1.0, 2.0))
        groups = partition_workload([a, batch, b, b])
        assert [kind for kind, _ in groups] == ["queries", "updates", "queries"]
        assert groups[0][1] == [a]
        assert groups[1][1] is batch
        assert groups[2][1] == [b, b]

    def test_rejects_non_queries(self, default_spec):
        with pytest.raises(TypeError, match="item 1"):
            partition_workload([RangeQuery.ipq(_issuer(), default_spec), "junk"])

    def test_empty_stream(self):
        assert partition_workload([]) == []


class TestSharedStageRunner:
    def test_engine_owns_a_pipeline(self, point_db, uncertain_db):
        engine = ImpreciseQueryEngine(point_db=point_db, uncertain_db=uncertain_db)
        assert isinstance(engine.pipeline, QueryPipeline)
        assert engine.pipeline.point_db is point_db
        assert engine.pipeline.uncertain_db is uncertain_db

    def test_pipeline_run_batch_matches_engine(self, point_db, default_spec):
        config = EngineConfig()
        engine = ImpreciseQueryEngine(point_db=point_db, config=config)
        pipeline = QueryPipeline(point_db=point_db, config=config)
        queries = [RangeQuery.cipq(_issuer(i), default_spec, 0.2) for i in range(4)]
        direct = pipeline.run_batch(queries)
        via_engine = engine.evaluate_many(queries)
        assert [e.probabilities() for e in direct] == [
            e.probabilities() for e in via_engine
        ]

    def test_shard_pipelines_share_runner_without_cache(self, small_points):
        database = ShardedDatabase.build_points(small_points, 2, partitioner="median")
        config = EngineConfig()
        shard = database.non_empty_shards()[0]
        pipeline = database.shard_pipeline(shard.sid, config)
        assert isinstance(pipeline, QueryPipeline)
        assert pipeline.cache is None  # shards never cache partial answers
        assert database.shard_pipeline(shard.sid, config) is pipeline  # cached
        # Replacing the shard database wholesale invalidates the pipeline.
        database._rebuild_shard(shard, list(shard.database.objects))
        assert database.shard_pipeline(shard.sid, config) is not pipeline

    def test_execute_on_shard_equals_serial_slice(self, small_points, default_spec):
        database = ShardedDatabase.build_points(small_points, 1, partitioner="median")
        config = EngineConfig()
        serial = ImpreciseQueryEngine(
            point_db=database.shards[0].database, config=config
        )
        queries = [RangeQuery.ipq(_issuer(i), default_spec) for i in range(3)]
        sharded = database.shard_pipeline(0, config).run_batch(queries)
        expected = serial.evaluate_many(queries)
        assert [e.probabilities() for e in sharded] == [
            e.probabilities() for e in expected
        ]

    def test_shard_pipelines_cached_per_config(self, small_points):
        """Engines sharing one sharded database keep their pipelines warm."""
        database = ShardedDatabase.build_points(small_points, 2, partitioner="median")
        config_a = EngineConfig()
        config_b = EngineConfig(monte_carlo_samples=64)
        sid = database.non_empty_shards()[0].sid
        a = database.shard_pipeline(sid, config_a)
        b = database.shard_pipeline(sid, config_b)
        assert a is not b
        # Alternating configurations must not evict each other's pipeline.
        assert database.shard_pipeline(sid, config_a) is a
        assert database.shard_pipeline(sid, config_b) is b

    def test_equal_configs_share_one_shard_pipeline(self, small_points):
        """Shard pipelines are keyed by configuration content, not object identity."""
        database = ShardedDatabase.build_points(small_points, 2, partitioner="median")
        sid = database.non_empty_shards()[0].sid
        first = EngineConfig(monte_carlo_samples=64)
        second = EngineConfig(monte_carlo_samples=64)
        assert first is not second
        assert database.shard_pipeline(sid, first) is database.shard_pipeline(sid, second)

    def test_shard_pipeline_cache_bounded_and_sheds_replaced_databases(
        self, small_points
    ):
        from repro.core.sharding import _PIPELINES_PER_SHARD

        database = ShardedDatabase.build_points(small_points, 2, partitioner="median")
        shard = database.non_empty_shards()[0]
        configs = [EngineConfig(rng_seed=i) for i in range(8)]
        for config in configs:
            database.shard_pipeline(shard.sid, config)
        per_sid = [key for key in database._pipelines if key[0] == shard.sid]
        assert len(per_sid) <= _PIPELINES_PER_SHARD
        # A wholesale database replacement sheds every entry pinning the old one.
        database._rebuild_shard(shard, list(shard.database.objects))
        database.shard_pipeline(shard.sid, configs[-1])
        assert all(
            entry_db is shard.database
            for key, (entry_db, _, _) in database._pipelines.items()
            if key[0] == shard.sid
        )

    def test_empty_shard_has_no_pipeline(self, small_points):
        database = ShardedDatabase.build_points(
            small_points, 64, partitioner="grid"
        )
        empty = next(shard for shard in database.shards if shard.is_empty)
        with pytest.raises(ValueError, match="empty"):
            database.shard_pipeline(empty.sid, EngineConfig())
