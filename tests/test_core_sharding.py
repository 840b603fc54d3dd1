"""Sharded databases: construction, covers, and shard routing edge cases."""

from __future__ import annotations

import pytest

from repro.core.engine import EngineConfig, ImpreciseQueryEngine, PointDatabase
from repro.core.parallel import ParallelEngine
from repro.core.queries import NearestNeighborQuery, RangeQuery, RangeQuerySpec
from repro.core.sharding import ShardedDatabase
from repro.datasets.synthetic import uniform_points
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.registry import (
    IndexCapabilities,
    register_index,
    unregister_index,
)
from repro.uncertainty.pdf import UniformPdf
from repro.uncertainty.region import PointObject, UncertainObject

from tests.conftest import TEST_SPACE


def _issuer(x: float, y: float, half: float = 250.0) -> UncertainObject:
    region = Rect.from_center(Point(x, y), half, half)
    return UncertainObject(oid=0, pdf=UniformPdf(region)).with_catalog()


class TestBuild:
    def test_partition_preserves_every_object(self, small_points):
        sharded = ShardedDatabase.build_points(small_points, 4)
        assert sharded.k == 4
        assert len(sharded) == len(small_points)
        oids = sorted(
            obj.oid
            for shard in sharded.non_empty_shards()
            for obj in shard.database.objects
        )
        assert oids == sorted(obj.oid for obj in small_points)

    def test_covers_contain_their_members(self, small_uncertain):
        sharded = ShardedDatabase.build_uncertain(small_uncertain, 4, catalog_levels=None)
        for shard in sharded.non_empty_shards():
            for obj in shard.database.objects:
                assert shard.cover.contains_rect(obj.region)

    def test_each_shard_gets_its_own_index(self, small_uncertain):
        sharded = ShardedDatabase.build_uncertain(small_uncertain, 2, catalog_levels=None)
        indexes = [shard.database.index for shard in sharded.non_empty_shards()]
        assert len(indexes) == 2
        assert indexes[0] is not indexes[1]

    def test_empty_shards_are_kept_as_placeholders(self):
        # All objects crowd into the bottom-left quadrant, so a 2x2 grid over
        # the full space leaves three cells empty.
        corner = [PointObject.at(i, 10.0 + i, 10.0 + i) for i in range(20)]
        sharded = ShardedDatabase.build_points(corner, 4, bounds=TEST_SPACE)
        assert sharded.k == 4
        empties = [shard for shard in sharded.shards if shard.is_empty]
        assert len(empties) == 3
        assert all(shard.cover.is_empty for shard in empties)
        assert len(sharded.non_empty_shards()) == 1
        assert len(sharded) == 20

    def test_k_one_reproduces_the_collection_in_order(self, small_points):
        sharded = ShardedDatabase.build_points(small_points, 1)
        (shard,) = sharded.shards
        assert shard.database.objects == list(small_points)

    def test_rejects_empty_collections_and_bad_k(self, small_points):
        with pytest.raises(ValueError, match="empty collection"):
            ShardedDatabase.build_points([], 2)
        with pytest.raises(ValueError, match="shard count"):
            ShardedDatabase.build_points(small_points, 0)

    def test_rejects_backends_that_cannot_build_per_shard(self, small_points):
        register_index(
            "global-only",
            lambda items, **kwargs: object(),
            capabilities=IndexCapabilities(supports_shard_build=False),
        )
        try:
            with pytest.raises(ValueError, match="cannot be built per shard"):
                ShardedDatabase.build_points(small_points, 2, index_kind="global-only")
        finally:
            unregister_index("global-only")

    def test_median_partitioner_balances_shards(self, small_points):
        sharded = ShardedDatabase.build_points(small_points, 4, partitioner="median")
        sizes = [len(shard) for shard in sharded.shards]
        assert sum(sizes) == len(small_points)
        assert max(sizes) - min(sizes) <= 2


class TestWindowRouting:
    def test_window_spanning_all_shards_routes_everywhere(self, small_points):
        sharded = ShardedDatabase.build_points(small_points, 4)
        routed = sharded.route_window(TEST_SPACE)
        assert [shard.sid for shard in routed] == [
            shard.sid for shard in sharded.non_empty_shards()
        ]

    def test_window_outside_the_dataset_routes_nowhere(self, small_points):
        sharded = ShardedDatabase.build_points(small_points, 4)
        far_away = Rect(50_000.0, 50_000.0, 51_000.0, 51_000.0)
        assert sharded.route_window(far_away) == []

    def test_empty_window_routes_nowhere(self, small_points):
        sharded = ShardedDatabase.build_points(small_points, 4)
        assert sharded.route_window(Rect.empty()) == []

    def test_small_window_skips_distant_shards(self):
        objects = uniform_points(400, TEST_SPACE, seed=9)
        sharded = ShardedDatabase.build_points(objects, 4, bounds=TEST_SPACE)
        window = Rect(100.0, 100.0, 600.0, 600.0)  # bottom-left corner
        routed = sharded.route_window(window)
        assert len(routed) == 1
        assert routed[0].cover.overlaps(window)

    def test_empty_shards_never_routed(self):
        corner = [PointObject.at(i, 10.0 + i, 10.0 + i) for i in range(20)]
        sharded = ShardedDatabase.build_points(corner, 4, bounds=TEST_SPACE)
        routed = sharded.route_window(TEST_SPACE)
        assert all(not shard.is_empty for shard in routed)
        assert len(routed) == 1


class TestNearestRouting:
    def test_routes_include_the_shard_holding_the_nearest_object(self):
        objects = uniform_points(400, TEST_SPACE, seed=11)
        sharded = ShardedDatabase.build_points(objects, 4, bounds=TEST_SPACE)
        issuer_region = Rect.from_center(Point(1_000.0, 1_000.0), 100.0, 100.0)
        routed = sharded.route_nearest(issuer_region)
        assert routed
        nearest = min(
            objects, key=lambda obj: issuer_region.center.distance_to(obj.location)
        )
        routed_oids = {
            obj.oid for shard in routed for obj in shard.database.objects
        }
        assert nearest.oid in routed_oids

    def test_distant_shards_are_pruned(self):
        objects = uniform_points(400, TEST_SPACE, seed=11)
        sharded = ShardedDatabase.build_points(objects, 4, bounds=TEST_SPACE)
        issuer_region = Rect.from_center(Point(500.0, 500.0), 50.0, 50.0)
        routed = sharded.route_nearest(issuer_region)
        # An issuer deep inside the bottom-left cell cannot be served by the
        # diagonally opposite shard.
        assert len(routed) < sharded.k

    def test_uncertain_databases_reject_nearest_routing(self, small_uncertain):
        sharded = ShardedDatabase.build_uncertain(small_uncertain, 2, catalog_levels=None)
        with pytest.raises(ValueError, match="point-object database"):
            sharded.route_nearest(Rect.from_center(Point(0.0, 0.0), 10.0, 10.0))


class TestRoutingThroughTheEngine:
    """End-to-end edge cases: routed execution stays correct."""

    def test_query_outside_the_data_returns_an_empty_evaluation(self, small_points):
        sharded = ShardedDatabase.build_points(small_points, 4)
        engine = ParallelEngine(point_db=sharded)
        issuer = _issuer(80_000.0, 80_000.0)
        evaluation = engine.evaluate(RangeQuery.ipq(issuer, RangeQuerySpec.square(200.0)))
        assert len(evaluation) == 0
        assert evaluation.statistics.candidates_examined == 0
        assert evaluation.shard_timings == ()

    def test_k_one_matches_the_plain_engine(self, small_points):
        config = EngineConfig()
        plain = ImpreciseQueryEngine(
            point_db=PointDatabase.build(small_points), config=config
        )
        sharded = ParallelEngine(
            point_db=ShardedDatabase.build_points(small_points, 1), config=config
        )
        issuer = _issuer(5_000.0, 5_000.0)
        queries = [
            RangeQuery.ipq(issuer, RangeQuerySpec.square(500.0)),
            RangeQuery.cipq(issuer, RangeQuerySpec.square(500.0), 0.3),
            NearestNeighborQuery(issuer=issuer, samples=32),
        ]
        for expected, got in zip(plain.evaluate_many(queries), sharded.evaluate_many(queries)):
            assert expected.probabilities() == got.probabilities()

    def test_queries_over_empty_shard_regions_work(self):
        corner = [PointObject.at(i, 10.0 + 5.0 * i, 10.0 + 5.0 * i) for i in range(30)]
        sharded = ShardedDatabase.build_points(corner, 4, bounds=TEST_SPACE)
        engine = ParallelEngine(point_db=sharded)
        # The issuer sits in an empty grid cell; the window still reaches the
        # populated corner shard.
        issuer = _issuer(7_000.0, 7_000.0, half=200.0)
        evaluation = engine.evaluate(RangeQuery.ipq(issuer, RangeQuerySpec.square(400.0)))
        assert len(evaluation) == 0  # populated corner is out of range
        nearby = _issuer(200.0, 200.0, half=100.0)
        evaluation = engine.evaluate(RangeQuery.ipq(nearby, RangeQuerySpec.square(400.0)))
        assert len(evaluation) > 0


class TestLiveMutation:
    def _points_db(self, n=200, k=4, **kwargs):
        return ShardedDatabase.build_points(
            uniform_points(n, TEST_SPACE, seed=8), k, **kwargs
        )

    def test_insert_routes_to_nearest_cover_and_grows_it(self):
        database = self._points_db()
        stored = database.insert(PointObject.at(7_001, 123.0, 456.0))
        owner = database.owner_of(7_001)
        assert owner.cover.contains_rect(stored.mbr)
        assert len(database) == 201
        assert any(obj.oid == 7_001 for obj in database.objects)

    def test_insert_duplicate_oid_rejected(self):
        database = self._points_db()
        existing = database.objects[0].oid
        with pytest.raises(ValueError, match="already stored"):
            database.insert(PointObject.at(existing, 1.0, 1.0))

    def test_delete_maintains_only_the_owning_shard(self):
        database = self._points_db()
        victim = database.objects[10].oid
        owner = database.owner_of(victim)
        untouched = [s for s in database.non_empty_shards() if s.sid != owner.sid]
        before = [(s.sid, len(s), s.cover) for s in untouched]
        database.delete(victim)
        assert [(s.sid, len(s), s.cover) for s in untouched] == before
        with pytest.raises(KeyError):
            database.owner_of(victim)
        assert len(database) == 199

    def test_deleting_every_member_empties_the_shard(self):
        database = self._points_db(n=60, k=4)
        shard = min(database.non_empty_shards(), key=len)
        for obj in list(shard.database.objects):
            database.delete(obj.oid)
        assert shard.is_empty
        assert shard.cover.is_empty
        assert shard.anchor is None
        # Routing skips it without blowing up.
        assert shard not in database.route_window(TEST_SPACE)

    def test_move_within_shard_updates_cover_and_anchor(self):
        database = self._points_db()
        shard = max(database.non_empty_shards(), key=len)
        obj = shard.database.objects[0]
        moved = database.move(obj.oid, x=obj.x + 5.0, y=obj.y + 5.0)
        owner = database.owner_of(obj.oid)
        assert owner.cover.contains_rect(moved.mbr)
        members = list(owner.database.objects)
        assert any(member.location == owner.anchor for member in members)

    def test_move_across_shards_re_homes_the_object(self):
        database = self._points_db()
        # Pick an object and send it to the far corner of another shard.
        obj = database.objects[0]
        source = database.owner_of(obj.oid)
        target_corner = None
        for shard in database.non_empty_shards():
            if shard.sid != source.sid:
                target_corner = shard.cover.center
                break
        assert target_corner is not None
        moved = database.move(obj.oid, x=target_corner.x, y=target_corner.y)
        owner = database.owner_of(obj.oid)
        assert owner.cover.contains_rect(moved.mbr)
        assert len(database) == 200
        total = sum(len(s) for s in database.non_empty_shards())
        assert total == 200

    def test_uncertain_insert_attaches_catalog(self):
        objects = [
            UncertainObject.uniform(
                i, Rect.from_center(Point(100.0 + i * 40.0, 100.0 + i * 30.0), 30.0, 20.0)
            )
            for i in range(40)
        ]
        database = ShardedDatabase.build_uncertain(objects, 2)
        stored = database.insert(
            UncertainObject.uniform(900, Rect.from_center(Point(500.0, 400.0), 25.0, 25.0))
        )
        assert stored.catalog is not None
        owner = database.owner_of(900)
        owner.database.index.check_augmentation()

    def test_hot_threshold_resplit_keeps_shards_bounded(self):
        database = self._points_db(n=100, k=2, hot_threshold=80)
        k_before = database.k
        for offset in range(120):
            database.insert(
                PointObject.at(8_000 + offset, 5_000.0 + offset, 5_000.0 + offset * 0.5)
            )
        assert database.k > k_before
        assert max(len(s) for s in database.non_empty_shards()) <= 80
        # Shard map and global list stay consistent through re-splits.
        assert sorted(obj.oid for obj in database.objects) == sorted(
            obj.oid for s in database.non_empty_shards() for obj in s.database.objects
        )
        for shard in database.non_empty_shards():
            assert shard is database.owner_of(shard.database.objects[0].oid)

    def test_resplit_keeps_the_index_kwargs(self):
        """A re-split rebuilds both halves with the kwargs the shards were built with."""
        database = self._points_db(n=2_000, k=2, max_entries=4, hot_threshold=1_100)
        assert database.index_options == {"max_entries": 4}
        k_before = database.k
        centre = database.shards[0].cover.center
        for offset in range(300):
            database.insert(
                PointObject.at(9_000 + offset, centre.x + offset * 0.5, centre.y - offset * 0.25)
            )
        assert database.k > k_before
        for shard in database.non_empty_shards():
            assert shard.database.index.max_entries == 4, shard.sid

    def test_hot_threshold_validation(self):
        with pytest.raises(ValueError, match="hot_threshold"):
            self._points_db(hot_threshold=1)

    def test_move_argument_validation(self):
        database = self._points_db()
        oid = database.objects[0].oid
        with pytest.raises(ValueError, match="x= and y="):
            database.move(oid, pdf=UniformPdf(Rect(0.0, 0.0, 10.0, 10.0)))

    def test_drained_database_accepts_inserts_again(self):
        database = self._points_db(n=20, k=2)
        for oid in [obj.oid for obj in list(database.objects)]:
            database.delete(oid)
        assert len(database) == 0
        stored = database.insert(PointObject.at(500, 123.0, 456.0))
        assert len(database) == 1
        owner = database.owner_of(500)
        assert owner.cover.contains_rect(stored.mbr)
        assert database.route_window(Rect(100.0, 400.0, 200.0, 500.0)) == [owner]
