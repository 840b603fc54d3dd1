"""Databases build their index on first probe.

``PointDatabase.build`` / ``UncertainDatabase.build`` defer the tree: the
first read of ``database.index`` builds it over the collection as it stands.
The vectorised backend answers range queries from the columnar snapshot, so
a served session never builds one, while a scalar session (and a vectorised
one over a PTI, whose thresholded C-IUQs probe it) builds its indexes when
its pipeline is constructed.  Tree shapes differ between a late build and a
maintained index, so the comparisons here are of answers, never of node
accesses.
"""

from __future__ import annotations

import pytest

import repro.core.database as database_module
from repro.core.engine import EngineConfig, ImpreciseQueryEngine
from repro.core.database import PointDatabase, UncertainDatabase
from repro.core.queries import NearestNeighborQuery, RangeQuery, RangeQuerySpec
from repro.core.session import Session
from repro.core.updates import UpdateBatch
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.rtree import RTree
from repro.rpc.shardd import _LoadedShard
from repro.uncertainty.pdf import TruncatedGaussianPdf, UniformPdf
from repro.uncertainty.region import PointObject, UncertainObject


@pytest.fixture()
def builds(monkeypatch) -> list[str]:
    """The index kinds built through the database while the test runs."""
    built: list[str] = []
    real = database_module.build_index

    def spy(items, kind, **kwargs):
        built.append(kind)
        return real(items, kind, **kwargs)

    monkeypatch.setattr(database_module, "build_index", spy)
    return built


def _issuer(x: float, y: float, half: float = 300.0, *, gaussian: bool = False) -> UncertainObject:
    region = Rect.from_center(Point(x, y), half, half)
    pdf = TruncatedGaussianPdf(region) if gaussian else UniformPdf(region)
    return UncertainObject(oid=0, pdf=pdf)


def _range_queries(target: str) -> list[RangeQuery]:
    spec = RangeQuerySpec.square(600.0)
    make = RangeQuery.ipq if target == "points" else RangeQuery.iuq
    constrained = RangeQuery.cipq if target == "points" else RangeQuery.ciuq
    return [
        make(_issuer(2_500.0, 2_500.0), spec),
        constrained(_issuer(5_000.0, 5_000.0), spec, 0.4),
        constrained(_issuer(7_000.0, 3_000.0, gaussian=True), spec, 0.2),
        make(_issuer(4_000.0, 6_500.0, 500.0), RangeQuerySpec.square(900.0)),
    ]


def _updates(target: str, objects: list, round_: int) -> UpdateBatch:
    """Inserts, moves and deletes touching a slice of ``objects``."""
    batch = UpdateBatch()
    base = 100_000 + 10 * round_
    victims = objects[round_ * 7 : round_ * 7 + 3]
    movers = objects[200 + round_ * 5 : 200 + round_ * 5 + 4]
    for step in range(3):
        x, y = 2_000.0 + 900.0 * step + 50.0 * round_, 2_400.0 + 700.0 * step
        if target == "points":
            batch.insert(PointObject.at(base + step, x, y))
        else:
            region = Rect.from_center(Point(x, y), 60.0, 40.0)
            batch.insert(UncertainObject.uniform(base + step, region))
    for step, obj in enumerate(movers):
        x, y = 4_800.0 + 120.0 * step, 5_100.0 - 90.0 * step - 10.0 * round_
        if target == "points":
            batch.move(obj.oid, x=x, y=y)
        else:
            batch.move(obj.oid, pdf=UniformPdf(Rect.from_center(Point(x, y), 70.0, 50.0)))
    for obj in victims:
        batch.delete(obj.oid, target=target)
    return batch


def _stream(target: str, objects: list) -> list:
    queries = _range_queries(target)
    first, second = _updates(target, objects, 0), _updates(target, objects, 1)
    return queries + [first] + queries + [second] + queries


def _digests(evaluations) -> list[tuple[bytes, bytes]]:
    return [
        (e.result.oid_array.tobytes(), e.result.probability_array.tobytes()) for e in evaluations
    ]


def _session(target: str, objects: list, **config) -> Session:
    if target == "points":
        return Session.from_objects(points=objects, config=EngineConfig(**config))
    return Session.from_objects(
        uncertain=objects, uncertain_index="rtree", config=EngineConfig(**config)
    )


SERVED = {
    "serial": lambda session: session,
    "cached": lambda session: session.cached(64),
    "sharded": lambda session: session.sharded(3),
    "sharded_cached": lambda session: session.sharded(3).cached(64),
    "subscribed": lambda session: session,
}


class TestServedSessionsBuildNoIndex:
    @pytest.mark.parametrize("target", ["points", "uncertain"])
    @pytest.mark.parametrize("kind", list(SERVED))
    def test_vectorised_session_builds_no_index(
        self, kind, target, builds, small_points, small_uncertain
    ):
        objects = list(small_points if target == "points" else small_uncertain)
        session = SERVED[kind](_session(target, objects))
        standing = _range_queries(target)[1]
        subscription = session.subscribe(standing) if kind == "subscribed" else None
        served = session.evaluate_many(_stream(target, objects))
        assert builds == []
        for entry in session.describe()["databases"].values():
            assert entry["index_built"] in (False, 0)

        builds.clear()
        reference = _session(target, objects, vectorized=False)
        assert len(builds) == 1  # eagerly indexed: built before its first query
        expected = reference.evaluate_many(_stream(target, objects))
        assert _digests(served) == _digests(expected)
        if subscription is not None:
            final = expected[-3]  # the standing query, after both update batches
            assert subscription.answer() == dict(
                zip(final.result.oid_array.tolist(), final.result.probability_array.tolist())
            )


class TestWhenIndexesAreBuilt:
    def test_scalar_session_builds_every_index_before_its_first_query(
        self, builds, small_points, small_uncertain
    ):
        session = Session.from_objects(
            points=small_points,
            uncertain=small_uncertain,
            config=EngineConfig(vectorized=False),
        )
        assert sorted(builds) == ["pti", "rtree"]
        assert session.point_db.index_built and session.uncertain_db.index_built
        sharded = session.sharded(3)
        shards = [
            shard.database
            for database in (sharded.point_db, sharded.uncertain_db)
            for shard in database.non_empty_shards()
        ]
        assert all(database.index_built for database in shards)
        assert len(builds) == 2 + len(shards)
        session.evaluate_many(_range_queries("points") + _range_queries("uncertain"))
        sharded.evaluate_many(_range_queries("points") + _range_queries("uncertain"))
        assert len(builds) == 2 + len(shards)

    def test_vectorised_pti_session_builds_its_pti_before_its_first_query(
        self, builds, small_points, small_uncertain
    ):
        session = Session.from_objects(points=small_points, uncertain=small_uncertain)
        assert builds == ["pti"]
        assert session.uncertain_db.index_built and not session.point_db.index_built
        session.evaluate_many(_range_queries("points") + _range_queries("uncertain"))
        assert builds == ["pti"]

    def test_shard_daemon_builds_only_what_its_pipeline_probes(
        self, builds, small_points, small_uncertain
    ):
        points = _LoadedShard("points", PointDatabase.build(small_points))
        points.register(EngineConfig())
        uncertain = _LoadedShard("uncertain", UncertainDatabase.build(small_uncertain))
        uncertain.register(EngineConfig())
        assert builds == ["pti"]
        assert not points.database.index_built and uncertain.database.index_built

    def test_build_refuses_what_the_index_would_refuse(self, builds, small_uncertain):
        with pytest.raises(ValueError, match="empty collection"):
            PointDatabase.build([], index_kind="grid")
        with pytest.raises(ValueError, match="U-catalog"):
            UncertainDatabase.build(
                [UncertainObject.uniform(1, Rect(0.0, 0.0, 5.0, 5.0))], catalog_levels=None
            )
        database = UncertainDatabase.build(small_uncertain)
        coarse = UncertainObject.uniform(
            999_999, Rect(10.0, 10.0, 60.0, 60.0)
        ).with_catalog((0.0, 0.5))
        with pytest.raises(ValueError, match="catalog levels"):
            database.insert(coarse)
        assert 999_999 not in database
        assert builds == []


LATE_BUILD_KINDS = ["rtree", "grid", "linear", "pti"]


class TestLateBuildAnswersLikeAMaintainedIndex:
    @pytest.mark.parametrize("kind", LATE_BUILD_KINDS)
    def test_late_build_matches_index_maintained_from_load(
        self, kind, small_points, small_uncertain
    ):
        target = "uncertain" if kind == "pti" else "points"
        objects = list(small_uncertain if target == "uncertain" else small_points)
        build = UncertainDatabase.build if target == "uncertain" else PointDatabase.build
        late = build(objects, index_kind=kind)
        eager = build(objects, index_kind=kind)
        assert eager.index is not None  # indexed at load, then maintained

        def mutate(round_: int) -> None:
            # Straight through the database mutators: an engine's pipeline
            # over a PTI would build it.
            for database in (late, eager):
                for op in _updates(target, objects, round_):
                    if op.action == "insert":
                        database.insert(op.obj)
                    elif op.action == "delete":
                        database.delete(op.oid)
                    elif op.pdf is not None:
                        database.move(op.oid, op.pdf)
                    else:
                        database.move(op.oid, op.x, op.y)

        mutate(0)
        mutate(1)
        assert not late.index_built and eager.index_built

        def answers(database) -> list[tuple[bytes, bytes]]:
            key = "uncertain_db" if target == "uncertain" else "point_db"
            engine = ImpreciseQueryEngine(**{key: database}, config=EngineConfig(vectorized=False))
            queries: list = _range_queries(target)
            if target == "points":
                queries.append(NearestNeighborQuery(issuer=_issuer(5_000.0, 5_000.0), samples=64))
            return _digests(engine.evaluate(query) for query in queries)

        def check(database) -> None:
            index = database.index
            if hasattr(index, "check_invariants"):
                index.check_invariants()
            if hasattr(index, "check_augmentation"):
                index.check_augmentation()
            assert len(index) == len(database)

        assert answers(late) == answers(eager)
        assert late.index_built
        check(late)
        check(eager)

        # Maintenance after the late build.
        mutate(2)
        assert answers(late) == answers(eager)
        check(late)
        check(eager)


class TestNearestNeighbourBuildsOnlyItsSampler:
    def test_grid_session_builds_no_grid_for_a_nearest_neighbour_query(
        self, builds, monkeypatch, small_points
    ):
        """The sampler needs an R-tree: a grid database's own index is never built."""
        query = NearestNeighborQuery(issuer=_issuer(5_000.0, 5_000.0), samples=32)
        reference = Session.from_objects(points=small_points, point_index="rtree")
        expected = reference.evaluate_many([query])[0].result
        real = RTree.bulk_load.__func__

        def sampler_spy(cls, items, **kwargs):
            builds.append("sampler rtree")
            return real(cls, items, **kwargs)

        monkeypatch.setattr(RTree, "bulk_load", classmethod(sampler_spy))
        builds.clear()
        session = Session.from_objects(points=small_points, point_index="grid")
        result = session.evaluate_many([query])[0].result
        assert builds == ["sampler rtree"]
        assert session.describe()["databases"]["points"]["index_built"] is False
        assert result.oid_array.tobytes() == expected.oid_array.tobytes()
        assert result.probability_array.tobytes() == expected.probability_array.tobytes()


class TestDescribeReportsIndexBuilt:
    def test_fresh_vectorised_point_session_then_a_nearest_neighbour_query(self, small_points):
        session = Session.from_objects(points=small_points)
        assert session.describe()["databases"]["points"]["index_built"] is False
        assert session.describe()["databases"]["points"]["index_built"] is False
        session.evaluate_many([NearestNeighborQuery(issuer=_issuer(5_000.0, 5_000.0), samples=32)])
        assert session.describe()["databases"]["points"]["index_built"] is True

    def test_sharded_session_counts_shards_with_a_built_index(self, small_points):
        session = Session.from_objects(points=small_points).sharded(3)
        assert session.describe()["databases"]["points"]["index_built"] == 0
        session.evaluate_many([NearestNeighborQuery(issuer=_issuer(5_000.0, 5_000.0), samples=32)])
        # The query probed the shards it routed to, and only those.
        built = session.describe()["databases"]["points"]["index_built"]
        assert 1 <= built <= len(session.point_db.non_empty_shards())
