"""Tests for the fluent Session facade."""

import asyncio

import pytest

from repro.core.engine import EngineConfig, ImpreciseQueryEngine
from repro.core.queries import Evaluation, NearestNeighborQuery, RangeQuery, RangeQuerySpec
from repro.core.session import Session
from repro.datasets.workload import QueryWorkload
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.serve import QueryServer, ServeClient
from repro.uncertainty.pdf import TruncatedGaussianPdf
from repro.uncertainty.region import UncertainObject

from tests.conftest import TEST_SPACE


@pytest.fixture()
def session(small_points, small_uncertain) -> Session:
    return Session.from_objects(points=small_points, uncertain=small_uncertain)


class TestConstruction:
    def test_from_objects_builds_both_databases(self, session, small_points, small_uncertain):
        assert session.point_db is not None
        assert session.uncertain_db is not None
        assert len(session.point_db) == len(small_points)
        assert len(session.uncertain_db) == len(small_uncertain)
        assert session.point_db.kind == "rtree"
        assert session.uncertain_db.kind == "pti"

    def test_from_objects_honours_index_kinds(self, small_points, small_uncertain):
        session = Session.from_objects(
            points=small_points,
            uncertain=small_uncertain,
            point_index="grid",
            uncertain_index="linear",
        )
        assert session.point_db.kind == "grid"
        assert session.uncertain_db.kind == "linear"

    def test_wraps_prebuilt_engine(self, point_db):
        engine = ImpreciseQueryEngine(point_db=point_db)
        session = Session(engine=engine)
        assert session.engine is engine

    def test_engine_and_databases_are_mutually_exclusive(self, point_db):
        engine = ImpreciseQueryEngine(point_db=point_db)
        with pytest.raises(ValueError):
            Session(engine=engine, point_db=point_db)

    def test_config_reaches_engine(self, small_points):
        session = Session.from_objects(
            points=small_points, config=EngineConfig(monte_carlo_samples=42)
        )
        assert session.engine.config.monte_carlo_samples == 42

    def test_needs_at_least_one_database(self):
        with pytest.raises(ValueError):
            Session.from_objects()


class TestFluentRangeQueries:
    def test_full_chain_runs_a_constrained_query(self, session, uniform_issuer):
        evaluation = (
            session.range(half_width=500.0)
            .targets("uncertain")
            .threshold(0.5)
            .issued_by(uniform_issuer)
            .run()
        )
        assert isinstance(evaluation, Evaluation)
        assert evaluation.query.kind == "ciuq"
        assert all(answer.probability >= 0.5 for answer in evaluation)

    def test_build_returns_query_object(self, session, uniform_issuer):
        query = (
            session.range(half_width=500.0, half_height=250.0)
            .targets("points")
            .issued_by(uniform_issuer)
            .build()
        )
        assert isinstance(query, RangeQuery)
        assert query.spec.half_width == 500.0
        assert query.spec.half_height == 250.0
        assert query.threshold == 0.0

    def test_builder_is_immutable_and_reusable(self, session, uniform_issuer):
        base = session.range(half_width=500.0).targets("points").issued_by(uniform_issuer)
        constrained = base.threshold(0.7)
        assert base.build().threshold == 0.0
        assert constrained.build().threshold == 0.7

    def test_target_defaults_to_the_only_database(
        self, small_points, small_uncertain, uniform_issuer
    ):
        points_only = Session.from_objects(points=small_points)
        query = points_only.range(half_width=500.0).issued_by(uniform_issuer).build()
        assert query.target == "points"
        uncertain_only = Session.from_objects(uncertain=small_uncertain)
        query = uncertain_only.range(half_width=500.0).issued_by(uniform_issuer).build()
        assert query.target == "uncertain"

    def test_ambiguous_target_requires_explicit_choice(self, session, uniform_issuer):
        builder = session.range(half_width=500.0).issued_by(uniform_issuer)
        with pytest.raises(ValueError, match="targets"):
            builder.build()

    def test_missing_issuer_rejected(self, session):
        with pytest.raises(ValueError, match="issued_by"):
            session.range(half_width=500.0).targets("points").build()

    def test_run_many_uses_the_batch_path(self, session):
        workload = QueryWorkload(bounds=TEST_SPACE, seed=5)
        issuers = list(workload.issuers(8))
        evaluations = (
            session.range(half_width=500.0).targets("points").run_many(issuers)
        )
        assert len(evaluations) == 8
        assert [e.query.issuer for e in evaluations] == issuers
        # Same shape evaluated directly gives the same answers.
        direct = session.evaluate(
            RangeQuery.ipq(issuers[0], evaluations[0].query.spec)
        )
        assert direct.probabilities() == evaluations[0].probabilities()


class TestNearestNeighborBuilder:
    def test_nearest_chain(self, session, uniform_issuer):
        evaluation = (
            session.nearest()
            .sample_count(256)
            .threshold(0.1)
            .issued_by(uniform_issuer)
            .run()
        )
        assert evaluation.query.kind == "nn"
        assert all(answer.probability >= 0.1 for answer in evaluation)

    def test_nearest_build(self, session, uniform_issuer):
        query = session.nearest(samples=64).issued_by(uniform_issuer).build()
        assert isinstance(query, NearestNeighborQuery)
        assert query.samples == 64

    def test_nearest_missing_issuer_rejected(self, session):
        with pytest.raises(ValueError, match="issued_by"):
            session.nearest().build()


class TestDirectEvaluation:
    def test_session_evaluate_delegates_to_engine(self, session, uniform_issuer):
        query = RangeQuery.ipq(
            uniform_issuer, session.range(half_width=500.0).spec
        )
        via_session = session.evaluate(query)
        assert via_session.probabilities() == session.engine.evaluate(query).probabilities()

    def test_session_evaluate_many(self, session, uniform_issuer):
        spec = session.range(half_width=500.0).spec
        queries = [
            RangeQuery.ipq(uniform_issuer, spec),
            RangeQuery.iuq(uniform_issuer, spec),
        ]
        evaluations = session.evaluate_many(queries)
        assert [e.query.kind for e in evaluations] == ["ipq", "iuq"]


class TestStatsAfterMutations:
    """Satellite: epoch and subscription counters in SessionStats."""

    def test_serial_epochs_advance_through_every_mutator(self, small_points, small_uncertain):
        from repro.core.updates import UpdateBatch
        from repro.geometry.point import Point
        from repro.geometry.rect import Rect
        from repro.uncertainty.pdf import UniformPdf
        from repro.uncertainty.region import PointObject

        session = Session.from_objects(points=small_points, uncertain=small_uncertain)
        before = session.stats().epochs
        assert set(before) == {"points", "uncertain"}

        session.insert(PointObject.at(9301, 4_000.0, 4_000.0))
        after_insert = session.stats().epochs
        assert after_insert["points"] > before["points"]
        assert after_insert["uncertain"] == before["uncertain"]

        session.move(9301, x=4_500.0, y=4_500.0)
        after_move = session.stats().epochs
        assert after_move["points"] > after_insert["points"]

        session.delete(9301, target="points")
        after_delete = session.stats().epochs
        assert after_delete["points"] > after_move["points"]

        session.apply_updates(
            UpdateBatch().move(
                1, pdf=UniformPdf(Rect.from_center(Point(2_000.0, 2_000.0), 50.0, 50.0))
            )
        )
        after_batch = session.stats().epochs
        assert after_batch["uncertain"] > after_delete["uncertain"]
        assert after_batch["points"] == after_delete["points"]

    def test_sharded_epochs_advance_only_on_the_owning_shard(self, small_points):
        from repro.uncertainty.region import PointObject

        session = Session.from_objects(points=small_points).sharded(4)
        before = session.stats().epochs["points"]
        assert isinstance(before, dict) and len(before) >= 2

        stored = session.insert(PointObject.at(9302, 100.0, 100.0))
        owner = session.point_db.owner_of(stored.oid).sid
        after = session.stats().epochs["points"]
        assert after[owner] == before[owner] + 1
        assert all(after[sid] == before[sid] for sid in before if sid != owner)

    def test_subscription_counters_surface_in_stats(self, small_points):
        from repro.core.queries import RangeQuery, RangeQuerySpec
        from repro.geometry.point import Point
        from repro.geometry.rect import Rect
        from repro.uncertainty.region import PointObject, UncertainObject

        session = Session.from_objects(points=small_points)
        assert session.stats().subscriptions is None  # no registry yet

        issuer = UncertainObject.uniform(
            9400, Rect.from_center(Point(5_000.0, 5_000.0), 100.0, 100.0)
        )
        near = session.subscribe(RangeQuery.ipq(issuer, RangeQuerySpec.square(400.0)))
        far_issuer = UncertainObject.uniform(
            9401, Rect.from_center(Point(500.0, 9_500.0), 50.0, 50.0)
        )
        session.subscribe(RangeQuery.ipq(far_issuer, RangeQuerySpec.square(100.0)))

        counters = session.stats().subscriptions
        assert counters["active"] == 2
        assert counters["subscribed_total"] == 2
        assert counters["reevaluations"] == 0

        # One mutation inside `near`'s window: exactly one re-evaluation,
        # the far subscription is skipped.
        session.insert(PointObject.at(9402, 5_050.0, 5_050.0))
        counters = session.stats().subscriptions
        assert counters["reevaluations"] == 1
        assert counters["skipped"] == 1
        assert counters["deltas_emitted"] >= 1
        assert counters["rounds"] == 1

        assert 9402 in near.answer()
        session.unsubscribe(near)
        assert session.stats().subscriptions["active"] == 1


def _answers(evaluation: Evaluation) -> list[tuple[int, float]]:
    return [(answer.oid, answer.probability) for answer in evaluation.result.answers]


def _gaussian_issuer(center: Point, oid: int) -> UncertainObject:
    region = Rect.from_center(center, 300.0, 300.0)
    return UncertainObject(oid=oid, pdf=TruncatedGaussianPdf(region)).with_catalog()


async def _served_answers(session: Session, queries) -> list[list[tuple[int, float]]]:
    server = QueryServer(session, window=0.0)
    tcp = await server.serve("127.0.0.1", 0)
    port = tcp.sockets[0].getsockname()[1]
    try:
        async with await ServeClient.connect("127.0.0.1", port) as client:
            return [_answers(await client.query(query)) for query in queries]
    finally:
        tcp.close()
        await tcp.wait_closed()
        await server.stop()


class TestOneQueryOneSampledAnswer:
    """A sampled query has one answer, however its session was built.

    Every Monte-Carlo draw is keyed by the query's content, so repeating a
    query, moving it within a batch, caching, sharding or serving it never
    changes a bit of its answer.
    """

    def test_every_session_kind_agrees(self, small_points, small_uncertain):
        session = Session.from_objects(
            points=small_points,
            uncertain=small_uncertain,
            config=EngineConfig(probability_method="monte_carlo", monte_carlo_samples=64),
        )
        spec = RangeQuerySpec.square(400.0)
        point_issuer = _gaussian_issuer(small_points[0].location, oid=-1)
        uncertain_issuer = _gaussian_issuer(small_uncertain[0].region.center, oid=-2)
        queries = [
            RangeQuery.cipq(point_issuer, spec, 0.1),
            RangeQuery.ciuq(uncertain_issuer, spec, 0.1),
            NearestNeighborQuery(issuer=point_issuer, samples=64),
        ]
        expected = [_answers(session.evaluate(query)) for query in queries]
        assert all(expected)

        assert [_answers(session.evaluate(query)) for query in queries] == expected
        # Each query at two positions of one batch.
        batch = session.evaluate_many(queries + queries[::-1])
        assert [_answers(e) for e in batch] == expected + expected[::-1]
        for built in (session.cached(), session.sharded(2), session.sharded(2).cached()):
            for _ in range(2):
                assert [_answers(built.evaluate(query)) for query in queries] == expected
        assert asyncio.run(_served_answers(session, queries)) == expected
