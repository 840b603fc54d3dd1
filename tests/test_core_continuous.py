"""Unit tests for the continuous-query subscription registry.

Covers the subscription lifecycle, JOIN/LEAVE/SCORE_CHANGE delta emission
with trigger/epoch attribution, the registry-wide delta ordering, the
affected-only selectivity proof (the candidate-window test, the same for
serial and sharded databases), and :func:`repro.core.continuous.replay_deltas`.
"""

from __future__ import annotations

import pytest

from repro.core.continuous import (
    AnswerDelta,
    DeltaKind,
    SubscriptionRegistry,
    replay_deltas,
)
from repro.core.engine import EngineConfig, ImpreciseQueryEngine, PointDatabase
from repro.core.parallel import ParallelEngine
from repro.core.queries import NearestNeighborQuery, RangeQuery, RangeQuerySpec
from repro.core.sharding import ShardedDatabase
from repro.core.updates import UpdateBatch
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.uncertainty.region import PointObject, UncertainObject


def _issuer(oid: int, x: float, y: float, half: float = 50.0) -> UncertainObject:
    return UncertainObject.uniform(oid, Rect.from_center(Point(x, y), half, half))


def _watch(x: float, y: float, half_size: float = 200.0) -> RangeQuery:
    """A standing IPQ geofence centred at (x, y)."""
    return RangeQuery.ipq(_issuer(900, x, y), RangeQuerySpec.square(half_size))


def _points() -> list[PointObject]:
    """A near cluster around (500, 500) and a far one around (9000, 9000)."""
    return [
        PointObject.at(1, 450.0, 450.0),
        PointObject.at(2, 500.0, 500.0),
        PointObject.at(3, 550.0, 550.0),
        PointObject.at(11, 8_900.0, 9_000.0),
        PointObject.at(12, 9_000.0, 9_100.0),
        PointObject.at(13, 9_100.0, 8_950.0),
    ]


def _registry(database=None, **kwargs) -> SubscriptionRegistry:
    if database is None:
        database = PointDatabase.build(_points())
    return SubscriptionRegistry(point_db=database, config=EngineConfig(), **kwargs)


def _cold_answer(database, query) -> dict[int, float]:
    """A from-scratch evaluation of ``query`` over the database's live state."""
    if isinstance(database, ShardedDatabase):
        engine = ParallelEngine(point_db=database, config=EngineConfig())
    else:
        engine = ImpreciseQueryEngine(point_db=database, config=EngineConfig())
    return engine.evaluate(query).probabilities()


class TestRegistryConstruction:
    def test_requires_at_least_one_database(self):
        with pytest.raises(ValueError, match="at least one database"):
            SubscriptionRegistry(config=EngineConfig())

    def test_rejects_mixed_sharded_and_unsharded(self, small_uncertain):
        from repro.core.engine import UncertainDatabase

        with pytest.raises(ValueError, match="cannot mix sharded and unsharded"):
            SubscriptionRegistry(
                point_db=ShardedDatabase.build_points(_points(), 2),
                uncertain_db=UncertainDatabase.build(small_uncertain),
                config=EngineConfig(),
            )

    def test_runs_the_given_config(self):
        config = EngineConfig(monte_carlo_samples=64)
        registry = SubscriptionRegistry(point_db=PointDatabase.build(_points()), config=config)
        assert registry.config is config

    def test_subscribe_rejects_non_query_objects(self):
        with pytest.raises(TypeError, match="RangeQuery or NearestNeighborQuery"):
            _registry().subscribe("not a query")

    def test_subscribe_rejects_queries_without_their_database(self):
        with pytest.raises(RuntimeError, match="no uncertain-object database"):
            _registry().subscribe(
                RangeQuery.iuq(_issuer(901, 500.0, 500.0), RangeQuerySpec.square(200.0))
            )


class TestDeltaEmission:
    def test_initial_answer_matches_cold_evaluation(self):
        database = PointDatabase.build(_points())
        subscription = _registry(database).subscribe(_watch(500.0, 500.0))
        assert subscription.answer() == _cold_answer(database, subscription.query)
        assert subscription.initial_answer() == subscription.answer()

    def test_insert_into_window_emits_join(self):
        database = PointDatabase.build(_points())
        subscription = _registry(database).subscribe(_watch(500.0, 500.0))
        database.insert(PointObject.at(21, 520.0, 480.0))
        (delta,) = subscription.poll()
        assert delta.kind is DeltaKind.JOIN
        assert delta.oid == 21
        assert delta.probability is not None and delta.previous_probability is None
        assert delta.op is not None and delta.op.action == "insert"
        assert delta.epoch == ("points", database.uid, database.epoch)
        assert 21 in subscription.answer()

    def test_delete_emits_leave(self):
        database = PointDatabase.build(_points())
        subscription = _registry(database).subscribe(_watch(500.0, 500.0))
        assert 2 in subscription.answer()
        database.delete(2)
        (delta,) = subscription.poll()
        assert delta.kind is DeltaKind.LEAVE
        assert delta.oid == 2
        assert delta.probability is None and delta.previous_probability is not None
        assert delta.op is not None and delta.op.action == "delete"
        assert 2 not in subscription.answer()

    def test_partial_overlap_move_emits_score_change(self):
        # Issuer spans x in [450, 550]; a point at x=680 is in range only for
        # issuer positions with x >= 480 (p = 0.7); at x=700 only x >= 500
        # (p = 0.5) -- the same oid stays in the answer with a new score.
        database = PointDatabase.build(_points() + [PointObject.at(31, 680.0, 500.0)])
        subscription = _registry(database).subscribe(_watch(500.0, 500.0))
        before = subscription.answer()[31]
        assert 0.0 < before < 1.0
        database.move(31, x=700.0, y=500.0)
        (delta,) = subscription.poll()
        assert delta.kind is DeltaKind.SCORE_CHANGE
        assert delta.previous_probability == before
        assert delta.probability == subscription.answer()[31] != before
        assert delta.op is not None and delta.op.action == "move"

    def test_move_out_of_window_emits_leave(self):
        database = PointDatabase.build(_points())
        subscription = _registry(database).subscribe(_watch(500.0, 500.0))
        database.move(3, x=7_000.0, y=7_000.0)
        kinds = {(delta.oid, delta.kind) for delta in subscription.poll()}
        assert (3, DeltaKind.LEAVE) in kinds

    def test_registry_poll_merges_streams_in_sequence_order(self):
        database = PointDatabase.build(_points())
        registry = _registry(database)
        near = registry.subscribe(_watch(500.0, 500.0))
        far = registry.subscribe(_watch(9_000.0, 9_000.0))
        database.insert(PointObject.at(41, 480.0, 520.0))
        database.insert(PointObject.at(42, 9_020.0, 9_020.0))
        merged = registry.poll()
        assert [delta.sequence for delta in merged] == sorted(
            delta.sequence for delta in merged
        )
        assert {delta.subscription_id for delta in merged} == {near.id, far.id}
        assert len(set(delta.sequence for delta in merged)) == len(merged)
        # Drained at the registry: the per-subscription queues are now empty.
        assert near.poll() == [] and far.poll() == []


class TestSelectivity:
    def test_far_subscription_is_skipped_with_untouched_answer(self):
        database = PointDatabase.build(_points())
        registry = _registry(database)
        near = registry.subscribe(_watch(500.0, 500.0))
        far = registry.subscribe(_watch(9_000.0, 9_000.0))
        far_before = far.answer()
        database.insert(PointObject.at(51, 510.0, 490.0))
        assert len(near.poll()) == 1
        assert far.poll() == [] and far.answer() == far_before
        stats = registry.stats()
        assert stats["reevaluations"] == 1 and stats["skipped"] == 1

    def test_one_reevaluation_per_pump_regardless_of_batch_size(self):
        database = PointDatabase.build(_points())
        registry = _registry(database)
        subscription = registry.subscribe(_watch(500.0, 500.0))
        for step in range(4):  # four buffered in-window mutations, one pump
            database.move(1, x=450.0 + 10.0 * step, y=450.0)
        stats = registry.stats()
        assert stats["rounds"] == 1 and stats["reevaluations"] == 1
        assert subscription.answer() == _cold_answer(database, subscription.query)

    def test_nearest_neighbor_reevaluates_on_any_point_mutation(self):
        database = PointDatabase.build(_points())
        registry = _registry(database)
        subscription = registry.subscribe(
            NearestNeighborQuery(issuer=_issuer(902, 500.0, 500.0), samples=32)
        )
        assert subscription.window is None
        database.insert(PointObject.at(61, 9_500.0, 200.0))  # far corner
        stats = registry.stats()
        assert stats["reevaluations"] == 1 and stats["skipped"] == 0
        assert subscription.answer() == _cold_answer(database, subscription.query)

    @pytest.mark.parametrize("k", [0, 2])
    def test_hop_over_the_window_is_skipped(self, k):
        """Before and after both miss the fence; only their union box crosses it."""
        points = _points() + [PointObject.at(4, 100.0, 500.0)]
        database = (
            ShardedDatabase.build_points(points, k) if k else PointDatabase.build(points)
        )
        registry = _registry(database)
        subscription = registry.subscribe(_watch(500.0, 500.0))  # window [250, 750]^2
        before = subscription.answer()
        database.move(4, x=900.0, y=500.0)
        stats = registry.stats()
        assert stats["reevaluations"] == 0 and stats["skipped"] == 1
        assert subscription.poll() == []
        assert subscription.answer() == before == _cold_answer(database, subscription.query)

    def test_mutating_the_other_database_skips_point_subscriptions(self, small_uncertain):
        from repro.core.engine import UncertainDatabase
        from repro.uncertainty.pdf import UniformPdf

        uncertain = UncertainDatabase.build(small_uncertain)
        registry = SubscriptionRegistry(
            point_db=PointDatabase.build(_points()),
            uncertain_db=uncertain,
            config=EngineConfig(),
        )
        registry.subscribe(_watch(500.0, 500.0))
        uncertain.move(1, UniformPdf(Rect.from_center(Point(500.0, 500.0), 40.0, 40.0)))
        stats = registry.stats()
        assert stats["reevaluations"] == 0 and stats["skipped"] == 1


class TestLifecycle:
    def test_unsubscribe_discards_pending_deltas(self):
        database = PointDatabase.build(_points())
        registry = _registry(database)
        subscription = registry.subscribe(_watch(500.0, 500.0))
        database.insert(PointObject.at(71, 500.0, 520.0))
        registry.pump()  # queue the JOIN, do not drain it
        registry.unsubscribe(subscription)
        assert not subscription.active
        assert subscription.poll() == []
        assert registry.poll() == []
        assert len(registry) == 0

    def test_unsubscribe_by_id_and_unknown_id(self):
        registry = _registry()
        subscription = registry.subscribe(_watch(500.0, 500.0))
        registry.unsubscribe(subscription.id)
        with pytest.raises(KeyError, match="no active subscription"):
            registry.unsubscribe(subscription.id)

    def test_close_detaches_from_the_databases(self):
        database = PointDatabase.build(_points())
        registry = _registry(database)
        subscription = registry.subscribe(_watch(500.0, 500.0))
        before = subscription.answer()
        registry.close()
        registry.close()  # idempotent
        database.insert(PointObject.at(81, 500.0, 480.0))
        stats = registry.stats()
        assert stats["rounds"] == 0 and subscription.answer() == before


class TestReplay:
    def test_replay_reconstructs_the_maintained_answer(self):
        database = PointDatabase.build(_points())
        subscription = _registry(database).subscribe(_watch(500.0, 500.0))
        deltas: list[AnswerDelta] = []
        database.insert(PointObject.at(91, 520.0, 520.0))
        deltas.extend(subscription.poll())
        database.move(91, x=680.0, y=500.0)  # partial overlap: score change
        database.delete(1)
        deltas.extend(subscription.poll())
        database.move(2, x=3_000.0, y=3_000.0)  # leaves the window
        deltas.extend(subscription.poll())
        assert {delta.kind for delta in deltas} == {
            DeltaKind.JOIN,
            DeltaKind.LEAVE,
            DeltaKind.SCORE_CHANGE,
        }
        final = subscription.answer()
        assert replay_deltas(subscription.initial_answer(), deltas) == final
        assert final == _cold_answer(database, subscription.query)

    def test_replay_of_empty_stream_is_identity(self):
        assert replay_deltas({1: 0.5}, []) == {1: 0.5}


class TestShardedRegistry:
    def test_mutation_in_unrouted_shard_is_skipped_by_scope_token(self):
        database = ShardedDatabase.build_points(_points(), 2)
        registry = _registry(database)
        subscription = registry.subscribe(_watch(500.0, 500.0))
        database.insert(PointObject.at(101, 9_050.0, 9_050.0))  # far shard
        stats = registry.stats()
        assert stats["reevaluations"] == 0 and stats["skipped"] == 1
        database.insert(PointObject.at(102, 500.0, 540.0))  # routed shard
        assert any(delta.oid == 102 for delta in subscription.poll())
        stats = registry.stats()
        assert stats["reevaluations"] == 1

    def test_move_in_a_routed_shard_but_outside_the_window_is_skipped(self):
        points = _points() + [PointObject.at(4, 2_000.0, 2_000.0)]
        database = ShardedDatabase.build_points(points, 2)
        registry = _registry(database)
        subscription = registry.subscribe(_watch(500.0, 500.0))

        def routed_token():
            return database.epoch_scope(database.route_window(subscription.window))

        assert database.owner_of(4) in database.route_window(subscription.window)
        subscribed_at = subscription._scope
        assert subscribed_at == routed_token()
        database.move(4, x=2_100.0, y=2_100.0)
        stats = registry.stats()
        assert stats["reevaluations"] == 0 and stats["skipped"] == 1
        # The retained answer is now known to describe the newer shard state.
        assert subscription._scope == routed_token() != subscribed_at
        database.move(1, x=3_000.0, y=450.0)  # out of the fence
        deltas = subscription.poll()
        assert [delta.kind for delta in deltas] == [DeltaKind.LEAVE]
        assert deltas[0].epoch == routed_token()
        assert registry.stats()["reevaluations"] == 1

    def test_nearest_neighbor_reevaluates_on_any_point_mutation(self):
        database = ShardedDatabase.build_points(_points(), 2)
        registry = _registry(database)
        subscription = registry.subscribe(
            NearestNeighborQuery(issuer=_issuer(902, 500.0, 500.0), samples=32)
        )
        database.move(12, x=9_050.0, y=9_150.0)  # the far shard
        assert registry.stats()["reevaluations"] == 1
        database.insert(PointObject.at(61, 9_500.0, 200.0))
        stats = registry.stats()
        assert stats["reevaluations"] == 2 and stats["skipped"] == 0
        assert subscription.answer() == _cold_answer(database, subscription.query)

    def test_cross_shard_move_into_window_emits_join(self):
        database = ShardedDatabase.build_points(_points(), 2)
        subscription = _registry(database).subscribe(_watch(500.0, 500.0))
        database.move(11, x=490.0, y=510.0)  # from the far cluster into the fence
        deltas = subscription.poll()
        assert any(
            delta.oid == 11 and delta.kind is DeltaKind.JOIN for delta in deltas
        )
        assert subscription.answer() == _cold_answer(database, subscription.query)

    def test_answer_survives_a_hot_shard_resplit(self):
        database = ShardedDatabase.build_points(_points(), 2, hot_threshold=8)
        subscription = _registry(database).subscribe(_watch(500.0, 500.0))
        k_before = database.k
        batch = UpdateBatch()
        for offset in range(10):
            batch.insert(PointObject.at(200 + offset, 420.0 + offset * 20.0, 500.0))
        for op in batch:
            from repro.core.updates import apply_update_op

            apply_update_op(database, op)
        assert database.k > k_before  # the watched shard actually re-split
        assert subscription.answer() == _cold_answer(database, subscription.query)
        assert replay_deltas(
            subscription.initial_answer(), subscription.poll()
        ) == subscription.answer()
