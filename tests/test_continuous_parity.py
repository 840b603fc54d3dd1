"""Continuous-query parity suite: maintained answers equal cold evaluation.

Acceptance criteria of the subscription subsystem, as a Hypothesis property:
under interleaved insert/delete/move streams with parity checkpoints, every
standing subscription's maintained answer is **bitwise identical** to a
from-scratch ``evaluate`` of the same query over the database's current
state (every draw is keyed by query content, so a cold evaluation is
reproducible regardless of stream position) — for a single
database and for sharded databases with K ∈ {2, 4} — and replaying each
subscription's emitted delta stream over its initial answer reconstructs
the final answer exactly.  A deterministic companion test pins down the
selectivity contract: a batch confined to one subscription's window (one
shard's scope) re-evaluates only the affected subscriptions, proven by the
registry's own counters.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.continuous import SubscriptionRegistry, replay_deltas
from repro.core.engine import EngineConfig, ImpreciseQueryEngine, PointDatabase
from repro.core.parallel import ParallelEngine
from repro.core.queries import NearestNeighborQuery, RangeQuery, RangeQuerySpec
from repro.core.sharding import ShardedDatabase
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.uncertainty.region import PointObject, UncertainObject

SPACE = Rect(0.0, 0.0, 2_000.0, 2_000.0)


def _issuer(oid: int, x: float, y: float) -> UncertainObject:
    return UncertainObject.uniform(oid, Rect.from_center(Point(x, y), 60.0, 60.0))


def _subscription_pool() -> list:
    """Standing queries: three scattered geofences plus one nearest-neighbour."""
    return [
        RangeQuery.ipq(_issuer(9_001, 400.0, 400.0), RangeQuerySpec.square(250.0)),
        RangeQuery.ipq(_issuer(9_002, 1_500.0, 1_500.0), RangeQuerySpec.square(250.0)),
        RangeQuery.cipq(
            _issuer(9_003, 1_000.0, 300.0), RangeQuerySpec.square(300.0), 0.3
        ),
        NearestNeighborQuery(issuer=_issuer(9_004, 800.0, 1_200.0), samples=32),
    ]


def _base_points() -> list[PointObject]:
    return [
        PointObject.at(i, 23.0 + (i * 89.0) % 1_950.0, 41.0 + (i * 67.0) % 1_950.0)
        for i in range(60)
    ]


def _build_database(k: int):
    if k == 0:
        return PointDatabase.build(_base_points())
    return ShardedDatabase.build_points(_base_points(), k)


def _cold_answers(database, queries) -> list[dict[int, float]]:
    config = EngineConfig()
    if isinstance(database, ShardedDatabase):
        engine = ParallelEngine(point_db=database, config=config)
    else:
        engine = ImpreciseQueryEngine(point_db=database, config=config)
    return [engine.evaluate(query).probabilities() for query in queries]


_ops = st.one_of(
    st.builds(
        lambda x, y: ("insert", x, y),
        st.floats(min_value=10.0, max_value=1_990.0),
        st.floats(min_value=10.0, max_value=1_990.0),
    ),
    st.builds(lambda i: ("delete", i), st.integers(min_value=0, max_value=59)),
    st.builds(
        lambda i, x, y: ("move", i, x, y),
        st.integers(min_value=0, max_value=59),
        st.floats(min_value=10.0, max_value=1_990.0),
        st.floats(min_value=10.0, max_value=1_990.0),
    ),
    st.just(("check",)),
)


def _run_stream(database, ops) -> dict[str, int]:
    """Drive the registry through ``ops``, asserting parity at checkpoints.

    Returns the registry's maintenance counters.
    """
    queries = _subscription_pool()
    registry = SubscriptionRegistry(point_db=database, config=EngineConfig())
    subscriptions = [registry.subscribe(query) for query in queries]
    streams = [list() for _ in subscriptions]
    live = {obj.oid for obj in _base_points()}
    next_oid = 500

    def checkpoint():
        for subscription, stream in zip(subscriptions, streams):
            stream.extend(subscription.poll())
        maintained = [subscription.answer() for subscription in subscriptions]
        assert maintained == _cold_answers(database, queries)

    for op in ops:
        if op[0] == "insert":
            database.insert(PointObject.at(next_oid, op[1], op[2]))
            live.add(next_oid)
            next_oid += 1
        elif op[0] == "delete":
            if op[1] in live and len(live) > 1:
                database.delete(op[1])
                live.discard(op[1])
        elif op[0] == "move":
            if op[1] in live:
                database.move(op[1], x=op[2], y=op[3])
        else:
            checkpoint()
    checkpoint()

    # The delta streams replay to the final maintained answers, exactly.
    for subscription, stream in zip(subscriptions, streams):
        assert replay_deltas(subscription.initial_answer(), stream) == (
            subscription.answer()
        )
    return registry.stats()


class TestInterleavedStreamParity:
    @settings(max_examples=8, deadline=None)
    @given(ops=st.lists(_ops, min_size=4, max_size=20))
    def test_serial_database(self, ops):
        _run_stream(_build_database(0), ops)

    @pytest.mark.parametrize("k", [2, 4])
    @settings(max_examples=6, deadline=None)
    @given(ops=st.lists(_ops, min_size=4, max_size=20))
    def test_sharded_database(self, k, ops):
        sharded = _run_stream(_build_database(k), ops)
        serial = _run_stream(_build_database(0), ops)
        # One rule: partitioning the data never costs an extra re-evaluation.
        assert sharded["reevaluations"] <= serial["reevaluations"]
        assert sharded["reevaluations"] + sharded["skipped"] == (
            serial["reevaluations"] + serial["skipped"]
        )


class TestSelectivityContract:
    def test_single_window_batch_reevaluates_only_affected_serial(self):
        database = _build_database(0)
        registry = SubscriptionRegistry(point_db=database, config=EngineConfig())
        pool = _subscription_pool()
        for query in pool:
            registry.subscribe(query)
        # Three mutations confined to the (400, 400) geofence: of the four
        # standing queries only that fence and the windowless NN are affected.
        database.insert(PointObject.at(700, 420.0, 380.0))
        database.move(700, x=380.0, y=420.0)
        database.delete(700)
        stats = registry.stats()
        assert stats["rounds"] == 1
        assert stats["reevaluations"] == 2  # the touched fence + the NN query
        assert stats["skipped"] == 2  # both remote fences proven unaffected

    @pytest.mark.parametrize("k", [2, 4])
    def test_single_shard_batch_skips_unrouted_subscriptions(self, k):
        database = _build_database(k)
        registry = SubscriptionRegistry(point_db=database, config=EngineConfig())
        range_pool = _subscription_pool()[:3]  # NN routes by best distance
        subscriptions = [registry.subscribe(query) for query in range_pool]
        touched = database.insert(PointObject.at(800, 420.0, 380.0))
        owner = database.owner_of(touched.oid).sid
        stats = registry.stats()
        routed_elsewhere = sum(
            1
            for subscription in subscriptions
            if owner
            not in {
                shard.sid for shard in database.route_window(subscription.window)
            }
        )
        # Every subscription that does not route to the mutated shard has a
        # window the insert misses, so it was skipped; the rest re-evaluated.
        assert stats["skipped"] >= routed_elsewhere > 0
        assert stats["reevaluations"] == len(subscriptions) - stats["skipped"]
