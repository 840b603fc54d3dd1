"""Unit tests for the update-batch model and the engines' mutation surface."""

from __future__ import annotations

import pytest

from repro.core.engine import (
    EngineConfig,
    ImpreciseQueryEngine,
    PointDatabase,
    UncertainDatabase,
)
from repro.core.queries import RangeQuery, RangeQuerySpec
from repro.core.session import Session
from repro.core.updates import UpdateBatch, UpdateOp
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.uncertainty.pdf import UniformPdf
from repro.uncertainty.region import PointObject, UncertainObject


def _point_objects():
    return [PointObject.at(i, 100.0 * i, 50.0 * i) for i in range(1, 9)]


def _uncertain_objects():
    return [
        UncertainObject.uniform(
            i, Rect.from_center(Point(150.0 * i, 80.0 * i), 40.0, 30.0)
        )
        for i in range(1, 7)
    ]


class TestUpdateBatchBuilder:
    def test_builder_appends_in_order(self):
        batch = (
            UpdateBatch()
            .insert(PointObject.at(10, 1.0, 2.0))
            .move(3, x=5.0, y=6.0)
            .delete(4, target="points")
        )
        assert len(batch) == 3
        actions = [op.action for op in batch]
        assert actions == ["insert", "move", "delete"]

    def test_move_requires_exactly_one_position_form(self):
        with pytest.raises(ValueError, match="either x= and y="):
            UpdateBatch().move(1)
        with pytest.raises(ValueError, match="either x= and y="):
            UpdateBatch().move(1, x=1.0)
        with pytest.raises(ValueError, match="either x= and y="):
            UpdateBatch().move(1, x=1.0, y=2.0, pdf=UniformPdf(Rect(0, 0, 1, 1)))

    def test_ops_are_frozen_records(self):
        op = UpdateOp(action="delete", oid=7, target="points")
        with pytest.raises(AttributeError):
            op.oid = 8


class TestEngineMutationSurface:
    def _engine(self):
        return ImpreciseQueryEngine(
            point_db=PointDatabase.build(_point_objects()),
            uncertain_db=UncertainDatabase.build(_uncertain_objects()),
            config=EngineConfig(),
        )

    def test_insert_dispatches_on_object_type(self):
        engine = self._engine()
        engine.insert(PointObject.at(50, 1.0, 1.0))
        assert 50 in engine.point_db
        stored = engine.insert(
            UncertainObject.uniform(60, Rect.from_center(Point(10.0, 10.0), 5.0, 5.0))
        )
        assert 60 in engine.uncertain_db
        assert stored.catalog is not None  # attached at the database's levels

    def test_delete_requires_target_with_two_databases(self):
        engine = self._engine()
        with pytest.raises(ValueError, match="holds both databases"):
            engine.delete(1)
        engine.delete(1, target="points")
        assert 1 not in engine.point_db
        assert 1 in engine.uncertain_db

    def test_move_infers_target_from_arguments(self):
        engine = self._engine()
        moved = engine.move(2, x=999.0, y=999.0)
        assert isinstance(moved, PointObject)
        moved = engine.move(2, pdf=UniformPdf(Rect.from_center(Point(5.0, 5.0), 2.0, 2.0)))
        assert isinstance(moved, UncertainObject)
        with pytest.raises(ValueError, match="contradicts"):
            engine.move(3, x=1.0, y=1.0, target="uncertain")
        with pytest.raises(ValueError, match="not both"):
            engine.move(3, x=1.0, y=1.0, pdf=UniformPdf(Rect(0, 0, 1, 1)))

    def test_apply_updates_runs_in_order(self):
        engine = self._engine()
        batch = (
            UpdateBatch()
            .insert(PointObject.at(70, 3.0, 3.0))
            .move(70, x=4.0, y=4.0)
            .delete(70, target="points")
        )
        engine.apply_updates(batch)
        assert 70 not in engine.point_db

    def test_evaluate_many_rejects_foreign_items(self):
        engine = self._engine()
        with pytest.raises(TypeError, match="UpdateBatch"):
            engine.evaluate_many(["not-a-query"])


class TestSessionMutationSurface:
    def test_session_round_trip(self):
        session = Session.from_objects(points=_point_objects())
        session.insert(PointObject.at(90, 7.0, 7.0))
        session.move(90, x=8.0, y=8.0)
        removed = session.delete(90)
        assert removed.x == 8.0
        issuer = UncertainObject.uniform(
            0, Rect.from_center(Point(400.0, 200.0), 50.0, 50.0)
        )
        evaluations = session.evaluate_many(
            [
                RangeQuery.ipq(issuer, RangeQuerySpec.square(200.0)),
                UpdateBatch().insert(PointObject.at(91, 420.0, 210.0)),
                RangeQuery.ipq(issuer, RangeQuerySpec.square(200.0)),
            ]
        )
        assert len(evaluations) == 2
        assert 91 in evaluations[1].result.oids()
        assert 91 not in evaluations[0].result.oids()


class TestMutationAtomicity:
    """An index-side failure must leave the object list untouched.

    Each test runs once with the index built and once with it unbuilt: the
    database refuses what the built index would, before the list changes.
    (Looped rather than parametrised, so the test ids stay as they were.)
    """

    def test_failed_pti_insert_leaves_database_unchanged(self):
        from repro.index.pti import ProbabilityThresholdIndex

        for built in (True, False):
            objects = _uncertain_objects()
            database = UncertainDatabase(
                objects=list(objects), index=None, kind="pti", catalog_levels=None
            )
            if built:
                database.index = ProbabilityThresholdIndex.bulk_load(
                    [obj.with_catalog() for obj in objects]
                )
                database.objects[:] = list(database.index.items())
            else:
                database.objects[:] = [obj.with_catalog() for obj in objects]
            catalog_less = UncertainObject.uniform(999, Rect(0.0, 0.0, 10.0, 10.0))
            size_before = len(database)
            with pytest.raises(ValueError, match="U-catalog"):
                database.insert(catalog_less)
            assert len(database) == size_before
            assert 999 not in database
            assert database.index_built is built
            # A later build indexes exactly the stored objects.
            assert len(database.index) == size_before

    def test_rebuild_fallback_last_delete_leaves_database_consistent(self):
        from repro.index.linear import LinearScanIndex
        from repro.index.registry import register_index, unregister_index
        from repro.index.registry import IndexCapabilities

        register_index(
            "norebuild-test",
            LinearScanIndex.bulk_load,
            capabilities=IndexCapabilities(supports_delete=False),
            replace=True,
        )
        try:
            for built in (True, False):
                database = PointDatabase.build(
                    [PointObject.at(1, 5.0, 5.0)], index_kind="norebuild-test"
                )
                if built:
                    assert len(database.index) == 1
                with pytest.raises(ValueError, match="last object"):
                    database.delete(1)
                assert database.index_built is built
                # The failed delete changed nothing: object and index both intact.
                assert 1 in database
                assert len(database.index.range_search(Rect(0.0, 0.0, 10.0, 10.0))) == 1
        finally:
            unregister_index("norebuild-test")


class TestPickleRoundTrip:
    def test_database_pickles_and_keeps_mutation_tracking(self):
        import pickle

        database = PointDatabase.build(_point_objects())
        stale = database.columnar()
        clone = pickle.loads(pickle.dumps(database))
        assert len(clone) == len(database)
        # The clone's tracked list still invalidates snapshots on mutation.
        snapshot = clone.columnar()
        clone.objects.append(PointObject.at(999, 1.0, 2.0))
        assert clone.columnar() is not snapshot
        assert 999 in clone.columnar().oids
        # The original is untouched by the clone's mutation.
        assert database.columnar() is stale


class TestMoveValidationConsistency:
    def test_batch_and_engines_reject_the_same_shapes(self):
        from repro.core.updates import resolve_move_target

        engine = ImpreciseQueryEngine(point_db=PointDatabase.build(_point_objects()))
        bad_shapes = [
            {"x": 1.0},  # partial coordinates
            {"x": 1.0, "pdf": UniformPdf(Rect(0, 0, 1, 1))},  # mixed forms
            {},  # neither form
        ]
        for kwargs in bad_shapes:
            with pytest.raises(ValueError):
                UpdateBatch().move(1, **kwargs)
            with pytest.raises(ValueError):
                engine.move(1, **kwargs)
            with pytest.raises(ValueError):
                resolve_move_target(
                    kwargs.get("x"), kwargs.get("y"), kwargs.get("pdf"), None
                )


class TestUnknownOidErrors:
    """Satellite: unknown oids in a batch raise descriptive ValueErrors."""

    def _point_engine(self):
        return ImpreciseQueryEngine(point_db=PointDatabase.build(_point_objects()))

    def test_delete_unknown_oid_names_oid_and_database(self):
        engine = self._point_engine()
        with pytest.raises(ValueError, match=r"cannot delete oid 999") as excinfo:
            engine.apply_updates(UpdateBatch().delete(999))
        assert "'points'" in str(excinfo.value)

    def test_move_unknown_oid_names_oid_and_database(self):
        engine = self._point_engine()
        with pytest.raises(ValueError, match=r"cannot move oid 999") as excinfo:
            engine.apply_updates(UpdateBatch().move(999, x=1.0, y=2.0))
        assert "'points'" in str(excinfo.value)

    def test_uncertain_target_named_in_message(self):
        engine = ImpreciseQueryEngine(
            point_db=PointDatabase.build(_point_objects()),
            uncertain_db=UncertainDatabase.build(_uncertain_objects()),
        )
        with pytest.raises(ValueError, match=r"cannot delete oid 404") as excinfo:
            engine.apply_updates(UpdateBatch().delete(404, target="uncertain"))
        assert "'uncertain'" in str(excinfo.value)
        moved = UpdateBatch().move(404, pdf=UniformPdf(Rect(0, 0, 10, 10)))
        with pytest.raises(ValueError, match=r"cannot move oid 404") as excinfo:
            engine.apply_updates(moved)
        assert "'uncertain'" in str(excinfo.value)

    def test_original_keyerror_is_chained(self):
        engine = self._point_engine()
        with pytest.raises(ValueError) as excinfo:
            engine.apply_updates(UpdateBatch().delete(999))
        assert isinstance(excinfo.value.__cause__, KeyError)

    def test_sharded_engine_wraps_the_owner_lookup(self):
        from repro.core.parallel import ParallelEngine
        from repro.core.sharding import ShardedDatabase

        engine = ParallelEngine(
            point_db=ShardedDatabase.build_points(_point_objects(), 2),
            config=EngineConfig(),
        )
        with pytest.raises(ValueError, match=r"cannot delete oid 999"):
            engine.apply_updates(UpdateBatch().delete(999))

    def test_session_apply_updates_wraps_too(self):
        session = Session.from_objects(points=_point_objects())
        with pytest.raises(ValueError, match=r"cannot move oid 999"):
            session.apply_updates(UpdateBatch().move(999, x=1.0, y=2.0))

    def test_direct_database_calls_keep_raising_keyerror(self):
        # The wrapping lives in the batch layer; the low-level surface is
        # unchanged for callers that want the raw KeyError.
        database = PointDatabase.build(_point_objects())
        with pytest.raises(KeyError):
            database.delete(999)


class TestMutationObservers:
    """The MutationObservable hook on databases and sharded wrappers."""

    def test_events_report_action_oid_and_regions(self):
        database = PointDatabase.build(_point_objects())
        events = []
        database.add_update_observer(events.append)
        database.insert(PointObject.at(50, 10.0, 20.0))
        database.move(50, 30.0, 40.0)
        database.delete(50)
        assert [(e.op.action, e.oid, e.target) for e in events] == [
            ("insert", 50, "points"),
            ("move", 50, "points"),
            ("delete", 50, "points"),
        ]
        insert, move, delete = events
        assert insert.before is None and insert.after.as_tuple() == (10.0, 20.0, 10.0, 20.0)
        # A move's region bounds both endpoints.
        assert move.region.as_tuple() == (10.0, 20.0, 30.0, 40.0)
        assert delete.after is None and delete.before.as_tuple() == (30.0, 40.0, 30.0, 40.0)

    def test_uncertain_database_reports_uncertain_target(self):
        database = UncertainDatabase.build(_uncertain_objects())
        events = []
        database.add_update_observer(events.append)
        database.move(1, UniformPdf(Rect.from_center(Point(500.0, 500.0), 20.0, 20.0)))
        assert events[0].target == "uncertain"
        assert events[0].op.action == "move"

    def test_removed_observer_stops_receiving(self):
        database = PointDatabase.build(_point_objects())
        events = []
        database.add_update_observer(events.append)
        database.remove_update_observer(events.append)
        database.insert(PointObject.at(51, 1.0, 1.0))
        assert events == []
        # Removing again is a no-op.
        database.remove_update_observer(events.append)

    def test_sharded_events_carry_shard_ids(self):
        from repro.core.sharding import ShardedDatabase

        sharded = ShardedDatabase.build_points(_point_objects(), 2)
        events = []
        sharded.add_update_observer(events.append)
        stored = sharded.insert(PointObject.at(60, 120.0, 60.0))
        sharded.move(60, x=750.0, y=380.0)  # long move: crosses shards
        sharded.delete(60)
        assert stored.oid == 60
        insert, move, delete = events
        assert len(insert.sids) == 1
        assert len(move.sids) == 2 and move.sids[0] != move.sids[1]
        assert delete.sids == (move.sids[1],)

    def test_observers_excluded_from_pickles(self):
        import pickle

        database = PointDatabase.build(_point_objects())
        database.add_update_observer(lambda event: None)
        clone = pickle.loads(pickle.dumps(database))
        assert not hasattr(clone, "_update_observers")
        clone.insert(PointObject.at(70, 5.0, 5.0))  # must not fire anything
