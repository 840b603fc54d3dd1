"""Live-update parity suite: mutated databases must equal fresh rebuilds.

Acceptance criteria of the incremental-update change: a shard-routed
``insert``/``delete``/``move`` stream followed by ``evaluate_many`` returns
results bitwise-identical to a from-scratch rebuild of
the same final collection, for all four paper query kinds (IPQ, C-IPQ, IUQ,
C-IUQ) plus the nearest-neighbour extension, for K ∈ {1, 4} shards.
Every Monte-Carlo draw is keyed by query content, so interleaving updates
with queries leaves every query's draws untouched.  (The shard daemons'
version of the interleaving property lives in ``tests/test_rpc_parity.py``.)
"""

from __future__ import annotations

import pytest

from repro.core.columnar import ColumnarPoints, ColumnarUncertain
from repro.core.engine import (
    EngineConfig,
    ImpreciseQueryEngine,
    PointDatabase,
    UncertainDatabase,
)
from repro.core.parallel import ParallelEngine
from repro.core.queries import NearestNeighborQuery, RangeQuery
from repro.core.session import Session
from repro.core.sharding import ShardedDatabase
from repro.core.updates import UpdateBatch
from repro.datasets.workload import QueryWorkload, UpdateWorkload
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.uncertainty.pdf import UniformPdf
from repro.uncertainty.region import PointObject, UncertainObject

from tests.conftest import TEST_SPACE
from tests.test_core_columnar import assert_same_snapshot


def _queries(count, *, target=None, threshold=0.0, seed=99, nn_every=0):
    workload = QueryWorkload(bounds=TEST_SPACE, range_half_size=400.0, seed=seed)
    queries = []
    for position, issuer in enumerate(workload.issuers(count)):
        if nn_every and position % nn_every == 0:
            queries.append(NearestNeighborQuery(issuer=issuer, samples=32))
        else:
            queries.append(
                RangeQuery(
                    issuer=issuer, spec=workload.spec, threshold=threshold, target=target
                )
            )
    return queries


def _all_kind_workload():
    return (
        _queries(4, target="points")  # IPQ
        + _queries(4, target="points", threshold=0.3, seed=17)  # C-IPQ
        + _queries(4, target="uncertain", seed=23)  # IUQ
        + _queries(4, target="uncertain", threshold=0.4, seed=31)  # C-IUQ
        + _queries(3, nn_every=1, seed=41)  # NN
    )


def _mutation_batch():
    """A scripted stream hitting every mutation kind on both databases."""
    return (
        UpdateBatch()
        .insert(PointObject.at(9001, 4_800.0, 5_200.0))
        .insert(PointObject.at(9002, 1_200.0, 8_100.0))
        .move(3, x=5_050.0, y=4_950.0)
        .move(11, x=9_200.0, y=600.0)  # long-distance: crosses shards
        .delete(7, target="points")
        .insert(
            UncertainObject.uniform(
                9003, Rect.from_center(Point(5_100.0, 5_100.0), 120.0, 90.0)
            )
        )
        .move(5, pdf=UniformPdf(Rect.from_center(Point(2_500.0, 7_400.0), 90.0, 70.0)))
        .move(17, pdf=UniformPdf(Rect.from_center(Point(8_700.0, 900.0), 110.0, 80.0)))
        .delete(11, target="uncertain")
    )


def _parallel_engine(small_points, small_uncertain, k, **overrides):
    config = EngineConfig(**overrides)
    return ParallelEngine(
        point_db=ShardedDatabase.build_points(small_points, k),
        uncertain_db=ShardedDatabase.build_uncertain(
            small_uncertain, k, catalog_levels=None
        ),
        config=config,
    )


def _rebuilt_engine(parallel, **overrides):
    """A single-shard engine over the parallel engine's *final* collections."""
    config = EngineConfig(**overrides)
    return ImpreciseQueryEngine(
        point_db=PointDatabase.build(list(parallel.point_db.objects)),
        uncertain_db=UncertainDatabase.build(
            list(parallel.uncertain_db.objects), catalog_levels=None
        ),
        config=config,
    )


def _assert_identical(reference, evaluations):
    assert len(reference) == len(evaluations)
    answered = 0
    for expected, got in zip(reference, evaluations):
        assert got.probabilities() == expected.probabilities()
        answered += len(got)
    assert answered > 0


class TestMutateThenQueryParity:
    """Updates first, queries second: must equal a rebuild of the final data."""

    @pytest.mark.parametrize("k", [1, 4])
    def test_all_query_kinds(self, small_points, small_uncertain, k):
        parallel = _parallel_engine(small_points, small_uncertain, k)
        parallel.apply_updates(_mutation_batch())
        workload = _all_kind_workload()
        evaluations = parallel.evaluate_many(workload)
        reference = _rebuilt_engine(parallel).evaluate_many(workload)
        _assert_identical(reference, evaluations)

    @pytest.mark.parametrize("k", [1, 4])
    def test_monte_carlo_bitwise_identical(self, small_points, small_uncertain, k):
        overrides = {"probability_method": "monte_carlo", "monte_carlo_samples": 60}
        parallel = _parallel_engine(small_points, small_uncertain, k, **overrides)
        parallel.apply_updates(_mutation_batch())
        workload = _queries(4, target="points", threshold=0.2, seed=5) + _queries(
            4, target="uncertain", threshold=0.2, seed=6
        )
        evaluations = parallel.evaluate_many(workload)
        reference = _rebuilt_engine(parallel, **overrides).evaluate_many(workload)
        assert sum(e.statistics.monte_carlo_samples for e in reference) > 0
        # Exact dict equality: bitwise-identical floats, not approximations.
        _assert_identical(reference, evaluations)

    def test_randomised_update_stream(self, small_points, small_uncertain):
        """A generated move/insert/delete stream preserves parity too."""
        parallel = _parallel_engine(small_points, small_uncertain, 4)
        stream = UpdateWorkload(bounds=TEST_SPACE, seed=77).point_updates(
            [obj.oid for obj in small_points], 120
        )
        parallel.apply_updates(stream)
        workload = _queries(5, target="points", threshold=0.3, seed=51) + _queries(
            3, nn_every=1, seed=52
        )
        evaluations = parallel.evaluate_many(workload)
        reference = _rebuilt_engine(parallel).evaluate_many(workload)
        _assert_identical(reference, evaluations)


class TestInterleavedUpdateParity:
    """Updates inside the workload stream: draws of unrelated queries hold."""

    def test_updates_consume_no_sequence_numbers(self, small_points, small_uncertain):
        head = _queries(3, target="points", threshold=0.2, seed=61)
        tail = _queries(3, target="uncertain", threshold=0.3, seed=62) + _queries(
            2, nn_every=1, seed=63
        )
        parallel = _parallel_engine(small_points, small_uncertain, 4)
        evaluations = parallel.evaluate_many(head + [_mutation_batch()] + tail)
        assert len(evaluations) == len(head) + len(tail)

        # Head ran against the original data.
        pristine = ImpreciseQueryEngine(
            point_db=PointDatabase.build(small_points),
            uncertain_db=UncertainDatabase.build(small_uncertain),
            config=EngineConfig(),
        )
        _assert_identical(pristine.evaluate_many(head), evaluations[: len(head)])

        # Tail ran against the mutated data, exactly as a rebuilt engine
        # answers it: the update shifted no query's draws.
        rebuilt = _rebuilt_engine(parallel)
        reference = rebuilt.evaluate_many(tail)
        _assert_identical(reference, evaluations[len(head) :])

    def test_single_engine_interleaving_matches_sharded(
        self, small_points, small_uncertain
    ):
        workload = (
            _queries(2, target="points", seed=71)
            + [_mutation_batch()]
            + _queries(2, target="uncertain", threshold=0.4, seed=72)
        )
        single = ImpreciseQueryEngine(
            point_db=PointDatabase.build(small_points),
            uncertain_db=UncertainDatabase.build(small_uncertain),
            config=EngineConfig(),
        )
        parallel = _parallel_engine(small_points, small_uncertain, 4)
        _assert_identical(single.evaluate_many(workload), parallel.evaluate_many(workload))


class TestHotShardResplitParity:
    def test_resplit_preserves_answers(self, small_points, small_uncertain):
        parallel = ParallelEngine(
            point_db=ShardedDatabase.build_points(small_points, 4, hot_threshold=60),
            uncertain_db=ShardedDatabase.build_uncertain(
                small_uncertain, 4, catalog_levels=None
            ),
            config=EngineConfig(),
        )
        k_before = parallel.point_db.k
        batch = UpdateBatch()
        for offset in range(80):
            batch.insert(
                PointObject.at(20_000 + offset, 5_000.0 + offset * 3.0, 5_000.0 + offset)
            )
        parallel.apply_updates(batch)
        assert parallel.point_db.k > k_before  # the hot shard actually split
        workload = _queries(5, target="points", threshold=0.2, seed=81) + _queries(
            3, nn_every=1, seed=82
        )
        evaluations = parallel.evaluate_many(workload)
        reference = _rebuilt_engine(parallel).evaluate_many(workload)
        _assert_identical(reference, evaluations)


class TestShardedSessionUpdates:
    def test_session_mutators_route_through_shards(self, small_points, small_uncertain):
        config = EngineConfig()
        session = Session.from_objects(
            points=small_points, uncertain=small_uncertain, config=config
        ).sharded(4)
        session.insert(PointObject.at(9101, 4_200.0, 4_200.0))
        session.move(9101, x=6_000.0, y=6_000.0)
        session.delete(9101, target="points")
        moved = session.move(
            9, pdf=UniformPdf(Rect.from_center(Point(3_000.0, 3_000.0), 80.0, 80.0))
        )
        assert moved.catalog is not None
        workload = _queries(4, target="uncertain", threshold=0.3, seed=91)
        rebuilt = Session.from_objects(
            points=list(session.point_db.objects),
            uncertain=list(session.uncertain_db.objects),
            catalog_levels=None,
            config=config,
        )
        _assert_identical(rebuilt.evaluate_many(workload), session.evaluate_many(workload))


class TestSnapshotsCarriedAcrossUpdates:
    """Warm shard snapshots are patched by the mutators, never rebuilt or stale."""

    @pytest.mark.parametrize("k", [1, 4])
    def test_every_shard_snapshot_equals_a_fresh_one(
        self, small_points, small_uncertain, k, monkeypatch
    ):
        parallel = ParallelEngine(
            point_db=ShardedDatabase.build_points(small_points, k),
            uncertain_db=ShardedDatabase.build_uncertain(small_uncertain, k),
            # Content-keyed draws: the workload is evaluated twice below.
            config=EngineConfig(),
        )
        workload = _all_kind_workload()
        parallel.evaluate_many(workload)  # builds every routed shard's snapshot
        shard_dbs = [
            shard.database
            for sharded in (parallel.point_db, parallel.uncertain_db)
            for shard in sharded.non_empty_shards()
        ]
        for database in shard_dbs:
            database.columnar()
        handed_out = [database.columnar() for database in shard_dbs]
        rows_before = [len(snapshot) for snapshot in handed_out]

        def no_rebuild(self, objects):
            raise AssertionError("a warm snapshot was rebuilt from scratch")

        with monkeypatch.context() as patched:
            patched.setattr(ColumnarPoints, "__init__", no_rebuild)
            patched.setattr(ColumnarUncertain, "__init__", no_rebuild)
            parallel.apply_updates(_mutation_batch())
            derived = [database.columnar() for database in shard_dbs]
        for database, snapshot in zip(shard_dbs, derived):
            assert database._columnar_epoch == database.epoch
            assert_same_snapshot(snapshot, type(snapshot)(database.objects))
        assert [len(snapshot) for snapshot in handed_out] == rows_before
        _assert_identical(
            _rebuilt_engine(parallel).evaluate_many(workload),
            parallel.evaluate_many(workload),
        )
