"""Sharded parity suite: ``ParallelEngine`` must equal the single-shard engine.

Acceptance criteria of the sharded-execution change: for all four paper
query kinds (IPQ, C-IPQ, IUQ, C-IUQ) plus the nearest-neighbour extension,
``ParallelEngine.evaluate_many`` over K ∈ {2, 4} shards returns answer sets
and probabilities identical — Monte-Carlo bitwise-identical — to the
single-shard vectorized engine, for both partitioners.
(``tests/test_rpc_parity.py`` holds the shard daemons to the same
contract.)
"""

from __future__ import annotations

import pytest

from repro.core.engine import (
    EngineConfig,
    ImpreciseQueryEngine,
    PointDatabase,
    UncertainDatabase,
)
from repro.core.errors import ConfigurationError
from repro.core.parallel import ParallelEngine, ParallelEvaluation
from repro.core.queries import NearestNeighborQuery, RangeQuery
from repro.core.session import Session
from repro.core.sharding import ShardedDatabase
from repro.datasets.workload import QueryWorkload

from tests.conftest import TEST_SPACE


def _queries(count, *, target=None, threshold=0.0, pdf="uniform", seed=99, nn_every=0):
    workload = QueryWorkload(
        bounds=TEST_SPACE, issuer_pdf=pdf, range_half_size=400.0, seed=seed
    )
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


def _single_engine(small_points, small_uncertain, **overrides):
    config = EngineConfig(**overrides)
    return ImpreciseQueryEngine(
        point_db=PointDatabase.build(small_points),
        uncertain_db=UncertainDatabase.build(small_uncertain),
        config=config,
    )


def _parallel_engine(
    small_points, small_uncertain, k, *, partitioner="grid", **overrides
):
    config = EngineConfig(**overrides)
    return ParallelEngine(
        point_db=ShardedDatabase.build_points(small_points, k, partitioner=partitioner),
        uncertain_db=ShardedDatabase.build_uncertain(
            small_uncertain, k, partitioner=partitioner, catalog_levels=None
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


class TestShardedParity:
    """K ∈ {2, 4} × both partitioners × every query kind, serial execution."""

    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("partitioner", ["grid", "median"])
    def test_all_query_kinds(self, small_points, small_uncertain, k, partitioner):
        single = _single_engine(small_points, small_uncertain)
        parallel = _parallel_engine(
            small_points, small_uncertain, k, partitioner=partitioner
        )
        workload = (
            _queries(6, target="points")
            + _queries(6, target="points", threshold=0.3, seed=17)
            + _queries(6, target="uncertain", seed=23)
            + _queries(6, target="uncertain", threshold=0.4, seed=31)
            + _queries(4, nn_every=1, seed=41)
        )
        _assert_identical(single.evaluate_many(workload), parallel.evaluate_many(workload))

    @pytest.mark.parametrize("k", [2, 4])
    def test_monte_carlo_probabilities_bitwise_identical(
        self, small_points, small_uncertain, k
    ):
        overrides = {"probability_method": "monte_carlo", "monte_carlo_samples": 60}
        single = _single_engine(small_points, small_uncertain, **overrides)
        parallel = _parallel_engine(small_points, small_uncertain, k, **overrides)
        workload = _queries(4, target="points", threshold=0.2, seed=5) + _queries(
            4, target="uncertain", threshold=0.2, seed=6
        )
        reference = single.evaluate_many(workload)
        evaluations = parallel.evaluate_many(workload)
        assert sum(e.statistics.monte_carlo_samples for e in reference) > 0
        # Exact dict equality: bitwise-identical floats, not approximations.
        _assert_identical(reference, evaluations)

    def test_gaussian_issuers_route_through_sampling(self, small_points, small_uncertain):
        single = _single_engine(small_points, small_uncertain, monte_carlo_samples=50)
        parallel = _parallel_engine(
            small_points, small_uncertain, 4, monte_carlo_samples=50
        )
        workload = _queries(5, target="points", threshold=0.2, pdf="gaussian", seed=77)
        _assert_identical(single.evaluate_many(workload), parallel.evaluate_many(workload))

    def test_interleaved_batches_keep_sequence_alignment(
        self, small_points, small_uncertain
    ):
        """Consecutive evaluate_many calls stay aligned with a single engine."""
        single = _single_engine(small_points, small_uncertain)
        parallel = _parallel_engine(small_points, small_uncertain, 2)
        first = _queries(4, target="uncertain", threshold=0.3, seed=51)
        second = _queries(4, target="points", seed=52)
        _assert_identical(single.evaluate_many(first), parallel.evaluate_many(first))
        _assert_identical(single.evaluate_many(second), parallel.evaluate_many(second))

    def test_single_evaluate_matches_batch_numbering(self, small_points, small_uncertain):
        single = _single_engine(small_points, small_uncertain)
        parallel = _parallel_engine(small_points, small_uncertain, 2)
        for query in _queries(3, target="points", threshold=0.2, seed=61):
            expected = single.evaluate(query)
            got = parallel.evaluate(query)
            assert got.probabilities() == expected.probabilities()


class TestParallelEvaluationEnvelope:
    def test_shard_timings_and_counters_are_attributed(self, small_points, small_uncertain):
        parallel = _parallel_engine(small_points, small_uncertain, 4)
        single = _single_engine(small_points, small_uncertain)
        (query,) = _queries(1, target="points", seed=81)
        got = parallel.evaluate(query)
        expected = single.evaluate(query)
        assert isinstance(got, ParallelEvaluation)
        assert got.shard_timings  # at least one shard contributed
        assert {timing.sid for timing in got.shard_timings} <= {0, 1, 2, 3}
        assert all(timing.seconds >= 0.0 for timing in got.shard_timings)
        # The window filter sees the same candidate set whether it scans one
        # snapshot or the routed shards' snapshots.
        assert (
            got.statistics.candidates_examined
            == expected.statistics.candidates_examined
        )
        assert got.statistics.results_returned == len(got)

    def test_nearest_neighbour_counters(self, small_points, small_uncertain):
        parallel = _parallel_engine(small_points, small_uncertain, 4)
        (query,) = _queries(1, nn_every=1, seed=83)
        got = parallel.evaluate(query)
        assert got.statistics.monte_carlo_samples == 32
        assert got.statistics.candidates_examined >= len(got)


class TestShardedSession:
    def test_session_sharded_matches_per_oid_session(self, small_points, small_uncertain):
        config = EngineConfig()
        session = Session.from_objects(
            points=small_points, uncertain=small_uncertain, config=config
        )
        sharded = session.sharded(4)
        assert isinstance(sharded.engine, ParallelEngine)
        workload = QueryWorkload(bounds=TEST_SPACE, range_half_size=400.0, seed=91)
        issuers = list(workload.issuers(6))
        template = session.range(half_width=400.0).targets("uncertain").threshold(0.4)
        sharded_template = (
            sharded.range(half_width=400.0).targets("uncertain").threshold(0.4)
        )
        reference = template.run_many(issuers)
        evaluations = sharded_template.run_many(issuers)
        for expected, got in zip(reference, evaluations):
            assert got.probabilities() == expected.probabilities()

    def test_sharded_session_keeps_the_config(self, small_points):
        session = Session.from_objects(points=small_points)
        sharded = session.sharded(2)
        assert sharded.engine.config is session.engine.config
        assert sharded.point_db.k == 2

    def test_workers_above_one_point_at_distributed(self, small_points):
        session = Session.from_objects(points=small_points)
        assert isinstance(session.sharded(2, workers=1).engine, ParallelEngine)
        with pytest.raises(ConfigurationError, match="distributed"):
            session.sharded(2, workers=2)

    def test_nearest_builder_on_sharded_session(self, small_points):
        plain = Session.from_objects(points=small_points, config=EngineConfig())
        sharded = plain.sharded(4)
        issuer = next(QueryWorkload(bounds=TEST_SPACE, seed=95).issuers(1))
        expected = plain.nearest(samples=32).issued_by(issuer).run()
        got = sharded.nearest(samples=32).issued_by(issuer).run()
        assert got.probabilities() == expected.probabilities()


class TestExperimentConfigSharding:
    def test_run_session_batch_applies_config_sharding(self, small_points):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import run_session_batch

        session = Session.from_objects(points=small_points, config=EngineConfig())
        workload = QueryWorkload(bounds=TEST_SPACE, range_half_size=400.0, seed=97)
        plain = run_session_batch(session, workload, 5, target="points")
        sharded = run_session_batch(
            session,
            workload,
            5,
            target="points",
            config=ExperimentConfig(shards=2),
        )
        assert sharded.queries == plain.queries
        assert sharded.mean_results == plain.mean_results
        assert sharded.mean_candidates == plain.mean_candidates

    def test_zero_shards_is_a_no_op(self, small_points):
        from repro.experiments.config import ExperimentConfig

        session = Session.from_objects(points=small_points)
        assert ExperimentConfig(shards=0).sharded_session(session) is session
        assert isinstance(
            ExperimentConfig(shards=2).sharded_session(session).engine, ParallelEngine
        )


class TestPerOidPlanBackendParity:
    """Under keyed draws the scalar oracle equals the vectorized backend."""

    def test_scalar_vectorized_parity(self, small_points, small_uncertain):
        overrides = {"probability_method": "monte_carlo", "monte_carlo_samples": 40}
        vectorized = _single_engine(small_points, small_uncertain, **overrides)
        scalar = _single_engine(
            small_points, small_uncertain, vectorized=False, **overrides
        )
        workload = _queries(3, target="points", threshold=0.2, seed=13) + _queries(
            3, target="uncertain", threshold=0.2, seed=14
        )
        for expected, got in zip(
            scalar.evaluate_many(workload), vectorized.evaluate_many(workload)
        ):
            assert got.probabilities() == expected.probabilities()
