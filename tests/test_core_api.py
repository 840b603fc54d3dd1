"""Tests for the unified query-object API.

Covers the acceptance criteria of the API redesign:

* ``engine.evaluate(RangeQuery(...))`` returns identical answers across all
  four query types and all index kinds;
* ``evaluate_many`` is equivalent to a sequential ``evaluate`` loop
  (including under Monte-Carlo probability evaluation);
* the legacy per-type shims are gone (they raise, loudly and helpfully);
* the :class:`Evaluation` envelope is self-describing;
* ``EngineConfig`` validates its fields and ``with_overrides`` arguments.
"""

import pytest

from repro.core.engine import (
    EngineConfig,
    ImpreciseQueryEngine,
    PointDatabase,
    UncertainDatabase,
)
from repro.core.nearest import ImpreciseNearestNeighborEngine
from repro.core.queries import (
    Evaluation,
    NearestNeighborQuery,
    RangeQuery,
)
from repro.datasets.workload import QueryWorkload

from tests.conftest import TEST_SPACE

POINT_INDEX_KINDS = ("rtree", "grid", "linear")
UNCERTAIN_INDEX_KINDS = ("pti", "rtree", "grid", "linear")


class TestRangeQueryModel:
    def test_kind_covers_all_four_paper_queries(self, uniform_issuer, default_spec):
        assert RangeQuery.ipq(uniform_issuer, default_spec).kind == "ipq"
        assert RangeQuery.iuq(uniform_issuer, default_spec).kind == "iuq"
        assert RangeQuery.cipq(uniform_issuer, default_spec, 0.5).kind == "cipq"
        assert RangeQuery.ciuq(uniform_issuer, default_spec, 0.5).kind == "ciuq"

    def test_invalid_threshold_rejected(self, uniform_issuer, default_spec):
        with pytest.raises(ValueError):
            RangeQuery(issuer=uniform_issuer, spec=default_spec, threshold=1.5)

    def test_invalid_target_rejected(self, uniform_issuer, default_spec):
        with pytest.raises(ValueError, match="unknown range-query target"):
            RangeQuery(issuer=uniform_issuer, spec=default_spec, target="everything")

    def test_nearest_neighbor_query_validation(self, uniform_issuer):
        with pytest.raises(ValueError):
            NearestNeighborQuery(issuer=uniform_issuer, threshold=2.0)
        with pytest.raises(ValueError):
            NearestNeighborQuery(issuer=uniform_issuer, samples=0)


class TestEvaluateParity:
    """evaluate(RangeQuery) answers identically on every index backend."""

    @pytest.mark.parametrize("index_kind", POINT_INDEX_KINDS)
    def test_ipq_parity(self, small_points, uniform_issuer, default_spec, index_kind):
        reference = ImpreciseQueryEngine(
            point_db=PointDatabase.build(small_points, index_kind="rtree")
        )
        engine = ImpreciseQueryEngine(
            point_db=PointDatabase.build(small_points, index_kind=index_kind)
        )
        unified = engine.evaluate(RangeQuery.ipq(uniform_issuer, default_spec))
        expected = reference.evaluate(RangeQuery.ipq(uniform_issuer, default_spec))
        assert len(unified) > 0
        assert unified.probabilities() == expected.probabilities()

    @pytest.mark.parametrize("index_kind", POINT_INDEX_KINDS)
    def test_cipq_parity(self, small_points, uniform_issuer, default_spec, index_kind):
        db = PointDatabase.build(small_points, index_kind=index_kind)
        engine = ImpreciseQueryEngine(point_db=db)
        unconstrained = engine.evaluate(RangeQuery.ipq(uniform_issuer, default_spec))
        constrained = engine.evaluate(RangeQuery.cipq(uniform_issuer, default_spec, 0.4))
        # The constrained answers are exactly the unconstrained answers >= Qp.
        expected = {
            oid: probability
            for oid, probability in unconstrained.probabilities().items()
            if probability >= 0.4
        }
        assert constrained.probabilities() == expected
        assert all(answer.probability >= 0.4 for answer in constrained)

    @pytest.mark.parametrize("index_kind", UNCERTAIN_INDEX_KINDS)
    def test_iuq_parity(self, small_uncertain, uniform_issuer, default_spec, index_kind):
        reference = ImpreciseQueryEngine(
            uncertain_db=UncertainDatabase.build(small_uncertain, index_kind="rtree")
        )
        engine = ImpreciseQueryEngine(
            uncertain_db=UncertainDatabase.build(small_uncertain, index_kind=index_kind)
        )
        unified = engine.evaluate(RangeQuery.iuq(uniform_issuer, default_spec))
        expected = reference.evaluate(RangeQuery.iuq(uniform_issuer, default_spec))
        assert len(unified) > 0
        assert unified.probabilities() == expected.probabilities()

    @pytest.mark.parametrize("index_kind", UNCERTAIN_INDEX_KINDS)
    def test_ciuq_parity(self, small_uncertain, uniform_issuer, default_spec, index_kind):
        db = UncertainDatabase.build(small_uncertain, index_kind=index_kind)
        engine = ImpreciseQueryEngine(uncertain_db=db)
        unconstrained = engine.evaluate(RangeQuery.iuq(uniform_issuer, default_spec))
        constrained = engine.evaluate(RangeQuery.ciuq(uniform_issuer, default_spec, 0.5))
        expected = {
            oid: probability
            for oid, probability in unconstrained.probabilities().items()
            if probability >= 0.5
        }
        assert constrained.probabilities() == expected
        assert all(answer.probability >= 0.5 for answer in constrained)

    def test_nearest_neighbor_parity_with_standalone_engine(
        self, point_db, small_points, uniform_issuer
    ):
        engine = ImpreciseQueryEngine(point_db=point_db)
        unified = engine.evaluate(NearestNeighborQuery(issuer=uniform_issuer, samples=512))
        standalone = ImpreciseNearestNeighborEngine(
            small_points,
            index=point_db.index,
            samples=512,
            rng_seed=engine.config.rng_seed,
        )
        expected, _ = standalone.evaluate(uniform_issuer)
        assert len(unified) > 0
        assert unified.probabilities() == expected.probabilities()

    def test_unknown_query_type_rejected(self, point_db):
        engine = ImpreciseQueryEngine(point_db=point_db)
        with pytest.raises(TypeError):
            engine.evaluate("not a query")

    def test_missing_database_raises(self, point_db, uncertain_db, uniform_issuer, default_spec):
        points_only = ImpreciseQueryEngine(point_db=point_db)
        with pytest.raises(RuntimeError):
            points_only.evaluate(RangeQuery.iuq(uniform_issuer, default_spec))
        uncertain_only = ImpreciseQueryEngine(uncertain_db=uncertain_db)
        with pytest.raises(RuntimeError):
            uncertain_only.evaluate(RangeQuery.ipq(uniform_issuer, default_spec))
        with pytest.raises(RuntimeError):
            uncertain_only.evaluate(NearestNeighborQuery(issuer=uniform_issuer))


class TestEvaluationEnvelope:
    def test_envelope_echoes_query_and_bundles_statistics(
        self, point_db, uniform_issuer, default_spec
    ):
        engine = ImpreciseQueryEngine(point_db=point_db)
        query = RangeQuery.ipq(uniform_issuer, default_spec)
        evaluation = engine.evaluate(query)
        assert isinstance(evaluation, Evaluation)
        assert evaluation.query is query
        assert evaluation.statistics.results_returned == len(evaluation)
        assert evaluation.elapsed_seconds >= evaluation.statistics.response_time
        assert evaluation.elapsed_ms == pytest.approx(evaluation.elapsed_seconds * 1000.0)
        assert evaluation.oids() == evaluation.result.oids()
        assert evaluation.as_tuple() == (evaluation.result, evaluation.statistics)
        top = evaluation.top(3)
        assert top == evaluation.answers[:3]


class TestEvaluateMany:
    def _workload_queries(self, count, *, target, threshold=0.0, pdf="uniform"):
        workload = QueryWorkload(bounds=TEST_SPACE, issuer_pdf=pdf, seed=31)
        spec = workload.spec
        return [
            RangeQuery(issuer=issuer, spec=spec, threshold=threshold, target=target)
            for issuer in workload.issuers(count)
        ]

    def test_batch_matches_sequential_points(self, point_db, uncertain_db):
        queries = self._workload_queries(12, target="points", threshold=0.3)
        sequential_engine = ImpreciseQueryEngine(point_db=point_db, uncertain_db=uncertain_db)
        batch_engine = ImpreciseQueryEngine(point_db=point_db, uncertain_db=uncertain_db)
        sequential = [sequential_engine.evaluate(query) for query in queries]
        batch = batch_engine.evaluate_many(queries)
        assert [e.probabilities() for e in batch] == [
            e.probabilities() for e in sequential
        ]
        assert [e.query for e in batch] == queries

    def test_batch_matches_sequential_uncertain(self, uncertain_db):
        queries = self._workload_queries(12, target="uncertain", threshold=0.5)
        sequential_engine = ImpreciseQueryEngine(uncertain_db=uncertain_db)
        batch_engine = ImpreciseQueryEngine(uncertain_db=uncertain_db)
        sequential = [sequential_engine.evaluate(query) for query in queries]
        batch = batch_engine.evaluate_many(queries)
        assert [e.probabilities() for e in batch] == [
            e.probabilities() for e in sequential
        ]

    def test_batch_matches_sequential_monte_carlo(self, point_db):
        """Identical RNG consumption: batch and loop draw the same samples."""
        queries = self._workload_queries(6, target="points", pdf="gaussian")
        config = EngineConfig(probability_method="monte_carlo", monte_carlo_samples=64)
        sequential_engine = ImpreciseQueryEngine(point_db=point_db, config=config)
        batch_engine = ImpreciseQueryEngine(point_db=point_db, config=config)
        sequential = [sequential_engine.evaluate(query) for query in queries]
        batch = batch_engine.evaluate_many(queries)
        assert [e.probabilities() for e in batch] == [
            e.probabilities() for e in sequential
        ]

    def test_batch_mixes_query_types(self, point_db, uncertain_db, uniform_issuer, default_spec):
        engine = ImpreciseQueryEngine(point_db=point_db, uncertain_db=uncertain_db)
        queries = [
            RangeQuery.ipq(uniform_issuer, default_spec),
            RangeQuery.ciuq(uniform_issuer, default_spec, 0.5),
            NearestNeighborQuery(issuer=uniform_issuer, samples=128),
        ]
        evaluations = engine.evaluate_many(queries)
        assert [evaluation.query.kind for evaluation in evaluations] == ["ipq", "ciuq", "nn"]
        assert all(isinstance(evaluation, Evaluation) for evaluation in evaluations)

    def test_batch_reuses_pruners_for_repeated_queries(
        self, point_db, uniform_issuer, default_spec
    ):
        engine = ImpreciseQueryEngine(point_db=point_db)
        query = RangeQuery.cipq(uniform_issuer, default_spec, 0.4)
        repeated = engine.evaluate_many([query, query, query])
        assert len({frozenset(e.probabilities().items()) for e in repeated}) == 1

    def test_batch_empty_input(self, point_db):
        engine = ImpreciseQueryEngine(point_db=point_db)
        assert engine.evaluate_many([]) == []

    def test_batch_rejects_non_queries(self, point_db, uniform_issuer, default_spec):
        engine = ImpreciseQueryEngine(point_db=point_db)
        with pytest.raises(TypeError, match="item 1"):
            engine.evaluate_many(
                [RangeQuery.ipq(uniform_issuer, default_spec), "junk"]
            )

    def test_batch_fails_fast_on_missing_database(self, point_db, uniform_issuer, default_spec):
        engine = ImpreciseQueryEngine(point_db=point_db)
        with pytest.raises(RuntimeError):
            engine.evaluate_many(
                [
                    RangeQuery.ipq(uniform_issuer, default_spec),
                    RangeQuery.iuq(uniform_issuer, default_spec),
                ]
            )


class TestLegacyShimsRemoved:
    """The PR-1 deprecation shims are gone; the replacements cover them."""

    @pytest.mark.parametrize(
        "name", ["evaluate_ipq", "evaluate_cipq", "evaluate_iuq", "evaluate_ciuq"]
    )
    def test_legacy_methods_removed(self, point_db, uncertain_db, name):
        engine = ImpreciseQueryEngine(point_db=point_db, uncertain_db=uncertain_db)
        assert not hasattr(engine, name)

    def test_legacy_query_objects_rejected_with_migration_hint(
        self, point_db, uniform_issuer, default_spec
    ):
        engine = ImpreciseQueryEngine(point_db=point_db)
        not_a_query = {"issuer": uniform_issuer, "spec": default_spec}
        with pytest.raises(TypeError, match="RangeQuery or a NearestNeighborQuery"):
            engine.evaluate(not_a_query)


class TestEngineConfigValidation:
    def test_with_overrides_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="monte_carlo_sample") as excinfo:
            EngineConfig().with_overrides(monte_carlo_sample=10)
        # The error names the valid fields so typos are easy to fix.
        assert "monte_carlo_samples" in str(excinfo.value)
        assert "rng_seed" in str(excinfo.value)

    def test_with_overrides_accepts_valid_fields(self):
        config = EngineConfig().with_overrides(monte_carlo_samples=10, rng_seed=3)
        assert config.monte_carlo_samples == 10
        assert config.rng_seed == 3

    def test_monte_carlo_samples_must_be_positive(self):
        with pytest.raises(ValueError, match="monte_carlo_samples"):
            EngineConfig(monte_carlo_samples=0)
        with pytest.raises(ValueError, match="monte_carlo_samples"):
            EngineConfig().with_overrides(monte_carlo_samples=-5)

    def test_rng_seed_must_be_non_negative_integer(self):
        with pytest.raises(ValueError, match="rng_seed"):
            EngineConfig(rng_seed=-1)
        with pytest.raises(ValueError, match="rng_seed"):
            EngineConfig(rng_seed=1.5)
        with pytest.raises(ValueError, match="rng_seed"):
            EngineConfig(rng_seed=True)
