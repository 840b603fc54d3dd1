"""Unit and integration tests for the end-to-end query engine."""

import pytest

from repro.geometry.rect import Rect
from repro.core.duality import ipq_probability, iuq_probability_exact_uniform
from repro.core.engine import (
    EngineConfig,
    ImpreciseQueryEngine,
    PointDatabase,
    UncertainDatabase,
)
from repro.core.pruning import PruningStrategy
from repro.core.queries import (
    NearestNeighborQuery,
    RangeQuery,
    RangeQuerySpec,
)
from repro.core.updates import UpdateBatch
from repro.datasets.workload import QueryWorkload
from repro.geometry.point import Point
from repro.index.gridfile import GridFile
from repro.index.linear import LinearScanIndex
from repro.index.pti import ProbabilityThresholdIndex
from repro.index.rtree import RTree
from repro.uncertainty.pdf import TruncatedGaussianPdf, UniformPdf
from repro.uncertainty.region import PointObject, UncertainObject

from tests.conftest import TEST_SPACE


class TestEngineConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config.probability_method == "auto"
        assert config.use_p_expanded_query
        assert config.use_pti_pruning

    def test_with_overrides(self):
        config = EngineConfig().with_overrides(monte_carlo_samples=99)
        assert config.monte_carlo_samples == 99
        assert EngineConfig().monte_carlo_samples != 99


class TestDatabaseConstruction:
    def test_point_database_default_rtree(self, small_points):
        db = PointDatabase.build(small_points)
        assert isinstance(db.index, RTree)
        assert len(db) == len(small_points)

    def test_point_database_rejects_pti(self, small_points):
        with pytest.raises(ValueError):
            PointDatabase.build(small_points, index_kind="pti")

    def test_point_database_grid_and_linear(self, small_points):
        assert isinstance(PointDatabase.build(small_points, index_kind="grid").index, GridFile)
        assert isinstance(
            PointDatabase.build(small_points, index_kind="linear").index, LinearScanIndex
        )

    def test_unknown_index_kind_rejected(self, small_points):
        with pytest.raises(ValueError):
            PointDatabase.build(small_points, index_kind="btree")

    def test_uncertain_database_builds_catalogs(self):
        objects = [
            UncertainObject.uniform(i, Rect(i * 10.0, 0.0, i * 10.0 + 5.0, 5.0))
            for i in range(20)
        ]
        db = UncertainDatabase.build(objects, index_kind="pti")
        assert isinstance(db.index, ProbabilityThresholdIndex)
        assert all(obj.catalog is not None for obj in db.objects)

    def test_engine_requires_some_database(self):
        with pytest.raises(ValueError):
            ImpreciseQueryEngine()


class TestIPQEvaluation:
    def test_results_match_direct_computation(self, point_db, uniform_issuer, default_spec):
        engine = ImpreciseQueryEngine(point_db=point_db)
        result, stats = engine.evaluate(RangeQuery.ipq(uniform_issuer, default_spec)).as_tuple()
        assert stats.candidates_examined >= len(result)
        for answer in result:
            obj = next(o for o in point_db.objects if o.oid == answer.oid)
            expected = ipq_probability(uniform_issuer.pdf, default_spec, obj.location)
            assert answer.probability == pytest.approx(expected)

    def test_every_returned_probability_positive(self, point_db, uniform_issuer, default_spec):
        engine = ImpreciseQueryEngine(point_db=point_db)
        result, _ = engine.evaluate(RangeQuery.ipq(uniform_issuer, default_spec)).as_tuple()
        assert all(answer.probability > 0.0 for answer in result)

    def test_no_qualifying_object_missed(self, point_db, uniform_issuer, default_spec):
        """Every point object with non-zero probability must appear in the answer."""
        engine = ImpreciseQueryEngine(point_db=point_db)
        result, _ = engine.evaluate(RangeQuery.ipq(uniform_issuer, default_spec)).as_tuple()
        reported = result.oids()
        for obj in point_db.objects:
            probability = ipq_probability(uniform_issuer.pdf, default_spec, obj.location)
            if probability > 0.0:
                assert obj.oid in reported

    def test_missing_database_raises(self, uncertain_db, uniform_issuer, default_spec):
        engine = ImpreciseQueryEngine(uncertain_db=uncertain_db)
        with pytest.raises(RuntimeError):
            engine.evaluate(RangeQuery.ipq(uniform_issuer, default_spec)).as_tuple()

    def test_io_statistics_populated(self, point_db, uniform_issuer, default_spec):
        engine = ImpreciseQueryEngine(point_db=point_db)
        _, stats = engine.evaluate(RangeQuery.ipq(uniform_issuer, default_spec)).as_tuple()
        assert stats.io.node_accesses > 0
        assert stats.response_time > 0.0


class TestIUQEvaluation:
    def test_results_match_direct_computation(self, uncertain_db, uniform_issuer, default_spec):
        engine = ImpreciseQueryEngine(uncertain_db=uncertain_db)
        result, _ = engine.evaluate(RangeQuery.iuq(uniform_issuer, default_spec)).as_tuple()
        assert len(result) > 0
        for answer in list(result)[:25]:
            obj = next(o for o in uncertain_db.objects if o.oid == answer.oid)
            expected = iuq_probability_exact_uniform(uniform_issuer.pdf, obj, default_spec)
            assert answer.probability == pytest.approx(expected)

    def test_no_qualifying_object_missed(self, uncertain_db, uniform_issuer, default_spec):
        engine = ImpreciseQueryEngine(uncertain_db=uncertain_db)
        result, _ = engine.evaluate(RangeQuery.iuq(uniform_issuer, default_spec)).as_tuple()
        reported = result.oids()
        for obj in uncertain_db.objects:
            probability = iuq_probability_exact_uniform(uniform_issuer.pdf, obj, default_spec)
            if probability > 1e-12:
                assert obj.oid in reported

    def test_missing_database_raises(self, point_db, uniform_issuer, default_spec):
        engine = ImpreciseQueryEngine(point_db=point_db)
        with pytest.raises(RuntimeError):
            engine.evaluate(RangeQuery.iuq(uniform_issuer, default_spec)).as_tuple()


class TestConstrainedQueries:
    @pytest.mark.parametrize("threshold", [0.2, 0.5, 0.8])
    def test_cipq_equals_filtered_ipq(self, point_db, uniform_issuer, default_spec, threshold):
        """C-IPQ must return exactly the IPQ answers with probability >= Qp."""
        engine = ImpreciseQueryEngine(point_db=point_db)
        full, _ = engine.evaluate(RangeQuery.ipq(uniform_issuer, default_spec)).as_tuple()
        constrained, _ = engine.evaluate(
            RangeQuery.cipq(uniform_issuer, default_spec, threshold)
        ).as_tuple()
        expected = {a.oid for a in full if a.probability >= threshold}
        assert constrained.oids() == expected

    @pytest.mark.parametrize("threshold", [0.2, 0.5, 0.8])
    def test_ciuq_equals_filtered_iuq(self, uncertain_db, uniform_issuer, default_spec, threshold):
        """C-IUQ must return exactly the IUQ answers with probability >= Qp."""
        engine = ImpreciseQueryEngine(uncertain_db=uncertain_db)
        full, _ = engine.evaluate(RangeQuery.iuq(uniform_issuer, default_spec)).as_tuple()
        constrained, _ = engine.evaluate(
            RangeQuery.ciuq(uniform_issuer, default_spec, threshold)
        ).as_tuple()
        expected = {a.oid for a in full if a.probability >= threshold}
        assert constrained.oids() == expected

    def test_minkowski_and_p_expanded_agree_on_answers(
        self, point_db, uniform_issuer, default_spec
    ):
        threshold = 0.6
        minkowski_engine = ImpreciseQueryEngine(
            point_db=point_db, config=EngineConfig(use_p_expanded_query=False)
        )
        expanded_engine = ImpreciseQueryEngine(
            point_db=point_db, config=EngineConfig(use_p_expanded_query=True)
        )
        a, stats_a = minkowski_engine.evaluate(
            RangeQuery.cipq(uniform_issuer, default_spec, threshold)
        ).as_tuple()
        b, stats_b = expanded_engine.evaluate(
            RangeQuery.cipq(uniform_issuer, default_spec, threshold)
        ).as_tuple()
        assert a.oids() == b.oids()
        # The p-expanded-query must never examine more candidates.
        assert stats_b.candidates_examined <= stats_a.candidates_examined

    def test_pti_and_rtree_agree_on_answers(
        self, uncertain_db, uncertain_db_rtree, uniform_issuer, default_spec
    ):
        threshold = 0.5
        pti_engine = ImpreciseQueryEngine(uncertain_db=uncertain_db)
        rtree_engine = ImpreciseQueryEngine(
            uncertain_db=uncertain_db_rtree,
            config=EngineConfig(use_p_expanded_query=False, use_pti_pruning=False),
        )
        a, stats_a = pti_engine.evaluate(
            RangeQuery.ciuq(uniform_issuer, default_spec, threshold)
        ).as_tuple()
        b, stats_b = rtree_engine.evaluate(
            RangeQuery.ciuq(uniform_issuer, default_spec, threshold)
        ).as_tuple()
        assert a.oids() == b.oids()
        assert stats_a.candidates_examined <= stats_b.candidates_examined

    def test_strategy_subset_configuration_respected(
        self, uncertain_db_rtree, uniform_issuer, default_spec
    ):
        engine = ImpreciseQueryEngine(
            uncertain_db=uncertain_db_rtree,
            config=EngineConfig(
                use_p_expanded_query=False,
                ciuq_strategies=(PruningStrategy.P_BOUND,),
            ),
        )
        result, stats = engine.evaluate(
            RangeQuery.ciuq(uniform_issuer, default_spec, 0.6)
        ).as_tuple()
        assert PruningStrategy.P_EXPANDED_QUERY.value not in stats.pruned
        assert all(answer.probability >= 0.6 for answer in result)


class TestMonteCarloEngine:
    def test_gaussian_issuer_uses_monte_carlo_when_forced(self, point_db, default_spec):
        # Centre the issuer on an existing point object so candidates exist.
        anchor = point_db.objects[0].location
        issuer_region = Rect.from_center(anchor, 250.0, 250.0)
        issuer = UncertainObject(oid=0, pdf=TruncatedGaussianPdf(issuer_region)).with_catalog()
        engine = ImpreciseQueryEngine(
            point_db=point_db,
            config=EngineConfig(probability_method="monte_carlo", monte_carlo_samples=200),
        )
        result, stats = engine.evaluate(RangeQuery.cipq(issuer, default_spec, 0.3)).as_tuple()
        assert stats.monte_carlo_samples > 0
        assert all(answer.probability >= 0.3 for answer in result)

    def test_monte_carlo_close_to_exact_for_uniform(self, point_db, uniform_issuer, default_spec):
        exact_engine = ImpreciseQueryEngine(point_db=point_db)
        mc_engine = ImpreciseQueryEngine(
            point_db=point_db,
            config=EngineConfig(probability_method="monte_carlo", monte_carlo_samples=2_000),
        )
        exact, _ = exact_engine.evaluate(RangeQuery.ipq(uniform_issuer, default_spec)).as_tuple()
        sampled, _ = mc_engine.evaluate(RangeQuery.ipq(uniform_issuer, default_spec)).as_tuple()
        exact_probs = exact.probabilities()
        for oid, probability in sampled.probabilities().items():
            assert probability == pytest.approx(exact_probs[oid], abs=0.05)


class TestEvaluateDispatch:
    def test_legacy_query_objects_rejected(self, point_db, uniform_issuer, default_spec):
        engine = ImpreciseQueryEngine(point_db=point_db)
        not_a_query = (uniform_issuer, default_spec)
        with pytest.raises(TypeError, match="expected a RangeQuery"):
            engine.evaluate(not_a_query)


class TestWorkloadIntegration:
    def test_engine_handles_workload_queries(self, point_db, uncertain_db):
        engine = ImpreciseQueryEngine(point_db=point_db, uncertain_db=uncertain_db)
        workload = QueryWorkload(bounds=TEST_SPACE, threshold=0.3, seed=99)
        for query in workload.queries(5):
            point_result, _ = engine.evaluate(
                RangeQuery.cipq(query.issuer, query.spec, query.threshold)
            ).as_tuple()
            uncertain_result, _ = engine.evaluate(
                RangeQuery.ciuq(query.issuer, query.spec, query.threshold)
            ).as_tuple()
            assert all(a.probability >= query.threshold for a in point_result)
            assert all(a.probability >= query.threshold for a in uncertain_result)


class TestLiveMutationVisibility:
    """Regression tests: mutate then query must never serve stale answers.

    The historical bug: the databases cached their columnar snapshot forever,
    so any mutation of ``.objects`` after ``columnar()`` had been built was
    invisible to every subsequent vectorized query.
    """

    def _engine(self, index_kind="rtree", **overrides):
        objects = [
            PointObject.at(1, 4_900.0, 4_900.0),
            PointObject.at(2, 9_500.0, 9_500.0),
        ]
        database = PointDatabase.build(objects, index_kind=index_kind)
        config = EngineConfig().with_overrides(**overrides)
        return ImpreciseQueryEngine(point_db=database, config=config)

    def _query(self, uniform_issuer):
        return RangeQuery.ipq(uniform_issuer, RangeQuerySpec.square(500.0))

    @pytest.mark.parametrize("index_kind", ["rtree", "grid", "linear"])
    def test_insert_is_visible_to_the_next_batch(self, uniform_issuer, index_kind):
        engine = self._engine(index_kind)
        query = self._query(uniform_issuer)
        before = engine.evaluate_many([query])[0]
        assert before.result.oids() == {1}
        engine.insert(PointObject.at(3, 5_050.0, 5_050.0))
        after = engine.evaluate_many([query])[0]
        assert after.result.oids() == {1, 3}

    @pytest.mark.parametrize("index_kind", ["rtree", "grid", "linear"])
    def test_delete_and_move_are_visible(self, uniform_issuer, index_kind):
        engine = self._engine(index_kind)
        query = self._query(uniform_issuer)
        engine.delete(1)
        assert engine.evaluate_many([query])[0].result.oids() == set()
        engine.move(2, x=5_000.0, y=5_100.0)
        assert engine.evaluate_many([query])[0].result.oids() == {2}

    def test_direct_objects_append_is_visible(self, uniform_issuer):
        """Even out-of-band list mutation cannot leave the snapshot stale."""
        engine = self._engine()
        query = self._query(uniform_issuer)
        database = engine.point_db
        assert engine.evaluate_many([query])[0].result.oids() == {1}
        new = PointObject.at(4, 5_020.0, 4_980.0)
        database.objects.append(new)
        database.index.insert(new.mbr, new)
        assert engine.evaluate_many([query])[0].result.oids() == {1, 4}

    def test_scalar_backend_sees_mutations_too(self, uniform_issuer):
        engine = self._engine(vectorized=False)
        query = self._query(uniform_issuer)
        engine.insert(PointObject.at(3, 5_050.0, 5_050.0))
        assert engine.evaluate_many([query])[0].result.oids() == {1, 3}

    def test_nearest_sampler_rebuilt_after_mutation(self, uniform_issuer):
        engine = self._engine()
        nn = NearestNeighborQuery(issuer=uniform_issuer, samples=16)
        assert engine.evaluate(nn).result.oids() == {1}
        engine.move(2, x=5_000.0, y=5_000.0)
        engine.delete(1)
        assert engine.evaluate(nn).result.oids() == {2}

    def test_uncertain_mutations_visible(self, uniform_issuer):
        objects = [
            UncertainObject.uniform(
                1, Rect.from_center(Point(5_000.0, 5_000.0), 100.0, 100.0)
            )
        ]
        database = UncertainDatabase.build(objects)
        engine = ImpreciseQueryEngine(uncertain_db=database)
        query = RangeQuery.iuq(uniform_issuer, RangeQuerySpec.square(500.0))
        assert engine.evaluate_many([query])[0].result.oids() == {1}
        engine.move(1, pdf=UniformPdf(Rect.from_center(Point(9_000.0, 9_000.0), 100.0, 100.0)))
        assert engine.evaluate_many([query])[0].result.oids() == set()

    def test_interleaved_update_batch_applies_in_stream_order(self, uniform_issuer):
        engine = self._engine()
        query = self._query(uniform_issuer)
        batch = UpdateBatch().insert(PointObject.at(3, 5_050.0, 5_050.0)).delete(1)
        evaluations = engine.evaluate_many([query, batch, query])
        assert evaluations[0].result.oids() == {1}
        assert evaluations[1].result.oids() == {3}

    def test_duplicate_oid_rejected(self):
        engine = self._engine()
        with pytest.raises(ValueError, match="already stored"):
            engine.insert(PointObject.at(1, 0.0, 0.0))

    def test_missing_oid_raises_key_error(self):
        engine = self._engine()
        with pytest.raises(KeyError, match="999"):
            engine.delete(999)
