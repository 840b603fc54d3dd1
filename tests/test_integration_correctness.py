"""Cross-method integration tests.

The reproduction implements the same quantities through several independent
code paths — the definition-based basic method, the duality closed forms, the
Monte-Carlo estimators, threshold pruning, and three different indexes.
These tests check that they all tell the same story on realistic data, which
is the strongest correctness evidence we can get without the original system.
"""

import numpy as np
import pytest

from repro.core.basic import BasicEvaluator
from repro.core.engine import EngineConfig, ImpreciseQueryEngine, PointDatabase, UncertainDatabase
from repro.core.queries import RangeQuery
from repro.datasets.synthetic import clustered_points, clustered_rectangles
from repro.datasets.workload import QueryWorkload
from repro.geometry.rect import Rect

SPACE = Rect(0.0, 0.0, 5_000.0, 5_000.0)


@pytest.fixture(scope="module")
def points():
    return clustered_points(400, SPACE, seed=31)


@pytest.fixture(scope="module")
def uncertain():
    return [
        obj.with_catalog()
        for obj in clustered_rectangles(350, SPACE, size_range=(20.0, 150.0), seed=32)
    ]


@pytest.fixture(scope="module")
def workload():
    return QueryWorkload(bounds=SPACE, issuer_half_size=200.0, range_half_size=400.0, seed=77)


class TestEnhancedMatchesBasic:
    """The enhanced evaluation (Section 4) equals the definition (Section 3.3)."""

    def test_ipq_answers_match(self, points, workload):
        engine = ImpreciseQueryEngine(point_db=PointDatabase.build(points))
        basic = BasicEvaluator(issuer_samples=2_500)
        for issuer in workload.issuers(3):
            enhanced, _ = engine.evaluate(RangeQuery.ipq(issuer, workload.spec)).as_tuple()
            query = RangeQuery(issuer=issuer, spec=workload.spec)
            baseline, _ = basic.evaluate_ipq(query, points)
            enhanced_probs = enhanced.probabilities()
            baseline_probs = baseline.probabilities()
            # Identical object sets (up to sampling noise at the boundary)...
            assert enhanced.oids() >= baseline.oids()
            # ...and probabilities agreeing within discretisation error.
            for oid, probability in baseline_probs.items():
                assert enhanced_probs[oid] == pytest.approx(probability, abs=0.05)

    def test_iuq_answers_match(self, uncertain, workload):
        engine = ImpreciseQueryEngine(
            uncertain_db=UncertainDatabase.build(uncertain, index_kind="rtree")
        )
        basic = BasicEvaluator(issuer_samples=2_500)
        for issuer in workload.issuers(3):
            enhanced, _ = engine.evaluate(RangeQuery.iuq(issuer, workload.spec)).as_tuple()
            query = RangeQuery(issuer=issuer, spec=workload.spec)
            baseline, _ = basic.evaluate_iuq(query, uncertain)
            enhanced_probs = enhanced.probabilities()
            for oid, probability in baseline.probabilities().items():
                assert enhanced_probs[oid] == pytest.approx(probability, abs=0.05)


class TestIndexIndependence:
    """Query answers must not depend on which spatial index is used."""

    @pytest.mark.parametrize("index_kind", ["rtree", "grid", "linear"])
    def test_ipq_same_answers_for_all_indexes(self, points, workload, index_kind):
        reference = ImpreciseQueryEngine(point_db=PointDatabase.build(points, index_kind="rtree"))
        other = ImpreciseQueryEngine(point_db=PointDatabase.build(points, index_kind=index_kind))
        issuer = next(workload.issuers(1))
        expected, _ = reference.evaluate(RangeQuery.ipq(issuer, workload.spec)).as_tuple()
        actual, _ = other.evaluate(RangeQuery.ipq(issuer, workload.spec)).as_tuple()
        assert actual.probabilities() == expected.probabilities()

    @pytest.mark.parametrize("index_kind", ["rtree", "pti", "grid", "linear"])
    def test_ciuq_same_answers_for_all_indexes(self, uncertain, workload, index_kind):
        threshold = 0.4
        reference = ImpreciseQueryEngine(
            uncertain_db=UncertainDatabase.build(uncertain, index_kind="rtree"),
            config=EngineConfig(use_p_expanded_query=False),
        )
        other = ImpreciseQueryEngine(
            uncertain_db=UncertainDatabase.build(uncertain, index_kind=index_kind)
        )
        issuer = next(workload.issuers(1))
        expected, _ = reference.evaluate(
            RangeQuery.ciuq(issuer, workload.spec, threshold)
        ).as_tuple()
        actual, _ = other.evaluate(RangeQuery.ciuq(issuer, workload.spec, threshold)).as_tuple()
        assert actual.oids() == expected.oids()


class TestThresholdConsistency:
    """Constrained answers are exactly the unconstrained answers above Qp."""

    def test_cipq_answers_nested_in_threshold(self, points, workload):
        engine = ImpreciseQueryEngine(point_db=PointDatabase.build(points))
        issuer = next(workload.issuers(1))
        results = {}
        for threshold in (0.0, 0.2, 0.4, 0.6, 0.8):
            result, _ = engine.evaluate(
                RangeQuery.cipq(issuer, workload.spec, threshold)
            ).as_tuple()
            results[threshold] = result.oids()
        thresholds = sorted(results)
        for low, high in zip(thresholds, thresholds[1:]):
            assert results[high] <= results[low]

    def test_ciuq_probabilities_all_above_threshold(self, uncertain, workload):
        engine = ImpreciseQueryEngine(uncertain_db=UncertainDatabase.build(uncertain))
        issuer = next(workload.issuers(1))
        for threshold in (0.3, 0.7):
            result, _ = engine.evaluate(
                RangeQuery.ciuq(issuer, workload.spec, threshold)
            ).as_tuple()
            assert all(answer.probability >= threshold for answer in result)


class TestMonteCarloConvergence:
    """Sampled evaluation converges to the exact answers as samples grow."""

    def test_ciuq_monte_carlo_close_to_exact(self, uncertain, workload):
        database = UncertainDatabase.build(uncertain)
        exact_engine = ImpreciseQueryEngine(uncertain_db=database)
        sampled_engine = ImpreciseQueryEngine(
            uncertain_db=database,
            config=EngineConfig(probability_method="monte_carlo", monte_carlo_samples=3_000),
        )
        issuer = next(workload.issuers(1))
        exact, _ = exact_engine.evaluate(RangeQuery.iuq(issuer, workload.spec)).as_tuple()
        sampled, _ = sampled_engine.evaluate(RangeQuery.iuq(issuer, workload.spec)).as_tuple()
        exact_probs = exact.probabilities()
        matched = 0
        for oid, probability in sampled.probabilities().items():
            if oid in exact_probs:
                assert probability == pytest.approx(exact_probs[oid], abs=0.06)
                matched += 1
        assert matched > 0


class TestDeterminism:
    """Evaluations over the same data and seeds are fully reproducible."""

    def test_engine_results_deterministic(self, points, uncertain, workload):
        def run():
            engine = ImpreciseQueryEngine(
                point_db=PointDatabase.build(points),
                uncertain_db=UncertainDatabase.build(uncertain),
                config=EngineConfig(rng_seed=5),
            )
            issuer = next(workload.issuers(1))
            ipq, _ = engine.evaluate(RangeQuery.ipq(issuer, workload.spec)).as_tuple()
            ciuq, _ = engine.evaluate(RangeQuery.ciuq(issuer, workload.spec, 0.5)).as_tuple()
            return ipq.probabilities(), ciuq.probabilities()

        assert run() == run()

    def test_workload_rng_independent_of_numpy_global_state(self, workload):
        first = [issuer.region for issuer in workload.issuers(3)]
        np.random.seed(0)
        np.random.random(100)
        second = [issuer.region for issuer in workload.issuers(3)]
        assert first == second
