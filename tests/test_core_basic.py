"""Unit tests for the basic (sampling-based) evaluation method of Section 3.3."""

import pytest

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.core.basic import BasicEvaluator, basic_ipq_probability, basic_iuq_probability
from repro.core.duality import ipq_probability, iuq_probability_exact_uniform
from repro.core.queries import RangeQuery, RangeQuerySpec
from repro.uncertainty.pdf import TruncatedGaussianPdf, UniformPdf
from repro.uncertainty.region import PointObject, UncertainObject

ISSUER_REGION = Rect(0.0, 0.0, 500.0, 500.0)
SPEC = RangeQuerySpec.square(500.0)


class TestBasicIPQProbability:
    def test_agrees_with_duality_closed_form(self):
        issuer_pdf = UniformPdf(ISSUER_REGION)
        for location in (Point(700.0, 250.0), Point(250.0, 900.0), Point(850.0, 850.0)):
            exact = ipq_probability(issuer_pdf, SPEC, location)
            sampled = basic_ipq_probability(issuer_pdf, SPEC, location, issuer_samples=2_500)
            assert sampled == pytest.approx(exact, abs=0.03)

    def test_zero_for_far_away_objects(self):
        issuer_pdf = UniformPdf(ISSUER_REGION)
        assert basic_ipq_probability(issuer_pdf, SPEC, Point(9_000.0, 9_000.0)) == 0.0

    def test_one_for_object_always_in_range(self):
        issuer_pdf = UniformPdf(ISSUER_REGION)
        assert basic_ipq_probability(issuer_pdf, SPEC, Point(250.0, 250.0)) == pytest.approx(1.0)

    def test_gaussian_issuer(self):
        issuer_pdf = TruncatedGaussianPdf(ISSUER_REGION)
        location = Point(700.0, 250.0)
        exact = ipq_probability(issuer_pdf, SPEC, location)
        sampled = basic_ipq_probability(issuer_pdf, SPEC, location, issuer_samples=2_500)
        assert sampled == pytest.approx(exact, abs=0.03)


class TestBasicIUQProbability:
    def test_agrees_with_exact_uniform(self):
        issuer_pdf = UniformPdf(ISSUER_REGION)
        target = UncertainObject.uniform(1, Rect(800.0, 100.0, 1_000.0, 400.0))
        exact = iuq_probability_exact_uniform(issuer_pdf, target, SPEC)
        sampled = basic_iuq_probability(issuer_pdf, target, SPEC, issuer_samples=2_500)
        assert sampled == pytest.approx(exact, abs=0.02)

    def test_zero_for_far_away_objects(self):
        issuer_pdf = UniformPdf(ISSUER_REGION)
        target = UncertainObject.uniform(1, Rect(8_000.0, 8_000.0, 8_100.0, 8_100.0))
        assert basic_iuq_probability(issuer_pdf, target, SPEC) == 0.0


class TestBasicEvaluator:
    def _issuer(self) -> UncertainObject:
        return UncertainObject.uniform(0, ISSUER_REGION)

    def test_rejects_bad_sample_count(self):
        with pytest.raises(ValueError):
            BasicEvaluator(issuer_samples=0)

    def test_ipq_end_to_end(self):
        objects = [
            PointObject.at(1, 250.0, 250.0),     # always inside
            PointObject.at(2, 900.0, 250.0),     # sometimes inside
            PointObject.at(3, 5_000.0, 5_000.0), # never inside
        ]
        query = RangeQuery(issuer=self._issuer(), spec=SPEC)
        result, stats = BasicEvaluator(issuer_samples=400).evaluate_ipq(query, objects)
        probabilities = result.probabilities()
        assert probabilities[1] == pytest.approx(1.0)
        assert 0.0 < probabilities[2] < 1.0
        assert 3 not in probabilities
        assert stats.results_returned == 2
        assert stats.response_time > 0.0

    def test_iuq_end_to_end(self):
        objects = [
            UncertainObject.uniform(1, Rect(200.0, 200.0, 300.0, 300.0)),
            UncertainObject.uniform(2, Rect(7_000.0, 7_000.0, 7_100.0, 7_100.0)),
        ]
        query = RangeQuery(issuer=self._issuer(), spec=SPEC)
        result, stats = BasicEvaluator(issuer_samples=400).evaluate_iuq(query, objects)
        assert result.oids() == {1}
        assert stats.candidates_examined == 1  # object 2 filtered by expansion

    def test_threshold_respected(self):
        objects = [PointObject.at(1, 900.0, 250.0)]  # partial probability
        query = RangeQuery(issuer=self._issuer(), spec=SPEC, threshold=0.99)
        result, _ = BasicEvaluator(issuer_samples=400).evaluate_ipq(query, objects)
        assert len(result) == 0

    def test_without_expansion_filter_examines_everything(self):
        objects = [
            PointObject.at(1, 250.0, 250.0),
            PointObject.at(2, 9_000.0, 9_000.0),
        ]
        query = RangeQuery(issuer=self._issuer(), spec=SPEC)
        evaluator = BasicEvaluator(issuer_samples=100, use_expansion_filter=False)
        _, stats = evaluator.evaluate_ipq(query, objects)
        assert stats.candidates_examined == 2
