"""Parity suite: the vectorized backend must equal the scalar oracle.

Acceptance criteria of the vectorized-backend change: identical answer sets
(same oids), probabilities within 1e-9, and — for Monte-Carlo evaluation —
bitwise-identical draws given the same seed (verified through exact equality
of the resulting probabilities), across all four query flavours plus the
empty-candidate and all-pruned edge cases.
"""

from __future__ import annotations

import pytest

from repro.core.basic import BasicEvaluator
from repro.core.engine import EngineConfig, ImpreciseQueryEngine, UncertainDatabase
from repro.core.queries import RangeQuery, RangeQuerySpec
from repro.datasets.workload import QueryWorkload
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.uncertainty.pdf import TruncatedGaussianPdf, UniformPdf
from repro.uncertainty.region import UncertainObject

from tests.conftest import TEST_SPACE


def _engine_pair(*, point_db=None, uncertain_db=None, **overrides):
    """A (scalar, vectorized) engine pair over the same databases and seed."""
    scalar = ImpreciseQueryEngine(
        point_db=point_db,
        uncertain_db=uncertain_db,
        config=EngineConfig(vectorized=False).with_overrides(**overrides),
    )
    vectorized = ImpreciseQueryEngine(
        point_db=point_db,
        uncertain_db=uncertain_db,
        config=EngineConfig(vectorized=True).with_overrides(**overrides),
    )
    return scalar, vectorized


def _queries(count, *, target, threshold=0.0, pdf="uniform", seed=99):
    workload = QueryWorkload(bounds=TEST_SPACE, issuer_pdf=pdf, seed=seed)
    return [
        RangeQuery(issuer=issuer, spec=workload.spec, threshold=threshold, target=target)
        for issuer in workload.issuers(count)
    ]


def _assert_parity(scalar_eval, vector_eval, *, exact=False):
    scalar_probs = scalar_eval.probabilities()
    vector_probs = vector_eval.probabilities()
    assert vector_probs.keys() == scalar_probs.keys()
    if exact:
        assert vector_probs == scalar_probs
    else:
        for oid, probability in scalar_probs.items():
            assert vector_probs[oid] == pytest.approx(probability, abs=1e-9)


class TestEngineParity:
    """vectorized=True equals vectorized=False for every query flavour."""

    def test_ipq_parity(self, point_db):
        scalar, vectorized = _engine_pair(point_db=point_db)
        for query in _queries(10, target="points"):
            s = scalar.evaluate(query)
            v = vectorized.evaluate(query)
            _assert_parity(s, v)
            assert s.statistics.candidates_examined == v.statistics.candidates_examined

    def test_cipq_parity(self, point_db):
        scalar, vectorized = _engine_pair(point_db=point_db)
        for query in _queries(10, target="points", threshold=0.3):
            _assert_parity(scalar.evaluate(query), vectorized.evaluate(query))

    def test_iuq_parity(self, uncertain_db):
        scalar, vectorized = _engine_pair(uncertain_db=uncertain_db)
        answered = 0
        for query in _queries(10, target="uncertain"):
            s = scalar.evaluate(query)
            v = vectorized.evaluate(query)
            _assert_parity(s, v)
            answered += len(v)
        assert answered > 0

    def test_ciuq_parity(self, uncertain_db):
        scalar, vectorized = _engine_pair(uncertain_db=uncertain_db)
        for query in _queries(10, target="uncertain", threshold=0.5):
            s = scalar.evaluate(query)
            v = vectorized.evaluate(query)
            _assert_parity(s, v)
            assert s.statistics.pruned == v.statistics.pruned

    def test_ciuq_parity_on_plain_rtree(self, uncertain_db_rtree):
        """Without PTI-level pruning all three strategies run per object."""
        scalar, vectorized = _engine_pair(uncertain_db=uncertain_db_rtree)
        for query in _queries(8, target="uncertain", threshold=0.4):
            s = scalar.evaluate(query)
            v = vectorized.evaluate(query)
            _assert_parity(s, v)
            assert s.statistics.pruned == v.statistics.pruned

    def test_monte_carlo_draws_bitwise_identical(self, point_db, uncertain_db):
        """Same seed → same draws → exactly equal sampled probabilities."""
        for target, db_kwargs in (
            ("points", {"point_db": point_db}),
            ("uncertain", {"uncertain_db": uncertain_db}),
        ):
            scalar, vectorized = _engine_pair(
                probability_method="monte_carlo",
                monte_carlo_samples=64,
                **db_kwargs,
            )
            for query in _queries(6, target=target, threshold=0.2):
                _assert_parity(
                    scalar.evaluate(query), vectorized.evaluate(query), exact=True
                )

    def test_gaussian_issuer_auto_method_parity(self, point_db):
        """A Gaussian issuer on 'auto' exercises the closed-form array kernel."""
        scalar, vectorized = _engine_pair(point_db=point_db)
        for query in _queries(6, target="points", pdf="gaussian"):
            _assert_parity(scalar.evaluate(query), vectorized.evaluate(query))

    def test_mixed_pdf_targets_parity(self, uniform_issuer, default_spec):
        """Uniform and Gaussian targets in one database split across kernels."""
        objects = []
        for i in range(30):
            region = Rect.from_center(
                Point(4_000.0 + 70.0 * i, 5_000.0 - 40.0 * i), 120.0, 90.0
            )
            pdf = UniformPdf(region) if i % 2 == 0 else TruncatedGaussianPdf(region)
            objects.append(UncertainObject(oid=i + 1, pdf=pdf))
        db = UncertainDatabase.build(objects, index_kind="rtree")
        for method in ("auto", "exact", "monte_carlo"):
            scalar, vectorized = _engine_pair(
                uncertain_db=db, probability_method=method
            )
            query = RangeQuery.iuq(uniform_issuer, default_spec)
            s = scalar.evaluate(query)
            v = vectorized.evaluate(query)
            assert len(s) > 0
            _assert_parity(s, v, exact=(method == "monte_carlo"))

    def test_empty_candidates(self, point_db, uncertain_db):
        """An issuer far outside the data space matches nothing in both modes."""
        region = Rect.from_center(Point(90_000.0, 90_000.0), 250.0, 250.0)
        issuer = UncertainObject(oid=0, pdf=UniformPdf(region)).with_catalog()
        spec = RangeQuerySpec.square(500.0)
        scalar, vectorized = _engine_pair(point_db=point_db, uncertain_db=uncertain_db)
        for query in (RangeQuery.ipq(issuer, spec), RangeQuery.iuq(issuer, spec)):
            s = scalar.evaluate(query)
            v = vectorized.evaluate(query)
            assert len(s) == 0
            assert len(v) == 0
            assert v.statistics.candidates_examined == s.statistics.candidates_examined

    def test_all_pruned(self, uncertain_db):
        """A tiny range with a near-1 threshold prunes every candidate."""
        region = Rect.from_center(Point(5_000.0, 5_000.0), 1_000.0, 1_000.0)
        issuer = UncertainObject(oid=0, pdf=UniformPdf(region)).with_catalog()
        query = RangeQuery.ciuq(issuer, RangeQuerySpec.square(10.0), 0.99)
        scalar, vectorized = _engine_pair(uncertain_db=uncertain_db)
        s = scalar.evaluate(query)
        v = vectorized.evaluate(query)
        assert len(s) == 0
        assert len(v) == 0
        assert s.statistics.pruned == v.statistics.pruned


class TestEvaluateManyParity:
    def test_batch_vectorized_matches_scalar_loop(self, point_db, uncertain_db):
        queries = _queries(8, target="points", threshold=0.25) + _queries(
            8, target="uncertain", threshold=0.4
        )
        scalar, vectorized = _engine_pair(point_db=point_db, uncertain_db=uncertain_db)
        sequential = [scalar.evaluate(query) for query in queries]
        batch = vectorized.evaluate_many(queries)
        for s, v in zip(sequential, batch):
            _assert_parity(s, v)

    def test_batch_vectorized_matches_vectorized_loop_exactly(self, point_db):
        """The columnar batch filter changes I/O, never the answers."""
        queries = _queries(10, target="points", threshold=0.3)
        _, vectorized = _engine_pair(point_db=point_db)
        sequential = [vectorized.evaluate(query) for query in queries]
        batch = vectorized.evaluate_many(queries)
        for s, v in zip(sequential, batch):
            _assert_parity(s, v, exact=True)
            assert s.statistics.candidates_examined == v.statistics.candidates_examined


class TestBasicEvaluatorParity:
    def _issuer(self, pdf="uniform"):
        region = Rect.from_center(Point(5_000.0, 5_000.0), 400.0, 400.0)
        cls = UniformPdf if pdf == "uniform" else TruncatedGaussianPdf
        return UncertainObject(oid=0, pdf=cls(region))

    @pytest.mark.parametrize("pdf", ["uniform", "gaussian"])
    def test_basic_ipq_parity(self, small_points, pdf):
        query = RangeQuery(
            issuer=self._issuer(pdf), spec=RangeQuerySpec.square(500.0)
        )
        scalar, _ = BasicEvaluator(issuer_samples=100, vectorized=False).evaluate_ipq(
            query, small_points
        )
        vectorized, _ = BasicEvaluator(issuer_samples=100, vectorized=True).evaluate_ipq(
            query, small_points
        )
        assert vectorized.oids() == scalar.oids()
        assert len(scalar) > 0
        scalar_probs = scalar.probabilities()
        for oid, probability in vectorized.probabilities().items():
            assert probability == pytest.approx(scalar_probs[oid], abs=1e-9)

    @pytest.mark.parametrize("pdf", ["uniform", "gaussian"])
    def test_basic_iuq_parity(self, small_uncertain, pdf):
        query = RangeQuery(
            issuer=self._issuer(pdf), spec=RangeQuerySpec.square(500.0)
        )
        scalar, _ = BasicEvaluator(issuer_samples=100, vectorized=False).evaluate_iuq(
            query, small_uncertain
        )
        vectorized, _ = BasicEvaluator(issuer_samples=100, vectorized=True).evaluate_iuq(
            query, small_uncertain
        )
        assert vectorized.oids() == scalar.oids()
        assert len(scalar) > 0
        scalar_probs = scalar.probabilities()
        for oid, probability in vectorized.probabilities().items():
            assert probability == pytest.approx(scalar_probs[oid], abs=1e-9)

    def test_basic_empty_object_list(self):
        query = RangeQuery(issuer=self._issuer(), spec=RangeQuerySpec.square(500.0))
        for vectorized in (False, True):
            evaluator = BasicEvaluator(issuer_samples=64, vectorized=vectorized)
            result, stats = evaluator.evaluate_ipq(query, [])
            assert len(result) == 0
            assert stats.candidates_examined == 0
            result, stats = evaluator.evaluate_iuq(query, [])
            assert len(result) == 0
            assert stats.candidates_examined == 0
