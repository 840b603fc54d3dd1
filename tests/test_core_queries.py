"""Unit tests for query and answer types."""

import pytest

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.core.queries import QueryAnswer, QueryResult, RangeQuery, RangeQuerySpec
from repro.uncertainty.region import UncertainObject


class TestRangeQuerySpec:
    def test_square(self):
        spec = RangeQuerySpec.square(500.0)
        assert spec.half_width == 500.0
        assert spec.half_height == 500.0

    def test_rejects_negative_extents(self):
        with pytest.raises(ValueError):
            RangeQuerySpec(-1.0, 1.0)

    def test_region_at(self):
        spec = RangeQuerySpec(10.0, 20.0)
        assert spec.region_at(Point(100.0, 200.0)) == Rect(90.0, 180.0, 110.0, 220.0)

    def test_area(self):
        assert RangeQuerySpec(10.0, 20.0).area == 800.0


class TestRangeQuery:
    def _issuer(self) -> UncertainObject:
        return UncertainObject.uniform(0, Rect(0.0, 0.0, 100.0, 100.0))

    def test_defaults_to_unconstrained(self):
        query = RangeQuery(issuer=self._issuer(), spec=RangeQuerySpec.square(50.0))
        assert query.threshold == 0.0
        assert not query.is_constrained

    def test_constrained_flag(self):
        query = RangeQuery(
            issuer=self._issuer(), spec=RangeQuerySpec.square(50.0), threshold=0.3
        )
        assert query.is_constrained

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            RangeQuery(
                issuer=self._issuer(), spec=RangeQuerySpec.square(50.0), threshold=1.5
            )

    def test_issuer_region_and_range_at(self):
        query = RangeQuery(issuer=self._issuer(), spec=RangeQuerySpec.square(10.0))
        assert query.issuer_region == Rect(0.0, 0.0, 100.0, 100.0)
        assert query.range_at(Point(50.0, 50.0)) == Rect(40.0, 40.0, 60.0, 60.0)


class TestQueryAnswer:
    def test_valid_answer(self):
        answer = QueryAnswer(oid=1, probability=0.5)
        assert answer.probability == 0.5

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            QueryAnswer(oid=1, probability=1.5)


class TestQueryResult:
    def test_add_and_len(self):
        result = QueryResult()
        result.add(1, 0.5)
        result.add(2, 0.9)
        assert len(result) == 2

    def test_sort_orders_by_probability_descending(self):
        result = QueryResult()
        result.add(1, 0.2)
        result.add(2, 0.9)
        result.add(3, 0.5)
        result.sort()
        assert [a.oid for a in result] == [2, 3, 1]

    def test_sort_breaks_ties_by_oid(self):
        result = QueryResult()
        result.add(5, 0.5)
        result.add(2, 0.5)
        result.sort()
        assert [a.oid for a in result] == [2, 5]

    def test_probabilities_mapping(self):
        result = QueryResult()
        result.add(1, 0.25)
        assert result.probabilities() == {1: 0.25}

    def test_oids(self):
        result = QueryResult()
        result.add(1, 0.25)
        result.add(7, 0.75)
        assert result.oids() == {1, 7}

    def test_above_threshold(self):
        result = QueryResult()
        result.add(1, 0.25)
        result.add(2, 0.75)
        filtered = result.above_threshold(0.5)
        assert filtered.oids() == {2}
        # Original is untouched.
        assert len(result) == 2
