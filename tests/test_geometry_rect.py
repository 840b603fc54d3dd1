"""Unit tests for :mod:`repro.geometry.rect`."""

import math
import random
import struct

import pytest

from repro.geometry.interval import Interval
from repro.geometry.point import Point
from repro.geometry.rect import Rect


class TestConstruction:
    def test_from_center(self):
        rect = Rect.from_center(Point(5.0, 5.0), 2.0, 3.0)
        assert rect == Rect(3.0, 2.0, 7.0, 8.0)

    def test_from_center_rejects_negative_extents(self):
        with pytest.raises(ValueError):
            Rect.from_center(Point(0.0, 0.0), -1.0, 1.0)

    def test_from_point_is_degenerate(self):
        rect = Rect.from_point(Point(1.0, 2.0))
        assert rect.area == 0.0
        assert not rect.is_empty
        assert rect.contains_point(Point(1.0, 2.0))

    def test_from_intervals(self):
        rect = Rect.from_intervals(Interval(0.0, 2.0), Interval(1.0, 3.0))
        assert rect == Rect(0.0, 1.0, 2.0, 3.0)

    def test_from_intervals_empty(self):
        assert Rect.from_intervals(Interval.empty(), Interval(0.0, 1.0)).is_empty

    def test_bounding(self):
        rects = [Rect(0.0, 0.0, 1.0, 1.0), Rect(5.0, 5.0, 6.0, 7.0)]
        assert Rect.bounding(rects) == Rect(0.0, 0.0, 6.0, 7.0)

    def test_bounding_empty_list(self):
        assert Rect.bounding([]).is_empty

    def test_bounding_is_bitwise_the_union_fold(self):
        """One min/max pass equals folding ``union_bounds`` from the left,
        bit for bit: signed zeros, infinities, NaN and empty members too."""
        rng = random.Random(39)
        values = [0.0, -0.0, 1.0, -1.0, 2.5, 3.0, math.inf, -math.inf, math.nan]
        for _ in range(20_000):
            rects = [
                Rect(*(rng.choice(values) for _ in range(4))) for _ in range(rng.randrange(7))
            ]
            folded = Rect.empty()
            for rect in rects:
                folded = folded.union_bounds(rect)
            assert struct.pack("<4d", *Rect.bounding(rects).as_tuple()) == struct.pack(
                "<4d", *folded.as_tuple()
            )

    def test_from_rows_equals_the_constructor(self):
        rows = [(0.0, 1.0, 2.0, 3.0), (-0.0, -5.5, math.inf, 7.0)]
        built = Rect.from_rows(rows)
        assert built == [Rect(*row) for row in rows]
        assert [hash(rect) for rect in built] == [hash(Rect(*row)) for row in rows]


class TestProperties:
    def test_dimensions(self):
        rect = Rect(0.0, 0.0, 4.0, 2.0)
        assert rect.width == 4.0
        assert rect.height == 2.0
        assert rect.area == 8.0
        assert rect.half_perimeter == 6.0

    def test_center(self):
        assert Rect(0.0, 0.0, 4.0, 2.0).center == Point(2.0, 1.0)

    def test_corners(self):
        corners = list(Rect(0.0, 0.0, 1.0, 1.0).corners())
        assert len(corners) == 4
        assert Point(0.0, 0.0) in corners
        assert Point(1.0, 1.0) in corners

    def test_empty_rect_properties(self):
        rect = Rect.empty()
        assert rect.is_empty
        assert rect.area == 0.0
        assert rect.width == 0.0


class TestPredicates:
    def test_contains_point(self):
        rect = Rect(0.0, 0.0, 10.0, 10.0)
        assert rect.contains_point(Point(5.0, 5.0))
        assert rect.contains_point(Point(0.0, 10.0))
        assert not rect.contains_point(Point(10.1, 5.0))

    def test_contains_rect(self):
        outer = Rect(0.0, 0.0, 10.0, 10.0)
        assert outer.contains_rect(Rect(1.0, 1.0, 9.0, 9.0))
        assert outer.contains_rect(outer)
        assert not outer.contains_rect(Rect(1.0, 1.0, 11.0, 9.0))

    def test_contains_empty_rect(self):
        assert Rect(0.0, 0.0, 1.0, 1.0).contains_rect(Rect.empty())

    def test_overlaps(self):
        a = Rect(0.0, 0.0, 5.0, 5.0)
        assert a.overlaps(Rect(5.0, 5.0, 6.0, 6.0))  # corner touch counts
        assert a.overlaps(Rect(2.0, 2.0, 3.0, 3.0))
        assert not a.overlaps(Rect(6.0, 6.0, 7.0, 7.0))

    def test_overlaps_with_empty_is_false(self):
        assert not Rect(0.0, 0.0, 1.0, 1.0).overlaps(Rect.empty())

    def test_is_disjoint_from(self):
        assert Rect(0.0, 0.0, 1.0, 1.0).is_disjoint_from(Rect(2.0, 2.0, 3.0, 3.0))


class TestArithmetic:
    def test_intersect(self):
        a = Rect(0.0, 0.0, 5.0, 5.0)
        b = Rect(3.0, 2.0, 8.0, 9.0)
        assert a.intersect(b) == Rect(3.0, 2.0, 5.0, 5.0)

    def test_intersection_area(self):
        a = Rect(0.0, 0.0, 5.0, 5.0)
        b = Rect(3.0, 2.0, 8.0, 9.0)
        assert a.intersection_area(b) == pytest.approx(2.0 * 3.0)

    def test_intersection_area_disjoint_is_zero(self):
        assert Rect(0.0, 0.0, 1.0, 1.0).intersection_area(Rect(5.0, 5.0, 6.0, 6.0)) == 0.0

    def test_union_bounds(self):
        a = Rect(0.0, 0.0, 1.0, 1.0)
        b = Rect(3.0, -1.0, 4.0, 0.5)
        assert a.union_bounds(b) == Rect(0.0, -1.0, 4.0, 1.0)

    def test_union_bounds_with_empty(self):
        a = Rect(0.0, 0.0, 1.0, 1.0)
        assert a.union_bounds(Rect.empty()) == a
        assert Rect.empty().union_bounds(a) == a

    def test_expand(self):
        rect = Rect(0.0, 0.0, 2.0, 2.0)
        assert rect.expand(1.0) == Rect(-1.0, -1.0, 3.0, 3.0)
        assert rect.expand(1.0, 2.0) == Rect(-1.0, -2.0, 3.0, 4.0)

    def test_shrink_past_empty(self):
        assert Rect(0.0, 0.0, 2.0, 2.0).shrink(2.0).is_empty

    def test_translate(self):
        assert Rect(0.0, 0.0, 1.0, 1.0).translate(2.0, 3.0) == Rect(2.0, 3.0, 3.0, 4.0)

    def test_minkowski_sum_matches_expand_for_centered_rect(self):
        # Summing with a rectangle centred at the origin is the same as
        # expanding by its half-extents — the identity behind query expansion.
        base = Rect(10.0, 10.0, 20.0, 20.0)
        addend = Rect(-3.0, -4.0, 3.0, 4.0)
        assert base.minkowski_sum(addend) == base.expand(3.0, 4.0)

    def test_minkowski_sum_area(self):
        a = Rect(0.0, 0.0, 2.0, 2.0)
        b = Rect(0.0, 0.0, 4.0, 6.0)
        summed = a.minkowski_sum(b)
        assert summed.width == a.width + b.width
        assert summed.height == a.height + b.height

    def test_enlargement_to_include(self):
        a = Rect(0.0, 0.0, 2.0, 2.0)
        assert a.enlargement_to_include(Rect(1.0, 1.0, 1.5, 1.5)) == 0.0
        assert a.enlargement_to_include(Rect(0.0, 0.0, 4.0, 2.0)) == pytest.approx(4.0)


class TestDistances:
    def test_min_distance_to_point_inside_is_zero(self):
        assert Rect(0.0, 0.0, 10.0, 10.0).min_distance_to_point(Point(5.0, 5.0)) == 0.0

    def test_min_distance_to_point_outside(self):
        assert Rect(0.0, 0.0, 10.0, 10.0).min_distance_to_point(Point(13.0, 14.0)) == 5.0

    def test_min_distance_to_rect_overlapping_is_zero(self):
        a = Rect(0.0, 0.0, 5.0, 5.0)
        assert a.min_distance_to_rect(Rect(4.0, 4.0, 6.0, 6.0)) == 0.0

    def test_min_distance_to_rect_diagonal(self):
        a = Rect(0.0, 0.0, 1.0, 1.0)
        b = Rect(4.0, 5.0, 6.0, 7.0)
        assert a.min_distance_to_rect(b) == pytest.approx(5.0)

    def test_max_distance_to_point(self):
        rect = Rect(0.0, 0.0, 10.0, 10.0)
        assert rect.max_distance_to_point(Point(0.0, 0.0)) == pytest.approx((200.0) ** 0.5)

    def test_distance_to_empty_raises(self):
        with pytest.raises(ValueError):
            Rect.empty().min_distance_to_point(Point(0.0, 0.0))
