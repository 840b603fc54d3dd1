"""Axis-parallel rectangles.

The paper assumes that all uncertainty regions and query ranges are
axis-parallel rectangles (Section 3.1), which makes rectangles the central
geometric type of the reproduction.  A :class:`Rect` is simply the cartesian
product of two :class:`~repro.geometry.interval.Interval` objects.
"""

from __future__ import annotations
from repro.errors import GeometryError

from dataclasses import dataclass
from operator import attrgetter, gt
from typing import Iterable, Iterator, Sequence

from repro.geometry.interval import Interval
from repro.geometry.point import Point


@dataclass(frozen=True, slots=True)
class Rect:
    """A closed axis-parallel rectangle ``[xmin, xmax] × [ymin, ymax]``.

    The rectangle is *empty* when either axis interval is empty.  Degenerate
    rectangles (zero width and/or zero height) are valid; point objects are
    modelled as zero-extent rectangles when inserted into spatial indexes.
    """

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def empty() -> "Rect":
        """Return a canonical empty rectangle."""
        return Rect(1.0, 1.0, 0.0, 0.0)

    @staticmethod
    def from_intervals(x: Interval, y: Interval) -> "Rect":
        """Build a rectangle from its per-axis intervals."""
        if x.is_empty or y.is_empty:
            return Rect.empty()
        return Rect(x.low, y.low, x.high, y.high)

    @staticmethod
    def from_center(center: Point, half_width: float, half_height: float) -> "Rect":
        """Build the rectangle centred at ``center`` with the given half-extents.

        This mirrors the paper's range query ``R(x, y)`` with half-width ``w``
        and half-height ``h`` centred at the query issuer's position.
        """
        if half_width < 0 or half_height < 0:
            raise GeometryError("half extents must be non-negative")
        return Rect(
            center.x - half_width,
            center.y - half_height,
            center.x + half_width,
            center.y + half_height,
        )

    @staticmethod
    def from_point(point: Point) -> "Rect":
        """Return the degenerate rectangle covering a single point."""
        return Rect(point.x, point.y, point.x, point.y)

    @staticmethod
    def from_rows(rows: "Iterable[Sequence[float]]") -> "list[Rect]":
        """Rectangles from ``(xmin, ymin, xmax, ymax)`` rows, as ``Rect(*row)``.

        Bulk builders (U-catalogs) make hundreds of thousands of rectangles;
        filling the slots directly skips the frozen-dataclass ``__init__``,
        which has nothing else to do.
        """
        rects = []
        for xmin, ymin, xmax, ymax in rows:
            rect = _new_rect(Rect)
            _set_xmin(rect, xmin)
            _set_ymin(rect, ymin)
            _set_xmax(rect, xmax)
            _set_ymax(rect, ymax)
            rects.append(rect)
        return rects

    @staticmethod
    def bounding(rects: "list[Rect]") -> "Rect":
        """Return the minimum bounding rectangle of a list of rectangles.

        Empty rectangles are skipped (all empty: the last one is returned,
        none at all: :meth:`empty`).  One ``min``/``max`` pass per side over
        the rest keeps the first of equal values, exactly like folding
        :meth:`union_bounds` from the left, so the result is bitwise that
        fold's.
        """
        if len(rects) <= 1:
            return rects[0] if rects else Rect.empty()
        xmins = list(map(_XMIN, rects))
        ymins = list(map(_YMIN, rects))
        xmaxs = list(map(_XMAX, rects))
        ymaxs = list(map(_YMAX, rects))
        if any(map(gt, xmins, xmaxs)) or any(map(gt, ymins, ymaxs)):
            live = [rect for rect in rects if not rect.is_empty]
            if not live:
                return rects[-1]
            return Rect.bounding(live)
        return Rect(min(xmins), min(ymins), max(xmaxs), max(ymaxs))

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def is_empty(self) -> bool:
        """True when the rectangle contains no points."""
        return self.xmin > self.xmax or self.ymin > self.ymax

    @property
    def x_interval(self) -> Interval:
        """Projection of the rectangle onto the x axis."""
        if self.is_empty:
            return Interval.empty()
        return Interval(self.xmin, self.xmax)

    @property
    def y_interval(self) -> Interval:
        """Projection of the rectangle onto the y axis."""
        if self.is_empty:
            return Interval.empty()
        return Interval(self.ymin, self.ymax)

    # The extent properties are the R-tree maintenance hot path (node splits
    # evaluate them hundreds of thousands of times); they use direct
    # arithmetic instead of delegating to Interval objects.
    @property
    def width(self) -> float:
        """Extent along the x axis (0 for empty rectangles)."""
        return self.xmax - self.xmin if self.xmax >= self.xmin else 0.0

    @property
    def height(self) -> float:
        """Extent along the y axis (0 for empty rectangles)."""
        return self.ymax - self.ymin if self.ymax >= self.ymin else 0.0

    @property
    def area(self) -> float:
        """Area of the rectangle (0 for empty or degenerate rectangles)."""
        if self.xmax <= self.xmin or self.ymax <= self.ymin:
            return 0.0
        return (self.xmax - self.xmin) * (self.ymax - self.ymin)

    @property
    def half_perimeter(self) -> float:
        """Half the perimeter (the classical R-tree 'margin' measure)."""
        return self.width + self.height

    @property
    def center(self) -> Point:
        """Centre point of the rectangle."""
        return Point((self.xmin + self.xmax) / 2.0, (self.ymin + self.ymax) / 2.0)

    def corners(self) -> Iterator[Point]:
        """Yield the four corners in counter-clockwise order."""
        yield Point(self.xmin, self.ymin)
        yield Point(self.xmax, self.ymin)
        yield Point(self.xmax, self.ymax)
        yield Point(self.xmin, self.ymax)

    # ------------------------------------------------------------------ #
    # Predicates
    # ------------------------------------------------------------------ #
    def contains_point(self, point: Point) -> bool:
        """True when ``point`` lies inside the closed rectangle."""
        if self.is_empty:
            return False
        return self.xmin <= point.x <= self.xmax and self.ymin <= point.y <= self.ymax

    def contains_rect(self, other: "Rect") -> bool:
        """True when ``other`` is entirely inside this rectangle."""
        if other.is_empty:
            return True
        if self.is_empty:
            return False
        return (
            self.xmin <= other.xmin
            and other.xmax <= self.xmax
            and self.ymin <= other.ymin
            and other.ymax <= self.ymax
        )

    def overlaps(self, other: "Rect") -> bool:
        """True when the closed rectangles share at least one point."""
        if self.is_empty or other.is_empty:
            return False
        return (
            self.xmin <= other.xmax
            and other.xmin <= self.xmax
            and self.ymin <= other.ymax
            and other.ymin <= self.ymax
        )

    def is_disjoint_from(self, other: "Rect") -> bool:
        """True when the rectangles do not intersect."""
        return not self.overlaps(other)

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def intersect(self, other: "Rect") -> "Rect":
        """Return the intersection rectangle (possibly empty)."""
        return Rect.from_intervals(
            self.x_interval.intersect(other.x_interval),
            self.y_interval.intersect(other.y_interval),
        )

    def intersection_area(self, other: "Rect") -> float:
        """Area of the intersection of the two rectangles."""
        return self.intersect(other).area

    def union_bounds(self, other: "Rect") -> "Rect":
        """Return the minimum bounding rectangle of the two rectangles."""
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        return Rect(
            min(self.xmin, other.xmin),
            min(self.ymin, other.ymin),
            max(self.xmax, other.xmax),
            max(self.ymax, other.ymax),
        )

    def expand(self, dx: float, dy: float | None = None) -> "Rect":
        """Grow the rectangle by ``dx`` on the left/right and ``dy`` on the top/bottom.

        With only ``dx`` given, both axes are expanded by the same amount.
        Expanding the query issuer's uncertainty region by the query half-width
        and half-height is exactly the rectangle Minkowski sum (Section 4.1).
        """
        if self.is_empty:
            return self
        if dy is None:
            dy = dx
        return Rect.from_intervals(self.x_interval.expand(dx), self.y_interval.expand(dy))

    def shrink(self, dx: float, dy: float | None = None) -> "Rect":
        """Shrink the rectangle; returns an empty rectangle when over-shrunk."""
        if dy is None:
            dy = dx
        return self.expand(-dx, -dy)

    def translate(self, dx: float, dy: float) -> "Rect":
        """Shift the rectangle by ``(dx, dy)``."""
        if self.is_empty:
            return self
        return Rect(self.xmin + dx, self.ymin + dy, self.xmax + dx, self.ymax + dy)

    def minkowski_sum(self, other: "Rect") -> "Rect":
        """Minkowski sum of two axis-parallel rectangles (again a rectangle)."""
        return Rect.from_intervals(
            self.x_interval.minkowski_sum(other.x_interval),
            self.y_interval.minkowski_sum(other.y_interval),
        )

    def enlargement_to_include(self, other: "Rect") -> float:
        """Area increase needed to make this rectangle cover ``other``.

        This is the standard R-tree insertion heuristic (Guttman, 1984).
        Computed arithmetically — no intermediate rectangle — because node
        splits call this in a tight loop.
        """
        if other.is_empty:
            return 0.0
        if self.is_empty:
            return other.area
        width = max(self.xmax, other.xmax) - min(self.xmin, other.xmin)
        height = max(self.ymax, other.ymax) - min(self.ymin, other.ymin)
        return width * height - self.area

    def min_distance_to_point(self, point: Point) -> float:
        """Euclidean distance from ``point`` to the closest point of the rectangle."""
        if self.is_empty:
            raise GeometryError("distance to an empty rectangle is undefined")
        dx = self.x_interval.distance_to(point.x)
        dy = self.y_interval.distance_to(point.y)
        return (dx * dx + dy * dy) ** 0.5

    def min_distance_to_rect(self, other: "Rect") -> float:
        """Minimum Euclidean distance between two rectangles (0 when overlapping)."""
        if self.is_empty or other.is_empty:
            raise GeometryError("distance to an empty rectangle is undefined")
        dx = 0.0
        if other.xmax < self.xmin:
            dx = self.xmin - other.xmax
        elif self.xmax < other.xmin:
            dx = other.xmin - self.xmax
        dy = 0.0
        if other.ymax < self.ymin:
            dy = self.ymin - other.ymax
        elif self.ymax < other.ymin:
            dy = other.ymin - self.ymax
        return (dx * dx + dy * dy) ** 0.5

    def max_distance_to_point(self, point: Point) -> float:
        """Euclidean distance from ``point`` to the farthest point of the rectangle."""
        if self.is_empty:
            raise GeometryError("distance to an empty rectangle is undefined")
        dx = max(abs(point.x - self.xmin), abs(point.x - self.xmax))
        dy = max(abs(point.y - self.ymin), abs(point.y - self.ymax))
        return (dx * dx + dy * dy) ** 0.5

    def as_tuple(self) -> tuple[float, float, float, float]:
        """Return ``(xmin, ymin, xmax, ymax)``."""
        return (self.xmin, self.ymin, self.xmax, self.ymax)


_XMIN = attrgetter("xmin")
_YMIN = attrgetter("ymin")
_XMAX = attrgetter("xmax")
_YMAX = attrgetter("ymax")
_new_rect = object.__new__
_set_xmin = Rect.xmin.__set__  # type: ignore[attr-defined]
_set_ymin = Rect.ymin.__set__  # type: ignore[attr-defined]
_set_xmax = Rect.xmax.__set__  # type: ignore[attr-defined]
_set_ymax = Rect.ymax.__set__  # type: ignore[attr-defined]
