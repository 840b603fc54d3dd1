"""Threshold-based pruning for constrained imprecise queries (Section 5).

C-IPQ pruning is a single geometric test: a point object lying outside the
issuer's Qp-expanded-query cannot reach the threshold (Definition 7), so the
expanded query itself doubles as the index window.

C-IUQ pruning combines three strategies (Section 5.2):

* **Strategy 1 (p-bound of the object).**  If the part of the object's region
  that intersects the Minkowski-expanded query lies entirely beyond the
  object's ``m``-bound (for some stored level ``m ≤ Qp``), the object's mass
  inside the expanded query is at most ``m ≤ Qp`` and it can be pruned.
* **Strategy 2 (p-expanded-query).**  If the object's whole region misses the
  issuer's Qp-expanded-query, then ``Q(x, y) ≤ Qp`` everywhere on the region
  and the object can be pruned.
* **Strategy 3 (product bound).**  When neither single test fires, an upper
  bound ``d`` on the object's mass in the expanded query (from the object's
  catalog, level ≥ Qp) and an upper bound ``q`` on ``Q`` over the region
  (from the issuer's catalog, level ≥ Qp) are multiplied; if ``d · q < Qp``
  the object is pruned.

All three tests only involve pre-computed rectangles and constant-time
overlap checks, which is what makes them much cheaper than computing the
exact qualification probability.
"""

from __future__ import annotations
from repro.core.errors import InvalidQueryError

import enum
from dataclasses import dataclass

import numpy as np

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.core.columnar import bounds_overlap_window_mask
from repro.core.expansion import (
    minkowski_expanded_query,
    p_expanded_query,
    p_expanded_query_from_catalog,
)
from repro.core.queries import RangeQuerySpec
from repro.uncertainty.region import PointObject, UncertainObject


class PruningStrategy(enum.Enum):
    """The C-IUQ pruning strategies of Section 5.2."""

    P_BOUND = "p_bound"
    P_EXPANDED_QUERY = "p_expanded_query"
    PRODUCT_BOUND = "product_bound"


#: All strategies, in the (cheap-to-expensive) order they are attempted.
ALL_STRATEGIES: tuple[PruningStrategy, ...] = (
    PruningStrategy.P_EXPANDED_QUERY,
    PruningStrategy.P_BOUND,
    PruningStrategy.PRODUCT_BOUND,
)


@dataclass(frozen=True, slots=True)
class PruneDecision:
    """Outcome of the pruning tests for one candidate object."""

    pruned: bool
    strategy: str | None = None

    @staticmethod
    def keep() -> "PruneDecision":
        """The candidate survives pruning and needs an exact probability."""
        return PruneDecision(pruned=False, strategy=None)

    @staticmethod
    def drop(strategy: PruningStrategy | str) -> "PruneDecision":
        """The candidate is pruned by ``strategy``."""
        name = strategy.value if isinstance(strategy, PruningStrategy) else strategy
        return PruneDecision(pruned=True, strategy=name)


class CIPQPruner:
    """Pruning helper for constrained queries over point objects (Section 5.1)."""

    def __init__(
        self,
        issuer: UncertainObject,
        spec: RangeQuerySpec,
        threshold: float,
        *,
        use_catalog: bool = True,
        use_p_expanded_query: bool = True,
    ) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise InvalidQueryError(f"threshold must lie in [0, 1], got {threshold}")
        self._spec = spec
        self._threshold = threshold
        self._minkowski = minkowski_expanded_query(issuer.region, spec)
        self._level_used = 0.0
        if threshold > 0.0 and use_p_expanded_query:
            usable_level = (
                issuer.catalog.largest_level_at_most(threshold)
                if (use_catalog and issuer.catalog is not None)
                else None
            )
            if usable_level is not None and issuer.catalog is not None:
                self._filter_region, self._level_used = p_expanded_query_from_catalog(
                    issuer.catalog, spec, threshold
                )
            else:
                self._filter_region = p_expanded_query(issuer.pdf, spec, threshold)
                self._level_used = threshold
        else:
            self._filter_region = self._minkowski

    @property
    def filter_region(self) -> Rect:
        """The window used to query the spatial index (and to prune candidates)."""
        return self._filter_region

    @property
    def minkowski_region(self) -> Rect:
        """The 0-expanded-query ``R ⊕ U0``."""
        return self._minkowski

    @property
    def level_used(self) -> float:
        """The probability level the expanded query was built from."""
        return self._level_used

    def decide(self, obj: PointObject) -> PruneDecision:
        """Prune ``obj`` when it lies outside the (p-)expanded query."""
        if not self._filter_region.contains_point(obj.location):
            return PruneDecision.drop(PruningStrategy.P_EXPANDED_QUERY)
        return PruneDecision.keep()

    def prune_point(self, location: Point) -> bool:
        """Convenience wrapper for raw locations."""
        return not self._filter_region.contains_point(location)


class CIUQPruner:
    """Pruning helper for constrained queries over uncertain objects (Section 5.2)."""

    def __init__(
        self,
        issuer: UncertainObject,
        spec: RangeQuerySpec,
        threshold: float,
        *,
        strategies: tuple[PruningStrategy, ...] = ALL_STRATEGIES,
        use_catalog: bool = True,
    ) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise InvalidQueryError(f"threshold must lie in [0, 1], got {threshold}")
        self._issuer = issuer
        self._spec = spec
        self._threshold = threshold
        self._strategies = tuple(strategies)
        self._use_catalog = use_catalog
        self._minkowski = minkowski_expanded_query(issuer.region, spec)

        # Qp-expanded-query used by Strategy 2 (and as the index window when
        # the caller enables it).  Catalog rounding keeps pruning conservative.
        if threshold > 0.0:
            usable_level = (
                issuer.catalog.largest_level_at_most(threshold)
                if (use_catalog and issuer.catalog is not None)
                else None
            )
            if usable_level is not None and issuer.catalog is not None:
                self._qp_expanded, self._qp_level = p_expanded_query_from_catalog(
                    issuer.catalog, spec, threshold
                )
            else:
                self._qp_expanded = p_expanded_query(issuer.pdf, spec, threshold)
                self._qp_level = threshold
        else:
            self._qp_expanded = self._minkowski
            self._qp_level = 0.0

        # Strategy 3 needs, for every issuer catalog level q >= Qp, the
        # q-expanded-query; pre-compute them once per query (in increasing
        # level order, so the first match found below is the tightest bound).
        self._issuer_expanded_by_level: list[tuple[float, Rect]] = []
        if issuer.catalog is not None:
            for level, bound in issuer.catalog:
                if level >= threshold:
                    rect = Rect(
                        bound.left - spec.half_width,
                        bound.bottom - spec.half_height,
                        bound.right + spec.half_width,
                        bound.top + spec.half_height,
                    )
                    self._issuer_expanded_by_level.append((level, rect))

    # ------------------------------------------------------------------ #
    # Regions used by the index filter step
    # ------------------------------------------------------------------ #
    @property
    def minkowski_region(self) -> Rect:
        """The 0-expanded-query ``R ⊕ U0``."""
        return self._minkowski

    @property
    def qp_expanded_region(self) -> Rect:
        """The Qp-expanded-query (equal to the Minkowski sum when Qp = 0)."""
        return self._qp_expanded

    @property
    def threshold(self) -> float:
        """The probability threshold of the query."""
        return self._threshold

    @property
    def strategies(self) -> tuple[PruningStrategy, ...]:
        """The enabled pruning strategies."""
        return self._strategies

    # ------------------------------------------------------------------ #
    # Per-object pruning
    # ------------------------------------------------------------------ #
    def _strategy_p_expanded(self, obj: UncertainObject) -> bool:
        """Strategy 2: the object's region misses the Qp-expanded-query."""
        return not obj.region.overlaps(self._qp_expanded)

    def _strategy_p_bound(self, obj: UncertainObject, overlap: Rect) -> bool:
        """Strategy 1: the overlap with ``R ⊕ U0`` lies beyond the object's m-bound."""
        if obj.catalog is None:
            return False
        level = obj.catalog.largest_level_at_most(self._threshold)
        if level is None or level <= 0.0:
            return False
        if overlap.is_empty:
            return True
        return not overlap.overlaps(obj.catalog.rect_at(level))

    def _mass_upper_bound(self, obj: UncertainObject, overlap: Rect) -> float | None:
        """Smallest catalog level ``d ≥ Qp`` bounding the object's mass in ``R ⊕ U0``."""
        if obj.catalog is None:
            return None
        if overlap.is_empty:
            return 0.0
        levels, rects = obj.catalog.levels, obj.catalog.rects
        # Bound rectangles shrink as the level grows.  If the overlap region
        # still intersects the *tightest* stored bound, it intersects every
        # looser one as well and no level can bound the mass — a single check
        # settles the common case.
        if levels[-1] >= self._threshold and overlap.overlaps(rects[-1]):
            return None
        # Otherwise the first (smallest) qualifying level whose bound misses
        # the overlap region is the tightest valid upper bound.
        for level, rect in zip(levels, rects):
            if level < self._threshold:
                continue
            if not overlap.overlaps(rect):
                return level
        return None

    def _q_upper_bound(self, obj: UncertainObject) -> float | None:
        """Smallest issuer level ``q ≥ Qp`` bounding ``Q(x, y)`` over the object's region."""
        if not self._issuer_expanded_by_level:
            return None
        region = obj.region
        # Expanded queries shrink as the level grows; overlap with the
        # tightest one implies overlap with all of them (no usable bound).
        if region.overlaps(self._issuer_expanded_by_level[-1][1]):
            return None
        for level, rect in self._issuer_expanded_by_level:
            if not region.overlaps(rect):
                return level
        return None

    def _strategy_product(self, obj: UncertainObject, overlap: Rect) -> bool:
        """Strategy 3: the product of the two catalog upper bounds stays below Qp."""
        if self._threshold <= 0.0:
            return False
        q_bound = self._q_upper_bound(obj)
        if q_bound is None:
            return False
        d_bound = self._mass_upper_bound(obj, overlap)
        if d_bound is None:
            return False
        return d_bound * q_bound < self._threshold

    def decide(
        self,
        obj: UncertainObject,
        strategies: tuple[PruningStrategy, ...] | None = None,
    ) -> PruneDecision:
        """Run the enabled strategies (cheapest first) and report the outcome.

        ``strategies`` overrides the pruner's configured strategy set for this
        call; the engine uses it to skip the strategies a PTI has already
        applied at the index level (re-checking them per object would test the
        exact same rounded-level conditions again).
        """
        if self._threshold <= 0.0:
            return PruneDecision.keep()
        if strategies is None:
            strategies = self._strategies
        overlap = obj.region.intersect(self._minkowski)
        for strategy in strategies:
            if strategy is PruningStrategy.P_EXPANDED_QUERY and self._strategy_p_expanded(obj):
                return PruneDecision.drop(strategy)
            if strategy is PruningStrategy.P_BOUND and self._strategy_p_bound(obj, overlap):
                return PruneDecision.drop(strategy)
            if strategy is PruningStrategy.PRODUCT_BOUND and self._strategy_product(obj, overlap):
                return PruneDecision.drop(strategy)
        return PruneDecision.keep()

    # ------------------------------------------------------------------ #
    # Vectorized pruning over a candidate batch
    # ------------------------------------------------------------------ #
    @staticmethod
    def _overlaps_rect(bounds: np.ndarray, rect: Rect) -> np.ndarray:
        """Row-wise ``Rect.overlaps`` between a bounds array and one rectangle."""
        if rect.is_empty:
            return np.zeros(bounds.shape[0], dtype=bool)
        return bounds_overlap_window_mask(bounds, rect)

    @staticmethod
    def _overlaps_rects(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Row-wise overlap between ``a`` ``(K, 4)`` and ``b`` ``(K, ..., 4)``.

        Empty rectangles (inverted intervals) on either side never overlap,
        matching the scalar predicate.
        """
        a = a.reshape(a.shape[0], *([1] * (b.ndim - 2)), 4)
        a_empty = (a[..., 0] > a[..., 2]) | (a[..., 1] > a[..., 3])
        b_empty = (b[..., 0] > b[..., 2]) | (b[..., 1] > b[..., 3])
        return (
            ~a_empty
            & ~b_empty
            & (a[..., 0] <= b[..., 2])
            & (b[..., 0] <= a[..., 2])
            & (a[..., 1] <= b[..., 3])
            & (b[..., 1] <= a[..., 3])
        )

    def decide_many(
        self,
        bounds: np.ndarray,
        catalog_levels: np.ndarray | None,
        catalog_bounds: np.ndarray | None,
        strategies: tuple[PruningStrategy, ...] | None = None,
    ) -> tuple[np.ndarray, dict[str, int]] | None:
        """Vectorized :meth:`decide` over a candidate batch.

        ``bounds`` holds the candidates' uncertainty regions as ``(K, 4)``
        rows; ``catalog_levels`` / ``catalog_bounds`` are the shared catalog
        levels and the per-candidate ``(K, L, 4)`` bound rectangles from the
        columnar snapshot (``None`` when unavailable).  Returns a keep mask
        plus per-strategy pruned counts — identical decisions and attribution
        to a scalar ``decide`` loop, which relies on the same invariants
        (bound rectangles and expanded queries shrink as the level grows).
        Returns ``None`` when a requested catalog-based strategy lacks its
        columnar prerequisites; callers then fall back to the scalar loop.
        """
        if strategies is None:
            strategies = self._strategies
        k = bounds.shape[0]
        if self._threshold <= 0.0 or k == 0:
            return np.ones(k, dtype=bool), {}
        needs_catalog = any(
            s in (PruningStrategy.P_BOUND, PruningStrategy.PRODUCT_BOUND)
            for s in strategies
        )
        if needs_catalog and (catalog_levels is None or catalog_bounds is None):
            return None

        # The overlap with the Minkowski window, clipped per candidate (the
        # vectorized twin of ``obj.region.intersect(self._minkowski)``).
        m = self._minkowski
        overlap = np.empty((k, 4), dtype=float)
        overlap[:, 0] = np.maximum(bounds[:, 0], m.xmin)
        overlap[:, 1] = np.maximum(bounds[:, 1], m.ymin)
        overlap[:, 2] = np.minimum(bounds[:, 2], m.xmax)
        overlap[:, 3] = np.minimum(bounds[:, 3], m.ymax)
        overlap_empty = (overlap[:, 0] > overlap[:, 2]) | (overlap[:, 1] > overlap[:, 3])

        alive = np.ones(k, dtype=bool)
        pruned_counts: dict[str, int] = {}
        for strategy in strategies:
            if not alive.any():
                break
            if strategy is PruningStrategy.P_EXPANDED_QUERY:
                fired = ~self._overlaps_rect(bounds, self._qp_expanded)
            elif strategy is PruningStrategy.P_BOUND:
                fired = self._p_bound_mask(overlap, overlap_empty, catalog_levels, catalog_bounds)
            else:
                fired = self._product_mask(
                    bounds, overlap, overlap_empty, catalog_levels, catalog_bounds
                )
            fired &= alive
            count = int(np.count_nonzero(fired))
            if count:
                pruned_counts[strategy.value] = count
                alive &= ~fired
        return alive, pruned_counts

    def _p_bound_mask(
        self,
        overlap: np.ndarray,
        overlap_empty: np.ndarray,
        catalog_levels: np.ndarray,
        catalog_bounds: np.ndarray,
    ) -> np.ndarray:
        """Vectorized Strategy 1 over the candidate batch."""
        usable = catalog_levels[catalog_levels <= self._threshold]
        if usable.size == 0 or usable[-1] <= 0.0:
            return np.zeros(overlap.shape[0], dtype=bool)
        level_index = int(np.searchsorted(catalog_levels, usable[-1]))
        level_rects = catalog_bounds[:, level_index, :]
        return overlap_empty | ~self._overlaps_rects(overlap, level_rects)

    def _product_mask(
        self,
        bounds: np.ndarray,
        overlap: np.ndarray,
        overlap_empty: np.ndarray,
        catalog_levels: np.ndarray,
        catalog_bounds: np.ndarray,
    ) -> np.ndarray:
        """Vectorized Strategy 3 over the candidate batch.

        Exploits the same nesting invariant as the scalar early-exits: both
        the issuer's expanded queries and the objects' bound rectangles
        shrink as the level grows, so "the first level whose rectangle misses
        the region" equals "the number of levels whose rectangle overlaps
        it".
        """
        k = bounds.shape[0]
        if not self._issuer_expanded_by_level:
            return np.zeros(k, dtype=bool)
        # q: smallest issuer level (>= Qp) whose expanded query misses the
        # object's whole region; no such level -> no bound -> no pruning.
        issuer_levels = np.array([level for level, _ in self._issuer_expanded_by_level])
        issuer_rects = np.array(
            [rect.as_tuple() for _, rect in self._issuer_expanded_by_level]
        )
        region_overlaps = self._overlaps_rects(bounds, issuer_rects[None, :, :])
        q_index = region_overlaps.sum(axis=1)
        q_valid = q_index < issuer_levels.size
        q_bound = issuer_levels[np.minimum(q_index, issuer_levels.size - 1)]
        # d: smallest object catalog level (>= Qp) whose bound rectangle
        # misses the overlap with the Minkowski window; an empty overlap is
        # bounded by 0.
        qualifying = catalog_levels >= self._threshold
        if not qualifying.any():
            d_valid = np.zeros(k, dtype=bool)
            d_bound = np.zeros(k, dtype=float)
        else:
            start = int(np.argmax(qualifying))
            levels = catalog_levels[start:]
            olap = self._overlaps_rects(overlap, catalog_bounds[:, start:, :])
            d_index = olap.sum(axis=1)
            d_valid = d_index < levels.size
            d_bound = levels[np.minimum(d_index, levels.size - 1)]
        d_valid = d_valid | overlap_empty
        d_bound = np.where(overlap_empty, 0.0, d_bound)
        return q_valid & d_valid & (d_bound * q_bound < self._threshold)
