"""The paper's *basic* evaluation method (Section 3.3).

Equations 2 and 4 define qualification probabilities directly: conceptually
every point of the issuer's uncertainty region is examined, a range query is
formed at that point, and the per-point result is integrated under the
issuer's pdf.  In practice the region is discretised into sample points, so
the cost per object is (number of issuer samples) × (cost of one containment
or rectangle-probability test).  This is the baseline the enhanced method of
Section 4 is compared against in Figure 8.

The discretisation grid depends only on the issuer's pdf and the sample
count, so it is computed once per ``(pdf, samples)`` pair and cached — the
seed implementation rebuilt it from scratch for every candidate object, which
made the baseline quadratically wasteful rather than honestly slow.  On top
of the cached grid, :class:`BasicEvaluator` defaults to a vectorized backend
that evaluates the containment / rectangle-mass tests as one broadcast
``(samples × candidates)`` NumPy operation; pass ``vectorized=False`` for the
scalar reference loop.
"""

from __future__ import annotations
from repro.core.errors import InvalidQueryError

import time
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.geometry.point import Point
from repro.core.columnar import bounds_overlap_window_mask, points_in_window_mask
from repro.core.expansion import minkowski_expanded_query
from repro.core.queries import QueryResult, RangeQuery, RangeQuerySpec
from repro.core.statistics import EvaluationStatistics
from repro.uncertainty.pdf import UncertaintyPdf, UniformPdf
from repro.uncertainty.region import PointObject, UncertainObject

#: Default number of issuer sample points used by the basic method.  The
#: paper notes "a large number of sampling points will be needed to produce an
#: accurate answer"; a 20×20 grid (400 points) keeps the baseline honest
#: without making the benchmark unbearably slow.
DEFAULT_ISSUER_SAMPLES = 400


@lru_cache(maxsize=16)
def issuer_grid_arrays(
    issuer_pdf: UncertaintyPdf, samples: int
) -> tuple[np.ndarray, np.ndarray]:
    """Columnar issuer discretisation: midpoint grid as ``(points, weights)``.

    ``points`` is an ``(M, 2)`` coordinate array and ``weights`` the matching
    ``(M,)`` array of normalised pdf cell masses (density at the midpoint ×
    cell area, renormalised to sum to 1 so discretisation error does not bias
    the probabilities); zero-mass cells are dropped.  The grid depends only on
    the pdf and the sample count, so results are cached per ``(pdf, samples)``
    pair (pdfs hash by identity).  The returned arrays are read-only.
    """
    region = issuer_pdf.region
    per_axis = max(1, int(round(samples ** 0.5)))
    xs = np.linspace(region.xmin, region.xmax, per_axis + 1)
    ys = np.linspace(region.ymin, region.ymax, per_axis + 1)
    x_mid = (xs[:-1] + xs[1:]) / 2.0
    y_mid = (ys[:-1] + ys[1:]) / 2.0
    cell_area = (region.width / per_axis) * (region.height / per_axis)
    grid_x, grid_y = np.meshgrid(x_mid, y_mid)
    weights = issuer_pdf.density_array(grid_x.ravel(), grid_y.ravel()) * cell_area
    keep = weights > 0.0
    weights = weights[keep]
    total = float(weights.sum())
    if total <= 0.0:
        empty = np.empty((0, 2), dtype=float)
        empty.setflags(write=False)
        zero = np.empty(0, dtype=float)
        zero.setflags(write=False)
        return empty, zero
    points = np.column_stack([grid_x.ravel()[keep], grid_y.ravel()[keep]])
    weights = weights / total
    points.setflags(write=False)
    weights.setflags(write=False)
    return points, weights


@lru_cache(maxsize=16)
def _issuer_sample_pointlist(
    issuer_pdf: UncertaintyPdf, samples: int
) -> tuple[tuple[Point, float], ...]:
    """The grid as ``(Point, weight)`` pairs, cached for the scalar oracle."""
    points, weights = issuer_grid_arrays(issuer_pdf, samples)
    return tuple(
        (Point(float(x), float(y)), float(w))
        for (x, y), w in zip(points, weights)
    )


def _issuer_sample_grid(issuer_pdf: UncertaintyPdf, samples: int) -> list[tuple[Point, float]]:
    """Deterministic issuer discretisation: midpoints of a regular grid.

    Returns ``(point, weight)`` pairs where the weight is the pdf mass of the
    grid cell, renormalised to sum to 1.  Backed by the per-``(pdf, samples)``
    cache, so repeated calls for the same issuer are cheap.
    """
    return list(_issuer_sample_pointlist(issuer_pdf, samples))


def basic_ipq_probability(
    issuer_pdf: UncertaintyPdf,
    spec: RangeQuerySpec,
    location: Point,
    *,
    issuer_samples: int = DEFAULT_ISSUER_SAMPLES,
) -> float:
    """Equation 2 evaluated by discretising the issuer's uncertainty region."""
    total = 0.0
    for sample_point, weight in _issuer_sample_pointlist(issuer_pdf, issuer_samples):
        if spec.region_at(sample_point).contains_point(location):
            total += weight
    return min(1.0, total)


def basic_iuq_probability(
    issuer_pdf: UncertaintyPdf,
    target: UncertainObject,
    spec: RangeQuerySpec,
    *,
    issuer_samples: int = DEFAULT_ISSUER_SAMPLES,
) -> float:
    """Equation 4 evaluated by discretising the issuer's uncertainty region.

    For every issuer sample the inner probability (Equation 3) is the target
    pdf's mass inside the range centred at the sample — itself potentially a
    numerical integration for pdfs without closed forms, which is exactly why
    the basic method is expensive.
    """
    total = 0.0
    for sample_point, weight in _issuer_sample_pointlist(issuer_pdf, issuer_samples):
        inner = target.pdf.probability_in_rect(spec.region_at(sample_point))
        total += weight * inner
    return min(1.0, total)


def _sample_range_bounds(points: np.ndarray, spec: RangeQuerySpec) -> np.ndarray:
    """Range rectangles centred at each issuer sample, as an ``(M, 4)`` array."""
    bounds = np.empty((points.shape[0], 4), dtype=float)
    bounds[:, 0] = points[:, 0] - spec.half_width
    bounds[:, 1] = points[:, 1] - spec.half_height
    bounds[:, 2] = points[:, 0] + spec.half_width
    bounds[:, 3] = points[:, 1] + spec.half_height
    return bounds


def basic_ipq_probabilities(
    issuer_pdf: UncertaintyPdf,
    spec: RangeQuerySpec,
    locations: np.ndarray,
    *,
    issuer_samples: int = DEFAULT_ISSUER_SAMPLES,
) -> np.ndarray:
    """Batched Equation 2: probabilities for a ``(K, 2)`` location array.

    The issuer grid is computed once and containment is evaluated as one
    broadcast ``(samples × candidates)`` test; per-candidate results equal
    the scalar :func:`basic_ipq_probability` to floating-point summation
    order.
    """
    locations = np.asarray(locations, dtype=float)
    points, weights = issuer_grid_arrays(issuer_pdf, issuer_samples)
    if points.shape[0] == 0 or locations.shape[0] == 0:
        return np.zeros(locations.shape[0], dtype=float)
    bounds = _sample_range_bounds(points, spec)
    inside = (
        (locations[None, :, 0] >= bounds[:, 0, None])
        & (locations[None, :, 0] <= bounds[:, 2, None])
        & (locations[None, :, 1] >= bounds[:, 1, None])
        & (locations[None, :, 1] <= bounds[:, 3, None])
    )
    return np.minimum(1.0, weights @ inside)


def basic_iuq_probabilities(
    issuer_pdf: UncertaintyPdf,
    targets: Sequence[UncertainObject],
    spec: RangeQuerySpec,
    *,
    issuer_samples: int = DEFAULT_ISSUER_SAMPLES,
) -> np.ndarray:
    """Batched Equation 4: probabilities for a sequence of uncertain targets.

    The issuer grid and the per-sample range rectangles are computed once per
    query.  Uniform targets are evaluated in a single broadcast
    ``(samples × candidates)`` rectangle-mass computation; other pdfs get one
    batched :meth:`~repro.uncertainty.pdf.UncertaintyPdf.probability_in_rects`
    call per target (still one NumPy evaluation instead of ``samples`` scalar
    calls for closed-form pdfs).
    """
    points, weights = issuer_grid_arrays(issuer_pdf, issuer_samples)
    k = len(targets)
    if points.shape[0] == 0 or k == 0:
        return np.zeros(k, dtype=float)
    bounds = _sample_range_bounds(points, spec)
    # `type(...) is` (not isinstance) so UniformPdf subclasses overriding
    # probability_in_rect keep their own kernel via the general branch.
    if all(type(t.pdf) is UniformPdf for t in targets):
        regions = np.array([t.region.as_tuple() for t in targets])
        densities = np.array([1.0 / t.region.area for t in targets])
        ox = np.minimum(bounds[:, 2, None], regions[None, :, 2]) - np.maximum(
            bounds[:, 0, None], regions[None, :, 0]
        )
        oy = np.minimum(bounds[:, 3, None], regions[None, :, 3]) - np.maximum(
            bounds[:, 1, None], regions[None, :, 1]
        )
        np.maximum(ox, 0.0, out=ox)
        np.maximum(oy, 0.0, out=oy)
        inner = ox * oy * densities[None, :]
        probabilities = weights @ inner
    else:
        probabilities = np.empty(k, dtype=float)
        for i, target in enumerate(targets):
            probabilities[i] = float(weights @ target.pdf.probability_in_rects(bounds))
    return np.minimum(1.0, probabilities)


class BasicEvaluator:
    """End-to-end basic evaluation of IPQ and IUQ over in-memory object lists.

    By default candidates are still filtered with the Minkowski-sum expanded
    query so that the comparison against the enhanced method isolates the
    cost of the probability computation (the situation in Figure 8); pass
    ``use_expansion_filter=False`` to also disable the filter and fall back
    to examining every object.  ``vectorized`` selects the NumPy broadcast
    backend (default) or the scalar reference loop; both return the same
    answer sets with probabilities equal to within floating-point summation
    order.
    """

    def __init__(
        self,
        *,
        issuer_samples: int = DEFAULT_ISSUER_SAMPLES,
        use_expansion_filter: bool = True,
        vectorized: bool = True,
    ) -> None:
        if issuer_samples <= 0:
            raise InvalidQueryError("issuer_samples must be positive")
        self._issuer_samples = issuer_samples
        self._use_expansion_filter = use_expansion_filter
        self._vectorized = vectorized

    def evaluate_ipq(
        self, query: RangeQuery, objects: list[PointObject]
    ) -> tuple[QueryResult, EvaluationStatistics]:
        """Evaluate an IPQ over point objects with the basic method."""
        started = time.perf_counter()
        stats = EvaluationStatistics()
        expanded = minkowski_expanded_query(query.issuer_region, query.spec)
        if self._vectorized:
            candidates = objects
            xy = np.empty((len(objects), 2), dtype=float)
            for row, obj in enumerate(objects):
                xy[row, 0] = obj.location.x
                xy[row, 1] = obj.location.y
            if self._use_expansion_filter and len(objects):
                rows = np.flatnonzero(points_in_window_mask(xy, expanded))
                candidates = [objects[row] for row in rows]
                xy = xy[rows]
            stats.candidates_examined = len(candidates)
            stats.probability_computations = len(candidates)
            probabilities = basic_ipq_probabilities(
                query.issuer.pdf, query.spec, xy, issuer_samples=self._issuer_samples
            )
            oids = np.fromiter((obj.oid for obj in candidates), dtype=np.int64)
            result = QueryResult.qualifying(oids, probabilities, query.threshold)
        else:
            result = QueryResult()
            for obj in objects:
                if self._use_expansion_filter and not expanded.contains_point(obj.location):
                    continue
                stats.candidates_examined += 1
                stats.probability_computations += 1
                probability = basic_ipq_probability(
                    query.issuer.pdf, query.spec, obj.location,
                    issuer_samples=self._issuer_samples,
                )
                if probability > 0.0 and probability >= query.threshold:
                    result.add(obj.oid, probability)
            result.sort()
        stats.results_returned = len(result)
        stats.response_time = time.perf_counter() - started
        return result, stats

    def evaluate_iuq(
        self, query: RangeQuery, objects: list[UncertainObject]
    ) -> tuple[QueryResult, EvaluationStatistics]:
        """Evaluate an IUQ over uncertain objects with the basic method."""
        started = time.perf_counter()
        stats = EvaluationStatistics()
        expanded = minkowski_expanded_query(query.issuer_region, query.spec)
        if self._vectorized:
            candidates = objects
            if self._use_expansion_filter and len(objects):
                bounds = np.array([obj.region.as_tuple() for obj in objects])
                mask = bounds_overlap_window_mask(bounds, expanded)
                candidates = [objects[row] for row in np.flatnonzero(mask)]
            stats.candidates_examined = len(candidates)
            stats.probability_computations = len(candidates)
            probabilities = basic_iuq_probabilities(
                query.issuer.pdf, candidates, query.spec,
                issuer_samples=self._issuer_samples,
            )
            oids = np.fromiter((obj.oid for obj in candidates), dtype=np.int64)
            result = QueryResult.qualifying(oids, probabilities, query.threshold)
        else:
            result = QueryResult()
            for obj in objects:
                if self._use_expansion_filter and not expanded.overlaps(obj.region):
                    continue
                stats.candidates_examined += 1
                stats.probability_computations += 1
                probability = basic_iuq_probability(
                    query.issuer.pdf, obj, query.spec,
                    issuer_samples=self._issuer_samples,
                )
                if probability > 0.0 and probability >= query.threshold:
                    result.add(obj.oid, probability)
            result.sort()
        stats.results_returned = len(result)
        stats.response_time = time.perf_counter() - started
        return result, stats
