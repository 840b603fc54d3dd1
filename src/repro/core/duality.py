"""Query–data duality probability computation (Section 4.2 of the paper).

Lemma 2 states that a point object ``Si`` satisfies the range query centred
at ``Sq`` iff ``Sq`` satisfies the (equally sized) range query centred at
``Si``.  This lets the qualification probability of a point object be written
as a single integral of the *issuer's* pdf over ``R(xi, yi) ∩ U0`` (Lemma 3),
and the qualification probability of an uncertain object as
``∫_{Ui ∩ (R ⊕ U0)} fi(x, y) · Q(x, y) dxdy`` (Lemma 4), where ``Q(x, y)`` is
the point-object probability at ``(x, y)``.

For the uniform pdfs used in the paper's main experiments both quantities are
closed-form:

* IPQ — the fraction of ``U0`` covered by ``R(xi, yi)`` (Equation 6);
* IUQ — because ``Q(x, y)`` separates into a product of per-axis overlap
  lengths, Equation 8 reduces to a product of two one-dimensional integrals
  of piecewise-linear functions, which are integrated exactly here.

For other pdfs a "semi-analytic" path (closed-form ``Q`` from the issuer,
sampled expectation over the object) and a fully sampled Monte-Carlo path
(used by the paper's Gaussian experiments, Figure 13) are provided.

The engines' sampled kernels hold no generator: candidate ``oid``'s draws
are the counter function ``u(seed, token, oid, j)`` of
:mod:`repro.core.draws`, where ``token`` is keyed by the query's content
(:func:`repro.core.plan.query_draw_token`), turned into positions by each
pdf's inverse-CDF ``from_uniforms`` and tested in chunked
``(candidates, samples)`` blocks.  The single-object ``*_monte_carlo``
kernels taking a generator are reference implementations for the
sensitivity study and the tests.
"""

from __future__ import annotations
from repro.core.errors import InvalidArgumentError, InvalidQueryError

import numpy as np

from repro.geometry.interval import Interval
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.core.draws import row_keys, uniform_blocks
from repro.core.queries import RangeQuerySpec
from repro.uncertainty.pdf import UncertaintyPdf, UniformPdf
from repro.uncertainty.region import UncertainObject
from repro.uncertainty.sampling import grid_expectation


# --------------------------------------------------------------------------- #
# IPQ — point objects
# --------------------------------------------------------------------------- #
def ipq_probability(
    issuer_pdf: UncertaintyPdf, spec: RangeQuerySpec, location: Point
) -> float:
    """Qualification probability of a point object at ``location`` (Lemma 3).

    By duality the probability equals the issuer's probability mass inside
    the range rectangle centred at the *object's* location.  For a uniform
    issuer this is Equation 6 (fraction of ``U0`` overlapped); for any issuer
    pdf exposing a closed-form rectangle probability it stays exact.
    """
    dual_range = spec.region_at(location)
    return issuer_pdf.probability_in_rect(dual_range)


def ipq_probabilities(
    issuer_pdf: UncertaintyPdf, spec: RangeQuerySpec, locations: np.ndarray
) -> np.ndarray:
    """Batched Lemma 3: qualification probabilities for many point objects.

    ``locations`` is a ``(K, 2)`` coordinate array; the result is the ``(K,)``
    array of the issuer's masses inside the dual ranges centred at each
    location.  For pdfs with an array kernel (uniform, truncated Gaussian)
    this is one NumPy evaluation; other pdfs fall back to a per-rectangle
    loop.  Either way the values are bitwise identical to ``K`` scalar
    :func:`ipq_probability` calls.
    """
    locations = np.asarray(locations, dtype=float)
    if locations.ndim != 2 or locations.shape[1] != 2:
        raise InvalidQueryError(f"locations must have shape (K, 2), got {locations.shape}")
    dual_bounds = np.empty((locations.shape[0], 4), dtype=float)
    dual_bounds[:, 0] = locations[:, 0] - spec.half_width
    dual_bounds[:, 1] = locations[:, 1] - spec.half_height
    dual_bounds[:, 2] = locations[:, 0] + spec.half_width
    dual_bounds[:, 3] = locations[:, 1] + spec.half_height
    return issuer_pdf.probability_in_rects(dual_bounds)


def ipq_probability_monte_carlo(
    issuer_pdf: UncertaintyPdf,
    spec: RangeQuerySpec,
    location: Point,
    samples: int,
    rng: np.random.Generator,
) -> float:
    """Monte-Carlo estimate of a point object's qualification probability.

    Samples issuer positions and counts how often the object falls inside the
    range centred at the sampled position — this is Equation 2 evaluated by
    sampling, the path the paper uses when the issuer pdf has no convenient
    closed form (Section 6.2).
    """
    if samples <= 0:
        raise InvalidQueryError(f"samples must be positive, got {samples}")
    draws = issuer_pdf.sample(rng, samples)
    dx = np.abs(draws[:, 0] - location.x)
    dy = np.abs(draws[:, 1] - location.y)
    inside = (dx <= spec.half_width) & (dy <= spec.half_height)
    return float(np.count_nonzero(inside)) / samples


# --------------------------------------------------------------------------- #
# Keyed sampled kernels (every execution path)
# --------------------------------------------------------------------------- #
def ipq_probabilities_monte_carlo_per_oid(
    issuer_pdf: UncertaintyPdf,
    spec: RangeQuerySpec,
    locations: np.ndarray,
    oids: np.ndarray,
    samples: int,
    rng_seed: int,
    draw_token: int,
) -> np.ndarray:
    """Monte-Carlo IPQ probabilities under counter-based draws.

    Object ``oid``'s ``n = samples`` issuer positions are
    ``issuer_pdf.from_uniforms`` of the counter draws
    ``u(rng_seed, draw_token, oid, j)`` (:mod:`repro.core.draws`): x from
    columns ``[0, n)``, y from ``[n, 2n)``; ``draw_token`` is the query's
    draw token.  An estimate therefore depends on nothing but its oid and
    that token, so every execution path — either backend, any shard count,
    any process — returns the same bits.
    The containment test runs over blocks of at most
    :data:`~repro.core.draws.CHUNK_ROWS` candidates.
    """
    if samples <= 0:
        raise InvalidQueryError(f"samples must be positive, got {samples}")
    locations = np.asarray(locations, dtype=float)
    keys = row_keys(rng_seed, draw_token, oids)
    probabilities = np.empty(len(keys), dtype=float)
    for rows, u in uniform_blocks(keys, 2 * samples):
        xs, ys = issuer_pdf.from_uniforms(u[:, :samples], u[:, samples:])
        xs -= locations[rows, 0, None]
        ys -= locations[rows, 1, None]
        inside = np.abs(xs, out=xs) <= spec.half_width
        inside &= np.abs(ys, out=ys) <= spec.half_height
        probabilities[rows] = np.count_nonzero(inside, axis=1) / samples
    return probabilities


def iuq_probabilities_monte_carlo_per_oid(
    issuer_pdf: UncertaintyPdf,
    targets: "list[UncertainObject]",
    spec: RangeQuerySpec,
    samples: int,
    rng_seed: int,
    draw_token: int,
) -> np.ndarray:
    """Fully sampled IUQ probabilities under counter-based draws.

    Per target, the issuer's draws read columns ``[0, 2n)`` of the target
    oid's counter stream (as in the IPQ kernel) and the target's own draws
    columns ``[2n, 4n)``, turned into positions by the target pdf's
    ``from_uniforms``.
    """
    if samples <= 0:
        raise InvalidQueryError(f"samples must be positive, got {samples}")
    n = samples
    keys = row_keys(rng_seed, draw_token, [target.oid for target in targets])
    probabilities = np.empty(len(keys), dtype=float)
    for rows, u in uniform_blocks(keys, 4 * n):
        xs, ys = issuer_pdf.from_uniforms(u[:, :n], u[:, n : 2 * n])
        txs = np.empty_like(xs)
        tys = np.empty_like(ys)
        for i, target in enumerate(targets[rows]):
            txs[i], tys[i] = target.pdf.from_uniforms(u[i, 2 * n : 3 * n], u[i, 3 * n :])
        txs -= xs
        tys -= ys
        inside = np.abs(txs, out=txs) <= spec.half_width
        inside &= np.abs(tys, out=tys) <= spec.half_height
        probabilities[rows] = np.count_nonzero(inside, axis=1) / n
    return probabilities


# --------------------------------------------------------------------------- #
# IUQ — uncertain objects
# --------------------------------------------------------------------------- #
def _overlap_length_integral(
    object_interval: Interval, issuer_interval: Interval, half_extent: float
) -> float:
    """Exact value of ``∫ g(t) dt`` over the object's interval.

    ``g(t)`` is the length of the overlap between ``[t - half_extent,
    t + half_extent]`` and the issuer's interval — a piecewise-linear
    "trapezoid" function of ``t`` with breakpoints where the moving window's
    edges cross the issuer interval's edges.  Each linear piece is integrated
    exactly with the trapezoid rule.
    """
    lo, hi = object_interval.low, object_interval.high
    if hi <= lo:
        # Degenerate (zero-width) object interval: the 1-D integral is zero,
        # but the caller handles this case by treating the axis as a point.
        return 0.0

    a1, a2 = issuer_interval.low, issuer_interval.high

    def g(t: float) -> float:
        return max(0.0, min(t + half_extent, a2) - max(t - half_extent, a1))

    breakpoints = sorted(
        {lo, hi, a1 - half_extent, a1 + half_extent, a2 - half_extent, a2 + half_extent}
    )
    total = 0.0
    previous = lo
    for bp in breakpoints:
        if bp <= lo or bp >= hi:
            continue
        total += (g(previous) + g(bp)) / 2.0 * (bp - previous)
        previous = bp
    total += (g(previous) + g(hi)) / 2.0 * (hi - previous)
    return total


def iuq_probability_exact_uniform(
    issuer_pdf: UniformPdf, target: UncertainObject, spec: RangeQuerySpec
) -> float:
    """Closed-form Equation 8 for a uniform issuer and a uniform target.

    ``Q(x, y)`` separates into per-axis overlap lengths, so the double
    integral factors into two exact one-dimensional integrals of
    piecewise-linear functions divided by the issuer's and target's areas.
    """
    target_pdf = target.pdf
    if not isinstance(target_pdf, UniformPdf):
        raise InvalidArgumentError("iuq_probability_exact_uniform requires a uniform target pdf")
    issuer_region = issuer_pdf.region
    target_region = target_pdf.region

    ix = _overlap_length_integral(
        target_region.x_interval, issuer_region.x_interval, spec.half_width
    )
    iy = _overlap_length_integral(
        target_region.y_interval, issuer_region.y_interval, spec.half_height
    )
    denominator = (
        target_region.width
        * target_region.height
        * issuer_region.width
        * issuer_region.height
    )
    if denominator == 0.0:
        raise InvalidQueryError("uniform regions must have positive area")
    probability = (ix * iy) / denominator
    return min(1.0, max(0.0, probability))


def _overlap_length_integrals(
    lows: np.ndarray,
    highs: np.ndarray,
    issuer_interval: Interval,
    half_extent: float,
) -> np.ndarray:
    """Vectorized :func:`_overlap_length_integral` over many object intervals.

    ``lows``/``highs`` are ``(K,)`` arrays of object-interval endpoints; the
    issuer interval and window half-extent are shared (they come from the
    query).  The moving-window overlap function ``g`` has at most four
    breakpoints, all derived from the issuer interval, so one sorted
    breakpoint row clipped per object reproduces the scalar piecewise
    trapezoid integration exactly (zero-width pieces contribute nothing).
    """
    a1, a2 = issuer_interval.low, issuer_interval.high
    breakpoints = np.sort(
        np.array(
            [
                a1 - half_extent,
                a1 + half_extent,
                a2 - half_extent,
                a2 + half_extent,
            ]
        )
    )
    # Piecewise nodes per object: lo, the four clipped breakpoints, hi.
    nodes = np.empty((lows.shape[0], 6), dtype=float)
    nodes[:, 0] = lows
    nodes[:, 1:5] = np.clip(breakpoints[None, :], lows[:, None], highs[:, None])
    nodes[:, 5] = highs
    g = np.maximum(
        0.0,
        np.minimum(nodes + half_extent, a2) - np.maximum(nodes - half_extent, a1),
    )
    widths = np.diff(nodes, axis=1)
    return np.sum((g[:, :-1] + g[:, 1:]) * widths, axis=1) / 2.0


def iuq_probabilities_exact_uniform(
    issuer_pdf: UniformPdf, bounds: np.ndarray, spec: RangeQuerySpec
) -> np.ndarray:
    """Batched closed-form Equation 8 for a uniform issuer and uniform targets.

    ``bounds`` is a ``(K, 4)`` array of target uncertainty-region rectangles
    ``(xmin, ymin, xmax, ymax)``; the result matches ``K`` scalar
    :func:`iuq_probability_exact_uniform` calls to within floating-point
    summation order (≪ 1e-12).
    """
    bounds = np.asarray(bounds, dtype=float)
    if bounds.ndim != 2 or bounds.shape[1] != 4:
        raise InvalidQueryError(f"bounds must have shape (K, 4), got {bounds.shape}")
    issuer_region = issuer_pdf.region
    ix = _overlap_length_integrals(
        bounds[:, 0], bounds[:, 2], issuer_region.x_interval, spec.half_width
    )
    iy = _overlap_length_integrals(
        bounds[:, 1], bounds[:, 3], issuer_region.y_interval, spec.half_height
    )
    widths = bounds[:, 2] - bounds[:, 0]
    heights = bounds[:, 3] - bounds[:, 1]
    denominator = widths * heights * issuer_region.width * issuer_region.height
    if np.any(denominator == 0.0):
        raise InvalidQueryError("uniform regions must have positive area")
    return np.clip((ix * iy) / denominator, 0.0, 1.0)


def iuq_probability(
    issuer_pdf: UncertaintyPdf,
    target: UncertainObject,
    spec: RangeQuerySpec,
    *,
    samples: int = 256,
    rng: np.random.Generator | None = None,
    grid_resolution: int | None = None,
) -> float:
    """Qualification probability of an uncertain object (Lemma 4 / Equation 8).

    Dispatches on the pdfs involved:

    * uniform issuer + uniform target → exact closed form;
    * any issuer with a closed-form rectangle probability → semi-analytic:
      ``Q(x, y)`` is evaluated exactly and the expectation over the target's
      pdf is taken by Monte-Carlo sampling (``samples`` draws) or, when
      ``grid_resolution`` is given, by a deterministic midpoint rule.

    The sampled expectation evaluates ``Q`` for all draws in one batched
    :func:`ipq_probabilities` call rather than ``samples`` Python calls.
    """
    if isinstance(issuer_pdf, UniformPdf) and isinstance(target.pdf, UniformPdf):
        return iuq_probability_exact_uniform(issuer_pdf, target, spec)

    if grid_resolution is not None:
        def point_probability(x: float, y: float) -> float:
            return ipq_probability(issuer_pdf, spec, Point(x, y))

        return min(1.0, grid_expectation(target.pdf, point_probability, grid_resolution))

    if rng is None:
        rng = np.random.default_rng(0)
    draws = target.pdf.sample(rng, samples)
    values = ipq_probabilities(issuer_pdf, spec, draws)
    return min(1.0, float(values.sum()) / samples)


def iuq_probability_monte_carlo(
    issuer_pdf: UncertaintyPdf,
    target: UncertainObject,
    spec: RangeQuerySpec,
    samples: int,
    rng: np.random.Generator,
) -> float:
    """Fully sampled estimate of an uncertain object's qualification probability.

    Both the issuer's and the object's positions are sampled (paired draws)
    and the fraction of pairs in which the object falls inside the range
    centred at the issuer's sampled position is returned.  This mirrors the
    paper's Monte-Carlo procedure for non-uniform pdfs (Section 6.2).
    """
    if samples <= 0:
        raise InvalidQueryError(f"samples must be positive, got {samples}")
    issuer_draws = issuer_pdf.sample(rng, samples)
    target_draws = target.pdf.sample(rng, samples)
    dx = np.abs(target_draws[:, 0] - issuer_draws[:, 0])
    dy = np.abs(target_draws[:, 1] - issuer_draws[:, 1])
    inside = (dx <= spec.half_width) & (dy <= spec.half_height)
    return float(np.count_nonzero(inside)) / samples


# --------------------------------------------------------------------------- #
# Restriction to the expanded query (the refinement of Lemma 4)
# --------------------------------------------------------------------------- #
def clipped_integration_region(target_region: Rect, expanded_query: Rect) -> Rect:
    """``Ui ∩ (R ⊕ U0)`` — the reduced integration region of Lemma 4.

    Points of ``Ui`` outside the expanded query contribute nothing to the
    integral because ``Q`` vanishes there (Lemma 1), so integrating over the
    clipped region is both correct and cheaper.
    """
    return target_region.intersect(expanded_query)
