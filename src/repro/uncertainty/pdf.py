"""Uncertainty probability density functions.

Definition 2 of the paper: the uncertainty pdf ``fi(x, y)`` of object ``Oi``
is a pdf that is zero outside the object's uncertainty region ``Ui`` and
integrates to one over it.  The paper's techniques are pdf-agnostic; the
experiments use the uniform distribution (the "worst case" of knowing nothing
beyond the region) and a truncated Gaussian (Section 6.2, Figure 13).

Every pdf exposes:

* ``region`` — the uncertainty region (an axis-parallel :class:`Rect`, or the
  bounding rectangle for non-rectangular supports),
* ``probability_in_rect(rect)`` — the probability mass inside ``rect``,
* per-axis marginal CDFs and quantiles (used to compute p-bounds),
* ``sample(rng, n)`` — draws for Monte-Carlo evaluation,
* ``from_uniforms(ux, uy)`` — the inverse-CDF transform of given uniforms,
  which the engines' counter-based draws (:mod:`repro.core.draws`) sample with,
* ``density(x, y)`` — the raw density value.

Two batched counterparts back the vectorized evaluation backend:
``density_array(xs, ys)`` evaluates the density at many locations at once and
``probability_in_rects(bounds)`` computes the mass of many rectangles at once.
Both have scalar-loop fallbacks on the base class, so every pdf works with the
vectorized engine.  The uniform and truncated-Gaussian pdfs override
``probability_in_rects`` with true array kernels producing bitwise-identical
values to their scalar counterparts; the histogram and circle pdfs keep the
per-rectangle fallback (their rectangle masses need per-rect bin/segment
work), so batched calls against them run at scalar speed.

The truncated Gaussian holds plain floats (means, sigmas, truncation CDFs
and masses), no frozen SciPy distribution object: its normal CDF, quantile
and density are ``scipy.special.ndtr``/``ndtri`` and
``exp(-z**2/2)/sqrt(2*pi)``, the very operations SciPy's frozen ``norm``
applies, so the values are bitwise those of the frozen distribution at a
fraction of the construction cost, and SciPy's statistics package is never
imported.  :func:`marginal_quantiles` takes the marginal quantiles of a whole
collection at once (U-catalog construction), bitwise like the scalar
methods.  Every shipped pdf rejects non-finite parameters (region
coordinates, sigmas, bin weights, circle centre and radius) with
:class:`~repro.errors.DistributionError`.
"""

from __future__ import annotations
from repro.errors import DistributionError

import abc
import math
from typing import Sequence

import numpy as np
from scipy.special import ndtr, ndtri

from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.rect import Rect

# NOTE: the wire helpers (repro.core.wire / repro.core.errors) are imported
# lazily inside the serialization methods: importing them at module level
# would pull in repro.core.__init__, whose query model imports this module
# right back (uncertainty.pdf is near the bottom of the package layering).

#: Schema name of the pdf wire payloads (see :mod:`repro.core.wire`).
PDF_SCHEMA = "repro.pdf"


def _tagged(payload: dict) -> dict:
    from repro.core.wire import tagged

    return tagged(PDF_SCHEMA, payload)


def _require_finite(what: str, *values: float) -> None:
    """Raise unless every value is a finite float (JSON can carry NaN/inf)."""
    if not all(map(math.isfinite, values)):
        raise DistributionError(f"{what} must be finite, got {values}")


#: ``sqrt(2*pi)`` as SciPy's ``norm`` rounds it (its ``_norm_pdf_C``).
_SQRT_2PI = 2.5066282746310002


# The normal CDF, quantile and density in the exact operation order of the
# frozen SciPy ``norm(loc=mu, scale=sigma)``: standardise, apply the
# ``scipy.special`` kernel, rescale.  They take floats or arrays alike.
def _norm_cdf(x, mu: float, sigma: float):
    return ndtr((x - mu) / sigma)


def _norm_ppf(q, mu: float, sigma: float):
    return ndtri(q) * sigma + mu


def _norm_pdf(x, mu: float, sigma: float):
    z = np.asarray((x - mu) / sigma)
    return np.exp(-z**2 / 2.0) / _SQRT_2PI / sigma


class UncertaintyPdf(abc.ABC):
    """Abstract base class for two-dimensional location-uncertainty pdfs."""

    #: Whether :meth:`probability_in_rect` is exact (closed form) rather than
    #: a numerical approximation.  The evaluation engines use this to decide
    #: between analytic and Monte-Carlo integration paths.
    has_closed_form: bool = False

    @property
    @abc.abstractmethod
    def region(self) -> Rect:
        """The uncertainty region (bounding rectangle of the support)."""

    @abc.abstractmethod
    def probability_in_rect(self, rect: Rect) -> float:
        """Probability mass of the object's location falling inside ``rect``."""

    @abc.abstractmethod
    def density(self, x: float, y: float) -> float:
        """Density value at ``(x, y)`` (zero outside the region)."""

    @abc.abstractmethod
    def marginal_cdf_x(self, x: float) -> float:
        """Probability that the object's x-coordinate is at most ``x``."""

    @abc.abstractmethod
    def marginal_cdf_y(self, y: float) -> float:
        """Probability that the object's y-coordinate is at most ``y``."""

    @abc.abstractmethod
    def marginal_quantile_x(self, p: float) -> float:
        """Smallest ``x`` such that ``marginal_cdf_x(x) >= p``."""

    @abc.abstractmethod
    def marginal_quantile_y(self, p: float) -> float:
        """Smallest ``y`` such that ``marginal_cdf_y(y) >= p``."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` locations; returns an ``(n, 2)`` array of ``(x, y)`` pairs."""

    @abc.abstractmethod
    def from_uniforms(self, ux: np.ndarray, uy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Locations ``(xs, ys)`` transformed from given uniforms in ``[0, 1)``.

        The engines' counter-based draws (:mod:`repro.core.draws`) hand each pdf
        its uniforms instead of a generator; every pdf applies an
        inverse-CDF transform element-wise, so ``xs``/``ys`` have the shape
        of ``ux``/``uy``.  Both are new arrays (the kernels reuse them in
        place) and the inputs are left untouched.
        """

    # ------------------------------------------------------------------ #
    # Batched evaluation (vectorized backend)
    # ------------------------------------------------------------------ #
    def density_array(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Density values at many locations; same shape as ``xs``/``ys``.

        The base implementation is a scalar loop, so any pdf — including
        third-party subclasses that know nothing about the vectorized
        backend — evaluates correctly; closed-form pdfs override it with a
        true array kernel.
        """
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        flat = np.fromiter(
            (self.density(float(x), float(y)) for x, y in zip(xs.ravel(), ys.ravel())),
            dtype=float,
            count=xs.size,
        )
        return flat.reshape(xs.shape)

    def probability_in_rects(self, bounds: np.ndarray) -> np.ndarray:
        """Probability mass inside each rectangle of ``bounds``.

        ``bounds`` is an ``(M, 4)`` array of ``(xmin, ymin, xmax, ymax)``
        rows (the layout of :meth:`repro.geometry.rect.Rect.as_tuple`).
        The base implementation loops over :meth:`probability_in_rect`;
        closed-form pdfs override it with an array kernel.
        """
        bounds = self._as_bounds_array(bounds)
        return np.fromiter(
            (
                self.probability_in_rect(Rect(row[0], row[1], row[2], row[3]))
                for row in bounds
            ),
            dtype=float,
            count=bounds.shape[0],
        )

    @staticmethod
    def _as_bounds_array(bounds: np.ndarray) -> np.ndarray:
        """Validate and coerce an ``(M, 4)`` rectangle-bounds array."""
        bounds = np.asarray(bounds, dtype=float)
        if bounds.ndim != 2 or bounds.shape[1] != 4:
            raise DistributionError(f"bounds must have shape (M, 4), got {bounds.shape}")
        return bounds

    # ------------------------------------------------------------------ #
    # Wire serialization
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def to_dict(self) -> dict:
        """A JSON-safe, versioned description of this pdf.

        Decode with :func:`pdf_from_dict`; the reconstructed pdf computes
        probabilities bit-for-bit like the original (every shipped parameter
        round-trips exactly through JSON, and every derived quantity is
        recomputed by the same constructor arithmetic).  The wire form is
        the pdf's part of a query's identity (it keys cache entries and
        Monte-Carlo draws), so every pdf defines one; third-party pdfs also
        register a decoder via :func:`register_pdf_codec`.
        """

    @staticmethod
    def _rect_payload(region: Rect) -> list[float]:
        return [region.xmin, region.ymin, region.xmax, region.ymax]

    # ------------------------------------------------------------------ #
    # Convenience helpers shared by all implementations
    # ------------------------------------------------------------------ #
    def mean(self) -> Point:
        """Mean location (defaults to the region centre; subclasses may refine)."""
        return self.region.center

    def probability_outside_rect(self, rect: Rect) -> float:
        """Probability mass outside ``rect`` (clipped to ``[0, 1]``)."""
        return min(1.0, max(0.0, 1.0 - self.probability_in_rect(rect)))

    def _validate_probability(self, p: float) -> float:
        if not 0.0 <= p <= 1.0:
            raise DistributionError(f"probability must lie in [0, 1], got {p}")
        return p


class UniformPdf(UncertaintyPdf):
    """Uniform distribution over an axis-parallel rectangle.

    This is the paper's "worst-case" pdf (``fi(x, y) = 1 / |Ui|``) and the
    default in all experiments.  All quantities are closed-form.
    """

    has_closed_form = True

    def __init__(self, region: Rect) -> None:
        _require_finite("region coordinates", *region.as_tuple())
        if region.is_empty:
            raise DistributionError("uncertainty region must be non-empty")
        if region.area == 0.0:
            raise DistributionError(
                "uniform pdf requires a region of positive area; "
                "use PointObject for degenerate locations"
            )
        self._region = region
        self._density = 1.0 / region.area

    @property
    def region(self) -> Rect:
        return self._region

    def probability_in_rect(self, rect: Rect) -> float:
        return self._region.intersection_area(rect) * self._density

    def probability_in_rects(self, bounds: np.ndarray) -> np.ndarray:
        bounds = self._as_bounds_array(bounds)
        region = self._region
        # Same arithmetic as the scalar path (overlap width × overlap height
        # × density), so the values are bitwise identical.
        ox = np.minimum(bounds[:, 2], region.xmax) - np.maximum(bounds[:, 0], region.xmin)
        oy = np.minimum(bounds[:, 3], region.ymax) - np.maximum(bounds[:, 1], region.ymin)
        np.maximum(ox, 0.0, out=ox)
        np.maximum(oy, 0.0, out=oy)
        return ox * oy * self._density

    def density(self, x: float, y: float) -> float:
        if self._region.contains_point(Point(x, y)):
            return self._density
        return 0.0

    def density_array(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        region = self._region
        inside = (
            (xs >= region.xmin)
            & (xs <= region.xmax)
            & (ys >= region.ymin)
            & (ys <= region.ymax)
        )
        return np.where(inside, self._density, 0.0)

    def marginal_cdf_x(self, x: float) -> float:
        return self._region.x_interval.fraction_below(x)

    def marginal_cdf_y(self, y: float) -> float:
        return self._region.y_interval.fraction_below(y)

    def marginal_quantile_x(self, p: float) -> float:
        self._validate_probability(p)
        return self._region.xmin + p * self._region.width

    def marginal_quantile_y(self, p: float) -> float:
        self._validate_probability(p)
        return self._region.ymin + p * self._region.height

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        xs = rng.uniform(self._region.xmin, self._region.xmax, size=n)
        ys = rng.uniform(self._region.ymin, self._region.ymax, size=n)
        return np.column_stack([xs, ys])

    def from_uniforms(self, ux: np.ndarray, uy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # low + span·u, the arithmetic of rng.uniform, with one new array per
        # axis (the sum is taken in place; addition commutes bitwise).
        region = self._region
        xs = (region.xmax - region.xmin) * ux
        xs += region.xmin
        ys = (region.ymax - region.ymin) * uy
        ys += region.ymin
        return xs, ys

    def to_dict(self) -> dict:
        return _tagged({"type": "uniform", "region": self._rect_payload(self._region)})


class TruncatedGaussianPdf(UncertaintyPdf):
    """Independent per-axis Gaussian truncated to the uncertainty region.

    This matches the paper's non-uniform experiment (Section 6.2): "the mean
    of the Gaussian distribution is the center of its uncertainty region,
    while the variance is one-sixth of the size of its uncertainty region".
    We interpret that as a per-axis standard deviation of ``extent / 6`` so
    that the region spans ±3σ; the constructor also accepts explicit sigmas.

    Rectangle probabilities are closed-form (products of truncated-normal CDF
    differences), so the engine can use the analytic path; the experiments
    nonetheless exercise the Monte-Carlo path against this pdf to reproduce
    Figure 13, where the paper treats the Gaussian as "no closed form".
    """

    has_closed_form = True

    def __init__(
        self,
        region: Rect,
        sigma_x: float | None = None,
        sigma_y: float | None = None,
    ) -> None:
        _require_finite("region coordinates", *region.as_tuple())
        if region.is_empty or region.area == 0.0:
            raise DistributionError("uncertainty region must have positive area")
        self._region = region
        self._mu_x = region.center.x
        self._mu_y = region.center.y
        self._sigma_x = sigma_x if sigma_x is not None else max(region.width / 6.0, 1e-12)
        self._sigma_y = sigma_y if sigma_y is not None else max(region.height / 6.0, 1e-12)
        _require_finite("standard deviations", self._sigma_x, self._sigma_y)
        if self._sigma_x <= 0 or self._sigma_y <= 0:
            raise DistributionError("standard deviations must be positive")

        # Per-axis truncation masses (the Gaussian mass that falls inside the
        # region); used to renormalise CDFs so that the pdf integrates to one
        # over the region.
        self._x_lo_cdf = float(_norm_cdf(region.xmin, self._mu_x, self._sigma_x))
        self._x_hi_cdf = float(_norm_cdf(region.xmax, self._mu_x, self._sigma_x))
        self._y_lo_cdf = float(_norm_cdf(region.ymin, self._mu_y, self._sigma_y))
        self._y_hi_cdf = float(_norm_cdf(region.ymax, self._mu_y, self._sigma_y))
        self._x_mass = self._x_hi_cdf - self._x_lo_cdf
        self._y_mass = self._y_hi_cdf - self._y_lo_cdf
        if self._x_mass <= 0 or self._y_mass <= 0:
            raise DistributionError("truncation region carries no Gaussian mass")

    @property
    def region(self) -> Rect:
        return self._region

    @property
    def sigma(self) -> tuple[float, float]:
        """Per-axis standard deviations of the untruncated Gaussian."""
        return (self._sigma_x, self._sigma_y)

    def mean(self) -> Point:
        return Point(self._mu_x, self._mu_y)

    def _axis_prob_x(self, low: float, high: float) -> float:
        low = max(low, self._region.xmin)
        high = min(high, self._region.xmax)
        if high <= low:
            return 0.0
        cdf_high = float(_norm_cdf(high, self._mu_x, self._sigma_x))
        return (cdf_high - float(_norm_cdf(low, self._mu_x, self._sigma_x))) / self._x_mass

    def _axis_prob_y(self, low: float, high: float) -> float:
        low = max(low, self._region.ymin)
        high = min(high, self._region.ymax)
        if high <= low:
            return 0.0
        cdf_high = float(_norm_cdf(high, self._mu_y, self._sigma_y))
        return (cdf_high - float(_norm_cdf(low, self._mu_y, self._sigma_y))) / self._y_mass

    def probability_in_rect(self, rect: Rect) -> float:
        if rect.is_empty:
            return 0.0
        return self._axis_prob_x(rect.xmin, rect.xmax) * self._axis_prob_y(rect.ymin, rect.ymax)

    def probability_in_rects(self, bounds: np.ndarray) -> np.ndarray:
        bounds = self._as_bounds_array(bounds)
        region = self._region
        lox = np.maximum(bounds[:, 0], region.xmin)
        hix = np.minimum(bounds[:, 2], region.xmax)
        loy = np.maximum(bounds[:, 1], region.ymin)
        hiy = np.minimum(bounds[:, 3], region.ymax)
        px = np.where(
            hix > lox,
            (_norm_cdf(hix, self._mu_x, self._sigma_x) - _norm_cdf(lox, self._mu_x, self._sigma_x))
            / self._x_mass,
            0.0,
        )
        py = np.where(
            hiy > loy,
            (_norm_cdf(hiy, self._mu_y, self._sigma_y) - _norm_cdf(loy, self._mu_y, self._sigma_y))
            / self._y_mass,
            0.0,
        )
        return px * py

    def density(self, x: float, y: float) -> float:
        if not self._region.contains_point(Point(x, y)):
            return 0.0
        fx = float(_norm_pdf(x, self._mu_x, self._sigma_x)) / self._x_mass
        fy = float(_norm_pdf(y, self._mu_y, self._sigma_y)) / self._y_mass
        return fx * fy

    def density_array(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        region = self._region
        inside = (
            (xs >= region.xmin)
            & (xs <= region.xmax)
            & (ys >= region.ymin)
            & (ys <= region.ymax)
        )
        fx = _norm_pdf(xs, self._mu_x, self._sigma_x) / self._x_mass
        fy = _norm_pdf(ys, self._mu_y, self._sigma_y) / self._y_mass
        return np.where(inside, fx * fy, 0.0)

    def marginal_cdf_x(self, x: float) -> float:
        if x <= self._region.xmin:
            return 0.0
        if x >= self._region.xmax:
            return 1.0
        return (float(_norm_cdf(x, self._mu_x, self._sigma_x)) - self._x_lo_cdf) / self._x_mass

    def marginal_cdf_y(self, y: float) -> float:
        if y <= self._region.ymin:
            return 0.0
        if y >= self._region.ymax:
            return 1.0
        return (float(_norm_cdf(y, self._mu_y, self._sigma_y)) - self._y_lo_cdf) / self._y_mass

    def marginal_quantile_x(self, p: float) -> float:
        self._validate_probability(p)
        if p <= 0.0:
            return self._region.xmin
        if p >= 1.0:
            return self._region.xmax
        target = self._x_lo_cdf + p * self._x_mass
        return float(_norm_ppf(target, self._mu_x, self._sigma_x))

    def marginal_quantile_y(self, p: float) -> float:
        self._validate_probability(p)
        if p <= 0.0:
            return self._region.ymin
        if p >= 1.0:
            return self._region.ymax
        target = self._y_lo_cdf + p * self._y_mass
        return float(_norm_ppf(target, self._mu_y, self._sigma_y))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # Inverse-transform sampling on the truncated marginals keeps the draw
        # count deterministic (rejection sampling would not).
        ux = rng.uniform(0.0, 1.0, size=n)
        uy = rng.uniform(0.0, 1.0, size=n)
        xs = _norm_ppf(self._x_lo_cdf + ux * self._x_mass, self._mu_x, self._sigma_x)
        ys = _norm_ppf(self._y_lo_cdf + uy * self._y_mass, self._mu_y, self._sigma_y)
        xs = np.clip(xs, self._region.xmin, self._region.xmax)
        ys = np.clip(ys, self._region.ymin, self._region.ymax)
        return np.column_stack([xs, ys])

    def from_uniforms(self, ux: np.ndarray, uy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        xs = _norm_ppf(self._x_lo_cdf + ux * self._x_mass, self._mu_x, self._sigma_x)
        ys = _norm_ppf(self._y_lo_cdf + uy * self._y_mass, self._mu_y, self._sigma_y)
        np.clip(xs, self._region.xmin, self._region.xmax, out=xs)
        np.clip(ys, self._region.ymin, self._region.ymax, out=ys)
        return xs, ys

    def to_dict(self) -> dict:
        return _tagged(
            {
                "type": "gaussian",
                "region": self._rect_payload(self._region),
                "sigma": [self._sigma_x, self._sigma_y],
            },
        )


def _invert_bin_masses(masses: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bin index and in-bin fraction of the piecewise-linear inverse CDF at ``u``.

    ``masses`` are (unnormalised) bin masses; empty bins are never chosen.
    """
    bins = np.flatnonzero(masses > 0)
    upper = np.cumsum(masses[bins])
    scaled = u * upper[-1]
    k = np.minimum(np.searchsorted(upper, scaled, side="right"), len(bins) - 1)
    mass = masses[bins[k]]
    fraction = (scaled - (upper[k] - mass)) / mass
    return bins[k], np.clip(fraction, 0.0, 1.0)


class HistogramPdf(UncertaintyPdf):
    """Piecewise-constant pdf over a regular grid of bins inside a rectangle.

    The paper stresses that its methods "can deal with any type of probability
    distribution about the object's location"; a histogram is the standard way
    such arbitrary distributions are shipped to a query processor.  Bin
    weights need not be normalised — the constructor normalises them.
    """

    has_closed_form = True

    def __init__(self, region: Rect, weights: Sequence[Sequence[float]]) -> None:
        _require_finite("region coordinates", *region.as_tuple())
        if region.is_empty or region.area == 0.0:
            raise DistributionError("uncertainty region must have positive area")
        grid = np.asarray(weights, dtype=float)
        if grid.ndim != 2 or grid.size == 0:
            raise DistributionError("weights must be a non-empty 2-D array (rows = y bins)")
        if not np.all(np.isfinite(grid)):
            raise DistributionError("bin weights must be finite")
        if np.any(grid < 0):
            raise DistributionError("bin weights must be non-negative")
        total = float(grid.sum())
        if total <= 0:
            raise DistributionError("at least one bin weight must be positive")
        self._region = region
        # The caller's (pre-normalisation) weights are what the wire schema
        # ships: re-normalising the normalised grid would not be bitwise
        # stable (its sum is only approximately 1), replaying the original
        # weights through this constructor is.
        self._weights = grid
        self._grid = grid / total
        self._ny, self._nx = grid.shape
        self._bin_w = region.width / self._nx
        self._bin_h = region.height / self._ny

    @property
    def region(self) -> Rect:
        return self._region

    @property
    def shape(self) -> tuple[int, int]:
        """Grid shape as ``(ny, nx)``."""
        return (self._ny, self._nx)

    def _bin_rect(self, ix: int, iy: int) -> Rect:
        x0 = self._region.xmin + ix * self._bin_w
        y0 = self._region.ymin + iy * self._bin_h
        return Rect(x0, y0, x0 + self._bin_w, y0 + self._bin_h)

    def probability_in_rect(self, rect: Rect) -> float:
        clipped = rect.intersect(self._region)
        if clipped.is_empty:
            return 0.0
        total = 0.0
        # Only the bins overlapping the clipped rectangle contribute.
        ix_lo = max(0, int((clipped.xmin - self._region.xmin) / self._bin_w))
        ix_hi = min(self._nx - 1, int((clipped.xmax - self._region.xmin) / self._bin_w))
        iy_lo = max(0, int((clipped.ymin - self._region.ymin) / self._bin_h))
        iy_hi = min(self._ny - 1, int((clipped.ymax - self._region.ymin) / self._bin_h))
        for iy in range(iy_lo, iy_hi + 1):
            for ix in range(ix_lo, ix_hi + 1):
                weight = self._grid[iy, ix]
                if weight == 0.0:
                    continue
                cell = self._bin_rect(ix, iy)
                fraction = cell.intersection_area(clipped) / cell.area
                total += weight * fraction
        return min(1.0, total)

    def density(self, x: float, y: float) -> float:
        if not self._region.contains_point(Point(x, y)):
            return 0.0
        ix = min(self._nx - 1, int((x - self._region.xmin) / self._bin_w))
        iy = min(self._ny - 1, int((y - self._region.ymin) / self._bin_h))
        cell_area = self._bin_w * self._bin_h
        return self._grid[iy, ix] / cell_area

    def density_array(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        region = self._region
        inside = (
            (xs >= region.xmin)
            & (xs <= region.xmax)
            & (ys >= region.ymin)
            & (ys <= region.ymax)
        )
        # Bin indices follow the scalar rule: truncate, then clamp to the last
        # bin so points on the far edge land in the final row/column.  The
        # lower clamp only protects the lookup for out-of-region points,
        # whose density is masked to zero below anyway.
        ix = np.clip(((xs - region.xmin) / self._bin_w).astype(int), 0, self._nx - 1)
        iy = np.clip(((ys - region.ymin) / self._bin_h).astype(int), 0, self._ny - 1)
        cell_area = self._bin_w * self._bin_h
        return np.where(inside, self._grid[iy, ix] / cell_area, 0.0)

    def marginal_cdf_x(self, x: float) -> float:
        return self.probability_in_rect(
            Rect(self._region.xmin, self._region.ymin, x, self._region.ymax)
        )

    def marginal_cdf_y(self, y: float) -> float:
        return self.probability_in_rect(
            Rect(self._region.xmin, self._region.ymin, self._region.xmax, y)
        )

    def _invert_monotone(self, cdf, low: float, high: float, p: float) -> float:
        for _ in range(60):
            mid = (low + high) / 2.0
            if cdf(mid) < p:
                low = mid
            else:
                high = mid
        return (low + high) / 2.0

    def marginal_quantile_x(self, p: float) -> float:
        self._validate_probability(p)
        if p <= 0.0:
            return self._region.xmin
        if p >= 1.0:
            return self._region.xmax
        return self._invert_monotone(self.marginal_cdf_x, self._region.xmin, self._region.xmax, p)

    def marginal_quantile_y(self, p: float) -> float:
        self._validate_probability(p)
        if p <= 0.0:
            return self._region.ymin
        if p >= 1.0:
            return self._region.ymax
        return self._invert_monotone(self.marginal_cdf_y, self._region.ymin, self._region.ymax, p)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        flat = self._grid.ravel()
        choices = rng.choice(flat.size, size=n, p=flat)
        iys, ixs = np.divmod(choices, self._nx)
        xs = self._region.xmin + (ixs + rng.uniform(0.0, 1.0, size=n)) * self._bin_w
        ys = self._region.ymin + (iys + rng.uniform(0.0, 1.0, size=n)) * self._bin_h
        return np.column_stack([xs, ys])

    def from_uniforms(self, ux: np.ndarray, uy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # x inverts the marginal (column masses, linear within a column);
        # y inverts the chosen column's conditional distribution.
        uy = np.asarray(uy, dtype=float)
        ix, fx = _invert_bin_masses(self._grid.sum(axis=0), np.asarray(ux, dtype=float))
        iy = np.empty(ix.shape, dtype=ix.dtype)
        fy = np.empty(ix.shape, dtype=float)
        for column in np.unique(ix):
            mask = ix == column
            iy[mask], fy[mask] = _invert_bin_masses(self._grid[:, column], uy[mask])
        return (
            self._region.xmin + (ix + fx) * self._bin_w,
            self._region.ymin + (iy + fy) * self._bin_h,
        )

    def to_dict(self) -> dict:
        return _tagged(
            {
                "type": "histogram",
                "region": self._rect_payload(self._region),
                "weights": self._weights.tolist(),
            },
        )


class UniformCirclePdf(UncertaintyPdf):
    """Uniform distribution over a disc — the non-rectangular extension.

    The paper's conclusion mentions supporting non-rectangular uncertainty
    regions; a uniform disc (the usual privacy "cloaking circle") is the
    simplest useful case.  Rectangle probabilities use the circle–rectangle
    intersection area, so they are numerical but deterministic.
    """

    has_closed_form = False

    def __init__(self, circle: Circle, *, resolution: int = 256) -> None:
        _require_finite("circle centre and radius", circle.center.x, circle.center.y, circle.radius)
        if circle.radius <= 0:
            raise DistributionError("circle radius must be positive")
        self._circle = circle
        self._resolution = resolution
        self._region = circle.bounding_rect()
        self._density = 1.0 / circle.area

    @property
    def region(self) -> Rect:
        return self._region

    @property
    def circle(self) -> Circle:
        """The circular support of the pdf."""
        return self._circle

    def probability_in_rect(self, rect: Rect) -> float:
        area = self._circle.intersection_area_with_rect(rect, resolution=self._resolution)
        return min(1.0, area * self._density)

    def density(self, x: float, y: float) -> float:
        if self._circle.contains_point(Point(x, y)):
            return self._density
        return 0.0

    def density_array(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        center = self._circle.center
        # The scalar test uses math.hypot; np.hypot applies the same
        # correctly-rounded algorithm, keeping boundary decisions aligned.
        inside = np.hypot(xs - center.x, ys - center.y) <= self._circle.radius
        return np.where(inside, self._density, 0.0)

    def marginal_cdf_x(self, x: float) -> float:
        c, r = self._circle.center, self._circle.radius
        if x <= c.x - r:
            return 0.0
        if x >= c.x + r:
            return 1.0
        t = (x - c.x) / r
        # Area of the circular segment left of x, normalised by the disc area.
        return (t * math.sqrt(1 - t * t) + math.asin(t)) / math.pi + 0.5

    def marginal_cdf_y(self, y: float) -> float:
        c, r = self._circle.center, self._circle.radius
        if y <= c.y - r:
            return 0.0
        if y >= c.y + r:
            return 1.0
        t = (y - c.y) / r
        return (t * math.sqrt(1 - t * t) + math.asin(t)) / math.pi + 0.5

    def _invert(self, cdf, low: float, high: float, p: float) -> float:
        for _ in range(60):
            mid = (low + high) / 2.0
            if cdf(mid) < p:
                low = mid
            else:
                high = mid
        return (low + high) / 2.0

    def marginal_quantile_x(self, p: float) -> float:
        self._validate_probability(p)
        return self._invert(self.marginal_cdf_x, self._region.xmin, self._region.xmax, p)

    def marginal_quantile_y(self, p: float) -> float:
        self._validate_probability(p)
        return self._invert(self.marginal_cdf_y, self._region.ymin, self._region.ymax, p)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # Uniform sampling on a disc via the radius/angle transform.
        radii = self._circle.radius * np.sqrt(rng.uniform(0.0, 1.0, size=n))
        angles = rng.uniform(0.0, 2.0 * math.pi, size=n)
        xs = self._circle.center.x + radii * np.cos(angles)
        ys = self._circle.center.y + radii * np.sin(angles)
        return np.column_stack([xs, ys])

    def from_uniforms(self, ux: np.ndarray, uy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        radii = self._circle.radius * np.sqrt(ux)
        angles = 2.0 * math.pi * np.asarray(uy, dtype=float)
        center = self._circle.center
        return center.x + radii * np.cos(angles), center.y + radii * np.sin(angles)

    def to_dict(self) -> dict:
        return _tagged(
            {
                "type": "circle",
                "center": [self._circle.center.x, self._circle.center.y],
                "radius": self._circle.radius,
                "resolution": self._resolution,
            },
        )


# --------------------------------------------------------------------------- #
# Batched marginal quantiles (U-catalog construction)
# --------------------------------------------------------------------------- #
def _uniform_quantiles(pdfs: Sequence[UniformPdf], ps: np.ndarray):
    # ``min + p·width`` per axis, as marginal_quantile_x/y compute it.
    bounds = np.array([pdf.region.as_tuple() for pdf in pdfs], dtype=float)
    low_x, low_y = bounds[:, 0:1], bounds[:, 1:2]
    width = bounds[:, 2:3] - low_x
    height = bounds[:, 3:4] - low_y
    return low_x + ps * width, low_y + ps * height


def _gaussian_axis(params: np.ndarray, ps: np.ndarray) -> np.ndarray:
    # params columns: low, high, lower-tail CDF, mass, mu, sigma.
    low, high, lo_cdf, mass, mu, sigma = (params[:, k : k + 1] for k in range(6))
    values = _norm_ppf(lo_cdf + ps * mass, mu, sigma)
    values = np.where(ps <= 0.0, low, values)
    return np.where(ps >= 1.0, high, values)


def _gaussian_quantiles(pdfs: Sequence[TruncatedGaussianPdf], ps: np.ndarray):
    # ``ndtri(lo + p·mass)·σ + μ`` with the scalar path's end-point cases.
    x_params = np.array(
        [
            (g._region.xmin, g._region.xmax, g._x_lo_cdf, g._x_mass, g._mu_x, g._sigma_x)
            for g in pdfs
        ],
        dtype=float,
    )
    y_params = np.array(
        [
            (g._region.ymin, g._region.ymax, g._y_lo_cdf, g._y_mass, g._mu_y, g._sigma_y)
            for g in pdfs
        ],
        dtype=float,
    )
    return _gaussian_axis(x_params, ps), _gaussian_axis(y_params, ps)


#: Array kernels by *exact* pdf type: a subclass may override its quantiles,
#: so it takes the per-pdf loop like every other pdf.
_QUANTILE_KERNELS = {
    UniformPdf: _uniform_quantiles,
    TruncatedGaussianPdf: _gaussian_quantiles,
}


def marginal_quantiles(
    pdfs: Sequence[UncertaintyPdf], ps: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Marginal quantiles of many pdfs at many probabilities, ``(N, P)`` per axis.

    Entry ``[i, j]`` is bitwise ``pdfs[i].marginal_quantile_x(ps[j])`` (resp.
    ``_y``): uniform and truncated-Gaussian pdfs run one array kernel per
    class with the scalar path's IEEE operations, every other pdf calls its
    own scalar quantiles.  The probabilities are validated once.
    """
    ps = [float(p) for p in ps]
    for p in ps:
        if not 0.0 <= p <= 1.0:
            raise DistributionError(f"probability must lie in [0, 1], got {p}")
    xs = np.empty((len(pdfs), len(ps)), dtype=float)
    ys = np.empty((len(pdfs), len(ps)), dtype=float)
    groups: dict[type, list[int]] = {}
    for row, pdf in enumerate(pdfs):
        groups.setdefault(type(pdf), []).append(row)
    probabilities = np.asarray(ps, dtype=float)
    for cls, rows in groups.items():
        kernel = _QUANTILE_KERNELS.get(cls)
        if kernel is not None:
            xs[rows], ys[rows] = kernel([pdfs[row] for row in rows], probabilities)
            continue
        for row in rows:
            pdf = pdfs[row]
            xs[row] = [pdf.marginal_quantile_x(p) for p in ps]
            ys[row] = [pdf.marginal_quantile_y(p) for p in ps]
    return xs, ys


# --------------------------------------------------------------------------- #
# Wire decoding
# --------------------------------------------------------------------------- #
def _require(payload, field: str):
    from repro.core.wire import require

    return require(payload, PDF_SCHEMA, field)


def _decode_region(payload) -> Rect:
    xmin, ymin, xmax, ymax = (float(v) for v in payload)
    return Rect(xmin, ymin, xmax, ymax)


def _decode_uniform(payload) -> UniformPdf:
    return UniformPdf(_decode_region(_require(payload, "region")))


def _decode_gaussian(payload) -> TruncatedGaussianPdf:
    sigma_x, sigma_y = (float(v) for v in _require(payload, "sigma"))
    return TruncatedGaussianPdf(
        _decode_region(_require(payload, "region")),
        sigma_x=sigma_x,
        sigma_y=sigma_y,
    )


def _decode_histogram(payload) -> HistogramPdf:
    return HistogramPdf(
        _decode_region(_require(payload, "region")),
        _require(payload, "weights"),
    )


def _decode_circle(payload) -> UniformCirclePdf:
    x, y = (float(v) for v in _require(payload, "center"))
    return UniformCirclePdf(
        Circle(Point(x, y), float(_require(payload, "radius"))),
        resolution=int(_require(payload, "resolution")),
    )


#: ``type`` discriminator → decoder.  Third-party pdfs register here.
_PDF_CODECS: dict[str, "object"] = {
    "uniform": _decode_uniform,
    "gaussian": _decode_gaussian,
    "histogram": _decode_histogram,
    "circle": _decode_circle,
}


def register_pdf_codec(type_name: str, decoder) -> None:
    """Register a decoder for a third-party pdf's wire ``type``.

    ``decoder`` takes the checked payload mapping and returns the pdf; the
    class's :meth:`UncertaintyPdf.to_dict` must emit the same ``type``.
    """
    _PDF_CODECS[str(type_name)] = decoder


def pdf_from_dict(payload) -> UncertaintyPdf:
    """Decode a pdf from its :meth:`UncertaintyPdf.to_dict` payload."""
    from repro.core.wire import check_schema

    from repro.core.errors import SchemaError

    payload = check_schema(payload, PDF_SCHEMA)
    type_name = _require(payload, "type")
    decoder = _PDF_CODECS.get(type_name)
    if decoder is None:
        raise SchemaError(
            f"unknown pdf type {type_name!r}; known types: {sorted(_PDF_CODECS)}"
        )
    return decoder(payload)
