"""Every shipped pdf rejects non-finite parameters, built directly or decoded."""

import math

import pytest

from repro.errors import DistributionError, GeometryError
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.uncertainty.pdf import (
    HistogramPdf,
    TruncatedGaussianPdf,
    UniformCirclePdf,
    UniformPdf,
    pdf_from_dict,
)

NAN = float("nan")
INF = float("inf")
BAD = [NAN, INF, -INF]
REGION = Rect(0.0, 0.0, 10.0, 10.0)


def _regions():
    for value in BAD:
        yield Rect(0.0, 0.0, value, 10.0)
        yield Rect(value, 0.0, 10.0, 10.0)
        yield Rect(0.0, value, 10.0, 10.0)
        yield Rect(0.0, 0.0, 10.0, value)


@pytest.mark.parametrize("region", list(_regions()), ids=repr)
def test_region_coordinates_must_be_finite(region):
    with pytest.raises(DistributionError):
        UniformPdf(region)
    with pytest.raises(DistributionError):
        TruncatedGaussianPdf(region)
    with pytest.raises(DistributionError):
        HistogramPdf(region, [[1.0, 2.0]])


@pytest.mark.parametrize("value", BAD, ids=repr)
def test_sigmas_must_be_finite(value):
    with pytest.raises(DistributionError):
        TruncatedGaussianPdf(REGION, sigma_x=value)
    with pytest.raises(DistributionError):
        TruncatedGaussianPdf(REGION, sigma_y=value)


@pytest.mark.parametrize("value", BAD, ids=repr)
def test_histogram_weights_must_be_finite(value):
    with pytest.raises(DistributionError):
        HistogramPdf(REGION, [[1.0, value], [1.0, 1.0]])


@pytest.mark.parametrize("value", BAD, ids=repr)
def test_circle_centre_and_radius_must_be_finite(value):
    with pytest.raises(DistributionError):
        UniformCirclePdf(Circle(Point(value, 0.0), 5.0))
    with pytest.raises(DistributionError):
        UniformCirclePdf(Circle(Point(0.0, value), 5.0))
    if not value < 0:  # a negative radius is the circle's own error
        with pytest.raises(DistributionError):
            UniformCirclePdf(Circle(Point(0.0, 0.0), value))


@pytest.mark.parametrize(
    "pdf",
    [
        UniformPdf(REGION),
        TruncatedGaussianPdf(REGION, sigma_x=2.0, sigma_y=3.0),
        HistogramPdf(REGION, [[1.0, 2.0], [3.0, 4.0]]),
        UniformCirclePdf(Circle(Point(5.0, 5.0), 4.0)),
    ],
    ids=lambda pdf: type(pdf).__name__,
)
@pytest.mark.parametrize("value", BAD, ids=repr)
def test_decoded_payloads_with_non_finite_numbers_are_rejected(pdf, value):
    """JSON can carry NaN and Infinity; every numeric field is checked."""
    payload = pdf.to_dict()
    assert pdf_from_dict(payload).to_dict() == payload
    numeric = [key for key in ("region", "sigma", "center", "radius") if key in payload]
    if "weights" in payload:
        numeric.append("weights")
    assert numeric
    for key in numeric:
        broken = dict(payload)
        if key == "radius":
            broken[key] = value
        elif key == "weights":
            broken[key] = [[value] + row[1:] for row in payload[key]]
        else:
            broken[key] = [value] + list(payload[key][1:])
        # A negative radius is the circle's own (geometry) error.
        negative_radius = key == "radius" and value < 0
        with pytest.raises(GeometryError if negative_radius else DistributionError):
            pdf_from_dict(broken)


def test_finite_parameters_still_construct():
    assert math.isfinite(TruncatedGaussianPdf(REGION).marginal_quantile_x(0.3))
    assert UniformPdf(REGION).probability_in_rect(REGION) == 1.0
