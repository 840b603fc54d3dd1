"""Counter-based Monte-Carlo draws: statistics, layout and every execution path.

Every Monte-Carlo draw is ``u(seed, token, oid, j)`` from
:mod:`repro.core.draws` — a pure function, no generator.  These tests check
the function is a good uniform source, that each pdf's ``from_uniforms``
transform reproduces its distribution, that the sampled kernels converge to
the closed forms, that the column layout is pinned, and that every execution
path (serial, cached, sharded, distributed; both backends) answers
bitwise-identically without ever building a generator — including over
negative oids.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from repro.core.draws import (
    CHUNK_ROWS,
    counter_uniform,
    query_stream_key,
    row_keys,
    uniforms,
)
from repro.core.duality import (
    ipq_probabilities,
    ipq_probabilities_monte_carlo_per_oid,
    iuq_probabilities_monte_carlo_per_oid,
    iuq_probability_exact_uniform,
)
from repro.core.engine import EngineConfig
from repro.core.nearest import nn_query_draws
from repro.core.queries import NearestNeighborQuery, RangeQuery, RangeQuerySpec
from repro.core.session import Session
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.uncertainty.pdf import (
    HistogramPdf,
    TruncatedGaussianPdf,
    UncertaintyPdf,
    UniformCirclePdf,
    UniformPdf,
)
from repro.uncertainty.region import PointObject, UncertainObject

#: Significance floor of the goodness-of-fit tests.  Every input is a fixed
#: function of pinned coordinates, so a test either always passes or never.
ALPHA = 1e-3

ISSUER_REGION = Rect.from_center(Point(1_000.0, 1_000.0), 150.0, 100.0)


# --------------------------------------------------------------------------- #
# The counter function
# --------------------------------------------------------------------------- #
class TestCounterFunction:
    def test_uniform_over_a_hundred_thousand_draws(self):
        u = uniforms(row_keys(2007, 31, np.arange(500)), 256).ravel()
        assert u.size >= 100_000
        assert u.min() >= 0.0 and u.max() < 1.0
        assert stats.kstest(u, "uniform").pvalue > ALPHA

    def test_consecutive_pairs_fill_the_unit_square(self):
        u = uniforms(row_keys(5, 8, np.arange(400)), 500)
        pairs = u.reshape(-1, 2)  # (u_j, u_{j+1}) for even j, disjoint pairs
        bins = 10
        counts, _, _ = np.histogram2d(
            pairs[:, 0], pairs[:, 1], bins=bins, range=[[0, 1], [0, 1]]
        )
        expected = len(pairs) / bins**2
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert stats.chi2.sf(chi2, bins**2 - 1) > ALPHA

    @pytest.mark.parametrize(
        "first, second",
        [
            ((7, 11, np.arange(0, 400)), (7, 11, np.arange(1, 401))),  # adjacent oids
            ((7, 11, np.arange(400)), (7, 12, np.arange(400))),  # adjacent tokens
            ((7, 11, np.arange(400)), (8, 11, np.arange(400))),  # adjacent seeds
        ],
        ids=["oids", "tokens", "seeds"],
    )
    def test_adjacent_streams_are_uncorrelated(self, first, second):
        a = uniforms(row_keys(*first), 256).ravel()
        b = uniforms(row_keys(*second), 256).ravel()
        # Under independence r ~ N(0, 1/N); 4/sqrt(N) is a 4-sigma bound.
        assert abs(np.corrcoef(a, b)[0, 1]) < 4.0 / math.sqrt(a.size)

    def test_golden_values_pin_the_function(self):
        # Cross-path parity rests on this exact function and column layout:
        # a change here changes every sampled answer of every keyed plan.
        assert counter_uniform(7, 0, 0, 0) == 0.44708695005391574
        assert counter_uniform(2007, 123, -3, 5) == 0.0015558515098040848
        assert counter_uniform(1, 2**62, 10**9, 399) == 0.9560374904179623
        stream = uniforms(query_stream_key(7, 3), 2)[0]
        np.testing.assert_array_equal(stream, [0.2532532465975246, 0.6426471694163078])

    def test_blocks_equal_the_scalar_reference(self):
        oids = np.arange(-5, CHUNK_ROWS + 7)  # spans two blocks, negative oids
        block = uniforms(row_keys(3, 9, oids), 6)
        for row, oid in enumerate(oids):
            for j in range(6):
                assert block[row, j] == counter_uniform(3, 9, int(oid), j)

    def test_nearest_stream_differs_from_every_oid_row(self):
        nn = uniforms(query_stream_key(7, 11), 8)[0]
        rows = uniforms(row_keys(7, 11, np.arange(-64, 64)), 8)
        assert not (rows == nn).all(axis=1).any()


# --------------------------------------------------------------------------- #
# from_uniforms: inverse-CDF transforms of given uniforms
# --------------------------------------------------------------------------- #
def _draw(pdf: UncertaintyPdf, n: int) -> tuple[np.ndarray, np.ndarray]:
    u = uniforms(row_keys(2007, 77, np.arange(n // 100)), 200)
    return pdf.from_uniforms(u[:, :100], u[:, 100:])


def _ks(values: np.ndarray, cdf) -> float:
    return stats.kstest(np.ravel(values), np.vectorize(cdf)).pvalue


class TestFromUniforms:
    def test_uniform_marginals(self):
        pdf = UniformPdf(ISSUER_REGION)
        xs, ys = _draw(pdf, 20_000)
        assert _ks(xs, pdf.marginal_cdf_x) > ALPHA
        assert _ks(ys, pdf.marginal_cdf_y) > ALPHA

    def test_uniform_matches_the_stream_arithmetic(self):
        pdf = UniformPdf(ISSUER_REGION)
        u = np.array([0.0, 0.25, 0.5])
        xs, ys = pdf.from_uniforms(u, u)
        region = ISSUER_REGION
        np.testing.assert_array_equal(xs, region.xmin + (region.xmax - region.xmin) * u)
        np.testing.assert_array_equal(ys, region.ymin + (region.ymax - region.ymin) * u)

    def test_truncated_gaussian_marginals(self):
        pdf = TruncatedGaussianPdf(ISSUER_REGION)
        xs, ys = _draw(pdf, 6_000)  # the scalar marginal CDF is the slow part
        assert _ks(xs, pdf.marginal_cdf_x) > ALPHA
        assert _ks(ys, pdf.marginal_cdf_y) > ALPHA

    def test_histogram_marginals(self):
        weights = [[1.0, 0.0, 3.0], [2.0, 0.0, 0.5], [0.0, 0.0, 4.0]]
        pdf = HistogramPdf(Rect(0.0, 0.0, 30.0, 30.0), weights)
        xs, ys = _draw(pdf, 4_000)
        assert _ks(xs, pdf.marginal_cdf_x) > ALPHA
        assert _ks(ys, pdf.marginal_cdf_y) > ALPHA
        # Empty bins never receive a draw.
        assert np.all(pdf.density_array(xs, ys) > 0.0)

    def test_circle_radius_and_angle(self):
        circle = Circle(Point(50.0, -20.0), 8.0)
        pdf = UniformCirclePdf(circle)
        xs, ys = _draw(pdf, 20_000)
        radii = np.hypot(xs - 50.0, ys + 20.0)
        assert radii.max() <= 8.0
        assert _ks(radii, lambda r: min(r / 8.0, 1.0) ** 2) > ALPHA
        angles = np.mod(np.arctan2(ys + 20.0, xs - 50.0), 2.0 * math.pi)
        assert stats.kstest(angles.ravel() / (2.0 * math.pi), "uniform").pvalue > ALPHA


# --------------------------------------------------------------------------- #
# Sampled kernels against the closed forms
# --------------------------------------------------------------------------- #
SPEC = RangeQuerySpec(120.0, 90.0)
SAMPLES = 4_000
OFFSETS = [(0.0, 0.0), (100.0, 0.0), (-180.0, 60.0), (200.0, -150.0), (260.0, 170.0)]
ISSUERS = {
    "uniform": UniformPdf(ISSUER_REGION),
    "gaussian": TruncatedGaussianPdf(ISSUER_REGION),
}


def _within_four_sigma(estimates, exact, samples):
    sigma = np.sqrt(exact * (1.0 - exact) / samples)
    assert np.all(np.abs(estimates - exact) <= 4.0 * sigma + 1.0 / samples), (
        estimates,
        exact,
    )


@pytest.mark.parametrize("issuer", sorted(ISSUERS))
def test_sampled_ipq_converges_to_the_closed_form(issuer):
    pdf = ISSUERS[issuer]
    center = ISSUER_REGION.center
    locations = np.array([(center.x + dx, center.y + dy) for dx, dy in OFFSETS])
    oids = np.arange(-2, len(OFFSETS) - 2)
    estimates = ipq_probabilities_monte_carlo_per_oid(pdf, SPEC, locations, oids, SAMPLES, 7, 99)
    _within_four_sigma(estimates, ipq_probabilities(pdf, SPEC, locations), SAMPLES)


def _midpoint_iuq(issuer_pdf, target_region: Rect, resolution: int = 200) -> float:
    """Lemma 4 for a uniform target: the mean of the exact IPQ over a fine grid."""
    fractions = (np.arange(resolution) + 0.5) / resolution
    xs = target_region.xmin + target_region.width * fractions
    ys = target_region.ymin + target_region.height * fractions
    grid = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)
    return float(ipq_probabilities(issuer_pdf, SPEC, grid).mean())


@pytest.mark.parametrize("issuer", sorted(ISSUERS))
def test_sampled_iuq_converges_to_the_closed_form(issuer):
    pdf = ISSUERS[issuer]
    center = ISSUER_REGION.center
    targets = [
        UncertainObject.uniform(
            oid, Rect.from_center(Point(center.x + dx, center.y + dy), 60.0, 40.0)
        )
        for oid, (dx, dy) in zip(range(-2, len(OFFSETS) - 2), OFFSETS)
    ]
    estimates = iuq_probabilities_monte_carlo_per_oid(pdf, targets, SPEC, SAMPLES, 7, 99)
    if issuer == "uniform":
        exact = [iuq_probability_exact_uniform(pdf, target, SPEC) for target in targets]
    else:
        exact = [_midpoint_iuq(pdf, target.region) for target in targets]
    _within_four_sigma(estimates, np.array(exact), SAMPLES)


def test_ipq_kernel_reads_the_documented_columns():
    pdf = UniformPdf(ISSUER_REGION)
    n = 50
    locations = np.array([[1_000.0, 1_000.0], [1_100.0, 950.0]])
    oids = np.array([-7, 12])
    got = ipq_probabilities_monte_carlo_per_oid(pdf, SPEC, locations, oids, n, 7, 5)
    u = uniforms(row_keys(7, 5, oids), 2 * n)
    xs, ys = pdf.from_uniforms(u[:, :n], u[:, n:])
    inside = (np.abs(xs - locations[:, :1]) <= SPEC.half_width) & (
        np.abs(ys - locations[:, 1:]) <= SPEC.half_height
    )
    np.testing.assert_array_equal(got, inside.sum(axis=1) / n)


def test_iuq_kernel_reads_the_documented_columns():
    pdf = TruncatedGaussianPdf(ISSUER_REGION)
    n = 40
    targets = [
        UncertainObject.uniform(-3, Rect.from_center(Point(1_000.0, 990.0), 50.0, 30.0)),
        UncertainObject(oid=8, pdf=TruncatedGaussianPdf(Rect(900.0, 900.0, 1e3, 1e3))),
    ]
    got = iuq_probabilities_monte_carlo_per_oid(pdf, targets, SPEC, n, 7, 5)
    u = uniforms(row_keys(7, 5, [target.oid for target in targets]), 4 * n)
    xs, ys = pdf.from_uniforms(u[:, :n], u[:, n : 2 * n])
    for row, target in enumerate(targets):
        txs, tys = target.pdf.from_uniforms(u[row, 2 * n : 3 * n], u[row, 3 * n :])
        inside = (np.abs(txs - xs[row]) <= SPEC.half_width) & (
            np.abs(tys - ys[row]) <= SPEC.half_height
        )
        assert got[row] == inside.sum() / n


def test_nearest_draws_use_the_query_stream():
    pdf = UniformPdf(ISSUER_REGION)
    draws = nn_query_draws(pdf, 16, 7, -4)
    u = uniforms(query_stream_key(7, -4), 32)[0]
    xs, ys = pdf.from_uniforms(u[:16], u[16:])
    np.testing.assert_array_equal(draws, np.column_stack([xs, ys]))


# --------------------------------------------------------------------------- #
# Every execution path: negative oids, and no generator anywhere
# --------------------------------------------------------------------------- #
def _negative_oid_data():
    rng = np.random.default_rng(31)
    xy = rng.uniform(600.0, 1_400.0, size=(240, 2))
    points = [
        PointObject(oid=oid, location=Point(x, y)) for oid, (x, y) in zip(range(-120, 120), xy)
    ]
    uncertain = []
    for oid, (x, y) in zip(range(-100, 100), rng.uniform(600.0, 1_400.0, size=(200, 2))):
        region = Rect.from_center(Point(x, y), 25.0, 40.0)
        # Every fifth target is Gaussian, so IUQ batches mix target pdfs.
        pdf = TruncatedGaussianPdf(region) if oid % 5 == 0 else UniformPdf(region)
        uncertain.append(UncertainObject(oid=oid, pdf=pdf).with_catalog())
    return points, uncertain


def _sampled_queries():
    gaussian = TruncatedGaussianPdf(Rect.from_center(Point(1_000.0, 1_000.0), 150.0, 150.0))
    issuers = [
        UncertainObject(oid=-1, pdf=gaussian),
        UncertainObject.uniform(-9, Rect.from_center(Point(900.0, 1_100.0), 100.0, 80.0)),
    ]
    spec = RangeQuerySpec(200.0, 200.0)
    queries = []
    for issuer in issuers:
        queries.append(RangeQuery(issuer=issuer, spec=spec, threshold=0.3, target="points"))
        queries.append(RangeQuery(issuer=issuer, spec=spec, threshold=0.3, target="uncertain"))
        queries.append(NearestNeighborQuery(issuer=issuer, threshold=0.0, samples=64))
    return queries


def _answers(evaluations):
    return [[(a.oid, a.probability) for a in e.result.answers] for e in evaluations]


def _serial(vectorized: bool) -> Session:
    points, uncertain = _negative_oid_data()
    config = EngineConfig(
        probability_method="monte_carlo",
        monte_carlo_samples=96,
        vectorized=vectorized,
    )
    return Session.from_objects(
        points=points, uncertain=uncertain, catalog_levels=None, config=config
    )


class TestKeyedPaths:
    def test_negative_oids_answer_bitwise_equal_on_every_path(self):
        queries = _sampled_queries()
        serial = _serial(True)
        expected = _answers(serial.evaluate_many(queries))
        assert all(expected)
        assert any(oid < 0 for answers in expected for oid, _ in answers)
        assert _answers(_serial(False).evaluate_many(queries)) == expected
        assert _answers(serial.sharded(2).evaluate_many(queries)) == expected
        distributed = serial.distributed(2)
        try:
            assert _answers(distributed.evaluate_many(queries)) == expected
        finally:
            distributed.engine.close()

    @pytest.mark.parametrize("vectorized", [True, False], ids=["vectorized", "scalar"])
    def test_no_generator_is_built_for_keyed_queries(self, monkeypatch, vectorized):
        queries = _sampled_queries()
        expected = _answers(_serial(vectorized).evaluate_many(queries))
        serial = _serial(vectorized)
        sessions = [serial, serial.cached(), serial.sharded(2), serial.sharded(2).cached()]

        def forbidden(*args, **kwargs):
            raise AssertionError("keyed draws must not build a generator")

        monkeypatch.setattr(np.random, "default_rng", forbidden)
        monkeypatch.setattr(np.random, "SeedSequence", forbidden)
        for session in sessions:
            assert _answers(session.evaluate_many(queries)) == expected
