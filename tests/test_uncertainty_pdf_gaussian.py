"""Unit tests for the truncated Gaussian uncertainty pdf."""

import numpy as np
import pytest

from repro.geometry.rect import Rect
from repro.uncertainty.pdf import TruncatedGaussianPdf
from repro.uncertainty.sampling import grid_rect_probability, monte_carlo_rect_probability

REGION = Rect(0.0, 0.0, 600.0, 600.0)


@pytest.fixture()
def pdf() -> TruncatedGaussianPdf:
    return TruncatedGaussianPdf(REGION)


class TestConstruction:
    def test_default_sigma_is_one_sixth_of_extent(self, pdf):
        assert pdf.sigma == (pytest.approx(100.0), pytest.approx(100.0))

    def test_explicit_sigma(self):
        pdf = TruncatedGaussianPdf(REGION, sigma_x=50.0, sigma_y=25.0)
        assert pdf.sigma == (50.0, 25.0)

    def test_rejects_non_positive_sigma(self):
        with pytest.raises(ValueError):
            TruncatedGaussianPdf(REGION, sigma_x=0.0)

    def test_rejects_degenerate_region(self):
        with pytest.raises(ValueError):
            TruncatedGaussianPdf(Rect(0.0, 0.0, 0.0, 10.0))

    def test_mean_is_region_center(self, pdf):
        assert pdf.mean().as_tuple() == (300.0, 300.0)


class TestRectProbability:
    def test_full_region_gives_one(self, pdf):
        assert pdf.probability_in_rect(REGION) == pytest.approx(1.0)

    def test_disjoint_gives_zero(self, pdf):
        assert pdf.probability_in_rect(Rect(1000.0, 1000.0, 1100.0, 1100.0)) == 0.0

    def test_half_region_is_half_by_symmetry(self, pdf):
        left = Rect(0.0, 0.0, 300.0, 600.0)
        assert pdf.probability_in_rect(left) == pytest.approx(0.5, abs=1e-9)

    def test_center_concentration(self, pdf):
        # A central box of half the side length holds far more than the
        # uniform share (0.25) of the mass because the Gaussian concentrates.
        central = Rect(150.0, 150.0, 450.0, 450.0)
        assert pdf.probability_in_rect(central) > 0.55

    def test_matches_monte_carlo(self, pdf, rng):
        rect = Rect(100.0, 200.0, 400.0, 500.0)
        exact = pdf.probability_in_rect(rect)
        estimate = monte_carlo_rect_probability(pdf, rect, 30_000, rng)
        assert estimate == pytest.approx(exact, abs=0.02)

    def test_matches_grid_integration(self, pdf):
        rect = Rect(50.0, 50.0, 350.0, 250.0)
        exact = pdf.probability_in_rect(rect)
        numeric = grid_rect_probability(pdf, rect, resolution=96)
        assert numeric == pytest.approx(exact, abs=0.02)


class TestMarginals:
    def test_cdf_monotone(self, pdf):
        xs = np.linspace(0.0, 600.0, 25)
        values = [pdf.marginal_cdf_x(float(x)) for x in xs]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_cdf_endpoints(self, pdf):
        assert pdf.marginal_cdf_x(0.0) == 0.0
        assert pdf.marginal_cdf_x(600.0) == 1.0

    def test_median_is_center(self, pdf):
        assert pdf.marginal_quantile_x(0.5) == pytest.approx(300.0, abs=1e-6)
        assert pdf.marginal_quantile_y(0.5) == pytest.approx(300.0, abs=1e-6)

    def test_quantile_inverts_cdf(self, pdf):
        for p in (0.05, 0.25, 0.5, 0.75, 0.95):
            assert pdf.marginal_cdf_x(pdf.marginal_quantile_x(p)) == pytest.approx(p, abs=1e-9)

    def test_quantiles_tighter_than_uniform(self, pdf):
        # Gaussian mass concentrates at the centre, so the 0.1-quantile lies
        # farther from the boundary than the uniform one would (60.0).
        assert pdf.marginal_quantile_x(0.1) > 60.0


class TestSampling:
    def test_samples_inside_region(self, pdf, rng):
        draws = pdf.sample(rng, 5_000)
        assert np.all(draws[:, 0] >= REGION.xmin) and np.all(draws[:, 0] <= REGION.xmax)
        assert np.all(draws[:, 1] >= REGION.ymin) and np.all(draws[:, 1] <= REGION.ymax)

    def test_sample_mean_near_center(self, pdf, rng):
        draws = pdf.sample(rng, 20_000)
        assert float(draws[:, 0].mean()) == pytest.approx(300.0, abs=5.0)
        assert float(draws[:, 1].mean()) == pytest.approx(300.0, abs=5.0)

    def test_sample_std_matches_sigma(self, pdf, rng):
        draws = pdf.sample(rng, 20_000)
        # Truncation at ±3σ slightly shrinks the standard deviation.
        assert float(draws[:, 0].std()) == pytest.approx(100.0, rel=0.1)


class TestStatelessNormal:
    """The float-only Gaussian is bitwise the frozen ``scipy.stats.norm``."""

    @staticmethod
    def _bits(values) -> np.ndarray:
        return np.asarray(values, dtype=np.float64).view(np.int64)

    @pytest.mark.parametrize("mu, sigma", [(0.0, 1.0), (300.0, 100.0), (-1234.5, 0.37), (5e4, 8e3)])
    def test_cdf_ppf_pdf_match_frozen_norm(self, mu, sigma):
        from scipy import stats

        from repro.uncertainty.pdf import _norm_cdf, _norm_pdf, _norm_ppf

        frozen = stats.norm(loc=mu, scale=sigma)
        rng = np.random.default_rng(2007)
        xs = mu + sigma * rng.uniform(-9.0, 9.0, size=100_000)
        qs = np.concatenate([rng.uniform(size=99_998), [0.0, 1.0]])
        assert np.array_equal(self._bits(_norm_cdf(xs, mu, sigma)), self._bits(frozen.cdf(xs)))
        assert np.array_equal(self._bits(_norm_ppf(qs, mu, sigma)), self._bits(frozen.ppf(qs)))
        assert np.array_equal(self._bits(_norm_pdf(xs, mu, sigma)), self._bits(frozen.pdf(xs)))
        for x, q in zip(xs[:500].tolist(), qs[:500].tolist()):
            assert float(_norm_cdf(x, mu, sigma)) == float(frozen.cdf(x))
            assert float(_norm_ppf(q, mu, sigma)) == float(frozen.ppf(q))
            assert float(_norm_pdf(x, mu, sigma)) == float(frozen.pdf(x))

    def test_pdf_methods_match_the_frozen_formulas(self, pdf):
        from scipy import stats

        fx = stats.norm(loc=300.0, scale=100.0)
        lo, hi = float(fx.cdf(REGION.xmin)), float(fx.cdf(REGION.xmax))
        mass = hi - lo
        for p in (0.05, 0.1, 0.3, 0.5, 0.77):
            assert pdf.marginal_quantile_x(p) == float(fx.ppf(lo + p * mass))
        for x in (12.5, 150.0, 300.0, 599.0):
            assert pdf.marginal_cdf_x(x) == (float(fx.cdf(x)) - lo) / mass
        xs = np.linspace(1.0, 599.0, 257)
        expected = fx.pdf(xs) / mass * (fx.pdf(xs) / mass)
        assert np.array_equal(pdf.density_array(xs, xs), expected)

    def test_serving_never_imports_scipy_stats(self):
        import os
        import subprocess
        import sys

        code = "import sys, repro.serve.server; print('scipy.stats' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"
