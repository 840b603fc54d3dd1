"""Unit tests for U-catalogs (Section 5.1 of the paper)."""

import struct

import numpy as np
import pytest

from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.uncertainty.catalog import (
    DEFAULT_CATALOG_LEVELS,
    PAPER_CATALOG_LEVELS,
    UCatalog,
)
from repro.uncertainty.pbound import compute_pbound
from repro.uncertainty.pdf import (
    HistogramPdf,
    TruncatedGaussianPdf,
    UniformCirclePdf,
    UniformPdf,
)

REGION = Rect(0.0, 0.0, 100.0, 100.0)


@pytest.fixture()
def catalog() -> UCatalog:
    return UCatalog.build(UniformPdf(REGION), DEFAULT_CATALOG_LEVELS)


class TestConstruction:
    def test_default_levels(self, catalog):
        assert catalog.levels == DEFAULT_CATALOG_LEVELS
        assert len(catalog) == len(DEFAULT_CATALOG_LEVELS)

    def test_paper_levels_has_eleven_entries(self):
        assert len(PAPER_CATALOG_LEVELS) == 11
        assert PAPER_CATALOG_LEVELS[0] == 0.0
        assert PAPER_CATALOG_LEVELS[-1] == 1.0

    def test_build_sorts_and_deduplicates_levels(self):
        catalog = UCatalog.build(UniformPdf(REGION), [0.3, 0.1, 0.3, 0.0])
        assert catalog.levels == (0.0, 0.1, 0.3)

    def test_mismatched_lengths_rejected(self):
        bound = compute_pbound(UniformPdf(REGION), 0.1)
        with pytest.raises(ValueError):
            UCatalog(levels=(0.0, 0.1), rects=(bound.rect,))

    def test_unsorted_levels_rejected(self):
        bounds = tuple(compute_pbound(UniformPdf(REGION), p) for p in (0.1, 0.0))
        with pytest.raises(ValueError):
            UCatalog(levels=(0.1, 0.0), rects=tuple(bound.rect for bound in bounds))

    def test_out_of_range_level_rejected(self):
        bound = compute_pbound(UniformPdf(REGION), 0.1)
        with pytest.raises(ValueError):
            UCatalog(levels=(1.5,), rects=(bound.rect,))

    def test_empty_catalog_rejected(self):
        with pytest.raises(ValueError):
            UCatalog(levels=(), rects=())


class TestLookup:
    def test_bound_at_exact_level(self, catalog):
        bound = catalog.bound_at(0.2)
        assert bound.left == pytest.approx(20.0)

    def test_bound_at_missing_level_raises(self, catalog):
        with pytest.raises(KeyError):
            catalog.bound_at(0.15)

    def test_largest_level_at_most(self, catalog):
        assert catalog.largest_level_at_most(0.25) == 0.2
        assert catalog.largest_level_at_most(0.5) == 0.5
        assert catalog.largest_level_at_most(0.95) == 0.5
        assert catalog.largest_level_at_most(0.0) == 0.0

    def test_largest_level_at_most_below_minimum(self):
        catalog = UCatalog.build(UniformPdf(REGION), [0.1, 0.2])
        assert catalog.largest_level_at_most(0.05) is None

    def test_smallest_level_at_least(self, catalog):
        assert catalog.smallest_level_at_least(0.25) == 0.3
        assert catalog.smallest_level_at_least(0.0) == 0.0
        assert catalog.smallest_level_at_least(0.75) is None

    def test_bound_for_threshold_rounds_down(self, catalog):
        bound = catalog.bound_for_threshold(0.37)
        assert bound is not None
        assert bound.p == 0.3

    def test_tightest_bound_at_least_rounds_up(self, catalog):
        bound = catalog.tightest_bound_at_least(0.37)
        assert bound is not None
        assert bound.p == 0.4

    def test_iteration_yields_pairs(self, catalog):
        pairs = list(catalog)
        assert [level for level, _ in pairs] == list(catalog.levels)


class TestConservativeRounding:
    def test_rounded_down_bound_is_looser(self, catalog):
        """The bound at the rounded-down level must enclose the exact bound."""
        pdf = UniformPdf(REGION)
        threshold = 0.37
        rounded = catalog.bound_for_threshold(threshold)
        exact = compute_pbound(pdf, threshold)
        assert rounded is not None
        assert rounded.rect.contains_rect(exact.rect)


class TestBuildMany:
    """Batch p-bounds are bitwise the scalar ``compute_pbound``."""

    LEVEL_SETS = [
        DEFAULT_CATALOG_LEVELS,
        PAPER_CATALOG_LEVELS,
        (0.3, 0.1, 0.3, 0.0, 0.45, 0.1),  # unsorted, duplicated
        (0.6, 0.9, 1.0, 0.55),  # all above 0.5: every level clamps
        (0.25, 0.5, 0.75),
    ]

    @staticmethod
    def _pdfs():
        rng = np.random.default_rng(39)
        pdfs = []
        for _ in range(40):
            x, y = rng.uniform(-500.0, 500.0, size=2)
            w, h = rng.uniform(0.5, 300.0, size=2)
            region = Rect(x, y, x + w, y + h)
            pdfs.append(UniformPdf(region))
            pdfs.append(TruncatedGaussianPdf(region))
            pdfs.append(TruncatedGaussianPdf(region, sigma_x=w / 2.0, sigma_y=h / 9.0))
        for _ in range(2):
            x, y = rng.uniform(-500.0, 500.0, size=2)
            region = Rect(x, y, x + 80.0, y + 40.0)
            pdfs.append(HistogramPdf(region, rng.uniform(0.0, 1.0, size=(3, 5))))
            pdfs.append(UniformCirclePdf(Circle(Point(x, y), 25.0), resolution=32))
        return pdfs

    @staticmethod
    def _bits(rect: Rect) -> bytes:
        return struct.pack("<4d", *rect.as_tuple())

    @pytest.mark.parametrize("levels", LEVEL_SETS, ids=str)
    def test_batch_equals_scalar_pbounds(self, levels):
        pdfs = self._pdfs()
        catalogs, table = UCatalog.build_many(pdfs, levels)
        ordered = tuple(sorted(set(levels)))
        assert table.shape == (len(pdfs), len(ordered), 4)
        for pdf, catalog, rows in zip(pdfs, catalogs, table):
            assert catalog.levels == ordered
            single = UCatalog.build(pdf, levels)
            for position, level in enumerate(ordered):
                expected = compute_pbound(pdf, level)
                rect = catalog.rects[position]
                assert self._bits(rect) == self._bits(expected.rect)
                assert self._bits(single.rects[position]) == self._bits(expected.rect)
                assert rows[position].tobytes() == struct.pack("=4d", *expected.rect.as_tuple())
                assert catalog.bound_at(level) == expected

    def test_levels_are_validated_once_for_the_batch(self):
        pdfs = self._pdfs()[:3]
        for bad in ([], [0.1, 1.5], [-0.1], [float("nan")]):
            with pytest.raises(ValueError):
                UCatalog.build_many(pdfs, bad)

    def test_catalogs_share_levels_and_clamped_rectangles(self):
        catalogs, _ = UCatalog.build_many(self._pdfs(), PAPER_CATALOG_LEVELS)
        assert all(catalog.levels is catalogs[0].levels for catalog in catalogs)
        half = PAPER_CATALOG_LEVELS.index(0.5)
        for catalog in catalogs:
            # Every level at or above 0.5 clamps to the 0.5-bound.
            assert all(rect is catalog.rects[half] for rect in catalog.rects[half:])

    def test_empty_batch(self):
        catalogs, table = UCatalog.build_many([], DEFAULT_CATALOG_LEVELS)
        assert catalogs == []
        assert table.shape == (0, len(DEFAULT_CATALOG_LEVELS), 4)
