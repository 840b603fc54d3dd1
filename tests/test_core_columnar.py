"""Unit tests for the columnar snapshots and the batched probability kernels."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.basic import (
    basic_ipq_probabilities,
    basic_ipq_probability,
    basic_iuq_probabilities,
    basic_iuq_probability,
    issuer_grid_arrays,
)
from repro.core.columnar import PDF_KINDS, PDF_UNIFORM, ColumnarPoints, ColumnarUncertain
from repro.core.draws import row_keys, uniforms
from repro.core.duality import (
    ipq_probabilities,
    ipq_probabilities_monte_carlo_per_oid,
    ipq_probability,
    iuq_probabilities_exact_uniform,
    iuq_probabilities_monte_carlo_per_oid,
    iuq_probability_exact_uniform,
)
from repro.core.engine import PointDatabase, UncertainDatabase
from repro.core.queries import RangeQuerySpec
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.uncertainty.pdf import (
    HistogramPdf,
    TruncatedGaussianPdf,
    UniformCirclePdf,
    UniformPdf,
)
from repro.uncertainty.region import PointObject, UncertainObject
from repro.uncertainty.sampling import monte_carlo_expectation, sample_array, sample_points

SPEC = RangeQuerySpec.square(300.0)
ISSUER_REGION = Rect(1_000.0, 1_000.0, 1_600.0, 1_500.0)


def _points(n=40, seed=5):
    rng = np.random.default_rng(seed)
    coordinates = rng.uniform(0.0, 4_000.0, size=(n, 2))
    return [PointObject.at(i + 1, float(x), float(y)) for i, (x, y) in enumerate(coordinates)]


def _uncertain(n=30, seed=6, with_catalog=True):
    rng = np.random.default_rng(seed)
    objects = []
    for i in range(n):
        x, y = rng.uniform(500.0, 3_500.0, size=2)
        obj = UncertainObject.uniform(
            i + 1, Rect.from_center(Point(float(x), float(y)), 80.0, 60.0)
        )
        objects.append(obj.with_catalog() if with_catalog else obj)
    return objects


class TestColumnarPoints:
    def test_row_alignment(self):
        objects = _points()
        snapshot = ColumnarPoints(objects)
        assert len(snapshot) == len(objects)
        for row, obj in enumerate(objects):
            assert snapshot.oids[row] == obj.oid
            assert snapshot.xy[row, 0] == obj.location.x
            assert snapshot.xy[row, 1] == obj.location.y

    def test_window_rows_matches_brute_force(self):
        objects = _points(200)
        snapshot = ColumnarPoints(objects)
        window = Rect(800.0, 900.0, 2_500.0, 2_400.0)
        expected = [row for row, obj in enumerate(objects) if window.contains_point(obj.location)]
        assert snapshot.window_rows(window).tolist() == expected

    def test_empty_window(self):
        snapshot = ColumnarPoints(_points())
        assert snapshot.window_rows(Rect.empty()).size == 0
        assert ColumnarPoints([]).window_rows(Rect(0, 0, 1, 1)).size == 0

    def test_arrays_read_only(self):
        snapshot = ColumnarPoints(_points())
        with pytest.raises(ValueError):
            snapshot.xy[0, 0] = 0.0
        with pytest.raises(ValueError):
            snapshot.oids[0] = 7


class TestColumnarUncertain:
    def test_bounds_and_rows_for(self):
        objects = _uncertain()
        snapshot = ColumnarUncertain(objects)
        for row, obj in enumerate(objects):
            assert tuple(snapshot.bounds[row]) == obj.region.as_tuple()
        rows = snapshot.rows_for([objects[7], objects[2]])
        assert rows.tolist() == [7, 2]

    def test_window_rows_matches_brute_force(self):
        objects = _uncertain(80)
        snapshot = ColumnarUncertain(objects)
        window = Rect(1_000.0, 1_000.0, 2_200.0, 2_600.0)
        expected = [row for row, obj in enumerate(objects) if obj.region.overlaps(window)]
        assert snapshot.window_rows(window).tolist() == expected

    def test_kind_column_codes_each_pdf(self):
        region = Rect.from_center(Point(1_000.0, 1_000.0), 50.0, 40.0)
        pdfs = [
            UniformPdf(region),
            TruncatedGaussianPdf(region),
            HistogramPdf(region, [[1.0, 2.0], [0.5, 3.0]]),
            UniformCirclePdf(Circle(Point(1_000.0, 1_000.0), 30.0)),
        ]
        objects = [UncertainObject(oid=i + 1, pdf=pdf) for i, pdf in enumerate(pdfs)]
        snapshot = ColumnarUncertain(objects)
        assert snapshot.kinds.dtype == np.int8
        assert snapshot.kinds.tolist() == [PDF_KINDS.index(type(pdf)) for pdf in pdfs]
        assert snapshot.kinds[0] == PDF_UNIFORM
        assert not snapshot.kinds.flags.writeable
        assert snapshot.objects_at(np.array([3, 0])) == [objects[3], objects[0]]

    def test_rows_for_names_the_foreign_oid(self):
        """An object from a different database raises a descriptive ValueError."""
        snapshot = ColumnarUncertain(_uncertain())
        foreign = UncertainObject.uniform(
            4_321, Rect.from_center(Point(100.0, 100.0), 10.0, 10.0)
        )
        with pytest.raises(ValueError, match="4321"):
            snapshot.rows_for([foreign])

    def test_catalog_snapshot_homogeneous(self):
        objects = _uncertain(with_catalog=True)
        snapshot = ColumnarUncertain(objects)
        assert snapshot.catalog_levels is not None
        assert snapshot.catalog_bounds.shape == (
            len(objects),
            len(objects[0].catalog.levels),
            4,
        )
        for li, (_, rect) in enumerate(objects[3].catalog.level_rects()):
            assert tuple(snapshot.catalog_bounds[3, li]) == rect.as_tuple()

    def test_catalog_snapshot_absent_when_heterogeneous(self):
        objects = _uncertain(with_catalog=True)
        objects[4] = UncertainObject(oid=objects[4].oid, pdf=objects[4].pdf)  # no catalog
        snapshot = ColumnarUncertain(objects)
        assert snapshot.catalog_levels is None
        assert snapshot.catalog_bounds is None


class TestDatabaseSnapshotCaching:
    def test_point_snapshot_built_lazily_and_cached(self):
        database = PointDatabase.build(_points())
        assert database._columnar is None
        snapshot = database.columnar()
        assert database.columnar() is snapshot

    def test_uncertain_snapshot_built_lazily_and_cached(self):
        database = UncertainDatabase.build(_uncertain(), index_kind="rtree")
        assert database._columnar is None
        snapshot = database.columnar()
        assert database.columnar() is snapshot

    def test_rebuild_starts_fresh(self):
        objects = _points()
        first = PointDatabase.build(objects)
        first_snapshot = first.columnar()
        rebuilt = PointDatabase.build(objects)
        assert rebuilt.columnar() is not first_snapshot

    def test_mutator_invalidates_snapshot(self):
        database = PointDatabase.build(_points())
        stale = database.columnar()
        database.insert(PointObject.at(4_000, 1_234.0, 2_345.0))
        fresh = database.columnar()
        assert fresh is not stale
        assert 4_000 in fresh.oids
        assert database.columnar() is fresh  # re-cached at the new epoch

    def test_direct_objects_mutation_invalidates_snapshot(self):
        """The historical staleness bug: append to ``db.objects``, query old data."""
        database = PointDatabase.build(_points())
        stale = database.columnar()
        database.objects.append(PointObject.at(4_001, 111.0, 222.0))
        fresh = database.columnar()
        assert fresh is not stale
        assert 4_001 in fresh.oids

    def test_uncertain_mutator_invalidates_snapshot(self):
        database = UncertainDatabase.build(_uncertain(), index_kind="rtree")
        stale = database.columnar()
        database.delete(database.objects[0].oid)
        assert database.columnar() is not stale
        assert len(database.columnar()) == len(stale) - 1


def _snapshot_arrays(snapshot):
    names = ("oids", "xy") if isinstance(snapshot, ColumnarPoints) else (
        "oids", "bounds", "kinds", "catalog_levels", "catalog_bounds"
    )
    return {name: getattr(snapshot, name) for name in names}


def assert_same_snapshot(derived, rebuilt):
    """Array-equal (catalogs included), object-identical, read-only."""
    assert type(derived) is type(rebuilt)
    assert len(derived.objects) == len(rebuilt.objects)
    assert all(a is b for a, b in zip(derived.objects, rebuilt.objects))
    for name, expected in _snapshot_arrays(rebuilt).items():
        got = getattr(derived, name)
        if expected is None:
            assert got is None, name
            continue
        assert got.dtype == expected.dtype and got.shape == expected.shape, name
        assert np.array_equal(got, expected), name
        assert not got.flags.writeable, name
    if isinstance(rebuilt, ColumnarUncertain):
        assert derived._row_of_oid == rebuilt._row_of_oid
        assert np.array_equal(
            derived.rows_for(list(derived.objects)), np.arange(len(derived.objects))
        )


class TestBuiltSnapshotAdoption:
    """A build that makes every catalog hands its table to the snapshot."""

    @pytest.mark.parametrize("index_kind", ["pti", "rtree"])
    def test_adopted_snapshot_equals_a_rebuild(self, index_kind):
        database = UncertainDatabase.build(_uncertain(with_catalog=False), index_kind=index_kind)
        adopted = database._fresh_columnar()
        assert adopted is not None and database.columnar() is adopted
        assert_same_snapshot(adopted, ColumnarUncertain(database.objects))
        # Bitwise, not merely equal: the table is the catalogs' rectangles.
        rebuilt = ColumnarUncertain(database.objects)
        assert adopted.catalog_bounds.tobytes() == rebuilt.catalog_bounds.tobytes()
        assert adopted.bounds.tobytes() == rebuilt.bounds.tobytes()

    def test_partly_catalogued_collection_snapshots_lazily(self):
        objects = _uncertain(with_catalog=False)
        objects[3] = objects[3].with_catalog()
        database = UncertainDatabase.build(objects, index_kind="rtree")
        assert database._columnar is None
        assert_same_snapshot(database.columnar(), ColumnarUncertain(database.objects))


def _point_mutations(database):
    oids = [obj.oid for obj in database.objects]
    return [
        lambda: database.insert(PointObject.at(4_000, 1_234.0, 2_345.0)),
        lambda: database.delete(oids[3]),  # the last row fills the hole
        lambda: database.delete(database.objects[-1].oid),  # nothing to swap
        lambda: database.move(oids[10], 321.0, 654.0),
        lambda: database.move(4_000, 3_999.0, 1.0),
    ]


def _uncertain_mutations(database):
    oids = [obj.oid for obj in database.objects]
    region = Rect.from_center(Point(2_000.0, 2_000.0), 120.0, 40.0)
    return [
        lambda: database.insert(UncertainObject.uniform(4_000, region)),
        lambda: database.insert(UncertainObject(oid=4_001, pdf=TruncatedGaussianPdf(region))),
        lambda: database.delete(oids[3]),
        lambda: database.delete(database.objects[-1].oid),
        lambda: database.move(oids[10], UniformPdf(region)),
        lambda: database.move(oids[11], UniformCirclePdf(Circle(Point(900.0, 900.0), 70.0))),
    ]


class TestSnapshotDerivation:
    """The mutators carry the snapshot forward instead of rebuilding it."""

    CASES = {
        "points": (lambda: PointDatabase.build(_points()), _point_mutations, ColumnarPoints),
        "uncertain-pti": (
            lambda: UncertainDatabase.build(_uncertain(with_catalog=False)),
            _uncertain_mutations,
            ColumnarUncertain,
        ),
        "uncertain-rtree": (
            lambda: UncertainDatabase.build(_uncertain(), index_kind="rtree"),
            _uncertain_mutations,
            ColumnarUncertain,
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_each_mutator_derives_an_equal_snapshot(self, case, monkeypatch):
        build, mutations, snapshot_cls = self.CASES[case]
        database = build()
        database.columnar()
        rebuilds = []
        original_init = snapshot_cls.__init__

        def counting_init(self, objects):
            rebuilds.append(len(objects))
            original_init(self, objects)

        for mutate in mutations(database):
            previous = database.columnar()
            frozen = {
                name: None if array is None else array.copy()
                for name, array in _snapshot_arrays(previous).items()
            }
            frozen_objects = previous.objects
            monkeypatch.setattr(snapshot_cls, "__init__", counting_init)
            mutate()
            derived = database.columnar()
            monkeypatch.setattr(snapshot_cls, "__init__", original_init)
            assert derived is not previous
            assert database._columnar_epoch == database.epoch
            assert_same_snapshot(derived, snapshot_cls(database.objects))
            # The snapshot handed out earlier still describes the old state.
            assert previous.objects is frozen_objects
            for name, array in frozen.items():
                if array is not None:
                    assert np.array_equal(getattr(previous, name), array), name
        assert rebuilds == []

    def test_out_of_band_edit_still_forces_a_rebuild(self):
        database = PointDatabase.build(_points())
        database.move(database.objects[0].oid, 5.0, 6.0)
        derived = database.columnar()
        database.objects[1] = PointObject.at(database.objects[1].oid, 77.0, 88.0)
        assert database._columnar_epoch != database.epoch
        rebuilt = database.columnar()
        assert rebuilt is not derived
        assert tuple(rebuilt.xy[1]) == (77.0, 88.0)
        # ... and a mutator meeting a stale snapshot leaves it to the rebuild.
        database.objects.reverse()
        database.move(database.objects[0].oid, 3.0, 4.0)
        assert database._columnar is None
        assert_same_snapshot(database.columnar(), ColumnarPoints(database.objects))

    def test_no_snapshot_means_nothing_to_derive(self):
        database = PointDatabase.build(_points())
        database.insert(PointObject.at(4_000, 1.0, 2.0))
        assert database._columnar is None

    def test_catalog_questions_go_to_the_full_rebuild(self):
        """No shared levels, an object off the levels, a drained collection."""
        plain = UncertainDatabase.build(
            _uncertain(with_catalog=False), index_kind="rtree", catalog_levels=None
        )
        assert plain.columnar().catalog_bounds is None
        plain.delete(plain.objects[0].oid)
        assert plain._columnar is None
        assert_same_snapshot(plain.columnar(), ColumnarUncertain(plain.objects))

        mixed = UncertainDatabase.build(_uncertain(), index_kind="rtree")
        mixed.columnar()
        odd = UncertainObject.uniform(4_000, Rect(10.0, 10.0, 90.0, 50.0))
        mixed.insert(odd.with_catalog([0.0, 0.25]))
        assert mixed._columnar is None
        assert mixed.columnar().catalog_bounds is None

        single = UncertainDatabase.build(_uncertain(1), index_kind="rtree")
        single.columnar()
        single.delete(single.objects[0].oid)
        assert_same_snapshot(single.columnar(), ColumnarUncertain([]))


class TestBatchedPdfApi:
    RECTS = np.array(
        [
            (900.0, 900.0, 1_200.0, 1_300.0),
            (1_100.0, 1_050.0, 1_500.0, 1_450.0),
            (0.0, 0.0, 10.0, 10.0),          # disjoint
            (900.0, 900.0, 2_000.0, 2_000.0),  # covers the region
            (1_300.0, 1_200.0, 1_300.0, 1_200.0),  # degenerate
        ]
    )

    def _pdfs(self):
        return [
            UniformPdf(ISSUER_REGION),
            TruncatedGaussianPdf(ISSUER_REGION),
            HistogramPdf(ISSUER_REGION, [[1.0, 2.0], [0.5, 0.0], [3.0, 1.0]]),
            UniformCirclePdf(Circle(Point(1_300.0, 1_250.0), 240.0)),
        ]

    def test_probability_in_rects_matches_scalar(self):
        for pdf in self._pdfs():
            batched = pdf.probability_in_rects(self.RECTS)
            for row, bounds in enumerate(self.RECTS):
                scalar = pdf.probability_in_rect(Rect(*bounds))
                assert batched[row] == pytest.approx(scalar, abs=1e-12), type(pdf)

    def test_probability_in_rects_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            UniformPdf(ISSUER_REGION).probability_in_rects(np.zeros((3, 3)))

    def test_density_array_matches_scalar(self):
        rng = np.random.default_rng(11)
        xs = rng.uniform(800.0, 1_800.0, size=50)
        ys = rng.uniform(800.0, 1_700.0, size=50)
        for pdf in self._pdfs():
            batched = pdf.density_array(xs, ys)
            for x, y, value in zip(xs, ys, batched):
                assert value == pytest.approx(pdf.density(float(x), float(y)), abs=1e-15)

    def test_density_array_preserves_shape(self):
        pdf = UniformPdf(ISSUER_REGION)
        xs = np.full((4, 5), 1_200.0)
        ys = np.full((4, 5), 1_250.0)
        assert pdf.density_array(xs, ys).shape == (4, 5)


class TestSamplingHelpers:
    def test_sample_array_matches_sample_points(self):
        pdf = UniformPdf(ISSUER_REGION)
        array = sample_array(pdf, 32, np.random.default_rng(3))
        points = sample_points(pdf, 32, np.random.default_rng(3))
        assert array.shape == (32, 2)
        for row, point in zip(array, points):
            assert (float(row[0]), float(row[1])) == (point.x, point.y)

    def test_sample_array_validates_count(self):
        with pytest.raises(ValueError):
            sample_array(UniformPdf(ISSUER_REGION), 0, np.random.default_rng(0))

    def test_monte_carlo_expectation_vectorized_matches_scalar(self):
        pdf = UniformPdf(ISSUER_REGION)
        scalar = monte_carlo_expectation(
            pdf, lambda x, y: x + 2.0 * y, 500, np.random.default_rng(21)
        )
        vectorized = monte_carlo_expectation(
            pdf,
            lambda xs, ys: xs + 2.0 * ys,
            500,
            np.random.default_rng(21),
            vectorized=True,
        )
        assert vectorized == pytest.approx(scalar, rel=1e-12)

    def test_monte_carlo_expectation_vectorized_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="shape"):
            monte_carlo_expectation(
                UniformPdf(ISSUER_REGION),
                lambda xs, ys: np.zeros(3),
                10,
                np.random.default_rng(0),
                vectorized=True,
            )


class TestDualityKernels:
    def test_ipq_probabilities_match_scalar(self):
        issuer_pdf = UniformPdf(ISSUER_REGION)
        locations = np.array([[1_200.0, 1_100.0], [1_700.0, 1_600.0], [9_000.0, 9_000.0]])
        batched = ipq_probabilities(issuer_pdf, SPEC, locations)
        for row, (x, y) in enumerate(locations):
            assert batched[row] == ipq_probability(issuer_pdf, SPEC, Point(x, y))

    def test_iuq_exact_uniform_matches_scalar(self):
        issuer_pdf = UniformPdf(ISSUER_REGION)
        targets = _uncertain(25, seed=13, with_catalog=False)
        bounds = np.array([obj.region.as_tuple() for obj in targets])
        batched = iuq_probabilities_exact_uniform(issuer_pdf, bounds, SPEC)
        for row, target in enumerate(targets):
            scalar = iuq_probability_exact_uniform(issuer_pdf, target, SPEC)
            assert batched[row] == pytest.approx(scalar, abs=1e-12)

    @pytest.mark.parametrize("pdf_cls", [UniformPdf, TruncatedGaussianPdf])
    def test_ipq_monte_carlo_batch_bitwise(self, pdf_cls):
        """The blocked batch kernel equals a scalar loop over the same draws."""
        issuer_pdf = pdf_cls(ISSUER_REGION)
        # 45 candidates: more than one CHUNK_ROWS block.
        locations = np.array([[1_250.0, 1_150.0], [1_500.0, 1_400.0], [1_800.0, 1_000.0]] * 15)
        oids = np.arange(len(locations)) - 5
        batched = ipq_probabilities_monte_carlo_per_oid(
            issuer_pdf, SPEC, locations, oids, 128, 7, 17
        )
        for row, (x, y) in enumerate(locations):
            u = uniforms(row_keys(7, 17, [oids[row]]), 256)[0]
            xs, ys = issuer_pdf.from_uniforms(u[:128], u[128:])
            inside = (np.abs(xs - x) <= SPEC.half_width) & (np.abs(ys - y) <= SPEC.half_height)
            assert batched[row] == float(np.count_nonzero(inside)) / 128

    def test_iuq_monte_carlo_batch_bitwise(self):
        """The blocked batch kernel equals a scalar loop over the same draws."""
        issuer_pdf = TruncatedGaussianPdf(ISSUER_REGION)
        targets = _uncertain(40, seed=19, with_catalog=False)
        batched = iuq_probabilities_monte_carlo_per_oid(issuer_pdf, targets, SPEC, 96, 7, 23)
        for row, target in enumerate(targets):
            u = uniforms(row_keys(7, 23, [target.oid]), 4 * 96)[0]
            xs, ys = issuer_pdf.from_uniforms(u[:96], u[96:192])
            txs, tys = target.pdf.from_uniforms(u[192:288], u[288:])
            dx = np.abs(txs - xs)
            dy = np.abs(tys - ys)
            inside = (dx <= SPEC.half_width) & (dy <= SPEC.half_height)
            assert batched[row] == float(np.count_nonzero(inside)) / 96

    def test_iuq_draw_plan_deterministic_and_in_region(self):
        """The draws are keyed per oid, and every target draw lies in its region."""
        issuer_pdf = UniformPdf(ISSUER_REGION)
        targets = _uncertain(6, seed=31, with_catalog=False)
        first = iuq_probabilities_monte_carlo_per_oid(issuer_pdf, targets, SPEC, 64, 7, 5)
        again = iuq_probabilities_monte_carlo_per_oid(issuer_pdf, targets, SPEC, 64, 7, 5)
        reordered = iuq_probabilities_monte_carlo_per_oid(issuer_pdf, targets[::-1], SPEC, 64, 7, 5)
        assert np.array_equal(first, again)
        assert np.array_equal(first, reordered[::-1])
        u = uniforms(row_keys(7, 5, [target.oid for target in targets]), 4 * 64)
        for row, target in enumerate(targets):
            xs, ys = target.pdf.from_uniforms(u[row, 128:192], u[row, 192:])
            region = target.region
            assert np.all((xs >= region.xmin) & (xs <= region.xmax))
            assert np.all((ys >= region.ymin) & (ys <= region.ymax))


class TestBasicKernels:
    def test_issuer_grid_cached_per_pdf_and_samples(self):
        pdf = UniformPdf(ISSUER_REGION)
        first = issuer_grid_arrays(pdf, 100)
        assert issuer_grid_arrays(pdf, 100)[0] is first[0]
        assert issuer_grid_arrays(pdf, 400)[0] is not first[0]

    def test_grid_weights_normalised(self):
        for pdf in (UniformPdf(ISSUER_REGION), TruncatedGaussianPdf(ISSUER_REGION)):
            points, weights = issuer_grid_arrays(pdf, 225)
            assert points.shape == (weights.size, 2)
            assert float(weights.sum()) == pytest.approx(1.0)

    def test_basic_ipq_probabilities_match_scalar(self):
        pdf = TruncatedGaussianPdf(ISSUER_REGION)
        locations = np.array([[1_300.0, 1_250.0], [1_900.0, 1_100.0], [5_000.0, 5_000.0]])
        batched = basic_ipq_probabilities(pdf, SPEC, locations, issuer_samples=100)
        for row, (x, y) in enumerate(locations):
            scalar = basic_ipq_probability(pdf, SPEC, Point(x, y), issuer_samples=100)
            assert batched[row] == pytest.approx(scalar, abs=1e-12)

    def test_basic_iuq_probabilities_match_scalar(self):
        pdf = UniformPdf(ISSUER_REGION)
        targets = _uncertain(12, seed=29, with_catalog=False)
        # Mixed-pdf targets exercise the per-target fallback branch too.
        mixed = targets + [
            UncertainObject(
                oid=100, pdf=TruncatedGaussianPdf(Rect(1_000.0, 1_000.0, 1_400.0, 1_300.0))
            )
        ]
        batched = basic_iuq_probabilities(pdf, mixed, SPEC, issuer_samples=100)
        for row, target in enumerate(mixed):
            scalar = basic_iuq_probability(pdf, target, SPEC, issuer_samples=100)
            assert batched[row] == pytest.approx(scalar, abs=1e-12)
