"""Unit tests for the constrained-query pruning strategies (Section 5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.core.duality import ipq_probability, iuq_probability_exact_uniform
from repro.core.pruning import (
    ALL_STRATEGIES,
    CIPQPruner,
    CIUQPruner,
    PruneDecision,
    PruningStrategy,
)
from repro.core.columnar import ColumnarUncertain
from repro.core.queries import RangeQuerySpec
from repro.uncertainty.pdf import TruncatedGaussianPdf, UniformPdf
from repro.uncertainty.region import PointObject, UncertainObject

ISSUER_REGION = Rect(1_000.0, 1_000.0, 1_500.0, 1_500.0)
SPEC = RangeQuerySpec.square(500.0)


@pytest.fixture()
def issuer() -> UncertainObject:
    return UncertainObject(oid=0, pdf=UniformPdf(ISSUER_REGION)).with_catalog()


def _random_uncertain_objects(n: int, seed: int) -> list[UncertainObject]:
    rng = np.random.default_rng(seed)
    objects = []
    for i in range(n):
        cx = rng.uniform(0.0, 3_000.0)
        cy = rng.uniform(0.0, 3_000.0)
        hw = rng.uniform(10.0, 150.0)
        hh = rng.uniform(10.0, 150.0)
        region = Rect(cx - hw, cy - hh, cx + hw, cy + hh)
        objects.append(UncertainObject.uniform(i, region, with_catalog=True))
    return objects


class TestPruneDecision:
    def test_keep(self):
        decision = PruneDecision.keep()
        assert not decision.pruned and decision.strategy is None

    def test_drop_with_enum(self):
        decision = PruneDecision.drop(PruningStrategy.P_BOUND)
        assert decision.pruned and decision.strategy == "p_bound"

    def test_drop_with_string(self):
        assert PruneDecision.drop("custom").strategy == "custom"


class TestCIPQPruner:
    def test_invalid_threshold_rejected(self, issuer):
        with pytest.raises(ValueError):
            CIPQPruner(issuer, SPEC, threshold=1.5)

    def test_zero_threshold_uses_minkowski(self, issuer):
        pruner = CIPQPruner(issuer, SPEC, threshold=0.0)
        assert pruner.filter_region == pruner.minkowski_region

    def test_positive_threshold_shrinks_filter(self, issuer):
        pruner = CIPQPruner(issuer, SPEC, threshold=0.4)
        assert pruner.minkowski_region.contains_rect(pruner.filter_region)
        assert pruner.filter_region.area < pruner.minkowski_region.area

    def test_disabled_p_expansion_keeps_minkowski(self, issuer):
        pruner = CIPQPruner(issuer, SPEC, threshold=0.4, use_p_expanded_query=False)
        assert pruner.filter_region == pruner.minkowski_region

    def test_objects_inside_filter_kept(self, issuer):
        pruner = CIPQPruner(issuer, SPEC, threshold=0.3)
        inside = PointObject.at(1, 1_250.0, 1_250.0)
        assert not pruner.decide(inside).pruned

    def test_objects_outside_filter_pruned(self, issuer):
        pruner = CIPQPruner(issuer, SPEC, threshold=0.3)
        outside = PointObject.at(2, 5_000.0, 5_000.0)
        decision = pruner.decide(outside)
        assert decision.pruned
        assert decision.strategy == PruningStrategy.P_EXPANDED_QUERY.value

    def test_pruning_is_sound(self, issuer):
        """No pruned point object may actually have probability above the threshold."""
        threshold = 0.4
        pruner = CIPQPruner(issuer, SPEC, threshold=threshold)
        rng = np.random.default_rng(3)
        for _ in range(500):
            location = Point(rng.uniform(0.0, 3_000.0), rng.uniform(0.0, 3_000.0))
            if pruner.prune_point(location):
                probability = ipq_probability(issuer.pdf, SPEC, location)
                assert probability <= threshold + 1e-9

    def test_without_catalog_uses_exact_expansion(self):
        plain_issuer = UncertainObject.uniform(0, ISSUER_REGION)
        pruner = CIPQPruner(plain_issuer, SPEC, threshold=0.37)
        assert pruner.level_used == pytest.approx(0.37)


class TestCIUQPrunerRegions:
    def test_zero_threshold_regions_coincide(self, issuer):
        pruner = CIUQPruner(issuer, SPEC, threshold=0.0)
        assert pruner.qp_expanded_region == pruner.minkowski_region

    def test_positive_threshold_shrinks_window(self, issuer):
        pruner = CIUQPruner(issuer, SPEC, threshold=0.5)
        assert pruner.minkowski_region.contains_rect(pruner.qp_expanded_region)

    def test_invalid_threshold_rejected(self, issuer):
        with pytest.raises(ValueError):
            CIUQPruner(issuer, SPEC, threshold=-0.1)

    def test_zero_threshold_never_prunes(self, issuer):
        pruner = CIUQPruner(issuer, SPEC, threshold=0.0)
        obj = UncertainObject.uniform(1, Rect(0.0, 0.0, 10.0, 10.0), with_catalog=True)
        assert not pruner.decide(obj).pruned


class TestCIUQStrategies:
    def test_strategy2_prunes_far_objects(self, issuer):
        pruner = CIUQPruner(
            issuer, SPEC, threshold=0.5, strategies=(PruningStrategy.P_EXPANDED_QUERY,)
        )
        far = UncertainObject.uniform(
            1, Rect(4_000.0, 4_000.0, 4_100.0, 4_100.0), with_catalog=True
        )
        decision = pruner.decide(far)
        assert decision.pruned
        assert decision.strategy == PruningStrategy.P_EXPANDED_QUERY.value

    def test_strategy1_prunes_marginal_overlap(self, issuer):
        # An object whose region barely clips the Minkowski sum: the clipped
        # part lies beyond the object's own 0.5-bound, so Strategy 1 fires.
        pruner = CIUQPruner(issuer, SPEC, threshold=0.5, strategies=(PruningStrategy.P_BOUND,))
        minkowski = pruner.minkowski_region
        # Place the object so that only its leftmost 10% overlaps the window.
        region = Rect(minkowski.xmax - 20.0, 1_200.0, minkowski.xmax + 180.0, 1_400.0)
        obj = UncertainObject.uniform(1, region, with_catalog=True)
        decision = pruner.decide(obj)
        assert decision.pruned
        assert decision.strategy == PruningStrategy.P_BOUND.value

    def test_strategy3_requires_both_catalogs(self, issuer):
        pruner = CIUQPruner(
            issuer, SPEC, threshold=0.5, strategies=(PruningStrategy.PRODUCT_BOUND,)
        )
        no_catalog = UncertainObject.uniform(1, Rect(0.0, 0.0, 100.0, 100.0))
        assert not pruner.decide(no_catalog).pruned

    def test_central_object_never_pruned(self, issuer):
        pruner = CIUQPruner(issuer, SPEC, threshold=0.8)
        central = UncertainObject.uniform(
            1, Rect(1_200.0, 1_200.0, 1_300.0, 1_300.0), with_catalog=True
        )
        assert not pruner.decide(central).pruned

    @pytest.mark.parametrize("threshold", [0.2, 0.5, 0.8])
    def test_pruning_is_sound_for_random_objects(self, issuer, threshold):
        """No pruned uncertain object may have an exact probability above Qp."""
        pruner = CIUQPruner(issuer, SPEC, threshold=threshold, strategies=ALL_STRATEGIES)
        for obj in _random_uncertain_objects(300, seed=int(threshold * 100)):
            decision = pruner.decide(obj)
            if decision.pruned:
                exact = iuq_probability_exact_uniform(issuer.pdf, obj, SPEC)
                assert exact <= threshold + 1e-9, (
                    f"object {obj.oid} pruned by {decision.strategy} but has "
                    f"probability {exact} > {threshold}"
                )

    def test_combined_strategies_prune_at_least_as_much_as_each_alone(self, issuer):
        objects = _random_uncertain_objects(300, seed=17)
        threshold = 0.5
        combined = CIUQPruner(issuer, SPEC, threshold=threshold, strategies=ALL_STRATEGIES)
        combined_count = sum(combined.decide(o).pruned for o in objects)
        for strategy in ALL_STRATEGIES:
            single = CIUQPruner(issuer, SPEC, threshold=threshold, strategies=(strategy,))
            single_count = sum(single.decide(o).pruned for o in objects)
            assert combined_count >= single_count

    def test_higher_threshold_prunes_at_least_as_much(self, issuer):
        objects = _random_uncertain_objects(300, seed=23)
        low = CIUQPruner(issuer, SPEC, threshold=0.2)
        high = CIUQPruner(issuer, SPEC, threshold=0.8)
        low_count = sum(low.decide(o).pruned for o in objects)
        high_count = sum(high.decide(o).pruned for o in objects)
        assert high_count >= low_count


#: Where Qp sits against the stored levels.
QP_PLACES = ("on_a_level", "between_levels", "below_the_smallest", "above_the_largest")


@st.composite
def sliced_prune_cases(draw):
    """Random catalogs over random level sets, and a Qp placed against them."""
    levels = draw(
        st.lists(st.integers(1, 19), min_size=2, max_size=6, unique=True).map(
            lambda steps: tuple(sorted(0.05 * step for step in steps))
        )
    )
    place = draw(st.sampled_from(QP_PLACES))
    if place == "on_a_level":
        threshold = draw(st.sampled_from(levels))
    elif place == "between_levels":
        lower = draw(st.integers(0, len(levels) - 2))
        threshold = (levels[lower] + levels[lower + 1]) / 2.0
    elif place == "below_the_smallest":
        threshold = levels[0] / 2.0
    else:
        threshold = (levels[-1] + 1.0) / 2.0
    objects = []
    for oid in range(draw(st.integers(1, 25))):
        x = draw(st.floats(-200.0, 2_700.0))
        y = draw(st.floats(-200.0, 2_700.0))
        half_w = draw(st.floats(5.0, 300.0))
        half_h = draw(st.floats(5.0, 300.0))
        region = Rect(x - half_w, y - half_h, x + half_w, y + half_h)
        pdf = TruncatedGaussianPdf(region) if draw(st.booleans()) else UniformPdf(region)
        objects.append(UncertainObject(oid=oid, pdf=pdf).with_catalog(levels))
    issuer = UncertainObject(oid=-1, pdf=UniformPdf(ISSUER_REGION)).with_catalog(levels)
    strategies = draw(
        st.sampled_from([ALL_STRATEGIES, (PruningStrategy.P_BOUND, PruningStrategy.PRODUCT_BOUND)])
    )
    return place, threshold, issuer, objects, strategies


class TestLevelSlicedPruning:
    """``decide_many`` over the levels from ``catalog_start`` on decides as over all."""

    @settings(max_examples=120, deadline=None)
    @given(sliced_prune_cases())
    def test_sliced_levels_decide_like_all_levels(self, case):
        place, threshold, issuer, objects, strategies = case
        snapshot = ColumnarUncertain(objects)
        levels, table = snapshot.catalog_levels, snapshot.catalog_bounds
        pruner = CIUQPruner(issuer, SPEC, threshold=threshold, strategies=strategies)
        start = pruner.catalog_start(levels)
        if place == "below_the_smallest":
            assert start == 0
        else:  # the largest level <= Qp
            assert levels[start] <= threshold
            assert start + 1 == len(levels) or levels[start + 1] > threshold
        full_keep, full_counts = pruner.decide_many(snapshot.bounds, levels, table)
        keep, counts = pruner.decide_many(snapshot.bounds, levels[start:], table[:, start:])
        assert np.array_equal(keep, full_keep)
        assert counts == full_counts

