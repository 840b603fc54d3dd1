"""Unit tests for the Probability Threshold Index (PTI)."""

import numpy as np
import pytest

from repro.core.columnar import ColumnarUncertain, bounds_overlap_window_mask
from repro.geometry.rect import Rect
from repro.index.pti import ProbabilityThresholdIndex
from repro.index.rtree import RTree
from repro.uncertainty.catalog import DEFAULT_CATALOG_LEVELS, PAPER_CATALOG_LEVELS
from repro.uncertainty.region import UncertainObject


def _uncertain_objects(n: int, seed: int = 0, space: float = 2000.0) -> list[UncertainObject]:
    rng = np.random.default_rng(seed)
    objects = []
    for i in range(n):
        x = rng.uniform(0.0, space - 60.0)
        y = rng.uniform(0.0, space - 60.0)
        w = rng.uniform(10.0, 60.0)
        h = rng.uniform(10.0, 60.0)
        objects.append(
            UncertainObject.uniform(i, Rect(x, y, x + w, y + h), with_catalog=True)
        )
    return objects


@pytest.fixture(scope="module")
def objects() -> list[UncertainObject]:
    return _uncertain_objects(300, seed=9)


@pytest.fixture(scope="module")
def pti(objects) -> ProbabilityThresholdIndex:
    return ProbabilityThresholdIndex.bulk_load(objects, max_entries=8)


class TestConstruction:
    def test_bulk_load(self, pti, objects):
        assert len(pti) == len(objects)
        pti.check_invariants()
        pti.check_augmentation()

    def test_rejects_objects_without_catalog(self):
        plain = UncertainObject.uniform(0, Rect(0.0, 0.0, 10.0, 10.0))
        with pytest.raises(ValueError):
            ProbabilityThresholdIndex.bulk_load([plain])

    def test_rejects_non_uncertain_items(self):
        tree = ProbabilityThresholdIndex(max_entries=4)
        with pytest.raises(TypeError):
            tree.insert(Rect(0.0, 0.0, 1.0, 1.0), "not an object")

    def test_rejects_mismatched_catalog_levels(self):
        a = UncertainObject.uniform(0, Rect(0.0, 0.0, 10.0, 10.0)).with_catalog([0.0, 0.2])
        b = UncertainObject.uniform(1, Rect(5.0, 5.0, 15.0, 15.0)).with_catalog([0.0, 0.3])
        tree = ProbabilityThresholdIndex(max_entries=4)
        tree.insert(a.mbr, a)
        with pytest.raises(ValueError):
            tree.insert(b.mbr, b)

    def test_incremental_insert_maintains_augmentation(self, objects):
        tree = ProbabilityThresholdIndex(max_entries=4)
        for obj in objects[:80]:
            tree.insert(obj.mbr, obj)
        tree.check_invariants()
        tree.check_augmentation()


class TestPlainSearch:
    def test_range_search_matches_rtree(self, pti, objects):
        rtree = RTree.bulk_load(objects, max_entries=8)
        query = Rect(200.0, 200.0, 900.0, 700.0)
        assert {o.oid for o in pti.range_search(query)} == {
            o.oid for o in rtree.range_search(query)
        }

    def test_pruning_level_for(self, pti):
        assert pti.pruning_level_for(0.0) is None
        assert pti.pruning_level_for(0.05) is None
        assert pti.pruning_level_for(0.25) == 0.2
        assert pti.pruning_level_for(0.9) == 0.5


class TestThresholdSearch:
    def test_invalid_threshold_rejected(self, pti):
        with pytest.raises(ValueError):
            pti.range_search_with_threshold(Rect(0.0, 0.0, 1.0, 1.0), 1.5)

    def test_threshold_zero_equals_plain_search(self, pti):
        query = Rect(100.0, 100.0, 800.0, 800.0)
        plain = {o.oid for o in pti.range_search(query)}
        thresh = {o.oid for o in pti.range_search_with_threshold(query, 0.0)}
        assert plain == thresh

    def test_threshold_search_returns_subset_of_plain(self, pti):
        query = Rect(100.0, 100.0, 800.0, 800.0)
        plain = {o.oid for o in pti.range_search(query)}
        thresh = {o.oid for o in pti.range_search_with_threshold(query, 0.5)}
        assert thresh <= plain

    def test_threshold_search_never_drops_fully_covered_objects(self, pti, objects):
        """An object whose region is fully inside the query must always survive.

        Such an object has probability mass 1 inside the query region, so no
        correct threshold pruning may remove it for any threshold <= 1.
        """
        query = Rect(100.0, 100.0, 1200.0, 1200.0)
        fully_inside = {o.oid for o in objects if query.contains_rect(o.region)}
        for threshold in (0.2, 0.5, 0.9):
            survivors = {o.oid for o in pti.range_search_with_threshold(query, threshold)}
            assert fully_inside <= survivors

    def test_threshold_search_reduces_node_accesses(self, objects):
        pti = ProbabilityThresholdIndex.bulk_load(objects, max_entries=8)
        query = Rect(0.0, 0.0, 2000.0, 2000.0)
        # A tight p-expanded window should prune most subtrees.
        small_window = Rect(900.0, 900.0, 1100.0, 1100.0)
        pti.stats.reset()
        pti.range_search(query)
        full_cost = pti.stats.node_accesses
        pti.stats.reset()
        pti.range_search_with_threshold(query, 0.5, small_window)
        pruned_cost = pti.stats.node_accesses
        assert pruned_cost < full_cost

    def test_p_expanded_window_restricts_results(self, pti, objects):
        query = Rect(0.0, 0.0, 2000.0, 2000.0)
        window = Rect(500.0, 500.0, 700.0, 700.0)
        results = pti.range_search_with_threshold(query, 0.3, window)
        assert all(o.region.overlaps(window) for o in results)


class TestMoves:
    """``update`` keeps the per-level bounds right, in place or not."""

    QUERIES = [
        (Rect(0.0, 0.0, 2000.0, 2000.0), None),
        (Rect(300.0, 300.0, 900.0, 900.0), None),
        (Rect(0.0, 0.0, 2000.0, 2000.0), Rect(800.0, 800.0, 1300.0, 1300.0)),
        (Rect(1000.0, 200.0, 1900.0, 1100.0), Rect(1100.0, 300.0, 1500.0, 900.0)),
    ]

    def _assert_matches_rebuilt(self, tree, current):
        tree.check_invariants()
        tree.check_augmentation()
        rebuilt = ProbabilityThresholdIndex.bulk_load(current.values(), max_entries=8)
        for query, window in self.QUERIES:
            for threshold in (0.0, 0.2, 0.5, 0.9):
                found = tree.range_search_with_threshold(query, threshold, window)
                assert all(obj is current[obj.oid] for obj in found)
                assert {obj.oid for obj in found} == {
                    obj.oid for obj in rebuilt.range_search_with_threshold(query, threshold, window)
                }

    def test_moves_inside_the_leaf_rectangle_match_a_rebuilt_index(self, objects):
        tree = ProbabilityThresholdIndex.bulk_load(objects, max_entries=8)
        current = {obj.oid: obj for obj in objects}
        layout = {id(node): list(node.entries) for node in tree._iter_nodes()}
        rng = np.random.default_rng(3)
        for leaf in [node for node in tree._iter_nodes() if node.is_leaf]:
            # Re-report one member anywhere inside its leaf's rectangle, with
            # a new extent: the entry is overwritten where it sits.
            old = leaf.entries[int(rng.integers(len(leaf.entries)))].item
            cover = leaf.mbr()
            width = rng.uniform(1.0, cover.width)
            height = rng.uniform(1.0, cover.height)
            x = rng.uniform(cover.xmin, cover.xmax - width)
            y = rng.uniform(cover.ymin, cover.ymax - height)
            new = UncertainObject.uniform(
                old.oid, Rect(x, y, x + width, y + height), with_catalog=True
            )
            tree.update(old.mbr, new.mbr, old, replacement=new)
            current[old.oid] = new
        assert {id(node): list(node.entries) for node in tree._iter_nodes()} == layout
        self._assert_matches_rebuilt(tree, current)

    def test_moves_across_the_space_match_a_rebuilt_index(self, objects):
        tree = ProbabilityThresholdIndex.bulk_load(objects, max_entries=8)
        current = {obj.oid: obj for obj in objects}
        for old, template in zip(objects[:120], _uncertain_objects(120, seed=77)):
            new = UncertainObject.uniform(old.oid, template.region, with_catalog=True)
            tree.update(old.mbr, new.mbr, old, replacement=new)
            current[old.oid] = new
        self._assert_matches_rebuilt(tree, current)


class TestExactBounds:
    """Node level bounds are exact, and threshold search is a plain filter."""

    @staticmethod
    def _descendant_items(node) -> list[UncertainObject]:
        if node.is_leaf:
            return [entry.item for entry in node.entries]
        items = []
        for entry in node.entries:
            items.extend(TestExactBounds._descendant_items(entry.child))
        return items

    def _assert_exact(self, tree: ProbabilityThresholdIndex) -> None:
        """``aug[i]`` is the flat min/max of every descendant's ``i``-th rectangle."""
        tree.check_augmentation()
        for node in tree._iter_nodes():
            items = self._descendant_items(node)
            rects = np.array([[r.as_tuple() for r in o.catalog.rects] for o in items])
            assert len(node.aug) == rects.shape[1]
            for position, bound in enumerate(node.aug):
                column = rects[:, position]
                expected = (
                    column[:, 0].min(),
                    column[:, 1].min(),
                    column[:, 2].max(),
                    column[:, 3].max(),
                )
                assert bound.as_tuple() == expected

    def _assert_matches_scan(self, tree, current, seed: int) -> None:
        """Threshold search returns exactly the columnar scan's rows."""
        snapshot = ColumnarUncertain(list(current.values()))
        rng = np.random.default_rng(seed)
        for _ in range(40):
            x, y = rng.uniform(-100.0, 1900.0, size=2)
            w, h = rng.uniform(10.0, 700.0, size=2)
            query = Rect(x, y, x + w, y + h)
            window = None
            if rng.uniform() < 0.5:
                wx, wy = rng.uniform(x, x + w, size=2)
                window = Rect(wx, wy, wx + w / 2.0, wy + h / 2.0)
            threshold = float(rng.choice([0.0, 0.05, 0.1, 0.25, 0.3, 0.5, 0.8, 1.0]))
            found = tree.range_search_with_threshold(query, threshold, window)
            mask = bounds_overlap_window_mask(snapshot.bounds, query)
            if window is not None:
                mask &= bounds_overlap_window_mask(snapshot.bounds, window)
            level = tree.pruning_level_for(threshold)
            if level is not None:
                position = list(snapshot.catalog_levels).index(level)
                mask &= bounds_overlap_window_mask(snapshot.catalog_bounds[:, position], query)
            assert sorted(obj.oid for obj in found) == sorted(snapshot.oids[mask].tolist())

    @pytest.mark.parametrize("levels", [DEFAULT_CATALOG_LEVELS, PAPER_CATALOG_LEVELS], ids=len)
    def test_bounds_exact_after_bulk_load_and_mutations(self, levels):
        base = [obj.with_catalog(levels) for obj in _uncertain_objects(400, seed=21)]
        tree = ProbabilityThresholdIndex.bulk_load(base, max_entries=6)
        current = {obj.oid: obj for obj in base}
        self._assert_exact(tree)
        self._assert_matches_scan(tree, current, seed=1)

        rng = np.random.default_rng(5)
        fresh = iter(_uncertain_objects(300, seed=22))
        next_oid = 10_000
        for step in range(300):
            action = rng.choice(["insert", "delete", "move"])
            if action == "insert" or len(current) < 50:
                template = next(fresh)
                obj = UncertainObject(oid=next_oid, pdf=template.pdf).with_catalog(levels)
                next_oid += 1
                tree.insert(obj.mbr, obj)
                current[obj.oid] = obj
            elif action == "delete":
                oid = int(rng.choice(sorted(current)))
                tree.delete(current[oid].mbr, current.pop(oid))
            else:
                oid = int(rng.choice(sorted(current)))
                old = current[oid]
                x, y = rng.uniform(0.0, 1900.0, size=2)
                w, h = rng.uniform(5.0, 80.0, size=2)
                new = UncertainObject.uniform(oid, Rect(x, y, x + w, y + h)).with_catalog(levels)
                tree.update(old.mbr, new.mbr, old, replacement=new)
                current[oid] = new
            if step % 50 == 49:
                self._assert_exact(tree)
        tree.check_invariants()
        self._assert_exact(tree)
        self._assert_matches_scan(tree, current, seed=2)
