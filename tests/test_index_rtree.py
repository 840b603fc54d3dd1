"""Unit tests for the R-tree."""

from collections import Counter

import numpy as np
import pytest

from repro.errors import SpatialIndexError
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.gridfile import GridFile
from repro.index.linear import LinearScanIndex
from repro.index.pti import ProbabilityThresholdIndex
from repro.index.rtree import RTree, _Entry
from repro.uncertainty.region import PointObject, UncertainObject


def _random_rects(n: int, seed: int = 0, space: float = 1000.0) -> list[tuple[Rect, int]]:
    rng = np.random.default_rng(seed)
    rects = []
    for i in range(n):
        x = rng.uniform(0.0, space)
        y = rng.uniform(0.0, space)
        w = rng.uniform(1.0, 20.0)
        h = rng.uniform(1.0, 20.0)
        rects.append((Rect(x, y, x + w, y + h), i))
    return rects


def _brute_force(pairs: list[tuple[Rect, int]], query: Rect) -> set[int]:
    return {item for mbr, item in pairs if mbr.overlaps(query)}


class TestConstruction:
    def test_capacity_derived_from_page_size(self):
        tree = RTree(page_size=4096, entry_size=40)
        assert tree.max_entries == 102

    def test_explicit_capacity(self):
        tree = RTree(max_entries=8, min_entries=3)
        assert tree.max_entries == 8
        assert tree.min_entries == 3

    def test_invalid_min_entries_rejected(self):
        with pytest.raises(ValueError):
            RTree(max_entries=8, min_entries=5)

    def test_invalid_max_entries_rejected(self):
        with pytest.raises(ValueError):
            RTree(max_entries=1)

    def test_empty_tree(self):
        tree = RTree(max_entries=4)
        assert len(tree) == 0
        assert tree.height == 1
        assert tree.range_search(Rect(0.0, 0.0, 10.0, 10.0)) == []


class TestInsertion:
    def test_insert_and_count(self):
        tree = RTree(max_entries=4)
        for mbr, item in _random_rects(50):
            tree.insert(mbr, item)
        assert len(tree) == 50
        tree.check_invariants()

    def test_insert_empty_rect_rejected(self):
        tree = RTree(max_entries=4)
        with pytest.raises(ValueError):
            tree.insert(Rect.empty(), "x")

    def test_tree_grows_in_height(self):
        tree = RTree(max_entries=4)
        for mbr, item in _random_rects(100):
            tree.insert(mbr, item)
        assert tree.height >= 3

    def test_incremental_range_search_matches_brute_force(self):
        pairs = _random_rects(300, seed=3)
        tree = RTree(max_entries=8)
        for mbr, item in pairs:
            tree.insert(mbr, item)
        tree.check_invariants()
        for query_seed in range(10):
            rng = np.random.default_rng(query_seed)
            x, y = rng.uniform(0.0, 900.0, size=2)
            query = Rect(x, y, x + 150.0, y + 150.0)
            assert set(tree.range_search(query)) == _brute_force(pairs, query)

    def test_duplicate_rectangles_supported(self):
        tree = RTree(max_entries=4)
        mbr = Rect(0.0, 0.0, 1.0, 1.0)
        for i in range(20):
            tree.insert(mbr, i)
        assert len(tree.range_search(mbr)) == 20


class TestBulkLoad:
    def test_bulk_load_point_objects(self):
        objects = [PointObject.at(i, float(i), float(i * 2 % 97)) for i in range(500)]
        tree = RTree.bulk_load(objects, max_entries=16)
        assert len(tree) == 500
        tree.check_invariants()

    def test_bulk_load_matches_brute_force(self):
        pairs = _random_rects(400, seed=7)
        items = [type("Item", (), {"mbr": mbr, "value": value})() for mbr, value in pairs]
        tree = RTree.bulk_load(items, max_entries=10)
        query = Rect(100.0, 100.0, 400.0, 350.0)
        expected = {item.value for item in items if item.mbr.overlaps(query)}
        found = {item.value for item in tree.range_search(query)}
        assert found == expected

    def test_bulk_load_into_non_empty_tree_rejected(self):
        tree = RTree(max_entries=4)
        tree.insert(Rect(0.0, 0.0, 1.0, 1.0), 0)
        with pytest.raises(RuntimeError):
            tree._bulk_load_pairs([(Rect(0.0, 0.0, 1.0, 1.0), 1)])

    def test_bulk_load_empty_iterable_rejected(self):
        with pytest.raises(ValueError, match="cannot index an empty collection"):
            RTree.bulk_load([])

    def test_bulk_loaded_tree_is_shallower_than_incremental(self):
        pairs = _random_rects(600, seed=11)
        incremental = RTree(max_entries=8)
        for mbr, item in pairs:
            incremental.insert(mbr, item)
        packed = RTree.bulk_load(
            [type("Item", (), {"mbr": mbr, "value": v})() for mbr, v in pairs], max_entries=8
        )
        assert packed.node_count <= incremental.node_count


class TestQueries:
    @pytest.fixture()
    def loaded_tree(self):
        pairs = _random_rects(400, seed=5)
        tree = RTree(max_entries=8)
        for mbr, item in pairs:
            tree.insert(mbr, item)
        return tree, pairs

    def test_empty_query_returns_nothing(self, loaded_tree):
        tree, _ = loaded_tree
        assert tree.range_search(Rect.empty()) == []

    def test_whole_space_query_returns_everything(self, loaded_tree):
        tree, pairs = loaded_tree
        assert len(tree.range_search(Rect(-10.0, -10.0, 2000.0, 2000.0))) == len(pairs)

    def test_node_access_counting(self, loaded_tree):
        tree, _ = loaded_tree
        tree.stats.reset()
        tree.range_search(Rect(0.0, 0.0, 100.0, 100.0))
        small_accesses = tree.stats.node_accesses
        tree.stats.reset()
        tree.range_search(Rect(0.0, 0.0, 1000.0, 1000.0))
        large_accesses = tree.stats.node_accesses
        assert 0 < small_accesses < large_accesses

    def test_items_iterates_everything(self, loaded_tree):
        tree, pairs = loaded_tree
        assert sorted(tree.items()) == sorted(item for _, item in pairs)

    def test_bounds_cover_all_items(self, loaded_tree):
        tree, pairs = loaded_tree
        bounds = tree.bounds()
        assert all(bounds.contains_rect(mbr) for mbr, _ in pairs)

    def test_range_search_filtered_entry_filter(self, loaded_tree):
        tree, pairs = loaded_tree
        query = Rect(0.0, 0.0, 1000.0, 1000.0)
        evens = tree.range_search_filtered(query, entry_filter=lambda e: e.item % 2 == 0)
        assert evens
        assert all(item % 2 == 0 for item in evens)

    def test_range_search_filtered_node_filter_can_prune_everything(self, loaded_tree):
        tree, _ = loaded_tree
        query = Rect(0.0, 0.0, 1000.0, 1000.0)
        nothing = tree.range_search_filtered(query, node_filter=lambda node: False)
        # Only items stored directly in the root (if it is a leaf) could
        # survive; with 400 items the root is internal, so nothing survives.
        assert nothing == []


class TestNearestNeighbors:
    def test_nearest_neighbor_matches_brute_force(self):
        objects = [
            PointObject.at(i, float((i * 37) % 500), float((i * 91) % 500))
            for i in range(200)
        ]
        tree = RTree.bulk_load(objects, max_entries=8)
        query_point = Point(123.0, 456.0)
        expected = min(objects, key=lambda o: o.location.distance_to(query_point))
        found = tree.nearest_neighbors(query_point, k=1)[0]
        assert found.location.distance_to(query_point) == pytest.approx(
            expected.location.distance_to(query_point)
        )

    def test_k_nearest_ordering(self):
        objects = [PointObject.at(i, float(i * 10), 0.0) for i in range(20)]
        tree = RTree.bulk_load(objects, max_entries=4)
        found = tree.nearest_neighbors(Point(0.0, 0.0), k=5)
        assert [o.oid for o in found] == [0, 1, 2, 3, 4]

    def test_k_larger_than_size(self):
        objects = [PointObject.at(i, float(i), 0.0) for i in range(3)]
        tree = RTree.bulk_load(objects)
        assert len(tree.nearest_neighbors(Point(0.0, 0.0), k=10)) == 3

    def test_invalid_k_rejected(self):
        tree = RTree.bulk_load([PointObject.at(0, 0.0, 0.0)])
        with pytest.raises(ValueError):
            tree.nearest_neighbors(Point(0.0, 0.0), k=0)

    def test_empty_tree_returns_nothing(self):
        tree = RTree(max_entries=4)
        assert tree.nearest_neighbors(Point(0.0, 0.0), k=3) == []


class TestDeletion:
    def test_delete_removes_exactly_one_item(self):
        pairs = _random_rects(120, seed=9)
        tree = RTree(max_entries=4)
        for rect, i in pairs:
            tree.insert(rect, i)
        rect, victim = pairs[37]
        tree.delete(rect, victim)
        assert len(tree) == 119
        query = Rect(0.0, 0.0, 1_000.0, 1_000.0)
        assert set(tree.range_search(query)) == _brute_force(pairs, query) - {victim}
        tree.check_invariants()

    def test_delete_unknown_item_raises(self):
        tree = RTree(max_entries=4)
        tree.insert(Rect(0.0, 0.0, 10.0, 10.0), "a")
        with pytest.raises(KeyError):
            tree.delete(Rect(0.0, 0.0, 10.0, 10.0), "b")
        with pytest.raises(KeyError):
            tree.delete(Rect(5.0, 5.0, 6.0, 6.0), "a")

    def test_delete_from_bulk_loaded_tree(self):
        pairs = _random_rects(200, seed=13)
        items = [PointObject.at(i, rect.center.x, rect.center.y) for rect, i in pairs]
        tree = RTree.bulk_load(items, max_entries=8)
        for item in items[:100]:
            tree.delete(item.mbr, item)
            tree.check_invariants()
        survivors = {item.oid for item in tree.range_search(Rect(0.0, 0.0, 2_000.0, 2_000.0))}
        assert survivors == {item.oid for item in items[100:]}

    def test_delete_shrinks_height(self):
        pairs = _random_rects(300, seed=17)
        tree = RTree(max_entries=4)
        for rect, i in pairs:
            tree.insert(rect, i)
        tall = tree.height
        for rect, i in pairs[:295]:
            tree.delete(rect, i)
        tree.check_invariants()
        assert tree.height < tall
        assert len(tree) == 5

    def test_update_relocates_item(self):
        pairs = _random_rects(60, seed=21)
        tree = RTree(max_entries=4)
        for rect, i in pairs:
            tree.insert(rect, i)
        rect, item = pairs[11]
        destination = Rect(2_000.0, 2_000.0, 2_010.0, 2_010.0)
        tree.update(rect, destination, item)
        tree.check_invariants()
        assert len(tree) == 60
        assert item in tree.range_search(Rect(1_990.0, 1_990.0, 2_020.0, 2_020.0))
        assert item not in tree.range_search(rect)

    def test_update_with_replacement_payload(self):
        tree = RTree(max_entries=4)
        old = PointObject.at(1, 10.0, 10.0)
        tree.insert(old.mbr, old)
        new = PointObject.at(1, 500.0, 500.0)
        tree.update(old.mbr, new.mbr, old, replacement=new)
        (found,) = tree.range_search(Rect(499.0, 499.0, 501.0, 501.0))
        assert found is new


def _churn_tree(kind: str, rng: np.random.Generator, check) -> None:
    """A tree through 120 mixed deletes, in-place moves and relocating moves.

    ``kind`` is ``incremental`` (inserted integer items), ``objects``
    (inserted point objects), ``bulk`` (bulk-loaded point objects) or ``pti``
    (catalogued uncertain objects, moved as fresh wrappers).
    ``check(tree, live)``, with ``live`` the stored ``{key: (mbr, item)}``,
    runs before, every tenth step and after, beside the tree's own
    invariant check.
    """
    pairs = _random_rects(400, seed=31)
    if kind == "bulk":
        tree = RTree.bulk_load(
            [PointObject.at(i, mbr.xmin, mbr.ymin) for mbr, i in pairs], max_entries=6
        )
        live = {obj.oid: (obj.mbr, obj) for obj in tree.items()}
    elif kind == "pti":
        objects = [UncertainObject.uniform(i, mbr, with_catalog=True) for mbr, i in pairs]
        tree = ProbabilityThresholdIndex.bulk_load(objects, max_entries=6)
        live = {obj.oid: (obj.mbr, obj) for obj in objects}
    else:
        tree = RTree(max_entries=6)
        live = {}
        for mbr, i in pairs:
            item = i if kind == "incremental" else PointObject.at(i, mbr.xmin, mbr.ymin)
            tree.insert(mbr, item)
            live[i] = (mbr, item)

    def move(mbr, item, shift):
        moved = Rect(mbr.xmin + shift, mbr.ymin, mbr.xmax + shift, mbr.ymax)
        if kind != "pti":
            tree.update(mbr, moved, item)
            return moved, item
        replacement = UncertainObject.uniform(item.oid, moved, with_catalog=True)
        tree.update(mbr, moved, item, replacement=replacement)
        return moved, replacement

    check(tree, live)
    for step in range(120):
        key = int(rng.choice(list(live)))
        mbr, item = live[key]
        if step % 3 == 0:
            tree.delete(mbr, item)
            del live[key]
        else:
            # Small moves stay in their leaf (in place); large ones do not.
            live[key] = move(mbr, item, 2.0 if step % 3 == 1 else 400.0)
        if step % 10 == 0:
            check(tree, live)
            tree.check_invariants()
    check(tree, live)
    tree.check_invariants()


def _io_counts(index) -> tuple[int, int, int]:
    stats = index.stats
    return stats.node_accesses, stats.entries_examined, stats.objects_returned


class TestSearchColumns:
    """A search reads each node's entries as cached columns; every change
    to a node must drop them."""

    @pytest.mark.parametrize("bulk", [False, True])
    def test_searches_follow_inserts_deletes_and_moves(self, bulk):
        rng = np.random.default_rng(32)

        def search_everywhere(tree, live):
            for x, y in rng.uniform(-50.0, 1_000.0, (6, 2)):
                query = Rect(x, y, x + 120.0, y + 120.0)
                expected = {id(item) for mbr, item in live.values() if mbr.overlaps(query)}
                assert {id(item) for item in tree.range_search(query)} == expected

        _churn_tree("bulk" if bulk else "incremental", rng, search_everywhere)

    @pytest.mark.parametrize("kind", ["objects", "bulk", "pti"])
    def test_oid_search_is_the_item_search(self, kind):
        """The leaves' oid columns answer what the items answer, counted alike."""
        rng = np.random.default_rng(34)

        def compare(tree, live):
            for x, y in rng.uniform(-50.0, 1_000.0, (6, 2)):
                query = Rect(x, y, x + 120.0, y + 120.0)
                start = _io_counts(tree)
                items = tree.range_search(query)
                middle = _io_counts(tree)
                oids = tree.range_search_oids(query)
                end = _io_counts(tree)
                assert oids.dtype == np.int64
                assert Counter(oids.tolist()) == Counter(item.oid for item in items)
                assert np.subtract(middle, start).tolist() == np.subtract(end, middle).tolist()

        _churn_tree(kind, rng, compare)

    def test_oid_search_of_an_empty_window(self):
        tree = RTree.bulk_load([PointObject.at(i, 10.0 * i, 0.0) for i in range(50)], max_entries=4)
        for query in (Rect(500.0, 500.0, 600.0, 600.0), Rect.empty()):
            oids = tree.range_search_oids(query)
            assert oids.dtype == np.int64 and oids.size == 0
        assert RTree().range_search_oids(Rect(0.0, 0.0, 1.0, 1.0)).size == 0

    def test_items_without_an_integer_oid_are_refused(self):
        tree = RTree(max_entries=4)
        for mbr, item in _random_rects(20, seed=35):
            tree.insert(mbr, item)
        everywhere = Rect(0.0, 0.0, 1_000.0, 1_000.0)
        with pytest.raises(SpatialIndexError, match="integer oid"):
            tree.range_search_oids(everywhere)
        grid = GridFile(Rect(0.0, 0.0, 1_000.0, 1_000.0), cells_per_axis=4)
        grid.insert(Rect(1.0, 1.0, 2.0, 2.0), "a string")
        with pytest.raises(SpatialIndexError, match="integer oid"):
            grid.range_search_oids(everywhere)

    @pytest.mark.parametrize("build", ["grid", "linear"])
    def test_grid_file_and_scan_agree_with_their_item_search(self, build):
        objects = [PointObject.at(i, mbr.xmin, mbr.ymin) for mbr, i in _random_rects(300, 36)]
        if build == "grid":
            index = GridFile.bulk_load(objects, bounds=Rect(0.0, 0.0, 500.0, 500.0))
        else:
            index = LinearScanIndex.bulk_load(objects)
        for x, y in np.random.default_rng(37).uniform(-50.0, 1_000.0, (12, 2)):
            query = Rect(x, y, x + 150.0, y + 150.0)
            start = _io_counts(index)
            items = index.range_search(query)
            middle = _io_counts(index)
            oids = index.range_search_oids(query)
            end = _io_counts(index)
            assert oids.tolist() == [item.oid for item in items]
            assert np.subtract(middle, start).tolist() == np.subtract(end, middle).tolist()

    def test_stale_columns_fail_the_invariant_check(self):
        tree = RTree(max_entries=4)
        for mbr, item in _random_rects(20, seed=33):
            tree.insert(mbr, item)
        tree.range_search(Rect(0.0, 0.0, 1_000.0, 1_000.0))
        leaf = tree._root
        while not leaf.is_leaf:
            leaf = leaf.entries[0].child
        corner = leaf.entries[0].mbr
        # Shrunk behind the tree's back: still covered, but no longer cached.
        leaf.entries[0].mbr = Rect(corner.xmin, corner.ymin, corner.xmin, corner.ymin)
        with pytest.raises(AssertionError, match="stale search columns"):
            tree.check_invariants()

    def test_stale_oid_column_fails_the_invariant_check(self):
        tree = RTree.bulk_load(
            [PointObject.at(i, mbr.xmin, mbr.ymin) for mbr, i in _random_rects(20, seed=38)],
            max_entries=4,
        )
        tree.range_search_oids(Rect(0.0, 0.0, 1_000.0, 1_000.0))
        tree.check_invariants()
        leaf = next(node for node in tree._iter_nodes() if node.is_leaf)
        old = leaf.entries[0].item
        # Re-keyed behind the tree's back: the search columns are dropped, the
        # oid column is left behind.
        leaf.entries[0].item = PointObject.at(old.oid + 1_000, old.location.x, old.location.y)
        leaf.columns = None
        with pytest.raises(AssertionError, match="stale oid column"):
            tree.check_invariants()


class TestCondenseAndInPlaceMoves:
    """Deletes and moves cost what they touch, whatever the packed layout."""

    @staticmethod
    def _packed_points(count: int, seed: int) -> list[PointObject]:
        rng = np.random.default_rng(seed)
        return [
            PointObject.at(i, float(x), float(y))
            for i, (x, y) in enumerate(rng.uniform(0.0, 1_000.0, (count, 2)))
        ]

    def test_delete_reinserts_at_most_a_path_of_nodes(self, monkeypatch):
        """1230 points at fan-out 10 pack into 123 leaves = 12 full level-1
        nodes and one of 3, then a full level-2 node and one of 3: both tails
        sit below the minimum fill of 4, and the level-2 one holds 230 items.
        Re-inserting a dissolved node's *entries* keeps every delete below
        ``max_entries * height`` insertions; flattening it to items does not.
        """
        items = self._packed_points(1230, seed=31)
        tree = RTree.bulk_load(items, max_entries=10)
        assert tree.height == 4
        internal_fills = [
            len(node.entries)
            for node in tree._iter_nodes()
            if not node.is_leaf and node is not tree._root
        ]
        assert min(internal_fills) < tree.min_entries

        calls = 0
        insert_entry = tree._insert_entry

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            insert_entry(*args, **kwargs)

        monkeypatch.setattr(tree, "_insert_entry", counting)
        for item in items:
            calls = 0
            budget = tree.max_entries * tree.height
            tree.delete(item.mbr, item)
            assert calls <= budget, f"deleting oid {item.oid} re-inserted {calls} entries"
        assert len(tree) == 0
        tree.check_invariants()

    def test_move_inside_the_leaf_rectangle_touches_no_other_node(self):
        items = self._packed_points(500, seed=37)
        tree = RTree.bulk_load(items, max_entries=10)
        leaf = next(node for node in tree._iter_nodes() if node.is_leaf)
        before = {id(node): list(node.entries) for node in tree._iter_nodes()}
        old = leaf.entries[0].item
        centre = leaf.mbr().center
        new = PointObject.at(old.oid, centre.x, centre.y)
        tree.update(old.mbr, new.mbr, old, replacement=new)
        assert {id(node): list(node.entries) for node in tree._iter_nodes()} == before
        assert leaf.entries[0].item is new and leaf.entries[0].mbr == new.mbr
        tree.check_invariants()
        assert tree.range_search(new.mbr) == [new]
        assert old not in tree.range_search(old.mbr)

    def test_move_of_an_unknown_item_changes_nothing(self):
        items = self._packed_points(50, seed=41)
        tree = RTree.bulk_load(items, max_entries=4)
        stranger = PointObject.at(999, 1.0, 1.0)
        with pytest.raises(KeyError):
            tree.update(stranger.mbr, Rect(2.0, 2.0, 2.0, 2.0), stranger)
        with pytest.raises(ValueError):
            tree.update(items[0].mbr, Rect.empty(), items[0])
        assert len(tree) == 50
        assert tree.range_search(items[0].mbr) == [items[0]]


class TestQuadraticSplitDecisions:
    """The array formulation of the quadratic split against Guttman's loops."""

    @staticmethod
    def _reference_split(rects: list[Rect], min_entries: int) -> tuple[list[int], list[int]]:
        worst, seeds = -np.inf, (0, 1)
        for i in range(len(rects)):
            for j in range(i + 1, len(rects)):
                waste = rects[i].union_bounds(rects[j]).area - rects[i].area - rects[j].area
                if waste > worst:
                    worst, seeds = waste, (i, j)
        groups = ([seeds[0]], [seeds[1]])
        covers = [rects[seeds[0]], rects[seeds[1]]]
        remaining = [i for i in range(len(rects)) if i not in seeds]
        while remaining:
            for side in (0, 1):
                if len(groups[side]) + len(remaining) == min_entries:
                    groups[side].extend(remaining)
                    return groups
            growth = [
                tuple(cover.enlargement_to_include(rects[i]) for cover in covers)
                for i in remaining
            ]
            pick = max(range(len(remaining)), key=lambda k: (abs(growth[k][0] - growth[k][1]), -k))
            grow_a, grow_b = growth[pick]
            if grow_a != grow_b:
                side = 0 if grow_a < grow_b else 1
            else:
                side = 0 if covers[0].area <= covers[1].area else 1
            chosen = remaining.pop(pick)
            groups[side].append(chosen)
            covers[side] = covers[side].union_bounds(rects[chosen])
        return groups

    @pytest.mark.parametrize("seed", range(12))
    def test_same_groups_in_the_same_order(self, seed):
        rng = np.random.default_rng(seed)
        max_entries = int(rng.choice([4, 9, 16, 40]))
        if seed % 3 == 0:  # a coarse grid: ties in growth and in area
            corners = rng.integers(0, 4, (max_entries + 1, 2)).astype(float)
            extents = rng.integers(0, 2, (max_entries + 1, 2)).astype(float)
        elif seed % 3 == 1:  # points: zero-area entries
            corners = rng.uniform(0.0, 100.0, (max_entries + 1, 2))
            extents = np.zeros((max_entries + 1, 2))
        else:
            corners = rng.uniform(0.0, 100.0, (max_entries + 1, 2))
            extents = rng.uniform(0.0, 20.0, (max_entries + 1, 2))
        rects = [
            Rect(float(x), float(y), float(x + w), float(y + h))
            for (x, y), (w, h) in zip(corners, extents)
        ]
        tree = RTree(max_entries=max_entries)
        node = tree._root
        node.entries = [_Entry(mbr=rect, item=position) for position, rect in enumerate(rects)]
        sibling = tree._split_node(node)
        expected = self._reference_split(rects, tree.min_entries)
        assert [entry.item for entry in node.entries] == expected[0]
        assert [entry.item for entry in sibling.entries] == expected[1]
