"""Property-based tests for the spatial indexes.

The key invariant: every index answers window queries identically to a brute
force scan, regardless of how the data was loaded.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.rect import Rect
from repro.index.gridfile import GridFile
from repro.index.linear import LinearScanIndex
from repro.index.rtree import RTree
from repro.uncertainty.region import PointObject

coords = st.floats(min_value=0.0, max_value=1_000.0, allow_nan=False)
sizes = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


@st.composite
def rect_lists(draw):
    count = draw(st.integers(min_value=1, max_value=60))
    rects = []
    for _ in range(count):
        x = draw(coords)
        y = draw(coords)
        rects.append(Rect(x, y, x + draw(sizes), y + draw(sizes)))
    return rects


@st.composite
def queries(draw):
    x = draw(coords)
    y = draw(coords)
    return Rect(x, y, x + draw(st.floats(min_value=0.0, max_value=500.0)), y + draw(
        st.floats(min_value=0.0, max_value=500.0)
    ))


def _brute_force(rects: list[Rect], query: Rect) -> set[int]:
    return {i for i, rect in enumerate(rects) if rect.overlaps(query)}


class TestIndexEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(rect_lists(), queries())
    def test_rtree_insert_matches_brute_force(self, rects, query):
        tree = RTree(max_entries=4)
        for i, rect in enumerate(rects):
            tree.insert(rect, i)
        assert set(tree.range_search(query)) == _brute_force(rects, query)

    @settings(max_examples=40, deadline=None)
    @given(rect_lists(), queries())
    def test_rtree_bulk_load_matches_brute_force(self, rects, query):
        items = [type("Item", (), {"mbr": rect, "i": i})() for i, rect in enumerate(rects)]
        tree = RTree.bulk_load(items, max_entries=4)
        assert {item.i for item in tree.range_search(query)} == _brute_force(rects, query)

    @settings(max_examples=40, deadline=None)
    @given(rect_lists(), queries())
    def test_gridfile_matches_brute_force(self, rects, query):
        bounds = Rect(0.0, 0.0, 1_200.0, 1_200.0)
        grid = GridFile(bounds, cells_per_axis=8)
        for i, rect in enumerate(rects):
            grid.insert(rect, i)
        assert set(grid.range_search(query)) == _brute_force(rects, query)

    @settings(max_examples=40, deadline=None)
    @given(rect_lists(), queries())
    def test_linear_scan_matches_brute_force(self, rects, query):
        index = LinearScanIndex()
        for i, rect in enumerate(rects):
            index.insert(rect, i)
        assert set(index.range_search(query)) == _brute_force(rects, query)

    @settings(max_examples=25, deadline=None)
    @given(rect_lists())
    def test_rtree_invariants_hold_after_insertions(self, rects):
        tree = RTree(max_entries=4)
        for i, rect in enumerate(rects):
            tree.insert(rect, i)
        tree.check_invariants()


class TestInterleavedMaintenance:
    """Structural invariants and scan equivalence under insert/delete streams."""

    @settings(max_examples=40, deadline=None)
    @given(rect_lists(), st.randoms(use_true_random=False), queries())
    def test_rtree_invariants_hold_under_interleaved_insert_delete(
        self, rects, random, query
    ):
        tree = RTree(max_entries=4)
        live: dict[int, Rect] = {}
        for i, rect in enumerate(rects):
            tree.insert(rect, i)
            live[i] = rect
            # Randomly interleave deletions (possibly of the item just added).
            if live and random.random() < 0.4:
                victim = random.choice(sorted(live))
                tree.delete(live.pop(victim), victim)
                tree.check_invariants()
        tree.check_invariants()
        assert len(tree) == len(live)
        expected = {i for i, rect in live.items() if rect.overlaps(query)}
        assert set(tree.range_search(query)) == expected

    @settings(max_examples=25, deadline=None)
    @given(rect_lists(), st.randoms(use_true_random=False))
    def test_rtree_empties_and_refills_cleanly(self, rects, random):
        tree = RTree(max_entries=4)
        for i, rect in enumerate(rects):
            tree.insert(rect, i)
        order = list(enumerate(rects))
        random.shuffle(order)
        for i, rect in order:
            tree.delete(rect, i)
        tree.check_invariants()
        assert len(tree) == 0
        for i, rect in enumerate(rects):
            tree.insert(rect, i)
        tree.check_invariants()
        assert len(tree) == len(rects)

    @settings(max_examples=30, deadline=None)
    @given(rect_lists(), st.randoms(use_true_random=False), queries())
    def test_gridfile_and_linear_match_brute_force_after_deletes(
        self, rects, random, query
    ):
        bounds = Rect(0.0, 0.0, 1_200.0, 1_200.0)
        grid = GridFile(bounds, cells_per_axis=8)
        linear = LinearScanIndex()
        live: dict[int, Rect] = {}
        for i, rect in enumerate(rects):
            grid.insert(rect, i)
            linear.insert(rect, i)
            live[i] = rect
        for victim in random.sample(sorted(live), k=len(live) // 2):
            grid.delete(live[victim], victim)
            linear.delete(live[victim], victim)
            del live[victim]
        expected = {i for i, rect in live.items() if rect.overlaps(query)}
        assert set(grid.range_search(query)) == expected
        assert set(linear.range_search(query)) == expected


def _has_underfull_node(tree: RTree) -> bool:
    return any(
        len(node.entries) < tree.min_entries
        for node in tree._iter_nodes()
        if node is not tree._root
    )


@st.composite
def packed_trees_and_edits(draw):
    """A point set STR packs with under-filled tail nodes, plus a stream of edits.

    With a fan-out of 4, any count of the form ``4k + 1`` leaves a one-item
    tail leaf, and 17+ points make the packed tree three levels tall — the
    shape in which a delete meets an under-full *internal* node.
    """
    count = 4 * draw(st.integers(min_value=4, max_value=15)) + 1
    points = [(draw(coords), draw(coords)) for _ in range(count)]
    edits = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete", "nudge", "jump"]),
                st.integers(min_value=0, max_value=10_000),
                coords,
                coords,
            ),
            min_size=1,
            max_size=25,
        )
    )
    windows = draw(st.lists(queries(), min_size=2, max_size=3))
    return points, edits, windows


class TestLiveMaintenanceOfPackedTrees:
    """Insert / delete / move streams over bulk-loaded trees with STR tails."""

    @settings(max_examples=40, deadline=None)
    @given(packed_trees_and_edits())
    def test_every_step_matches_a_scan_and_a_freshly_packed_tree(self, case):
        points, edits, windows = case
        live = {i: PointObject.at(i, x, y) for i, (x, y) in enumerate(points)}
        tree = RTree.bulk_load(live.values(), max_entries=4)
        assert tree.height >= 3
        assert _has_underfull_node(tree)
        next_oid = len(live)
        for action, pick, x, y in edits:
            if action == "insert" or not live:
                obj = PointObject.at(next_oid, x, y)
                next_oid += 1
                tree.insert(obj.mbr, obj)
                live[obj.oid] = obj
            else:
                old = live[sorted(live)[pick % len(live)]]
                if action == "delete":
                    tree.delete(old.mbr, old)
                    del live[old.oid]
                else:
                    if action == "nudge":  # a few units: usually stays in its leaf
                        x = old.x + (x - 500.0) / 100.0
                        y = old.y + (y - 500.0) / 100.0
                    new = PointObject.at(old.oid, x, y)
                    tree.update(old.mbr, new.mbr, old, replacement=new)
                    live[old.oid] = new
            tree.check_invariants()
            assert len(tree) == len(live)
            repacked = RTree.bulk_load(live.values(), max_entries=4) if live else RTree()
            for window in windows:
                expected = {oid for oid, obj in live.items() if obj.mbr.overlaps(window)}
                found = tree.range_search(window)
                assert {obj.oid for obj in found} == expected
                assert all(obj is live[obj.oid] for obj in found)
                assert {obj.oid for obj in repacked.range_search(window)} == expected
