"""An R-tree (Guttman, 1984) with quadratic split and STR bulk loading.

The paper uses the Spatial Index Library's R-tree with a 4 KB node size as
its disk-based index and measures query cost in terms of response time.  This
implementation mirrors the structure of that index — a height-balanced tree of
fixed-capacity nodes, capacity derived from a page size and a per-entry byte
cost — and counts node accesses so that experiments can report I/O costs that
do not depend on the host machine.

Two construction paths are offered:

* incremental :meth:`RTree.insert` using Guttman's least-enlargement descent
  and quadratic node split, and
* :meth:`RTree.bulk_load` using Sort-Tile-Recursive packing, which is what the
  experiment harness uses to index the 50–60 K object datasets quickly.
"""

from __future__ import annotations
from repro.errors import EngineStateError, MissingItemError, SpatialIndexError

import heapq
import math
import operator
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.base import bulk_pairs, items_match
from repro.index.iostats import IOStatistics

#: Modelled byte cost of one node entry: a 4-double MBR (32 bytes) plus a
#: child pointer / record id (8 bytes).  With the paper's 4 KB pages this
#: yields a fan-out of ~100.
DEFAULT_ENTRY_BYTES = 40
DEFAULT_PAGE_BYTES = 4096


def _bounds_area(bounds: np.ndarray) -> float:
    """Area of one ``(xmin, ymin, xmax, ymax)`` row (rows are never empty)."""
    return float((bounds[2] - bounds[0]) * (bounds[3] - bounds[1]))


def _bounds_enlargements(group: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Area growth of a group bounds row to include each of ``rows`` (K, 4)."""
    width = np.maximum(group[2], rows[:, 2]) - np.minimum(group[0], rows[:, 0])
    height = np.maximum(group[3], rows[:, 3]) - np.minimum(group[1], rows[:, 1])
    return width * height - _bounds_area(group)


def _bounds_contain(group: np.ndarray, row: np.ndarray) -> bool:
    """Whether a group bounds row already covers ``row``."""
    return bool(
        group[0] <= row[0] and group[1] <= row[1] and group[2] >= row[2] and group[3] >= row[3]
    )


class _Entry:
    """One slot of a node: an MBR plus either a child node or a stored item."""

    __slots__ = ("mbr", "child", "item")

    def __init__(self, mbr: Rect, child: "_Node | None" = None, item: Any = None) -> None:
        self.mbr = mbr
        self.child = child
        self.item = item


class _Node:
    """A fixed-capacity R-tree node (leaf or internal)."""

    __slots__ = ("is_leaf", "entries", "aug", "columns")

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        self.entries: list[_Entry] = []
        # Optional augmentation payload maintained by subclasses (e.g. the
        # PTI's per-probability-level bounding rectangles, by level position).
        self.aug: tuple[Rect, ...] | None = None
        # The entries as columns for the window test (see entry_columns);
        # ``None`` until a search needs them and after every change.
        self.columns: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list] | None = None

    def mbr(self) -> Rect:
        """Minimum bounding rectangle of all entries in this node."""
        return Rect.bounding([entry.mbr for entry in self.entries])

    def entry_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list]:
        """``(xmin, ymin, xmax, ymax, payloads)`` of the entries, in entry order.

        Payloads are the stored items of a leaf and the child nodes of an
        internal node.  An empty MBR's coordinates read NaN, so it overlaps
        nothing, as :meth:`Rect.overlaps` has it.  Built on first use and
        kept until the tree reports a change to this node.
        """
        if self.columns is None:
            entries = self.entries
            coords = np.array(
                [(e.mbr.xmin, e.mbr.ymin, e.mbr.xmax, e.mbr.ymax) for e in entries], dtype=float
            ).reshape(len(entries), 4)
            coords[(coords[:, 0] > coords[:, 2]) | (coords[:, 1] > coords[:, 3])] = np.nan
            xmin, ymin, xmax, ymax = coords.T.copy()
            payloads = [e.item for e in entries] if self.is_leaf else [e.child for e in entries]
            self.columns = (xmin, ymin, xmax, ymax, payloads)
        return self.columns


class RTree:
    """A height-balanced R-tree over arbitrary items keyed by their MBR."""

    def __init__(
        self,
        max_entries: int | None = None,
        min_entries: int | None = None,
        *,
        page_size: int = DEFAULT_PAGE_BYTES,
        entry_size: int = DEFAULT_ENTRY_BYTES,
        split_algorithm: str = "quadratic",
    ) -> None:
        if max_entries is None:
            max_entries = max(4, page_size // entry_size)
        if max_entries < 2:
            raise SpatialIndexError("max_entries must be at least 2")
        if min_entries is None:
            min_entries = max(2, (max_entries * 2) // 5)
        if not 1 <= min_entries <= max_entries // 2:
            raise SpatialIndexError(
                f"min_entries must lie in [1, max_entries // 2]; "
                f"got min={min_entries}, max={max_entries}"
            )
        if split_algorithm not in ("quadratic", "linear"):
            raise SpatialIndexError(
                f"split_algorithm must be 'quadratic' or 'linear', got {split_algorithm!r}"
            )
        self._max_entries = max_entries
        self._min_entries = min_entries
        self._split_algorithm = split_algorithm
        self._root = _Node(is_leaf=True)
        self._size = 0
        self._stats = IOStatistics()
        self._node_changed(self._root)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> IOStatistics:
        """Access counters accumulated by this index."""
        return self._stats

    @property
    def max_entries(self) -> int:
        """Maximum node fan-out."""
        return self._max_entries

    @property
    def min_entries(self) -> int:
        """Minimum fill of non-root nodes."""
        return self._min_entries

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Number of levels in the tree (1 for a lone leaf root)."""
        height = 1
        node = self._root
        while not node.is_leaf:
            node = node.entries[0].child  # type: ignore[assignment]
            height += 1
        return height

    @property
    def node_count(self) -> int:
        """Total number of nodes (pages) in the tree."""
        return sum(1 for _ in self._iter_nodes())

    def bounds(self) -> Rect:
        """Bounding rectangle of the entire indexed dataset."""
        return self._root.mbr()

    def _iter_nodes(self) -> Iterable[_Node]:
        stack = [self._root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.extend(entry.child for entry in node.entries)  # type: ignore[misc]

    def items(self) -> Iterable[Any]:
        """Iterate over every stored item (no particular order)."""
        for node in self._iter_nodes():
            if node.is_leaf:
                for entry in node.entries:
                    yield entry.item

    # ------------------------------------------------------------------ #
    # Subclass hook
    # ------------------------------------------------------------------ #
    def _node_changed(self, node: _Node) -> None:
        """Every change to a node's entries, or to their MBRs, is reported here."""
        node.columns = None
        self._on_node_updated(node)

    def _on_node_updated(self, node: _Node) -> None:
        """Called (through :meth:`_node_changed`) whenever a node's entry list changes.

        The base R-tree keeps no per-node augmentation; the PTI subclass
        overrides this to maintain per-probability-level bounds.
        """

    # ------------------------------------------------------------------ #
    # Insertion (Guttman)
    # ------------------------------------------------------------------ #
    def insert(self, mbr: Rect, item: Any) -> None:
        """Insert ``item`` with bounding rectangle ``mbr``."""
        if mbr.is_empty:
            raise SpatialIndexError("cannot index an empty rectangle")
        self._insert_entry(_Entry(mbr=mbr, item=item), level=0)
        self._size += 1

    def _insert_entry(self, entry: _Entry, *, level: int) -> None:
        """Place ``entry`` in a node ``level`` levels above the leaves.

        Level 0 stores items; a higher level re-homes a whole subtree whose
        leaves then sit at the same depth as everybody else's.
        """
        path, links = self._choose_path(entry.mbr, level=level)
        node = path[-1]
        node.entries.append(entry)
        self._node_changed(node)
        self._adjust_path(path, links, entry.mbr)

    def _choose_path(self, mbr: Rect, *, level: int) -> tuple[list[_Node], list[_Entry]]:
        """Descend by least enlargement to a node at ``level``.

        Returns the root-to-target node path plus, for every step of the
        descent, the parent entry that was followed (``links[i].child is
        path[i + 1]``).
        """
        path = [self._root]
        links: list[_Entry] = []
        node = self._root
        for _ in range(self.height - 1 - level):
            best: _Entry | None = None
            best_enlargement = math.inf
            best_area = math.inf
            for child_entry in node.entries:
                enlargement = child_entry.mbr.enlargement_to_include(mbr)
                area = child_entry.mbr.area
                if enlargement < best_enlargement or (
                    enlargement == best_enlargement and area < best_area
                ):
                    best = child_entry
                    best_enlargement = enlargement
                    best_area = area
            assert best is not None and best.child is not None
            node = best.child
            path.append(node)
            links.append(best)
        return path, links

    def _adjust_path(self, path: list[_Node], links: list[_Entry], added: Rect) -> None:
        """Propagate MBR growth and splits from the insertion node upwards.

        A node that merely gained ``added`` grows its parent entry by union;
        only a split, which redistributes entries, recomputes the two halves.
        """
        for depth in range(len(path) - 1, -1, -1):
            node = path[depth]
            overflow: _Node | None = None
            if len(node.entries) > self._max_entries:
                overflow = self._split_node(node)
            if depth == 0:
                if overflow is not None:
                    self._grow_root(node, overflow)
                return
            parent = path[depth - 1]
            link = links[depth - 1]
            if overflow is None:
                link.mbr = link.mbr.union_bounds(added)
            else:
                link.mbr = node.mbr()
                parent.entries.append(_Entry(mbr=overflow.mbr(), child=overflow))
            self._node_changed(parent)

    @staticmethod
    def _child_entry(parent: _Node, child: _Node) -> _Entry:
        for entry in parent.entries:
            if entry.child is child:
                return entry
        raise EngineStateError("child node not found in parent during adjustment")

    def _grow_root(self, old_root: _Node, sibling: _Node) -> None:
        new_root = _Node(is_leaf=False)
        new_root.entries.append(_Entry(mbr=old_root.mbr(), child=old_root))
        new_root.entries.append(_Entry(mbr=sibling.mbr(), child=sibling))
        self._root = new_root
        self._node_changed(new_root)

    def _split_node(self, node: _Node) -> _Node:
        """Distribute an overflowing node's entries over itself and a new sibling.

        Seed selection follows the configured split algorithm (Guttman's
        quadratic split by default, the cheaper linear split as an
        alternative); the remaining entries are then distributed with the
        standard least-enlargement rule and minimum-fill safeguards.

        The selection arithmetic runs over a NumPy bounds table: with the
        paper's ~100-entry nodes the quadratic seed pick alone is ~5,000
        rectangle unions, which live object streams (where splits are a hot
        path, unlike bulk loading) cannot afford per-method-call.  Decisions
        — including tie-breaking — are identical to the scalar formulation.
        """
        entries = node.entries
        n = len(entries)
        bounds = np.empty((n, 4), dtype=float)
        for row, entry in enumerate(entries):
            mbr = entry.mbr
            bounds[row, 0] = mbr.xmin
            bounds[row, 1] = mbr.ymin
            bounds[row, 2] = mbr.xmax
            bounds[row, 3] = mbr.ymax
        if self._split_algorithm == "linear":
            seed_a, seed_b = self._pick_seeds_linear(entries)
        else:
            seed_a, seed_b = self._pick_seeds_quadratic(bounds)
        group_a = [entries[seed_a]]
        group_b = [entries[seed_b]]
        mbr_a = bounds[seed_a].copy()
        mbr_b = bounds[seed_b].copy()
        # Growth of either group to take each row; a column is recomputed
        # only after its group's rectangle actually grew.  ``unsettled`` is
        # |grow_a - grow_b| with placed rows pushed below every real value.
        grow_a = _bounds_enlargements(mbr_a, bounds)
        grow_b = _bounds_enlargements(mbr_b, bounds)
        unsettled = np.abs(grow_a - grow_b)
        placed = np.zeros(n, dtype=bool)
        placed[[seed_a, seed_b]] = True
        unsettled[placed] = -1.0
        remaining = n - 2

        while remaining:
            # Force assignment when one group must take all remaining entries
            # to reach the minimum fill.
            if len(group_a) + remaining == self._min_entries:
                group_a.extend(entries[row] for row in np.flatnonzero(~placed))
                break
            if len(group_b) + remaining == self._min_entries:
                group_b.extend(entries[row] for row in np.flatnonzero(~placed))
                break
            row = int(np.argmax(unsettled))
            if grow_a[row] < grow_b[row]:
                prefer_a = True
            elif grow_b[row] < grow_a[row]:
                prefer_a = False
            else:
                prefer_a = _bounds_area(mbr_a) <= _bounds_area(mbr_b)
            placed[row] = True
            remaining -= 1
            group, mbr, grow = (group_a, mbr_a, grow_a) if prefer_a else (group_b, mbr_b, grow_b)
            group.append(entries[row])
            if _bounds_contain(mbr, bounds[row]):
                unsettled[row] = -1.0
                continue
            np.minimum(mbr[:2], bounds[row, :2], out=mbr[:2])
            np.maximum(mbr[2:], bounds[row, 2:], out=mbr[2:])
            grow[:] = _bounds_enlargements(mbr, bounds)
            np.abs(grow_a - grow_b, out=unsettled)
            unsettled[placed] = -1.0

        node.entries = group_a
        sibling = _Node(is_leaf=node.is_leaf)
        sibling.entries = group_b
        self._node_changed(node)
        self._node_changed(sibling)
        return sibling

    @staticmethod
    def _pick_seeds_linear(entries: Sequence[_Entry]) -> tuple[int, int]:
        """Linear-split seed selection (Guttman's LinearPickSeeds).

        Along each axis, find the entry with the highest low side and the one
        with the lowest high side; normalise their separation by the extent of
        all entries along that axis and keep the pair with the greatest
        normalised separation.
        """
        best_pair = (0, 1)
        best_separation = -math.inf
        for axis in ("x", "y"):
            if axis == "x":
                lows = [entry.mbr.xmin for entry in entries]
                highs = [entry.mbr.xmax for entry in entries]
            else:
                lows = [entry.mbr.ymin for entry in entries]
                highs = [entry.mbr.ymax for entry in entries]
            highest_low_index = max(range(len(entries)), key=lambda i: lows[i])
            lowest_high_index = min(range(len(entries)), key=lambda i: highs[i])
            if highest_low_index == lowest_high_index:
                continue
            extent = max(highs) - min(lows)
            if extent <= 0.0:
                continue
            separation = (lows[highest_low_index] - highs[lowest_high_index]) / extent
            if separation > best_separation:
                best_separation = separation
                best_pair = (
                    min(highest_low_index, lowest_high_index),
                    max(highest_low_index, lowest_high_index),
                )
        return best_pair

    @staticmethod
    def _pick_seeds_quadratic(bounds: np.ndarray) -> tuple[int, int]:
        """Choose the pair of entries wasting the most area if grouped together.

        Guttman's quadratic PickSeeds over the ``(N, 4)`` bounds table: the
        full waste matrix is computed with outer min/max broadcasts, and the
        row-major argmax over the upper triangle reproduces the scalar
        double loop's first-maximum tie-breaking exactly.
        """
        xmin, ymin, xmax, ymax = bounds[:, 0], bounds[:, 1], bounds[:, 2], bounds[:, 3]
        union_w = np.maximum.outer(xmax, xmax) - np.minimum.outer(xmin, xmin)
        union_h = np.maximum.outer(ymax, ymax) - np.minimum.outer(ymin, ymin)
        areas = (xmax - xmin) * (ymax - ymin)
        waste = union_w * union_h - areas[:, None] - areas[None, :]
        waste[np.tril_indices(bounds.shape[0])] = -np.inf
        flat = int(np.argmax(waste))
        return flat // bounds.shape[0], flat % bounds.shape[0]

    # ------------------------------------------------------------------ #
    # Deletion (Guttman's condense-tree)
    # ------------------------------------------------------------------ #
    def delete(self, mbr: Rect, item: Any) -> None:
        """Remove ``item``, located by the bounding rectangle it was stored under.

        Guttman's algorithm as published: find the leaf holding the entry,
        remove it, then *condense* the tree — dissolve nodes that fell below
        the minimum fill, re-insert each dissolved node's entries at that
        node's own level (whole subtrees stay intact), and collapse a
        single-child root.  Raises ``KeyError`` when no entry matches
        ``(mbr, item)``.
        """
        path, entry_index = self._locate(mbr, item)
        self._remove_located(path, entry_index)

    def update(
        self, old_mbr: Rect, new_mbr: Rect, item: Any, *, replacement: Any = None
    ) -> None:
        """Move ``item`` from ``old_mbr`` to ``new_mbr``.

        When ``new_mbr`` still lies inside the MBR recorded for the leaf that
        holds the item, the leaf entry is overwritten in place — no ancestor
        rectangle has to change.  Otherwise the move is a delete followed by
        a re-insert.  ``replacement`` substitutes the stored payload — the
        moved object is usually a fresh immutable wrapper carrying the same
        oid.
        """
        if new_mbr.is_empty:
            raise SpatialIndexError("cannot index an empty rectangle")
        payload = replacement if replacement is not None else item
        path, entry_index = self._locate(old_mbr, item)
        leaf = path[-1]
        if len(path) == 1 or self._child_entry(path[-2], leaf).mbr.contains_rect(new_mbr):
            entry = leaf.entries[entry_index]
            entry.mbr = new_mbr
            entry.item = payload
            for node in reversed(path):
                self._node_changed(node)
            return
        self._remove_located(path, entry_index)
        self.insert(new_mbr, payload)

    def _locate(self, mbr: Rect, item: Any) -> tuple[list[_Node], int]:
        if mbr.is_empty:
            raise MissingItemError("cannot locate an item under an empty rectangle")
        found = self._find_leaf(self._root, [], mbr, item)
        if found is None:
            raise MissingItemError(f"item with MBR {mbr.as_tuple()} is not stored in this tree")
        return found

    def _remove_located(self, path: list[_Node], entry_index: int) -> None:
        leaf = path[-1]
        removed = leaf.entries.pop(entry_index)
        self._node_changed(leaf)
        self._size -= 1
        self._condense(path, removed.mbr)

    def _find_leaf(
        self, node: _Node, path: list[_Node], mbr: Rect, item: Any
    ) -> tuple[list[_Node], int] | None:
        """Depth-first search for the leaf entry storing ``(mbr, item)``.

        Returns the root-to-leaf path plus the entry's index in the leaf, or
        ``None`` when no entry matches.  Descent is pruned to subtrees whose
        MBR contains ``mbr``, mirroring how the entry got there.
        """
        path.append(node)
        if node.is_leaf:
            for entry_index, entry in enumerate(node.entries):
                if entry.mbr == mbr and items_match(entry.item, item):
                    return path, entry_index
        else:
            for entry in node.entries:
                if entry.child is not None and entry.mbr.contains_rect(mbr):
                    found = self._find_leaf(entry.child, path, mbr, item)
                    if found is not None:
                        return found
        path.pop()
        return None

    def _condense(self, path: list[_Node], gone: Rect | None) -> None:
        """Dissolve underfull nodes along ``path`` and re-home their entries.

        Each dissolved node's entries go back in at that node's level,
        highest level first, so an underfull internal node costs at most
        ``max_entries`` insertions however many items live beneath it.

        ``gone`` is the rectangle that just left the leaf.  A surviving
        node's covering rectangle can only shrink when what left it reached
        one of its edges, so it is recomputed only then; once a level keeps
        its rectangle, no ancestor's can change either.
        """
        orphans: list[tuple[int, list[_Entry]]] = []
        leaf_depth = len(path) - 1
        for depth in range(leaf_depth, 0, -1):
            node = path[depth]
            parent = path[depth - 1]
            if len(node.entries) < self._min_entries:
                link = self._child_entry(parent, node)
                parent.entries.remove(link)
                orphans.append((leaf_depth - depth, node.entries))
                gone = link.mbr
                continue
            self._node_changed(node)
            if gone is not None:
                link = self._child_entry(parent, node)
                covered = link.mbr
                if (
                    gone.xmin > covered.xmin
                    and gone.ymin > covered.ymin
                    and gone.xmax < covered.xmax
                    and gone.ymax < covered.ymax
                ):
                    gone = None
                else:
                    link.mbr = node.mbr()
                    gone = covered if link.mbr != covered else None
        self._node_changed(path[0])
        for level, entries in reversed(orphans):
            for entry in entries:
                self._insert_entry(entry, level=level)
        while not self._root.is_leaf and len(self._root.entries) == 1:
            self._root = self._root.entries[0].child  # type: ignore[assignment]

    # ------------------------------------------------------------------ #
    # Bulk loading (Sort-Tile-Recursive)
    # ------------------------------------------------------------------ #
    @classmethod
    def bulk_load(
        cls,
        items: Iterable[Any],
        *,
        max_entries: int | None = None,
        min_entries: int | None = None,
        page_size: int = DEFAULT_PAGE_BYTES,
        entry_size: int = DEFAULT_ENTRY_BYTES,
    ) -> "RTree":
        """Build a packed R-tree from items exposing an ``mbr`` attribute."""
        pairs = bulk_pairs(items)
        if not pairs:
            raise SpatialIndexError("cannot index an empty collection")
        tree = cls(
            max_entries=max_entries,
            min_entries=min_entries,
            page_size=page_size,
            entry_size=entry_size,
        )
        tree._bulk_load_pairs(pairs)
        return tree

    def _bulk_load_pairs(self, pairs: list[tuple[Rect, Any]]) -> None:
        if self._size:
            raise EngineStateError("bulk loading requires an empty tree")
        if not pairs:
            return
        leaf_entries = [_Entry(mbr=mbr, item=item) for mbr, item in pairs]
        nodes = self._pack_level(leaf_entries, is_leaf=True)
        while len(nodes) > 1:
            upper_entries = [_Entry(mbr=node.mbr(), child=node) for node in nodes]
            nodes = self._pack_level(upper_entries, is_leaf=False)
        self._root = nodes[0]
        self._size = len(pairs)

    def _pack_level(self, entries: list[_Entry], *, is_leaf: bool) -> list[_Node]:
        """Pack a list of entries into nodes using Sort-Tile-Recursive order."""
        capacity = self._max_entries
        n = len(entries)
        node_estimate = math.ceil(n / capacity)
        slice_count = max(1, math.ceil(math.sqrt(node_estimate)))
        slice_size = slice_count * capacity

        # Sort positions by centre (as Rect.center computes it, without
        # building the Points): stable sorts on equal keys, as before.
        mbrs = [entry.mbr for entry in entries]
        centres = [((mbr.xmin + mbr.xmax) / 2.0, (mbr.ymin + mbr.ymax) / 2.0) for mbr in mbrs]
        by_x = sorted(range(n), key=centres.__getitem__)
        nodes: list[_Node] = []
        for start in range(0, n, slice_size):
            chunk = sorted(
                by_x[start : start + slice_size],
                key=lambda position: (centres[position][1], centres[position][0]),
            )
            for node_start in range(0, len(chunk), capacity):
                node = _Node(is_leaf=is_leaf)
                node.entries = [
                    entries[position] for position in chunk[node_start : node_start + capacity]
                ]
                self._node_changed(node)
                nodes.append(node)
        return nodes

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def range_search(self, query: Rect) -> list[Any]:
        """Return every stored item whose MBR intersects ``query``."""
        results: list[Any] = []
        if query.is_empty or self._size == 0:
            return results
        # One vectorised overlap test per node instead of one
        # ``Rect.overlaps`` call per entry: this loop is the probe's cost.
        qxmin, qymin, qxmax, qymax = query.xmin, query.ymin, query.xmax, query.ymax
        stats = self._stats
        stack = [self._root]
        while stack:
            node = stack.pop()
            xmin, ymin, xmax, ymax, payloads = node.entry_columns()
            stats.record_node(is_leaf=node.is_leaf)
            stats.record_entries(len(payloads))
            hits = np.flatnonzero(
                (xmin <= qxmax) & (xmax >= qxmin) & (ymin <= qymax) & (ymax >= qymin)
            )
            found: list[Any] = results if node.is_leaf else stack
            found.extend(map(payloads.__getitem__, hits.tolist()))
        stats.record_results(len(results))
        return results

    def range_search_filtered(
        self,
        query: Rect,
        *,
        node_filter: Callable[[_Entry], bool] | None = None,
        entry_filter: Callable[[_Entry], bool] | None = None,
    ) -> list[Any]:
        """Range search with extra subtree/entry pruning predicates.

        ``node_filter`` is consulted with the *internal entry* (whose ``child``
        is the subtree root and whose ``mbr`` is the subtree's bounding box)
        before descending, in addition to the MBR overlap test;
        ``entry_filter`` is consulted with the leaf entry before returning its
        item.  Both default to accepting everything.  This is the extension
        point used by the Probability Threshold Index.
        """
        results: list[Any] = []
        if query.is_empty or self._size == 0:
            return results
        stack = [self._root]
        while stack:
            node = stack.pop()
            self._stats.record_node(is_leaf=node.is_leaf)
            self._stats.record_entries(len(node.entries))
            for entry in node.entries:
                if not entry.mbr.overlaps(query):
                    continue
                if node.is_leaf:
                    if entry_filter is None or entry_filter(entry):
                        results.append(entry.item)
                else:
                    assert entry.child is not None
                    if node_filter is None or node_filter(entry):
                        stack.append(entry.child)
        self._stats.record_results(len(results))
        return results

    def nearest_neighbors(self, point: Point, k: int = 1) -> list[Any]:
        """Best-first k-nearest-neighbour search by MBR distance.

        Provided for the imprecise nearest-neighbour extension; not used by
        the range-query experiments of the paper.
        """
        if k <= 0:
            raise SpatialIndexError(f"k must be positive, got {k}")
        if self._size == 0:
            return []
        counter = 0
        heap: list[tuple[float, int, _Node | None, _Entry | None]] = []
        heapq.heappush(heap, (0.0, counter, self._root, None))
        results: list[Any] = []
        while heap and len(results) < k:
            _, __, node, entry = heapq.heappop(heap)
            if node is not None:
                self._stats.record_node(is_leaf=node.is_leaf)
                self._stats.record_entries(len(node.entries))
                for child_entry in node.entries:
                    distance = child_entry.mbr.min_distance_to_point(point)
                    counter += 1
                    if node.is_leaf:
                        heapq.heappush(heap, (distance, counter, None, child_entry))
                    else:
                        heapq.heappush(heap, (distance, counter, child_entry.child, None))
            else:
                assert entry is not None
                results.append(entry.item)
        self._stats.record_results(len(results))
        return results

    # ------------------------------------------------------------------ #
    # Structural validation (used by the test suite)
    # ------------------------------------------------------------------ #
    def check_invariants(self) -> None:
        """Raise ``AssertionError`` when any structural invariant is violated.

        Checks performed: every child MBR is contained in its parent entry's
        MBR, all leaves are at the same depth, a node's cached search columns
        match its entries, and every non-root node holds
        at least ``min_entries`` entries (bulk-loaded trees are exempted from
        the minimum-fill check because STR packs greedily).
        """
        if self._size == 0:
            assert self._root.is_leaf and not self._root.entries
            return
        leaf_depths: set[int] = set()

        def visit(node: _Node, depth: int, is_root: bool) -> int:
            count = 0
            if node.columns is not None:
                cached = node.columns
                node.columns = None
                fresh = node.entry_columns()
                node.columns = cached
                assert len(cached[4]) == len(fresh[4]) and all(
                    map(operator.is_, cached[4], fresh[4])
                ), "stale search columns: payloads"
                for old, new in zip(cached[:4], fresh[:4]):
                    assert np.array_equal(old, new, equal_nan=True), "stale search columns"
            if node.is_leaf:
                leaf_depths.add(depth)
                return len(node.entries)
            assert node.entries, "internal node must have children"
            for entry in node.entries:
                child = entry.child
                assert child is not None, "internal entry without a child"
                assert entry.mbr.contains_rect(child.mbr()), (
                    "parent entry MBR does not cover its child node"
                )
                count += visit(child, depth + 1, False)
            if not is_root:
                assert len(node.entries) <= self._max_entries
            return count

        total = visit(self._root, 0, True)
        assert total == self._size, f"item count mismatch: {total} != {self._size}"
        assert len(leaf_depths) == 1, f"leaves at different depths: {leaf_depths}"
