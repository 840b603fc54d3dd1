"""The Probability Threshold Index (PTI) — Section 5.3 of the paper.

The PTI (originally from Cheng et al., VLDB 2004) is an R-tree over uncertain
objects in which every node additionally summarises the U-catalogs of the
objects stored beneath it: for each catalog probability level ``m`` the node
keeps the minimum bounding rectangle of all its descendants' ``m``-bound
rectangles.  During a constrained query with threshold ``Qp`` an entire
subtree can be skipped when the (expanded) query region does not intersect
the subtree's ``m``-bound MBR for the largest stored ``m ≤ Qp``: in that case
every object in the subtree has at most ``m ≤ Qp`` probability mass inside
the query region, so by Lemma 4 its qualification probability cannot exceed
``Qp``.

Layout: a node's augmentation ``node.aug`` is a tuple of rectangles indexed
by level *position* (``aug[i]`` belongs to ``levels[i]``, the levels every
stored catalog shares), and each rectangle is exactly the bounding rectangle
of the children's ``i``-th rectangles — a leaf entry contributes its
object's ``catalog.rects[i]``.  A node update reads each entry's rectangle
tuple once and takes one ``min``/``max`` pass per level
(:meth:`Rect.bounding`); a threshold query resolves its level position once.
"""

from __future__ import annotations
from repro.errors import InvalidArgumentError, SpatialIndexError

from operator import is_
from typing import Iterable

from repro.geometry.rect import Rect
from repro.index.rtree import _Entry, _Node, RTree
from repro.uncertainty.region import UncertainObject


class ProbabilityThresholdIndex(RTree):
    """An R-tree whose nodes carry per-probability-level bound rectangles.

    Items stored in a PTI must be :class:`UncertainObject` instances carrying
    a U-catalog; all objects must share the same catalog levels (the usual
    situation, since catalogs are built by the data loader with a fixed level
    set).
    """

    def __init__(self, *args, **kwargs) -> None:
        self._levels: tuple[float, ...] | None = None
        super().__init__(*args, **kwargs)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    def _require_catalog(self, item: UncertainObject) -> None:
        if not isinstance(item, UncertainObject):
            raise InvalidArgumentError(
                f"PTI stores UncertainObject instances, got {type(item).__name__}"
            )
        if item.catalog is None:
            raise SpatialIndexError(
                f"object {item.oid} has no U-catalog; build it with "
                "UncertainObject.with_catalog() before indexing"
            )
        levels = item.catalog.levels
        if self._levels is None:
            self._levels = levels
        elif levels != self._levels:
            raise SpatialIndexError(
                "all objects in a PTI must share the same catalog levels; "
                f"expected {self._levels}, got {levels}"
            )

    def insert(self, mbr: Rect, item: UncertainObject) -> None:  # type: ignore[override]
        self._require_catalog(item)
        super().insert(mbr, item)

    def update(  # type: ignore[override]
        self,
        old_mbr: Rect,
        new_mbr: Rect,
        item: UncertainObject,
        *,
        replacement: UncertainObject | None = None,
    ) -> None:
        # Validate the incoming payload *before* the delete half runs, so a
        # catalog-less replacement cannot drop the stored item on the floor.
        self._require_catalog(replacement if replacement is not None else item)
        super().update(old_mbr, new_mbr, item, replacement=replacement)

    @classmethod
    def bulk_load(  # type: ignore[override]
        cls, items: Iterable[UncertainObject], **kwargs
    ) -> "ProbabilityThresholdIndex":
        """Build a packed PTI from uncertain objects carrying U-catalogs."""
        materialised = list(items)
        if not materialised:
            raise SpatialIndexError("cannot index an empty collection")
        tree = cls(
            max_entries=kwargs.pop("max_entries", None),
            min_entries=kwargs.pop("min_entries", None),
            **kwargs,
        )
        for item in materialised:
            tree._require_catalog(item)
        tree._bulk_load_pairs([(item.mbr, item) for item in materialised])
        return tree

    # ------------------------------------------------------------------ #
    # Augmentation maintenance
    # ------------------------------------------------------------------ #
    def _entry_rects(self, entry: _Entry) -> tuple[Rect, ...]:
        """The per-level rectangles one entry contributes to its node."""
        child = entry.child
        if child is None:
            return entry.item.catalog.rects
        if child.aug is None:
            return (child.mbr(),) * len(self._levels or ())
        return child.aug

    def _on_node_updated(self, node: _Node) -> None:
        if self._levels is None or not node.entries:
            node.aug = None
            return
        rows = [self._entry_rects(entry) for entry in node.entries]
        aug: list[Rect] = []
        previous: tuple[Rect, ...] = ()
        for column in zip(*rows):
            # Levels that clamp to one p-bound share their rectangles (see
            # UCatalog.build_many), and so do the node bounds built from
            # them: a column of the very same objects has the same bound.
            if aug and all(map(is_, column, previous)):
                aug.append(aug[-1])
            else:
                aug.append(Rect.bounding(column))
            previous = column
        node.aug = tuple(aug)

    # ------------------------------------------------------------------ #
    # Threshold-aware search
    # ------------------------------------------------------------------ #
    def pruning_level_for(self, threshold: float) -> float | None:
        """The catalog level used to prune a query with the given threshold.

        Returns the largest stored level that does not exceed ``threshold``,
        or ``None`` when no useful level exists (empty index or threshold
        below the smallest positive level).
        """
        if self._levels is None:
            return None
        candidates = [level for level in self._levels if 0.0 < level <= threshold]
        return max(candidates) if candidates else None

    def range_search_with_threshold(
        self,
        expanded_query: Rect,
        threshold: float,
        p_expanded_query: Rect | None = None,
    ) -> list[UncertainObject]:
        """Window query with index-level probability-threshold pruning.

        ``expanded_query`` is the Minkowski sum ``R ⊕ U0``; a subtree is
        pruned when it does not intersect the subtree's ``m``-bound MBR for
        the largest stored level ``m ≤ threshold`` (the index-level version of
        pruning Strategy 1).  When ``p_expanded_query`` — the issuer's
        Qp-expanded-query — is also given, subtrees whose plain MBR misses it
        are pruned as well (the index-level version of Strategy 2).

        Returns candidate objects whose qualification probability *may* reach
        ``threshold``; exact probabilities of the survivors still have to be
        computed by the evaluation engine.  With ``threshold == 0`` (or no
        usable catalog level) and no ``p_expanded_query`` this degenerates to
        a plain R-tree window query.
        """
        if not 0.0 <= threshold <= 1.0:
            raise SpatialIndexError(f"threshold must lie in [0, 1], got {threshold}")
        level = self.pruning_level_for(threshold)
        if level is None and p_expanded_query is None:
            return self.range_search(expanded_query)
        position = None if level is None else self._levels.index(level)  # type: ignore[union-attr]

        def node_filter(entry: _Entry) -> bool:
            # entry.mbr is the subtree's bounding box (maintained by the tree),
            # so the Strategy-2 check needs no recomputation.
            if p_expanded_query is not None and not entry.mbr.overlaps(p_expanded_query):
                return False
            child = entry.child
            assert child is not None
            if position is None or child.aug is None:
                return True
            return child.aug[position].overlaps(expanded_query)

        def entry_filter(entry: _Entry) -> bool:
            if p_expanded_query is not None and not entry.mbr.overlaps(p_expanded_query):
                return False
            if position is None:
                return True
            return entry.item.catalog.rects[position].overlaps(expanded_query)

        return self.range_search_filtered(
            expanded_query, node_filter=node_filter, entry_filter=entry_filter
        )

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def check_augmentation(self) -> None:
        """Verify that every node's level bounds are exact.

        ``aug[i]`` must cover the entries' ``i``-th rectangles and equal their
        bounding rectangle (no looser than it has to be).
        """
        if self._levels is None or len(self) == 0:
            return

        def visit(node: _Node) -> None:
            assert node.aug is not None, "non-empty PTI node without augmentation"
            assert len(node.aug) == len(self._levels or ()), "augmentation/level mismatch"
            rows = [self._entry_rects(entry) for entry in node.entries]
            for position, node_rect in enumerate(node.aug):
                children = [row[position] for row in rows]
                assert all(node_rect.contains_rect(child) for child in children), (
                    f"node {self._levels[position]}-bound does not cover a child's bound"
                )
                assert node_rect == Rect.bounding(children), (
                    f"node {self._levels[position]}-bound is looser than its children's"
                )
            for entry in node.entries:
                if entry.child is not None:
                    visit(entry.child)

        visit(self._root)
