"""A fixed-grid spatial index (a simplified grid file).

The paper mentions the grid file (Nievergelt et al., 1984) alongside the
R-tree as a usable disk index for the expanded-query filtering step.  This
implementation partitions a known data space into a regular grid of buckets;
an object is registered in every bucket its MBR overlaps, and a window query
reads exactly the buckets overlapped by the query rectangle.  Bucket reads
are counted as node accesses so the I/O comparison against the R-tree is
apples-to-apples.
"""

from __future__ import annotations
from repro.errors import MissingItemError, SpatialIndexError

import math
from typing import Any, Iterable

import numpy as np

from repro.geometry.rect import Rect
from repro.index.base import extract_mbr, items_match, search_oids
from repro.index.iostats import IOStatistics


class GridFile:
    """A regular-grid index over a data space that can grow with the data.

    The declared bounds are a starting point, not a contract: inserting an
    MBR that sticks out of the current data space *extends* the space (the
    grid re-registers every item over the enlarged cells) instead of the old
    behaviour of silently clamping the item into edge cells, which left it
    unreachable by in-bounds query windows.
    """

    def __init__(self, bounds: Rect, cells_per_axis: int = 64) -> None:
        if bounds.is_empty or bounds.area == 0.0:
            raise SpatialIndexError("grid bounds must have positive area")
        if cells_per_axis <= 0:
            raise SpatialIndexError("cells_per_axis must be positive")
        self._n = cells_per_axis
        self._stats = IOStatistics()
        #: Master copy of every stored ``(mbr, item)`` pair, in insertion
        #: order — the source of truth the cells are (re)derived from.
        self._entries: list[tuple[Rect, Any]] = []
        self._set_bounds(bounds)

    def _set_bounds(self, bounds: Rect) -> None:
        self._bounds = bounds
        self._cell_w = bounds.width / self._n
        self._cell_h = bounds.height / self._n
        self._cells: list[list[tuple[Rect, Any]]] = [
            [] for _ in range(self._n * self._n)
        ]
        for mbr, item in self._entries:
            self._register(mbr, item)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> IOStatistics:
        """Access counters accumulated by this index."""
        return self._stats

    @property
    def bounds(self) -> Rect:
        """The data space covered by the grid."""
        return self._bounds

    @property
    def cells_per_axis(self) -> int:
        """Grid resolution along each axis."""
        return self._n

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def _cell_range(self, rect: Rect) -> tuple[int, int, int, int]:
        """Indices of the grid cells overlapped by ``rect`` (clamped to the grid)."""
        ix_lo = int(math.floor((rect.xmin - self._bounds.xmin) / self._cell_w))
        ix_hi = int(math.floor((rect.xmax - self._bounds.xmin) / self._cell_w))
        iy_lo = int(math.floor((rect.ymin - self._bounds.ymin) / self._cell_h))
        iy_hi = int(math.floor((rect.ymax - self._bounds.ymin) / self._cell_h))
        ix_lo = min(max(ix_lo, 0), self._n - 1)
        ix_hi = min(max(ix_hi, 0), self._n - 1)
        iy_lo = min(max(iy_lo, 0), self._n - 1)
        iy_hi = min(max(iy_hi, 0), self._n - 1)
        return ix_lo, ix_hi, iy_lo, iy_hi

    def _register(self, mbr: Rect, item: Any) -> None:
        """File one pair into every cell its MBR overlaps (bounds must cover it)."""
        ix_lo, ix_hi, iy_lo, iy_hi = self._cell_range(mbr)
        for iy in range(iy_lo, iy_hi + 1):
            for ix in range(ix_lo, ix_hi + 1):
                self._cells[iy * self._n + ix].append((mbr, item))

    def insert(self, mbr: Rect, item: Any) -> None:
        """Register ``item`` in every grid cell its MBR overlaps.

        An MBR outside the current data space extends the space first (all
        items re-register over the enlarged grid), so the item stays
        reachable by any query window that overlaps it.
        """
        if mbr.is_empty:
            raise SpatialIndexError("cannot index an empty rectangle")
        if not self._bounds.contains_rect(mbr):
            self._entries.append((mbr, item))
            self._set_bounds(self._bounds.union_bounds(mbr))
            return
        self._entries.append((mbr, item))
        self._register(mbr, item)

    def delete(self, mbr: Rect, item: Any) -> None:
        """Remove one stored item from the master list and every cell holding it."""
        for position, (stored_mbr, stored) in enumerate(self._entries):
            if stored_mbr == mbr and items_match(stored, item):
                del self._entries[position]
                break
        else:
            raise MissingItemError(f"item with MBR {mbr.as_tuple()} is not stored in this grid")
        ix_lo, ix_hi, iy_lo, iy_hi = self._cell_range(mbr)
        for iy in range(iy_lo, iy_hi + 1):
            for ix in range(ix_lo, ix_hi + 1):
                bucket = self._cells[iy * self._n + ix]
                for slot, (stored_mbr, stored) in enumerate(bucket):
                    if stored_mbr == mbr and items_match(stored, item):
                        del bucket[slot]
                        break

    def update(
        self, old_mbr: Rect, new_mbr: Rect, item: Any, *, replacement: Any = None
    ) -> None:
        """Move one stored item to ``new_mbr`` (optionally replacing the payload)."""
        self.delete(old_mbr, item)
        self.insert(new_mbr, replacement if replacement is not None else item)

    @classmethod
    def bulk_load(
        cls, items: Iterable[Any], *, bounds: Rect, cells_per_axis: int = 64
    ) -> "GridFile":
        """Build a grid file over items exposing an ``mbr`` attribute."""
        materialised = list(items)
        if not materialised:
            raise SpatialIndexError("cannot index an empty collection")
        grid = cls(bounds, cells_per_axis=cells_per_axis)
        for item in materialised:
            grid.insert(extract_mbr(item), item)
        return grid

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def range_search(self, query: Rect) -> list[Any]:
        """Return every stored item whose MBR intersects ``query``."""
        results: list[Any] = []
        if query.is_empty or not self._entries:
            return results
        window = query.intersect(self._bounds)
        if window.is_empty:
            # The bounds always cover every stored MBR (inserts extend them),
            # so a query disjoint from the bounds cannot match anything.
            return results
        seen: set[int] = set()
        ix_lo, ix_hi, iy_lo, iy_hi = self._cell_range(window)
        for iy in range(iy_lo, iy_hi + 1):
            for ix in range(ix_lo, ix_hi + 1):
                bucket = self._cells[iy * self._n + ix]
                self._stats.record_node(is_leaf=True)
                self._stats.record_entries(len(bucket))
                for mbr, item in bucket:
                    if id(item) in seen:
                        continue
                    if mbr.overlaps(query):
                        seen.add(id(item))
                        results.append(item)
        self._stats.record_results(len(results))
        return results

    def range_search_oids(self, query: Rect) -> np.ndarray:
        """The ``oid`` of every item :meth:`range_search` returns, as ``int64``."""
        return search_oids(self, query)
