"""Linear-scan "index" — the no-index baseline.

Used by the index ablation benchmark to quantify how much of the paper's
speed-up comes from the spatial index versus the probability-computation
improvements.  A full scan touches every stored object; node accesses are
modelled as sequential page reads of ``page_size / entry_size`` entries each.
"""

from __future__ import annotations
from repro.errors import MissingItemError, SpatialIndexError

import math
from typing import Any, Iterable

import numpy as np

from repro.geometry.rect import Rect
from repro.index.base import extract_mbr, items_match, search_oids
from repro.index.iostats import IOStatistics
from repro.index.rtree import DEFAULT_ENTRY_BYTES, DEFAULT_PAGE_BYTES


class LinearScanIndex:
    """Stores (MBR, item) pairs in a flat list and scans them for every query."""

    def __init__(
        self,
        *,
        page_size: int = DEFAULT_PAGE_BYTES,
        entry_size: int = DEFAULT_ENTRY_BYTES,
    ) -> None:
        self._entries: list[tuple[Rect, Any]] = []
        self._stats = IOStatistics()
        self._entries_per_page = max(1, page_size // entry_size)

    @property
    def stats(self) -> IOStatistics:
        """Access counters accumulated by this index."""
        return self._stats

    def __len__(self) -> int:
        return len(self._entries)

    def insert(self, mbr: Rect, item: Any) -> None:
        """Append one item to the scan list."""
        if mbr.is_empty:
            raise SpatialIndexError("cannot index an empty rectangle")
        self._entries.append((mbr, item))

    def delete(self, mbr: Rect, item: Any) -> None:
        """Remove the first stored entry matching ``(mbr, item)``."""
        for position, (stored_mbr, stored) in enumerate(self._entries):
            if stored_mbr == mbr and items_match(stored, item):
                del self._entries[position]
                return
        raise MissingItemError(f"item with MBR {mbr.as_tuple()} is not stored in this index")

    def update(
        self, old_mbr: Rect, new_mbr: Rect, item: Any, *, replacement: Any = None
    ) -> None:
        """Move one stored item to ``new_mbr`` (optionally replacing the payload)."""
        self.delete(old_mbr, item)
        self.insert(new_mbr, replacement if replacement is not None else item)

    @classmethod
    def bulk_load(cls, items: Iterable[Any], **kwargs) -> "LinearScanIndex":
        """Build a scan list from items exposing an ``mbr`` attribute."""
        materialised = list(items)
        if not materialised:
            raise SpatialIndexError("cannot index an empty collection")
        index = cls(**kwargs)
        for item in materialised:
            index.insert(extract_mbr(item), item)
        return index

    def range_search(self, query: Rect) -> list[Any]:
        """Return every stored item whose MBR intersects ``query``."""
        results: list[Any] = []
        if query.is_empty or not self._entries:
            return results
        pages = math.ceil(len(self._entries) / self._entries_per_page)
        for _ in range(pages):
            self._stats.record_node(is_leaf=True)
        self._stats.record_entries(len(self._entries))
        for mbr, item in self._entries:
            if mbr.overlaps(query):
                results.append(item)
        self._stats.record_results(len(results))
        return results

    def range_search_oids(self, query: Rect) -> np.ndarray:
        """The ``oid`` of every item :meth:`range_search` returns, as ``int64``."""
        return search_oids(self, query)
