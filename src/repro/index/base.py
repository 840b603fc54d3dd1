"""Common interface implemented by every spatial index in the package."""

from __future__ import annotations
from repro.errors import InvalidArgumentError, SpatialIndexError

from typing import Any, Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.geometry.rect import Rect
from repro.index.iostats import IOStatistics


@runtime_checkable
class SpatialIndex(Protocol):
    """Protocol shared by :class:`RTree`, :class:`GridFile`, :class:`LinearScanIndex`.

    An index stores arbitrary *items* keyed by their minimum bounding
    rectangle and answers window (range) queries: return every item whose MBR
    intersects the query rectangle.  Indexes expose an :class:`IOStatistics`
    object so callers can attribute page accesses to individual queries.

    ``delete`` and ``update`` make the index maintainable under live object
    streams; backends that cannot support them incrementally declare
    ``supports_delete=False`` in their registry capabilities, and the
    databases fall back to a full index rebuild per mutation instead.
    """

    @property
    def stats(self) -> IOStatistics:
        """Access counters accumulated by this index."""
        ...

    def __len__(self) -> int:
        """Number of stored items."""
        ...

    def insert(self, mbr: Rect, item: Any) -> None:
        """Insert one item with the given bounding rectangle."""
        ...

    def delete(self, mbr: Rect, item: Any) -> None:
        """Remove one stored item, located by its bounding rectangle.

        Raises ``KeyError`` when the item is not stored under ``mbr``.
        """
        ...

    def update(
        self, old_mbr: Rect, new_mbr: Rect, item: Any, *, replacement: Any = None
    ) -> None:
        """Move one stored item from ``old_mbr`` to ``new_mbr``.

        ``replacement`` substitutes the stored payload (immutable object
        wrappers are replaced, not mutated, when they move); it defaults to
        re-inserting ``item`` itself.
        """
        ...

    def range_search(self, query: Rect) -> list[Any]:
        """Return all items whose MBR intersects ``query``."""
        ...

    def range_search_oids(self, query: Rect) -> np.ndarray:
        """The ``oid`` of every item :meth:`range_search` returns, as ``int64``."""
        ...


def items_match(stored: Any, item: Any) -> bool:
    """Whether a stored payload is *the* item a delete refers to.

    Identity first (the usual case — databases pass the exact instance they
    stored), falling back to equality so value-style items (tuples, frozen
    dataclasses) can be removed by an equal copy.
    """
    return stored is item or stored == item


def item_oids(items: Sequence[Any]) -> np.ndarray:
    """The ``oid`` of every item, as an ``int64`` column in item order.

    Raises :class:`SpatialIndexError` when an item has no integer ``oid``.
    """
    if not len(items):
        return np.empty(0, dtype=np.int64)
    try:
        oids = np.array([item.oid for item in items])
    except AttributeError:
        oids = None
    if oids is None or oids.dtype.kind not in "iu":
        raise SpatialIndexError(
            f"an oid search needs every stored item to carry an integer oid, got {items[0]!r}"
        )
    return oids.astype(np.int64)


def search_oids(index: SpatialIndex, query: Rect) -> np.ndarray:
    """``range_search_oids`` of an index that keeps no oid columns: its items' oids."""
    return item_oids(index.range_search(query))


def extract_mbr(item: Any) -> Rect:
    """Best-effort extraction of an item's bounding rectangle.

    Accepts anything exposing an ``mbr`` attribute (the object wrappers in
    :mod:`repro.uncertainty.region`), a :class:`Rect`, or a 4-tuple.
    """
    if isinstance(item, Rect):
        return item
    mbr = getattr(item, "mbr", None)
    if isinstance(mbr, Rect):
        return mbr
    if isinstance(item, tuple) and len(item) == 4:
        return Rect(*item)
    raise InvalidArgumentError(f"cannot derive an MBR from {item!r}")


def bulk_pairs(items: Iterable[Any]) -> list[tuple[Rect, Any]]:
    """Pair every item with its extracted MBR, ready for bulk loading."""
    return [(extract_mbr(item), item) for item in items]
