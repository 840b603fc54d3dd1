"""Columnar snapshots of object collections for the vectorized backend.

The scalar evaluation paths walk ``Point``/``Rect`` dataclasses object by
object; every geometric test is a Python method call.  The vectorized backend
instead snapshots a database's objects into contiguous NumPy arrays once and
evaluates filters and probability kernels as array operations:

* :class:`ColumnarPoints` — point-object coordinates as an ``(N, 2)`` array;
* :class:`ColumnarUncertain` — uncertain-region bounds as an ``(N, 4)`` array,
  a pdf-kind code per row (``int8``, see :data:`PDF_KINDS`) and, when every
  object carries a U-catalog over the same levels, the catalog bound
  rectangles as an ``(N, L, 4)`` array.

Snapshots are immutable views of the object list they were built from; the
databases in :mod:`repro.core.database` build them lazily on first use.
Their ``insert`` / ``delete`` / ``move`` mutators derive the next snapshot
from the current one (:meth:`ColumnarPoints.appended` / ``removed`` /
``replaced`` and the :class:`ColumnarUncertain` twins: array copies with one
row patched, never a write into the old snapshot), and any other change to
the object list leaves the epoch stamp behind so the snapshot is rebuilt in
full on next use — a snapshot can never be served stale.

Array layouts follow :meth:`repro.geometry.rect.Rect.as_tuple`:
``(xmin, ymin, xmax, ymax)`` columns for every bounds array.
"""

from __future__ import annotations
from repro.core.errors import DatasetError

from operator import attrgetter
from typing import Sequence

import numpy as np

from repro.geometry.rect import Rect
from repro.uncertainty.pdf import (
    HistogramPdf,
    TruncatedGaussianPdf,
    UniformCirclePdf,
    UniformPdf,
)
from repro.uncertainty.region import PointObject, UncertainObject

#: The pdf kinds a :class:`ColumnarUncertain` ``kinds`` row can name: row
#: code ``i`` means ``isinstance(pdf, PDF_KINDS[i])``, and
#: ``len(PDF_KINDS)`` any other pdf.  The vectorised C-IUQ path routes
#: candidates by this column instead of inspecting their objects.
PDF_KINDS: tuple[type, ...] = (UniformPdf, TruncatedGaussianPdf, HistogramPdf, UniformCirclePdf)
PDF_UNIFORM = PDF_KINDS.index(UniformPdf)

_OID = attrgetter("oid")


def pdf_kind(pdf) -> int:
    """The :data:`PDF_KINDS` code of one pdf."""
    for code, kind in enumerate(PDF_KINDS):
        if isinstance(pdf, kind):
            return code
    return len(PDF_KINDS)


def _kind_column(objects: Sequence[UncertainObject]) -> np.ndarray:
    kinds = np.fromiter((pdf_kind(obj.pdf) for obj in objects), dtype=np.int8, count=len(objects))
    kinds.setflags(write=False)
    return kinds


def points_in_window_mask(xy: np.ndarray, window: Rect) -> np.ndarray:
    """Row-wise closed-window containment for an ``(N, 2)`` coordinate array.

    The single definition of the point-vs-window predicate used by every
    vectorized filter, mirroring :meth:`Rect.contains_point` (closed bounds).
    """
    xs = xy[:, 0]
    ys = xy[:, 1]
    return (
        (xs >= window.xmin)
        & (xs <= window.xmax)
        & (ys >= window.ymin)
        & (ys <= window.ymax)
    )


def bounds_overlap_window_mask(bounds: np.ndarray, window: Rect) -> np.ndarray:
    """Row-wise closed-rectangle overlap for an ``(N, 4)`` bounds array.

    The single definition of the region-vs-window predicate used by every
    vectorized filter, mirroring :meth:`Rect.overlaps` for non-empty rows.
    """
    return (
        (bounds[:, 0] <= window.xmax)
        & (window.xmin <= bounds[:, 2])
        & (bounds[:, 1] <= window.ymax)
        & (window.ymin <= bounds[:, 3])
    )


def _swap_removed(objects: tuple, row: int) -> tuple:
    edited = list(objects)
    last = edited.pop()
    if row < len(edited):
        edited[row] = last
    return tuple(edited)


def _replaced(objects: tuple, row: int, obj) -> tuple:
    edited = list(objects)
    edited[row] = obj
    return tuple(edited)


class ColumnarPoints:
    """Immutable columnar snapshot of a point-object collection."""

    __slots__ = ("objects", "oids", "xy")

    def __init__(self, objects: Sequence[PointObject]) -> None:
        self.objects: tuple[PointObject, ...] = tuple(objects)
        n = len(self.objects)
        self.oids: np.ndarray = np.fromiter(
            (obj.oid for obj in self.objects), dtype=np.int64, count=n
        )
        xy = np.empty((n, 2), dtype=float)
        for row, obj in enumerate(self.objects):
            location = obj.location
            xy[row, 0] = location.x
            xy[row, 1] = location.y
        xy.setflags(write=False)
        self.oids.setflags(write=False)
        self.xy = xy

    @classmethod
    def from_arrays(
        cls,
        objects: Sequence[PointObject],
        oids: np.ndarray,
        xy: np.ndarray,
    ) -> "ColumnarPoints":
        """Wrap pre-built arrays without copying.

        The arrays must describe ``objects`` row for row — this is how the
        ``with_*`` methods carry a snapshot across a mutation instead of
        re-deriving the arrays from the object list.
        """
        snapshot = object.__new__(cls)
        snapshot.objects = tuple(objects)
        if len(oids) != len(snapshot.objects) or len(xy) != len(snapshot.objects):
            raise DatasetError(
                "array row counts must match the object list "
                f"({len(snapshot.objects)} objects, {len(oids)} oids, {len(xy)} rows)"
            )
        oids.setflags(write=False)
        xy.setflags(write=False)
        snapshot.oids = oids
        snapshot.xy = xy
        return snapshot

    def __len__(self) -> int:
        return len(self.objects)

    # The three derivations mirror the database's list edits row for row
    # (append, swap-remove, overwrite) and never write into this snapshot.
    def appended(self, obj: PointObject) -> "ColumnarPoints":
        """The snapshot after ``obj`` was appended to the object list."""
        location = obj.location
        return ColumnarPoints.from_arrays(
            self.objects + (obj,),
            np.append(self.oids, np.int64(obj.oid)),
            np.concatenate([self.xy, [(location.x, location.y)]]),
        )

    def removed(self, row: int) -> "ColumnarPoints":
        """The snapshot after ``row`` was swap-removed (last row fills the hole)."""
        last = len(self.objects) - 1
        oids = self.oids[:last].copy()
        xy = self.xy[:last].copy()
        if row != last:
            oids[row] = self.oids[last]
            xy[row] = self.xy[last]
        return ColumnarPoints.from_arrays(_swap_removed(self.objects, row), oids, xy)

    def replaced(self, row: int, obj: PointObject) -> "ColumnarPoints":
        """The snapshot after ``row`` was overwritten by ``obj`` (same oid: a move)."""
        location = obj.location
        xy = self.xy.copy()
        xy[row] = (location.x, location.y)
        return ColumnarPoints.from_arrays(_replaced(self.objects, row, obj), self.oids, xy)

    def window_rows(self, window: Rect) -> np.ndarray:
        """Rows of the points inside the closed ``window`` (ascending order).

        Matches the index filter step for point objects: a degenerate MBR
        overlaps the window exactly when the point lies inside it.
        """
        if window.is_empty or not self.objects:
            return np.empty(0, dtype=np.intp)
        return np.flatnonzero(points_in_window_mask(self.xy, window))


def _catalog_row(catalog) -> list[tuple[float, float, float, float]]:
    return [rect.as_tuple() for rect in catalog.rects]


class ColumnarUncertain:
    """Immutable columnar snapshot of an uncertain-object collection."""

    __slots__ = (
        "objects", "oids", "bounds", "kinds", "catalog_levels", "catalog_bounds", "_row_of_oid"
    )

    def __init__(self, objects: Sequence[UncertainObject]) -> None:
        self.objects: tuple[UncertainObject, ...] = tuple(objects)
        n = len(self.objects)
        self.oids: np.ndarray = np.fromiter(
            (obj.oid for obj in self.objects), dtype=np.int64, count=n
        )
        bounds = np.empty((n, 4), dtype=float)
        for row, obj in enumerate(self.objects):
            bounds[row] = obj.region.as_tuple()
        bounds.setflags(write=False)
        self.oids.setflags(write=False)
        self.bounds = bounds
        self.kinds = _kind_column(self.objects)
        self._row_of_oid: dict[int, int] = {
            obj.oid: row for row, obj in enumerate(self.objects)
        }
        self.catalog_levels, self.catalog_bounds = self._snapshot_catalogs()

    @classmethod
    def from_arrays(
        cls,
        objects: Sequence[UncertainObject],
        oids: np.ndarray,
        bounds: np.ndarray,
        *,
        catalog_levels: np.ndarray | None = None,
        catalog_bounds: np.ndarray | None = None,
    ) -> "ColumnarUncertain":
        """Wrap pre-built arrays without copying.

        The arrays must describe ``objects`` row for row; the two catalog
        arrays are either both present or both absent, mirroring what
        :meth:`_snapshot_catalogs` would have derived.
        """
        snapshot = object.__new__(cls)
        snapshot.objects = tuple(objects)
        n = len(snapshot.objects)
        if len(oids) != n or len(bounds) != n:
            raise DatasetError(
                "array row counts must match the object list "
                f"({n} objects, {len(oids)} oids, {len(bounds)} bounds rows)"
            )
        if (catalog_levels is None) != (catalog_bounds is None):
            raise DatasetError(
                "catalog_levels and catalog_bounds must be given together"
            )
        for array in (oids, bounds, catalog_levels, catalog_bounds):
            if array is not None:
                array.setflags(write=False)
        snapshot.oids = oids
        snapshot.bounds = bounds
        snapshot.kinds = _kind_column(snapshot.objects)
        snapshot.catalog_levels = catalog_levels
        snapshot.catalog_bounds = catalog_bounds
        snapshot._row_of_oid = {
            obj.oid: row for row, obj in enumerate(snapshot.objects)
        }
        return snapshot

    def _snapshot_catalogs(self) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Catalog bound rectangles as ``(N, L, 4)``, when homogeneous.

        Vectorized Strategy-1 pruning needs every object's bound rectangle at
        one shared level; that only works when all objects store catalogs over
        identical levels (the common case — workload builders attach the same
        level set everywhere).  Heterogeneous or missing catalogs yield
        ``(None, None)`` and the engine falls back to per-object pruning.
        """
        if not self.objects:
            return None, None
        first = self.objects[0].catalog
        if first is None:
            return None, None
        levels = first.levels
        rows = []
        for obj in self.objects:
            catalog = obj.catalog
            if catalog is None or catalog.levels != levels:
                return None, None
            rows.append(_catalog_row(catalog))
        table = np.array(rows, dtype=float)
        table.setflags(write=False)
        level_array = np.asarray(levels, dtype=float)
        level_array.setflags(write=False)
        return level_array, table

    def __len__(self) -> int:
        return len(self.objects)

    # Row-for-row mirrors of the database's list edits, as on ColumnarPoints.
    # They return ``None`` where only a full rebuild can tell what the
    # catalog arrays become: no shared catalog levels to begin with, an
    # incoming object off those levels, or a collection drained to nothing.
    def _accepts(self, obj: UncertainObject) -> bool:
        return (
            self.catalog_levels is not None
            and obj.catalog is not None
            and obj.catalog.levels == tuple(self.catalog_levels)
        )

    def _derived(
        self,
        objects: tuple,
        oids: np.ndarray,
        bounds: np.ndarray,
        kinds: np.ndarray,
        catalog_bounds: np.ndarray,
        row_of_oid: dict[int, int],
    ) -> "ColumnarUncertain":
        snapshot = object.__new__(ColumnarUncertain)
        snapshot.objects = objects
        for array in (oids, bounds, kinds, catalog_bounds):
            array.setflags(write=False)
        snapshot.oids = oids
        snapshot.bounds = bounds
        snapshot.kinds = kinds
        snapshot.catalog_levels = self.catalog_levels
        snapshot.catalog_bounds = catalog_bounds
        snapshot._row_of_oid = row_of_oid
        return snapshot

    def appended(self, obj: UncertainObject) -> "ColumnarUncertain | None":
        """The snapshot after ``obj`` was appended to the object list."""
        if not self._accepts(obj):
            return None
        n = len(self.objects)
        catalog_bounds = np.concatenate([self.catalog_bounds, [_catalog_row(obj.catalog)]])
        row_of_oid = dict(self._row_of_oid)
        row_of_oid[obj.oid] = n
        return self._derived(
            self.objects + (obj,),
            np.append(self.oids, np.int64(obj.oid)),
            np.concatenate([self.bounds, [obj.region.as_tuple()]]),
            np.append(self.kinds, np.int8(pdf_kind(obj.pdf))),
            catalog_bounds,
            row_of_oid,
        )

    def removed(self, row: int) -> "ColumnarUncertain | None":
        """The snapshot after ``row`` was swap-removed (last row fills the hole)."""
        last = len(self.objects) - 1
        if self.catalog_levels is None or last == 0:
            return None
        oids = self.oids[:last].copy()
        bounds = self.bounds[:last].copy()
        kinds = self.kinds[:last].copy()
        catalog_bounds = self.catalog_bounds[:last].copy()
        row_of_oid = dict(self._row_of_oid)
        del row_of_oid[int(self.oids[row])]
        if row != last:
            oids[row] = self.oids[last]
            bounds[row] = self.bounds[last]
            kinds[row] = self.kinds[last]
            catalog_bounds[row] = self.catalog_bounds[last]
            row_of_oid[int(self.oids[last])] = row
        return self._derived(
            _swap_removed(self.objects, row), oids, bounds, kinds, catalog_bounds, row_of_oid
        )

    def replaced(self, row: int, obj: UncertainObject) -> "ColumnarUncertain | None":
        """The snapshot after ``row`` was overwritten by ``obj`` (same oid: a move)."""
        if not self._accepts(obj):
            return None
        bounds = self.bounds.copy()
        bounds[row] = obj.region.as_tuple()
        kinds = self.kinds.copy()
        kinds[row] = pdf_kind(obj.pdf)
        catalog_bounds = self.catalog_bounds.copy()
        catalog_bounds[row] = _catalog_row(obj.catalog)
        return self._derived(
            _replaced(self.objects, row, obj),
            self.oids,
            bounds,
            kinds,
            catalog_bounds,
            self._row_of_oid,
        )

    def objects_at(self, rows: np.ndarray) -> list[UncertainObject]:
        """The objects of ``rows``, in row order.

        The one place the vectorised range path reaches back from rows to
        objects: the Monte-Carlo and grid kernels need each target's pdf.
        """
        objects = self.objects
        return [objects[row] for row in rows.tolist()]

    def rows_for(self, candidates: Sequence[UncertainObject]) -> np.ndarray:
        """Snapshot rows of ``candidates`` (by object id), in candidate order.

        Raises a descriptive ``ValueError`` for objects that are not part of
        the snapshot — candidates must come from the same database the
        snapshot was built on.
        """
        try:
            return np.fromiter(
                map(self._row_of_oid.__getitem__, map(_OID, candidates)),
                dtype=np.intp,
                count=len(candidates),
            )
        except KeyError as missing:
            raise DatasetError(
                f"object with oid {missing.args[0]} is not part of this columnar "
                "snapshot; candidates must come from the database the "
                "snapshot was built on"
            ) from None

    def window_rows(self, window: Rect) -> np.ndarray:
        """Rows of the objects whose region overlaps ``window`` (ascending)."""
        if window.is_empty or not self.objects:
            return np.empty(0, dtype=np.intp)
        return np.flatnonzero(bounds_overlap_window_mask(self.bounds, window))
