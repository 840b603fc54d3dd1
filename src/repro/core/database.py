"""Live object databases: collections plus the spatial index built over them.

A database wraps an object collection together with the index built over it;
index construction goes through the pluggable registry in
:mod:`repro.index.registry`, so third-party backends resolve by name.

**The index is built on first probe.**  ``build`` validates the index kind
and the collection but defers the tree itself: the first read of
``database.index`` builds it over the collection as it stands then, with the
kind, bounds and index options given to ``build``.  The vectorised backend
answers range queries from the columnar snapshot, so a session that never
probes never builds a tree; :class:`~repro.core.pipeline.QueryPipeline`
builds the indexes its plans will probe when it is constructed, so no timed
query pays for a build.

Databases are *live*: ``insert``/``delete``/``move`` mutators bump an
**epoch counter** that lazily invalidates everything derived from the
collection — the cached columnar snapshot, nearest-neighbour samplers, and
entries of the shared :class:`~repro.core.cache.ResultCache`, whose keys
embed the epoch.  A mutation can therefore never be served stale: consumers
key their caches on :attr:`~_MutableDatabaseMixin.epoch` and rebuild on
first use after any change, including direct mutation of ``db.objects``
(tracked by :class:`_TrackedObjects`).  The mutators themselves carry the
columnar snapshot and the oid → position map forward (one patched row,
fresh epoch stamp) instead of leaving them to be rebuilt.  Once the index is
built they keep it in sync too — incrementally, or, for a backend without a
delete path, by dropping it to be rebuilt on the next read; before that they
skip index maintenance altogether.  A mutation the index would refuse is
refused whether or not the index is built.
"""

from __future__ import annotations
from repro.core.errors import (
    ConfigurationError,
    InvalidArgumentError,
    InvalidUpdateError,
    MissingItemError,
    SpatialIndexError,
)

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np

from repro.geometry.rect import Rect
from repro.core import heap
from repro.core.columnar import ColumnarPoints, ColumnarUncertain
from repro.core.updates import MutationObservable, UpdateEvent, UpdateOp
from repro.index.registry import build_index, get_index_backend
from repro.uncertainty.catalog import DEFAULT_CATALOG_LEVELS, UCatalog
from repro.uncertainty.region import PointObject, UncertainObject

_DATABASE_UIDS = itertools.count(1)


def new_database_uid() -> int:
    """A process-unique database identity token, never recycled.

    Result-cache keys embed this next to the epoch counter: epochs identify
    *states of one collection*, so two different databases that happen to
    share an epoch value must still never collide on a key.  Unlike
    ``id()``, a uid is never reassigned after an object is freed.
    """
    return next(_DATABASE_UIDS)


class _TrackedObjects(list):
    """An object list that reports every mutation to its owning database.

    The databases cache a columnar snapshot of their object list; any list
    mutation — whether through the database mutators or directly on
    ``db.objects`` — bumps the database *epoch*, so a cached snapshot can
    never be served stale (the historical failure mode: append to
    ``db.objects`` after ``columnar()`` and silently query old data).
    """

    __slots__ = ("_owner",)

    def __init__(self, items: Iterable, owner: "PointDatabase | UncertainDatabase") -> None:
        super().__init__(items)
        self._owner = owner

    def __reduce__(self):
        # Pickle as a plain list: the default list reconstruction appends
        # through the overridden hooks before ``_owner`` exists, and the
        # owner back-reference is a cycle pickle cannot route through
        # constructor arguments.  The owning database re-wraps the list in
        # its ``__setstate__``.
        return (list, (list(self),))

    def _mutated(self) -> None:
        self._owner._bump_epoch()

    def append(self, item) -> None:
        super().append(item)
        self._mutated()

    def extend(self, items) -> None:
        super().extend(items)
        self._mutated()

    def insert(self, position, item) -> None:
        super().insert(position, item)
        self._mutated()

    def remove(self, item) -> None:
        super().remove(item)
        self._mutated()

    def pop(self, position=-1):
        item = super().pop(position)
        self._mutated()
        return item

    def clear(self) -> None:
        super().clear()
        self._mutated()

    def sort(self, **kwargs) -> None:
        super().sort(**kwargs)
        self._mutated()

    def reverse(self) -> None:
        super().reverse()
        self._mutated()

    def __setitem__(self, position, item) -> None:
        super().__setitem__(position, item)
        self._mutated()

    def __delitem__(self, position) -> None:
        super().__delitem__(position)
        self._mutated()

    def __iadd__(self, items):
        result = super().__iadd__(items)
        self._mutated()
        return result

    def __imul__(self, factor):
        result = super().__imul__(factor)
        self._mutated()
        return result


class _MutableDatabaseMixin(MutationObservable):
    """Shared epoch accounting and index-maintenance plumbing.

    Concrete databases provide ``objects`` / ``kind`` plus typed ``insert`` /
    ``delete`` / ``move`` mutators; this mixin owns the epoch counter that
    invalidates cached columnar snapshots, the oid → position lookup, the
    ``index`` built on first read, and the choice between incremental index
    maintenance and the rebuild fallback for backends without a delete
    path.  Through :class:`~repro.core.updates.MutationObservable` the
    mutators also report each applied change to registered update observers.
    """

    def _bump_epoch(self) -> None:
        self._epoch += 1

    def __setstate__(self, state: dict) -> None:
        # _TrackedObjects unpickles as a plain list (see its __reduce__);
        # re-wrap so mutation tracking survives a pickle round-trip.  The
        # unpickled copy is a *new* collection that may diverge from the
        # original, so it gets a fresh identity — two copies mutated apart
        # must never alias each other's cache keys.
        self.__dict__.update(state)
        if not isinstance(self.objects, _TrackedObjects):
            self.__dict__["objects"] = _TrackedObjects(self.objects, self)
        self.__dict__["_uid"] = new_database_uid()

    @property
    def uid(self) -> int:
        """Process-unique identity of this collection (see :func:`new_database_uid`)."""
        return self._uid

    @property
    def epoch(self) -> int:
        """Mutation counter; bumped by every change to the object list.

        Consumers caching anything derived from the collection (columnar
        snapshots, nearest-neighbour samplers, result-cache entries) key
        their caches on this.
        """
        return self._epoch

    def _position_of(self, oid: int) -> int:
        if self._positions is None or self._positions_epoch != self._epoch:
            self._positions = {obj.oid: row for row, obj in enumerate(self.objects)}
            self._positions_epoch = self._epoch
        position = self._positions.get(oid)
        if position is None:
            raise MissingItemError(f"no object with oid {oid} in this database")
        return position

    # The mutators patch the oid → position map in place and derive the next
    # columnar snapshot from the current one (re-stamping both epochs), so a
    # stream of updates costs O(index maintenance) plus one array copy per
    # operation instead of O(n) Python-level rebuilds; out-of-band mutations
    # of ``objects`` leave the epochs diverged and both rebuild lazily as
    # before.
    def _fresh_columnar(self):
        """The cached snapshot if it describes the current object list."""
        if self._columnar is not None and self._columnar_epoch == self._epoch:
            return self._columnar
        return None

    def _adopt_columnar(self, snapshot) -> None:
        # ``None`` (no snapshot to derive from, or one that needs the full
        # rebuild) leaves the lazy path in :meth:`columnar` to do its job.
        self._columnar = snapshot
        self._columnar_epoch = self._epoch

    def _list_append(self, obj) -> None:
        fresh = self._positions is not None and self._positions_epoch == self._epoch
        snapshot = self._fresh_columnar()
        self.objects.append(obj)
        if fresh:
            self._positions[obj.oid] = len(self.objects) - 1
            self._positions_epoch = self._epoch
        self._adopt_columnar(None if snapshot is None else snapshot.appended(obj))

    def _list_remove(self, oid: int):
        # Swap-remove: the object list's order carries no meaning (every
        # evaluation path sorts candidates by oid), so filling the hole with
        # the last element keeps removal O(1).
        position = self._position_of(oid)
        positions = self._positions
        snapshot = self._fresh_columnar()
        obj = self.objects[position]
        last = self.objects.pop()
        if last is not obj:
            self.objects[position] = last
            positions[last.oid] = position
        del positions[oid]
        self._positions_epoch = self._epoch
        self._adopt_columnar(None if snapshot is None else snapshot.removed(position))
        return obj

    def _list_replace(self, oid: int, new):
        position = self._position_of(oid)
        snapshot = self._fresh_columnar()
        old = self.objects[position]
        self.objects[position] = new
        self._positions_epoch = self._epoch
        self._adopt_columnar(None if snapshot is None else snapshot.replaced(position, new))
        return old

    def __contains__(self, oid: int) -> bool:
        try:
            self._position_of(oid)
        except KeyError:
            return False
        return True

    def get(self, oid: int):
        """The stored object with the given oid (``KeyError`` when absent)."""
        return self.objects[self._position_of(oid)]

    def _check_new_oid(self, oid: int) -> None:
        if oid in self:
            raise InvalidUpdateError(
                f"an object with oid {oid} is already stored; "
                "delete or move it instead of inserting a duplicate"
            )

    @property
    def index(self):
        """The spatial index over :attr:`objects`, built on first read.

        The build indexes the collection as it stands, with the kind, bounds
        and index options given to ``build``; from then on the mutators
        maintain it.  Assigning replaces the index (``None``: not built yet).
        """
        if self._index is None:
            with heap.paused():
                self._index = build_index(list(self.objects), self.kind, **self._index_options)
        return self._index

    @index.setter
    def index(self, index) -> None:
        self._index = index

    @property
    def index_built(self) -> bool:
        """Whether the index exists yet (reading this never builds it)."""
        return self._index is not None

    def _incremental_maintenance(self) -> bool:
        try:
            backend = get_index_backend(self.kind)
        except ValueError:
            # Unregistered kind (hand-wired database): duck-type the index.
            return hasattr(self._index, "delete")
        return backend.capabilities.supports_delete

    # The mutators sequence index maintenance so that any index-side failure
    # raises *before* the object list changes — objects and index never
    # diverge.  An unbuilt index is not maintained: the first read builds it
    # over the list as it stands.  A backend without a delete path drops its
    # index on a delete or move, to be rebuilt over the new list on the next
    # read; since that rebuild needs an object, the last one is refused up
    # front, built or not.
    def _append_with_index(self, obj) -> None:
        self._check_new_oid(obj.oid)
        if self._index is not None:
            self._index.insert(obj.mbr, obj)
        self._list_append(obj)

    def _delete_with_index(self, oid: int):
        obj = self.get(oid)
        incremental = self._incremental_maintenance()
        if not incremental and len(self.objects) <= 1:
            raise InvalidUpdateError(
                f"index kind {self.kind!r} has no incremental delete and "
                "cannot be rebuilt over an empty collection; the last object "
                "of such a database cannot be deleted"
            )
        if self._index is not None:
            if incremental:
                self._index.delete(obj.mbr, obj)
            else:
                self._index = None
        self._list_remove(oid)
        return obj

    def _replace_with_index(self, oid: int, new):
        old = self.get(oid)
        if self._index is not None:
            if self._incremental_maintenance():
                self._index.update(old.mbr, new.mbr, old, replacement=new)
            else:
                self._index = None
        self._list_replace(oid, new)
        return old

    def __len__(self) -> int:
        return len(self.objects)


@dataclass
class PointDatabase(_MutableDatabaseMixin):
    """A collection of point objects plus the spatial index built over them."""

    objects: list[PointObject]
    # No default, so the dataclass leaves no class attribute behind and the
    # mixin's ``index`` property (built on first read) handles the field.
    index: Any = field(repr=False, compare=False)
    kind: str = "rtree"
    # Columnar snapshot, stamped with the epoch it describes: the mutators
    # derive its successor, any other change of the object list leaves the
    # stamp behind and forces a rebuild on first use — never served stale.
    _columnar: ColumnarPoints | None = field(default=None, init=False, repr=False, compare=False)
    _columnar_epoch: int = field(default=-1, init=False, repr=False, compare=False)
    _epoch: int = field(default=0, init=False, repr=False, compare=False)
    _uid: int = field(default_factory=new_database_uid, init=False, repr=False, compare=False)
    _positions: dict[int, int] | None = field(default=None, init=False, repr=False, compare=False)
    _positions_epoch: int = field(default=-1, init=False, repr=False, compare=False)
    # ``build``'s bounds and index kwargs, kept for the first-read build.
    _index_options: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.objects, _TrackedObjects):
            self.objects = _TrackedObjects(self.objects, self)

    def columnar(self) -> ColumnarPoints:
        """The columnar snapshot of the collection (rebuilt when stale or absent)."""
        if self._columnar is None or self._columnar_epoch != self._epoch:
            self._columnar = ColumnarPoints(self.objects)
            self._columnar_epoch = self._epoch
        return self._columnar

    @classmethod
    def build(
        cls,
        objects: Iterable[PointObject],
        *,
        index_kind: str = "rtree",
        bounds: Rect | None = None,
        **index_kwargs,
    ) -> "PointDatabase":
        """A point-object database over ``index_kind`` (R-tree by default, as in the paper).

        ``index_kind`` resolves through the index registry; backends whose
        capabilities exclude point objects (e.g. the PTI) are rejected, and
        so is an empty collection.  The index itself is built on first read
        of :attr:`index`, with ``bounds`` and ``index_kwargs``.
        """
        backend = get_index_backend(index_kind)
        if not backend.capabilities.supports_points:
            raise ConfigurationError(
                f"index kind {index_kind!r} only stores uncertain objects"
            )
        with heap.paused():
            database = cls(objects=_non_empty(objects), index=None, kind=index_kind)
        database._index_options = dict(index_kwargs, bounds=bounds)
        return database

    # ------------------------------------------------------------------ #
    # Live mutation
    # ------------------------------------------------------------------ #
    def insert(self, obj: PointObject) -> PointObject:
        """Add one point object, keeping the index and snapshot in sync."""
        if not isinstance(obj, PointObject):
            raise InvalidArgumentError(f"expected a PointObject, got {type(obj).__name__}")
        self._append_with_index(obj)
        self._emit_update(
            UpdateEvent(
                op=UpdateOp(action="insert", obj=obj),
                target="points",
                oid=obj.oid,
                after=obj.mbr,
            )
        )
        return obj

    def delete(self, oid: int) -> PointObject:
        """Remove the object with the given oid and return it."""
        removed = self._delete_with_index(oid)
        self._emit_update(
            UpdateEvent(
                op=UpdateOp(action="delete", oid=oid, target="points"),
                target="points",
                oid=oid,
                before=removed.mbr,
            )
        )
        return removed

    def move(self, oid: int, x: float, y: float) -> PointObject:
        """Relocate the object with the given oid to ``(x, y)``.

        The stored wrapper is immutable, so the move replaces it with a new
        :class:`PointObject` carrying the same oid (returned).
        """
        new = PointObject.at(oid, float(x), float(y))
        old = self._replace_with_index(oid, new)
        self._emit_update(
            UpdateEvent(
                op=UpdateOp(action="move", oid=oid, x=float(x), y=float(y), target="points"),
                target="points",
                oid=oid,
                before=old.mbr,
                after=new.mbr,
            )
        )
        return new


def _non_empty(objects: Iterable) -> list:
    """``objects`` as a list, refusing an empty collection as an index build would."""
    materialised = list(objects)
    if not materialised:
        raise SpatialIndexError("cannot index an empty collection")
    return materialised


def _check_catalogs(
    kind: str, objects: Iterable[UncertainObject], levels: tuple[float, ...] | None = None
) -> None:
    """Refuse objects that a probability-pruning index (the PTI) would refuse.

    Such an index summarises its objects' U-catalogs, so each object needs
    one, at the levels the stored objects share (``levels``; ``None`` takes
    the first object's).  Checked by the database, so the refusal does not
    wait for the index to be built.
    """
    try:
        if not get_index_backend(kind).capabilities.supports_probability_pruning:
            return
    except ValueError:
        return  # unregistered kind: only an assigned index, which checks for itself
    for obj in objects:
        if obj.catalog is None:
            raise SpatialIndexError(
                f"object {obj.oid} has no U-catalog, which index kind {kind!r} "
                "needs; build it with UncertainObject.with_catalog()"
            )
        if levels is None:
            levels = obj.catalog.levels
        elif obj.catalog.levels != levels:
            raise SpatialIndexError(
                f"all objects under index kind {kind!r} must share the same "
                f"catalog levels; expected {levels}, got {obj.catalog.levels}"
            )


def _attach_catalogs(objects: list[UncertainObject], levels: Sequence[float]) -> np.ndarray | None:
    """Give every catalog-less object a catalog at ``levels``, in place.

    Returns the batch's ``(N, L, 4)`` rectangle table when it covers every
    object (row ``i`` is ``objects[i]``'s catalog), else ``None``.
    """
    missing = [row for row, obj in enumerate(objects) if obj.catalog is None]
    if not missing:
        return None
    catalogs, table = UCatalog.build_many([objects[row].pdf for row in missing], levels)
    for row, catalog in zip(missing, catalogs):
        obj = objects[row]
        objects[row] = UncertainObject(oid=obj.oid, pdf=obj.pdf, catalog=catalog)
    return table if len(missing) == len(objects) else None


def _columnar_from_table(objects: list[UncertainObject], table: np.ndarray) -> ColumnarUncertain:
    """The columnar snapshot of ``objects``, adopting their catalog table."""
    oids = np.fromiter((obj.oid for obj in objects), dtype=np.int64, count=len(objects))
    bounds = np.array([obj.region.as_tuple() for obj in objects], dtype=float)
    return ColumnarUncertain.from_arrays(
        objects,
        oids,
        bounds,
        catalog_levels=np.asarray(objects[0].catalog.levels, dtype=float),
        catalog_bounds=table,
    )


@dataclass
class UncertainDatabase(_MutableDatabaseMixin):
    """A collection of uncertain objects plus the index built over them."""

    objects: list[UncertainObject]
    index: Any = field(repr=False, compare=False)  # see PointDatabase.index
    kind: str = "pti"
    #: Levels U-catalogs were built at (``build``'s ``catalog_levels``);
    #: mutators attach catalogs at the same levels so the PTI's homogeneity
    #: requirement keeps holding under live inserts and moves.
    catalog_levels: tuple[float, ...] | None = None
    _columnar: ColumnarUncertain | None = field(default=None, init=False, repr=False, compare=False)
    _columnar_epoch: int = field(default=-1, init=False, repr=False, compare=False)
    _epoch: int = field(default=0, init=False, repr=False, compare=False)
    _uid: int = field(default_factory=new_database_uid, init=False, repr=False, compare=False)
    _positions: dict[int, int] | None = field(default=None, init=False, repr=False, compare=False)
    _positions_epoch: int = field(default=-1, init=False, repr=False, compare=False)
    # ``build``'s bounds and index kwargs, kept for the first-read build.
    _index_options: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.objects, _TrackedObjects):
            self.objects = _TrackedObjects(self.objects, self)

    def columnar(self) -> ColumnarUncertain:
        """The columnar snapshot of the collection (rebuilt when stale or absent)."""
        if self._columnar is None or self._columnar_epoch != self._epoch:
            self._columnar = ColumnarUncertain(self.objects)
            self._columnar_epoch = self._epoch
        return self._columnar

    @classmethod
    def build(
        cls,
        objects: Iterable[UncertainObject],
        *,
        index_kind: str = "pti",
        catalog_levels: Sequence[float] | None = DEFAULT_CATALOG_LEVELS,
        bounds: Rect | None = None,
        **index_kwargs,
    ) -> "UncertainDatabase":
        """An uncertain-object database over ``index_kind`` (the PTI by default).

        When ``catalog_levels`` is given, every object missing a U-catalog
        gets one built at those levels (the PTI requires catalogs; the plain
        R-tree merely benefits from them during object-level pruning), all
        in one :meth:`UCatalog.build_many` batch.  When the batch covers the
        whole collection, its rectangle table becomes the columnar
        snapshot's catalog table directly.  ``index_kind`` resolves through
        the index registry; a kind that cannot store the collection is
        rejected here, and the index itself is built on first read of
        :attr:`index`, with ``bounds`` and ``index_kwargs``.
        """
        backend = get_index_backend(index_kind)
        if not backend.capabilities.supports_uncertain:
            raise ConfigurationError(
                f"index kind {index_kind!r} cannot store uncertain objects"
            )
        with heap.paused():
            materialised = _non_empty(objects)
            table = None
            if catalog_levels is not None:
                table = _attach_catalogs(materialised, catalog_levels)
            _check_catalogs(index_kind, materialised)
            database = cls(
                objects=materialised,
                index=None,
                kind=index_kind,
                catalog_levels=tuple(catalog_levels) if catalog_levels is not None else None,
            )
            if table is not None:
                database._adopt_columnar(_columnar_from_table(materialised, table))
        database._index_options = dict(index_kwargs, bounds=bounds)
        return database

    # ------------------------------------------------------------------ #
    # Live mutation
    # ------------------------------------------------------------------ #
    def _with_catalog(
        self, obj: UncertainObject, template: UncertainObject | None
    ) -> UncertainObject:
        """Attach a U-catalog matching the database's levels, when known."""
        if obj.catalog is not None:
            return obj
        if template is not None and template.catalog is not None:
            return obj.with_catalog(template.catalog.levels)
        if self.catalog_levels is not None:
            return obj.with_catalog(self.catalog_levels)
        return obj

    def _check_storable(self, obj: UncertainObject) -> None:
        """Refuse ``obj`` where the index kind would, whether or not it is built."""
        stored = self.objects[0].catalog if self.objects else None
        _check_catalogs(self.kind, [obj], stored.levels if stored is not None else None)

    def insert(self, obj: UncertainObject) -> UncertainObject:
        """Add one uncertain object, keeping the index and snapshot in sync.

        An object without a U-catalog gets one built at the database's
        catalog levels (when the database carries catalogs), so PTI-backed
        databases stay insertable.  Returns the stored object.
        """
        if not isinstance(obj, UncertainObject):
            raise InvalidArgumentError(f"expected an UncertainObject, got {type(obj).__name__}")
        obj = self._with_catalog(obj, None)
        self._check_storable(obj)
        self._append_with_index(obj)
        self._emit_update(
            UpdateEvent(
                op=UpdateOp(action="insert", obj=obj),
                target="uncertain",
                oid=obj.oid,
                after=obj.mbr,
            )
        )
        return obj

    def delete(self, oid: int) -> UncertainObject:
        """Remove the object with the given oid and return it."""
        removed = self._delete_with_index(oid)
        self._emit_update(
            UpdateEvent(
                op=UpdateOp(action="delete", oid=oid, target="uncertain"),
                target="uncertain",
                oid=oid,
                before=removed.mbr,
            )
        )
        return removed

    def move(self, oid: int, pdf) -> UncertainObject:
        """Give the object with the given oid a new uncertainty pdf.

        A moving uncertain object is a fresh location report: a new region
        and pdf, with the U-catalog rebuilt to match (at the old catalog's
        levels, falling back to the database's).  Returns the stored object.
        """
        old = self.get(oid)
        new = self._with_catalog(UncertainObject(oid=oid, pdf=pdf), old)
        self._check_storable(new)
        self._replace_with_index(oid, new)
        self._emit_update(
            UpdateEvent(
                op=UpdateOp(action="move", oid=oid, pdf=pdf, target="uncertain"),
                target="uncertain",
                oid=oid,
                before=old.mbr,
                after=new.mbr,
            )
        )
        return new
