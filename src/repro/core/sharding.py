"""Spatial sharding of point / uncertain databases.

A :class:`ShardedDatabase` partitions an object collection into ``k``
spatial shards (grid cells or recursive-median splits, see
:mod:`repro.datasets.partition`), builds one index from the registry per
non-empty shard, and answers the *shard planner* questions of the parallel
executor:

* :meth:`ShardedDatabase.route_window` — which shards can a range query's
  expanded window touch?  A shard is consulted iff the window overlaps the
  shard's *cover* rectangle (the union of its members' MBRs), which is exact
  for point members and conservative-and-complete for uncertain members
  because an object's whole region is contained in its shard's cover.
* :meth:`ShardedDatabase.route_nearest` — which shards can hold a
  nearest-neighbour winner for an issuer region?  Every shard keeps an
  *anchor* (the member location closest to the cover centre); the smallest
  max-distance from the issuer region to any anchor upper-bounds the best
  possible distance, and shards whose cover lies entirely beyond that bound
  are skipped.

Shards own ordinary :class:`~repro.core.engine.PointDatabase` /
:class:`~repro.core.engine.UncertainDatabase` instances, so every engine
feature — columnar snapshots, PTI node-level pruning, pruner caching — works
unchanged per shard.  A shard runs its routed queries through its own
pipeline (:meth:`ShardedDatabase.shard_pipeline`); it is handed the
queries alone, never their positions in the global workload, because every
Monte-Carlo draw is keyed by query content.  Partitioning preserves input
order inside each shard, so ``k = 1`` reproduces the unsharded database
exactly.

Sharded databases are *live*: :meth:`ShardedDatabase.insert`,
:meth:`ShardedDatabase.delete` and :meth:`ShardedDatabase.move` route each
mutation to the owning shard (inserts go to the shard whose cover is nearest
the new object's MBR centre) and maintain only that shard — its index, its
columnar-snapshot epoch, its cover rectangle and its nearest-neighbour
anchor.  When an insert pushes a shard past the configurable
``hot_threshold``, that one shard is re-split in place (a median cut into
two) without touching its siblings.  The per-shard epochs double as the
staleness signal of the sharded engines: a mutation bumps only the owning
shard's epoch, so only cache entries routed over that shard fall out of
reach, and :class:`~repro.rpc.engine.RemoteEngine` re-syncs only that
shard's daemon.
"""

from __future__ import annotations
from repro.core.errors import ConfigurationError, InvalidUpdateError, MissingItemError

from dataclasses import dataclass, field
from typing import Iterable, Literal, Sequence

from repro.core.database import PointDatabase, UncertainDatabase, new_database_uid
from repro.core.pipeline import QueryPipeline
from repro.core.updates import MutationObservable, UpdateEvent, UpdateOp
from repro.datasets.partition import (
    PartitionMethod,
    mbr_centers,
    median_assignments,
    partition_assignments,
)
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.base import extract_mbr
from repro.index.registry import get_index_backend
from repro.uncertainty.catalog import DEFAULT_CATALOG_LEVELS
from repro.uncertainty.region import PointObject, UncertainObject

ShardKind = Literal["points", "uncertain"]

#: Per-shard pipeline instances retained per configuration (oldest evicted
#: beyond this), so a handful of engines sharing one sharded database keep
#: their pipelines warm while a stream of short-lived engines stays bounded.
_PIPELINES_PER_SHARD = 4


@dataclass
class Shard:
    """One spatial partition: its database (if non-empty) plus routing metadata."""

    sid: int
    database: PointDatabase | UncertainDatabase | None
    #: Covers every member's MBR; ``Rect.empty()`` for an empty shard.  Kept
    #: *conservative* under live mutation: inserts grow it exactly, deletes
    #: leave it untouched (a looser cover stays complete for routing), and a
    #: re-split re-tightens it.
    cover: Rect
    #: A representative member location used by nearest-neighbour routing
    #: (``None`` for empty or uncertain shards).
    anchor: Point | None = None
    #: Oid of the member the anchor points at, so mutations can tell when
    #: the anchor itself moved or left and must be re-chosen.
    anchor_oid: int | None = None

    @property
    def is_empty(self) -> bool:
        """True when the partition received no objects."""
        return self.database is None

    def __len__(self) -> int:
        return 0 if self.database is None else len(self.database)


@dataclass
class ShardedDatabase(MutationObservable):
    """A database partitioned into ``k`` spatial shards, each independently indexed."""

    kind: ShardKind
    shards: list[Shard]
    index_kind: str
    partitioner: PartitionMethod
    objects: list = field(repr=False)
    #: Levels the construction attached U-catalogs at (uncertain shards only);
    #: mutations attach catalogs at the same levels.
    catalog_levels: tuple[float, ...] | None = None
    #: Re-split a shard in place when an insert pushes it past this many
    #: members (``None`` disables hot-shard re-splitting).
    hot_threshold: int | None = None
    #: Structure version: bumped whenever a shard's *database instance* is
    #: replaced wholesale (re-splits, emptied shards, repopulated empty
    #: shards).  Per-shard epoch counters restart at zero on such a
    #: replacement, so cache keys embedding ``(sid, epoch)`` pairs must also
    #: embed this version to stay collision-free across replacements.
    version: int = field(default=0, init=False, compare=False)
    #: Process-unique identity (never recycled); cache keys embed it so two
    #: sharded databases sharing a configuration can never alias.
    uid: int = field(default_factory=new_database_uid, init=False, repr=False, compare=False)
    #: Lazy oid → shard-id map maintained across mutations.
    _oid_shard: dict[int, int] | None = field(default=None, init=False, repr=False, compare=False)
    #: Lazy oid → position map into the global ``objects`` list.
    _oid_global: dict[int, int] | None = field(default=None, init=False, repr=False, compare=False)
    #: Per-shard :class:`~repro.core.pipeline.QueryPipeline` instances,
    #: keyed by ``(shard id, configuration fingerprint)`` so several engines
    #: sharing this database (e.g. a session and its ``cached()``
    #: descendant) keep their pipelines — and the samplers those pipelines
    #: cache — warm side by side; an entry is rebuilt when the shard's
    #: database instance was replaced wholesale.
    _pipelines: dict[tuple[int, tuple], tuple] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.hot_threshold is not None and self.hot_threshold < 2:
            raise ConfigurationError(
                f"hot_threshold must be >= 2 (a re-split needs two members), "
                f"got {self.hot_threshold}"
            )

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @staticmethod
    def _plan(
        objects: list, k: int, partitioner: PartitionMethod, bounds: Rect | None
    ) -> list[list]:
        if k < 1:
            raise ConfigurationError(f"shard count must be >= 1, got {k}")
        if not objects:
            raise ConfigurationError("cannot shard an empty collection")
        if bounds is None and partitioner == "grid":
            bounds = Rect.bounding([extract_mbr(obj) for obj in objects])
        assignments = partition_assignments(
            mbr_centers(objects), k, method=partitioner, bounds=bounds
        )
        parts: list[list] = [[] for _ in range(k)]
        for obj, sid in zip(objects, assignments):
            parts[int(sid)].append(obj)
        return parts

    @staticmethod
    def _check_shardable(index_kind: str) -> None:
        backend = get_index_backend(index_kind)
        if not backend.capabilities.supports_shard_build:
            raise ConfigurationError(
                f"index kind {index_kind!r} cannot be built per shard "
                "(its registry capabilities declare supports_shard_build=False)"
            )

    @staticmethod
    def _cover(members: list) -> Rect:
        return Rect.bounding([extract_mbr(obj) for obj in members])

    @staticmethod
    def _anchor(members: list[PointObject], cover: Rect) -> PointObject:
        center = cover.center
        return min(members, key=lambda obj: obj.location.distance_to(center))

    @classmethod
    def build_points(
        cls,
        objects: Iterable[PointObject],
        k: int,
        *,
        partitioner: PartitionMethod = "grid",
        index_kind: str = "rtree",
        bounds: Rect | None = None,
        hot_threshold: int | None = None,
        **index_kwargs,
    ) -> "ShardedDatabase":
        """Partition point objects into ``k`` shards and index each one.

        ``bounds`` fixes the grid partitioner's data space (default: the
        collection's bounding rectangle).  Empty partitions are kept as
        index-less shards so shard ids stay aligned with the partitioner's
        cells.  ``hot_threshold`` arms in-place re-splitting of shards that
        grow past that many members under live inserts.
        """
        materialised = list(objects)
        cls._check_shardable(index_kind)
        parts = cls._plan(materialised, k, partitioner, bounds)
        shards: list[Shard] = []
        for sid, members in enumerate(parts):
            if not members:
                shards.append(Shard(sid=sid, database=None, cover=Rect.empty()))
                continue
            database = PointDatabase.build(members, index_kind=index_kind, **index_kwargs)
            cover = cls._cover(members)
            anchor = cls._anchor(members, cover)
            shards.append(
                Shard(
                    sid=sid,
                    database=database,
                    cover=cover,
                    anchor=anchor.location,
                    anchor_oid=anchor.oid,
                )
            )
        return cls(
            kind="points",
            shards=shards,
            index_kind=index_kind,
            partitioner=partitioner,
            objects=materialised,
            hot_threshold=hot_threshold,
        )

    @classmethod
    def build_uncertain(
        cls,
        objects: Iterable[UncertainObject],
        k: int,
        *,
        partitioner: PartitionMethod = "grid",
        index_kind: str = "pti",
        catalog_levels: Sequence[float] | None = DEFAULT_CATALOG_LEVELS,
        bounds: Rect | None = None,
        hot_threshold: int | None = None,
        **index_kwargs,
    ) -> "ShardedDatabase":
        """Partition uncertain objects into ``k`` shards and index each one.

        Each shard gets its own PTI (or other registry backend) built over
        only its members — the per-partition index construction the paper's
        production deployments would use.  ``catalog_levels`` behaves as in
        :meth:`UncertainDatabase.build`; ``hot_threshold`` as in
        :meth:`build_points`.
        """
        materialised = list(objects)
        cls._check_shardable(index_kind)
        parts = cls._plan(materialised, k, partitioner, bounds)
        shards: list[Shard] = []
        rebuilt: list[UncertainObject] = []
        for sid, members in enumerate(parts):
            if not members:
                shards.append(Shard(sid=sid, database=None, cover=Rect.empty()))
                continue
            database = UncertainDatabase.build(
                members,
                index_kind=index_kind,
                catalog_levels=catalog_levels,
                **index_kwargs,
            )
            # The database may have attached catalogs; keep the global object
            # list consistent with what the shards actually store.
            rebuilt.extend(database.objects)
            shards.append(Shard(sid=sid, database=database, cover=cls._cover(members)))
        return cls(
            kind="uncertain",
            shards=shards,
            index_kind=index_kind,
            partitioner=partitioner,
            objects=rebuilt if rebuilt else materialised,
            catalog_levels=tuple(catalog_levels) if catalog_levels is not None else None,
            hot_threshold=hot_threshold,
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def k(self) -> int:
        """Number of partitions (including empty ones)."""
        return len(self.shards)

    def non_empty_shards(self) -> list[Shard]:
        """The shards that actually hold objects."""
        return [shard for shard in self.shards if not shard.is_empty]

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def epochs(self) -> tuple[tuple[int, int], ...]:
        """``(sid, epoch)`` pairs of the non-empty shards, in shard-id order.

        The fine-grained invalidation signal for sharded result caching: a
        mutation bumps only the owning shard's epoch, so cached answers
        whose routed shards are all untouched stay reachable.
        """
        return tuple(
            (shard.sid, shard.database.epoch) for shard in self.non_empty_shards()
        )

    def epoch_scope(self, shards: Sequence[Shard] | None = None) -> tuple:
        """A hashable token pinning the state an answer over ``shards`` saw.

        ``(uid, version, ((sid, epoch), ...))`` over the given shards (all
        non-empty shards by default).  Two equal tokens guarantee the same
        shards held the same members — the invariant the parallel engine's
        result-cache key already relies on — so any answer derived from
        those shards is still exact.  Continuous subscriptions stamp their
        answer deltas with the token of the query's *currently routed*
        shards (what to re-evaluate is decided by the window test alone).
        """
        if shards is None:
            shards = self.non_empty_shards()
        return (
            self.uid,
            self.version,
            tuple((shard.sid, shard.database.epoch) for shard in shards),
        )

    # ------------------------------------------------------------------ #
    # Per-shard execution
    # ------------------------------------------------------------------ #
    def shard_pipeline(self, sid: int, config) -> QueryPipeline:
        """The staged query pipeline of one shard (built lazily, cached).

        Each non-empty shard owns an ordinary
        :class:`~repro.core.pipeline.QueryPipeline` over its database — the
        very same stage runner the serial engine uses, so every engine
        feature (columnar batch filtering, PTI node pruning, pruner caching)
        works unchanged per shard.  The pipeline's result-cache stage is
        disabled: a shard computes *partial* answers, which must never be
        cached as whole-query answers (the parallel executor's parent
        consults the shared cache instead, with per-shard epoch keys).

        A cached pipeline is discarded when the shard's database instance
        was replaced wholesale (a re-split, or a shard emptying out);
        in-place mutations keep the pipeline, relying on the database epoch
        to refresh snapshots and samplers.  Pipelines are cached per
        configuration content (:meth:`EngineConfig.fingerprint`, which
        leaves out only the result cache a shard pipeline never uses), so
        engines sharing this database under different configurations do
        not evict each other and equal configurations share one pipeline.
        """
        shard = self.shards[sid]
        if shard.database is None:
            raise ConfigurationError(f"shard {sid} is empty and has no pipeline")
        key = (sid, config.fingerprint())
        cached = self._pipelines.get(key)
        if cached is not None:
            cached_db, _, pipeline = cached
            if cached_db is shard.database:
                return pipeline
        # Shed entries pinning this shard's replaced database (a re-split or
        # an emptied shard leaves them unreachable forever otherwise), then
        # bound the configs retained per shard so a stream of short-lived
        # engines cannot grow the cache without limit.
        stale = [
            cached_key
            for cached_key, (cached_db, _, _) in self._pipelines.items()
            if cached_key[0] == sid and cached_db is not shard.database
        ]
        for cached_key in stale:
            del self._pipelines[cached_key]
        per_sid = [cached_key for cached_key in self._pipelines if cached_key[0] == sid]
        while len(per_sid) >= _PIPELINES_PER_SHARD:
            del self._pipelines[per_sid.pop(0)]  # insertion order = oldest first
        if self.kind == "points":
            pipeline = QueryPipeline(
                point_db=shard.database, config=config, cache=None
            )
        else:
            pipeline = QueryPipeline(
                uncertain_db=shard.database, config=config, cache=None
            )
        self._pipelines[key] = (shard.database, config, pipeline)
        return pipeline

    # ------------------------------------------------------------------ #
    # Shard planning
    # ------------------------------------------------------------------ #
    def route_window(self, window: Rect) -> list[Shard]:
        """Shards whose cover overlaps ``window`` (in shard-id order).

        The window of a range query is its Minkowski-expanded region (or any
        subset of it, e.g. the Qp-expanded-query); shards the window misses
        cannot contribute candidates, because every member's MBR lies inside
        its shard's cover.  An empty window — or one entirely outside the
        data — routes to no shard at all.
        """
        if window.is_empty:
            return []
        return [
            shard
            for shard in self.shards
            if not shard.is_empty and shard.cover.overlaps(window)
        ]

    def route_nearest(self, issuer_region: Rect) -> list[Shard]:
        """Shards that can hold a nearest-neighbour winner for ``issuer_region``.

        For any issuer position, the anchor of any shard is a real object, so
        ``min_s max_{x ∈ U0} dist(x, anchor_s)`` upper-bounds the best
        achievable distance; a shard whose cover's minimum distance to the
        issuer region exceeds that bound can never win a draw.  Only defined
        for point shards (nearest-neighbour queries run over point objects).
        """
        if self.kind != "points":
            raise ConfigurationError("nearest-neighbour routing requires a point-object database")
        candidates = self.non_empty_shards()
        if not candidates:
            return []
        bound = min(
            issuer_region.max_distance_to_point(shard.anchor)
            for shard in candidates
            if shard.anchor is not None
        )
        return [
            shard
            for shard in candidates
            if shard.cover.min_distance_to_rect(issuer_region) <= bound
        ]

    # ------------------------------------------------------------------ #
    # Live mutation
    # ------------------------------------------------------------------ #
    def _shard_map(self) -> dict[int, int]:
        if self._oid_shard is None:
            self._oid_shard = {
                obj.oid: shard.sid
                for shard in self.shards
                if not shard.is_empty
                for obj in shard.database.objects
            }
        return self._oid_shard

    def _global_map(self) -> dict[int, int]:
        if self._oid_global is None:
            self._oid_global = {
                obj.oid: position for position, obj in enumerate(self.objects)
            }
        return self._oid_global

    def _global_add(self, obj) -> None:
        self._global_map()[obj.oid] = len(self.objects)
        self.objects.append(obj)

    def _global_remove(self, oid: int) -> None:
        # Swap-remove: the global list's order only matters at (re)build
        # time, so filling the hole with the last element keeps removal O(1).
        positions = self._global_map()
        position = positions.pop(oid)
        last = self.objects.pop()
        if last.oid != oid:
            self.objects[position] = last
            positions[last.oid] = position

    def _global_replace(self, obj) -> None:
        self.objects[self._global_map()[obj.oid]] = obj

    def owner_of(self, oid: int) -> Shard:
        """The shard currently storing the object with the given oid."""
        sid = self._shard_map().get(oid)
        if sid is None:
            raise MissingItemError(f"no object with oid {oid} in this sharded database")
        return self.shards[sid]

    def _route_insert(self, mbr: Rect) -> Shard:
        """The shard an incoming MBR is filed under: nearest cover wins.

        Any non-empty shard is a *correct* home (covers are maintained after
        every mutation, so window routing stays complete no matter where an
        object lives); nearest-cover keeps covers tight so routing stays
        selective.  Ties break towards the smaller shard id.  A fully
        drained database routes to the first shard, which is repopulated.
        """
        candidates = self.non_empty_shards()
        if not candidates:
            return self.shards[0]
        center = mbr.center
        return min(
            candidates,
            key=lambda shard: (shard.cover.min_distance_to_point(center), shard.sid),
        )

    def _member_catalog_levels(self, members: list) -> tuple[float, ...] | None:
        if self.catalog_levels is not None:
            return self.catalog_levels
        for member in members:
            if getattr(member, "catalog", None) is not None:
                return member.catalog.levels
        return None

    def _prepare_uncertain(self, obj: UncertainObject) -> UncertainObject:
        """Attach a U-catalog consistent with the existing members' levels."""
        if obj.catalog is not None:
            return obj
        levels = self.catalog_levels
        if levels is None:
            for shard in self.non_empty_shards():
                levels = self._member_catalog_levels(list(shard.database.objects))
                if levels is not None:
                    break
        return obj.with_catalog(levels) if levels is not None else obj

    def _retighten(self, shard: Shard) -> None:
        """Recompute a shard's cover and anchor exactly (O(shard size)).

        Only needed when the anchor member itself left (nearest-neighbour
        routing requires the anchor to be a *current* member) or after a
        re-split; ordinary mutations maintain the metadata in O(1) — inserts
        grow the cover exactly, deletes leave it conservatively loose.
        """
        if shard.database is None or len(shard.database) == 0:
            shard.database = None
            shard.cover = Rect.empty()
            shard.anchor = None
            shard.anchor_oid = None
            return
        members = list(shard.database.objects)
        shard.cover = self._cover(members)
        if self.kind == "points":
            anchor = self._anchor(members, shard.cover)
            shard.anchor = anchor.location
            shard.anchor_oid = anchor.oid
        else:
            shard.anchor = None
            shard.anchor_oid = None

    def _after_member_removed(self, shard: Shard, removed) -> None:
        """O(1) post-delete maintenance; the cover stays (loosely) complete."""
        if shard.database is None or len(shard.database) == 0:
            self._retighten(shard)
        elif removed.oid == shard.anchor_oid:
            self._retighten(shard)

    def _after_member_added(self, shard: Shard, stored) -> None:
        shard.cover = shard.cover.union_bounds(extract_mbr(stored))
        if self.kind == "points" and shard.anchor_oid is None:
            shard.anchor = stored.location
            shard.anchor_oid = stored.oid
        self._shard_map()[stored.oid] = shard.sid
        self._global_add(stored)
        if self.hot_threshold is not None and len(shard) > self.hot_threshold:
            self._resplit(shard)

    def insert(self, obj):
        """Add one object to the shard whose cover is nearest its MBR centre.

        Only the owning shard's index, snapshot epoch, cover and anchor are
        maintained; sibling shards are untouched.  Returns the stored object
        (uncertain objects may gain a U-catalog on the way in).
        """
        if obj.oid in self._shard_map():
            raise InvalidUpdateError(
                f"an object with oid {obj.oid} is already stored; "
                "delete or move it instead of inserting a duplicate"
            )
        if self.kind == "uncertain":
            obj = self._prepare_uncertain(obj)
        shard = self._route_insert(extract_mbr(obj))
        if shard.is_empty:
            # Every member was deleted: repopulate the routed shard with a
            # fresh single-object database (mirrors the unsharded databases,
            # which accept inserts into an emptied collection).
            self._rebuild_shard(shard, [obj])
            stored = shard.database.objects[0]
        else:
            stored = shard.database.insert(obj)
        self._after_member_added(shard, stored)
        self._emit_update(
            UpdateEvent(
                op=UpdateOp(action="insert", obj=stored),
                target=self.kind,
                oid=stored.oid,
                after=extract_mbr(stored),
                # A hot-shard re-split may have re-homed the object already;
                # report where it actually landed.
                sids=(self._shard_map()[stored.oid],),
            )
        )
        return stored

    def delete(self, oid: int):
        """Remove the object with the given oid from its owning shard.

        A shard whose last member leaves becomes an empty (index-less) shard;
        its id stays allocated so sibling routing is unaffected.  Returns the
        removed object.
        """
        shard = self.owner_of(oid)
        removed = shard.database.delete(oid)
        del self._shard_map()[oid]
        self._global_remove(oid)
        self._after_member_removed(shard, removed)
        self._emit_update(
            UpdateEvent(
                op=UpdateOp(action="delete", oid=oid, target=self.kind),
                target=self.kind,
                oid=oid,
                before=extract_mbr(removed),
                sids=(shard.sid,),
            )
        )
        return removed

    def move(self, oid: int, *, x: float | None = None, y: float | None = None, pdf=None):
        """Relocate one object, re-homing it when another shard fits better.

        Point databases take the new coordinates (``x``/``y``), uncertain
        databases the new pdf.  A move that stays within the owning shard is
        a single index update; one that crosses shards is a delete + insert
        pair, each side maintaining only its own shard.  Returns the stored
        (replacement) object.
        """
        if self.kind == "points":
            if x is None or y is None or pdf is not None:
                raise InvalidUpdateError("moving a point object takes x= and y= (no pdf)")
        else:
            if pdf is None or x is not None or y is not None:
                raise InvalidUpdateError("moving an uncertain object takes pdf= (no x/y)")
        shard = self.owner_of(oid)
        if self.kind == "points":
            new_mbr = Rect.from_point(Point(float(x), float(y)))
        else:
            new_mbr = pdf.region
        if self.kind == "points":
            move_op = UpdateOp(action="move", oid=oid, x=float(x), y=float(y), target="points")
        else:
            move_op = UpdateOp(action="move", oid=oid, pdf=pdf, target="uncertain")
        target = self._route_insert(new_mbr)
        if target.sid == shard.sid:
            previous_mbr = extract_mbr(shard.database.get(oid))
            if self.kind == "points":
                moved = shard.database.move(oid, float(x), float(y))
            else:
                moved = shard.database.move(oid, pdf)
            self._global_replace(moved)
            shard.cover = shard.cover.union_bounds(extract_mbr(moved))
            if moved.oid == shard.anchor_oid:
                # The anchor member itself moved; its recorded location must
                # follow (nearest-neighbour bounds require a real member).
                shard.anchor = moved.location
            self._emit_update(
                UpdateEvent(
                    op=move_op,
                    target=self.kind,
                    oid=oid,
                    before=previous_mbr,
                    after=extract_mbr(moved),
                    sids=(shard.sid,),
                )
            )
            return moved
        removed = shard.database.delete(oid)
        del self._shard_map()[oid]
        self._global_remove(oid)
        self._after_member_removed(shard, removed)
        if self.kind == "points":
            replacement = PointObject.at(oid, float(x), float(y))
        else:
            replacement = UncertainObject(oid=oid, pdf=pdf)
            if removed.catalog is not None:
                replacement = replacement.with_catalog(removed.catalog.levels)
            else:
                replacement = self._prepare_uncertain(replacement)
        stored = target.database.insert(replacement)
        self._after_member_added(target, stored)
        self._emit_update(
            UpdateEvent(
                op=move_op,
                target=self.kind,
                oid=oid,
                before=extract_mbr(removed),
                after=extract_mbr(stored),
                sids=(shard.sid, self._shard_map()[stored.oid]),
            )
        )
        return stored

    def _rebuild_shard(self, shard: Shard, members: list) -> None:
        self.version += 1
        if self.kind == "points":
            shard.database = PointDatabase.build(members, index_kind=self.index_kind)
        else:
            database = UncertainDatabase.build(
                members, index_kind=self.index_kind, catalog_levels=None
            )
            # The members already carry catalogs; record their levels so the
            # fresh shard database keeps attaching matching ones on insert.
            database.catalog_levels = self._member_catalog_levels(members)
            shard.database = database
        self._retighten(shard)

    def _resplit(self, shard: Shard) -> None:
        """Split one hot shard in place: a median cut into two shards.

        The original shard id keeps the left half (so queued routing
        decisions stay valid) and the right half gets a brand-new id
        appended after the existing shards; no sibling shard is touched.
        """
        members = list(shard.database.objects)
        assignments = median_assignments(mbr_centers(members), 2)
        left = [member for member, side in zip(members, assignments) if side == 0]
        right = [member for member, side in zip(members, assignments) if side == 1]
        if not left or not right:
            return
        self._rebuild_shard(shard, left)
        sibling = Shard(sid=len(self.shards), database=None, cover=Rect.empty())
        self.shards.append(sibling)
        self._rebuild_shard(sibling, right)
        shard_map = self._shard_map()
        for member in right:
            shard_map[member.oid] = sibling.sid
