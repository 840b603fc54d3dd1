"""Distributed scatter-gather execution over remote shard daemons.

:class:`RemoteEngine` is a :class:`~repro.core.parallel.ParallelEngine`
whose routed shard batches execute on ``shardd`` processes instead of in
this one: routing, merging, caching and the mutation surface are all
inherited unchanged — only ``_execute`` (one pipelined scatter-gather round
over :class:`~repro.rpc.pool.RemoteShardPool`), the cache key (the
daemon-reported epoch vector joins the scope) and the mutators (which
mirror every primitive to the owning shard's daemon) are overridden.
Answers are therefore bitwise-identical to the serial engine, exactly like
the in-process shards.  A daemon's reply arrays become the partial result
as they are (:meth:`QueryResult.ranked` checks and keeps their ranking); no
answer is inflated into a per-answer object on the way to the merge.

**Coherence protocol.**  The parent keeps, per ``(kind, sid)``, the local
shard database's ``(uid, epoch)`` recorded at the last moment parent and
daemon were provably in step.  A mutation applies locally first, then ships
the same primitive ops to the owning daemon; the daemon's reply epoch must
equal the recorded remote epoch plus the locally observed epoch delta
(identical primitives bump identical counters).  Any mismatch — or a local
shard database that was *replaced* (fresh ``uid``, e.g. an emptied shard
repopulated) — triggers a wholesale re-ship of that one shard's snapshot.
Queries re-verify the same record before scattering and each answer frame
carries the daemon's epoch, checked against the pool's map — a drifted
daemon can never serve a silently stale answer, and no broadcast
invalidation ever happens: a mutation touches exactly one daemon.
"""

from __future__ import annotations

from typing import Hashable, TYPE_CHECKING

from repro.core.engine import EngineConfig
from repro.core.errors import ConfigurationError
from repro.core.parallel import ParallelEngine
from repro.core.plan import PlanToken
from repro.core.queries import NearestNeighborQuery, RangeQuery
from repro.core.sharding import Shard, ShardedDatabase
from repro.core.updates import UpdateOp, pick_mutation_database, resolve_move_target
from repro.core.wire import require
from repro.rpc import wire
from repro.rpc.pool import RemoteShardPool
from repro.uncertainty.region import PointObject

if TYPE_CHECKING:
    from repro.rpc.launcher import LocalShardCluster


class RemoteEngine(ParallelEngine):
    """A parallel engine executing its shard batches on remote daemons."""

    engine_kind = "distributed"

    def __init__(
        self,
        *,
        point_db: ShardedDatabase | None = None,
        uncertain_db: ShardedDatabase | None = None,
        config: EngineConfig | None = None,
        pool: RemoteShardPool,
        cluster: "LocalShardCluster | None" = None,
        owns_pool: bool = True,
        synced: dict | None = None,
    ) -> None:
        super().__init__(point_db=point_db, uncertain_db=uncertain_db, config=config)
        for database in (point_db, uncertain_db):
            if database is None:
                continue
            if database.hot_threshold is not None:
                raise ConfigurationError(
                    "hot-shard re-splitting is not supported over remote shards: "
                    "a split changes the shard count under a fixed address list; "
                    "build the sharded databases with hot_threshold=None"
                )
            if database.k > len(pool.addrs):
                raise ConfigurationError(
                    f"the sharded database has {database.k} shards but the pool "
                    f"only spans {len(pool.addrs)} daemon addresses"
                )
        self._rpc_pool = pool
        self._cluster = cluster
        self._owns_pool = owns_pool
        self._worker_config = self._config.with_overrides(cache=None)
        self._config_digest = wire.config_digest(self._config)
        #: Per (kind, sid): the local shard database's (uid, epoch) at the
        #: last provably-in-step moment with its daemon.
        self._synced: dict[tuple[str, int], tuple[int, int]] = {}
        prior = synced or {}
        for kind in ("points", "uncertain"):
            database = self._point_db if kind == "points" else self._uncertain_db
            if database is None:
                continue
            for shard in database.non_empty_shards():
                key = (kind, shard.sid)
                state = (shard.database.uid, shard.database.epoch)
                if prior.get(key) == state and pool.loaded(kind, shard.sid):
                    # The daemon already holds this exact snapshot (we share
                    # the pool with the engine that shipped it): just
                    # register this engine's configuration with it.
                    pool.configure(kind, shard.sid, self._worker_config)
                    self._synced[key] = state
                else:
                    self._load_shard(kind, shard.sid)

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #
    @property
    def pool(self) -> RemoteShardPool:
        """The shard-daemon connection pool this engine scatters over."""
        return self._rpc_pool

    def reconfigured(self, config: EngineConfig) -> "RemoteEngine":
        """A sibling engine over the *same* daemons with a new configuration.

        The daemons keep their loaded shards; the sibling only registers the
        new config digest with each of them.  The pool (and any spawned
        cluster) stays owned by this engine — close the original last.
        """
        return RemoteEngine(
            point_db=self._point_db,
            uncertain_db=self._uncertain_db,
            config=config,
            pool=self._rpc_pool,
            cluster=self._cluster,
            owns_pool=False,
            synced=dict(self._synced),
        )

    def _prepare_shards(self) -> None:
        """Nothing to build here: each daemon builds its shard's pipelines on load."""

    def warm(self) -> None:
        """Ship every out-of-step shard snapshot ahead of the first query."""
        for kind in ("points", "uncertain"):
            database = self._point_db if kind == "points" else self._uncertain_db
            if database is None:
                continue
            for shard in database.non_empty_shards():
                self._ensure_synced(kind, shard)

    def close(self) -> None:
        """Release the daemons and the pool (when owned)."""
        if self._owns_pool:
            try:
                self._rpc_pool.shutdown()
            finally:
                if self._cluster is not None:
                    self._cluster.close()

    # ------------------------------------------------------------------ #
    # Coherence bookkeeping
    # ------------------------------------------------------------------ #
    def _load_shard(self, kind: str, sid: int) -> None:
        """Ship one shard's full snapshot and record the in-step state."""
        database = self._require(kind)
        shard = database.shards[sid]
        levels = shard.database.catalog_levels if kind == "uncertain" else None
        self._rpc_pool.load(
            kind,
            sid,
            database.index_kind,
            tuple(levels) if levels is not None else None,
            self._worker_config,
            list(shard.database.objects),
        )
        self._synced[(kind, sid)] = (shard.database.uid, shard.database.epoch)

    def _ensure_synced(self, kind: str, shard: Shard) -> None:
        """Re-ship a shard whose local state moved since the last sync."""
        state = (shard.database.uid, shard.database.epoch)
        if self._synced.get((kind, shard.sid)) == state and self._rpc_pool.loaded(
            kind, shard.sid
        ):
            return
        self._load_shard(kind, shard.sid)

    def _sync_ops(self, kind: str, sid: int, ops: list[UpdateOp]) -> None:
        """Mirror already-applied local primitives to the owning daemon.

        Falls back to a wholesale snapshot re-ship whenever the incremental
        path cannot prove the daemon ends bitwise in step: the local shard
        database was replaced (fresh uid), the daemon never held the shard,
        or the reply epoch disagrees with the recorded epoch plus the
        locally observed delta.
        """
        database = self._require(kind)
        shard = database.shards[sid]
        if shard.database is None:
            # The shard was drained: nothing to query there any more.  The
            # daemon's copy is dropped from the epoch map; a later
            # repopulation re-ships a fresh snapshot (fresh uid).
            self._rpc_pool.forget(kind, sid)
            self._synced.pop((kind, sid), None)
            return
        record = self._synced.get((kind, sid))
        if (
            record is None
            or record[0] != shard.database.uid
            or not self._rpc_pool.loaded(kind, sid)
        ):
            self._load_shard(kind, sid)
            return
        expected = self._rpc_pool.epoch(kind, sid) + (shard.database.epoch - record[1])
        if self._rpc_pool.update(kind, sid, ops) != expected:
            self._load_shard(kind, sid)
        else:
            self._synced[(kind, sid)] = (shard.database.uid, shard.database.epoch)

    # ------------------------------------------------------------------ #
    # Cache stage
    # ------------------------------------------------------------------ #
    def _cache_key(self, fingerprint: str, kind: str, shards: list[Shard]) -> Hashable:
        """The distributed cache key: structure + routed epoch *vector pairs*.

        Each routed shard contributes its local ``(uid, epoch)`` *and* the
        daemon-reported epoch from the pool's map (−1 while not yet loaded).
        The local pair makes keys collision-free across snapshot re-ships
        (a daemon reload restarts remote epochs, but never reuses a uid);
        the remote epoch ties every hit to daemon state the mutation path
        reported — a one-shard update moves exactly one component of the
        vector, leaving answers routed over other shards reachable.
        """
        database = self._require(kind)
        pool = self._rpc_pool
        scope = (
            "rpc",
            kind,
            database.uid,
            database.version,
            tuple(
                (
                    shard.sid,
                    shard.database.uid,
                    shard.database.epoch,
                    pool.epoch(kind, shard.sid)
                    if pool.loaded(kind, shard.sid)
                    else -1,
                )
                for shard in shards
            ),
        )
        return (scope, fingerprint, self._config_fingerprint)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _execute(self, tasks):
        ordered = sorted(tasks.items())
        if not ordered:
            return []
        rpc_tasks = []
        for (kind, sid), items in ordered:
            self._ensure_synced(kind, self._require(kind).shards[sid])
            rpc_tasks.append(
                (
                    kind,
                    sid,
                    [
                        (position, PlanToken.from_query(query))
                        for position, query in items
                        if isinstance(query, RangeQuery)
                    ],
                    [
                        (position, PlanToken.from_query(query))
                        for position, query in items
                        if isinstance(query, NearestNeighborQuery)
                    ],
                )
            )
        replies = self._rpc_pool.scatter(rpc_tasks, self._config_digest)
        results = []
        for ((kind, sid), _), (reply, arrays) in zip(ordered, replies):
            pruned_names = tuple(require(reply, wire.RPC_SCHEMA, "pruned_names"))
            for position, partial in wire.unpack_answers(arrays, pruned_names):
                results.append((position, (sid, partial)))
        return results

    # ------------------------------------------------------------------ #
    # Live mutation (local first, then mirrored to the owning daemon)
    # ------------------------------------------------------------------ #
    def insert(self, obj):
        stored = super().insert(obj)
        kind = "points" if isinstance(stored, PointObject) else "uncertain"
        sid = self._require(kind).owner_of(stored.oid).sid
        self._sync_ops(kind, sid, [UpdateOp(action="insert", obj=stored)])
        return stored

    def delete(self, oid: int, *, target: str | None = None):
        database = pick_mutation_database(self._point_db, self._uncertain_db, target)
        kind = database.kind
        sid = database.owner_of(oid).sid
        removed = super().delete(oid, target=target)
        self._sync_ops(
            kind, sid, [UpdateOp(action="delete", oid=int(oid), target=kind)]
        )
        return removed

    def move(
        self,
        oid: int,
        *,
        x: float | None = None,
        y: float | None = None,
        pdf=None,
        target: str | None = None,
    ):
        kind = resolve_move_target(x, y, pdf, target)
        database = self._require(kind)
        source_sid = database.owner_of(oid).sid
        stored = super().move(oid, x=x, y=y, pdf=pdf, target=target)
        dest_sid = database.owner_of(oid).sid
        if dest_sid == source_sid:
            if kind == "points":
                op = UpdateOp(
                    action="move", oid=int(oid), x=float(x), y=float(y), target=kind
                )
            else:
                op = UpdateOp(action="move", oid=int(oid), pdf=pdf, target=kind)
            self._sync_ops(kind, source_sid, [op])
        else:
            # A cross-shard re-home is a delete + insert pair locally; mirror
            # the same pair, each to its own daemon.
            self._sync_ops(
                kind, source_sid, [UpdateOp(action="delete", oid=int(oid), target=kind)]
            )
            self._sync_ops(kind, dest_sid, [UpdateOp(action="insert", obj=stored)])
        return stored
