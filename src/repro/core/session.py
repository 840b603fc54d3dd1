"""Fluent session facade over the query engine.

A :class:`Session` wraps databases, configuration and an
:class:`~repro.core.engine.ImpreciseQueryEngine` behind builder-style query
construction, so examples and the experiment harness stop hand-wiring
engines::

    session = Session.from_objects(points=restaurants, uncertain=taxis)
    evaluation = (
        session.range(half_width=500.0)
        .targets("uncertain")
        .threshold(0.5)
        .issued_by(rider)
        .run()
    )

Builders are immutable: every fluent call returns a new builder, so a
partially configured builder can be reused as a template for many queries
(e.g. one issuer per workload query via :meth:`RangeQueryBuilder.run_many`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Sequence

from repro.core import heap
from repro.core.cache import ResultCache
from repro.core.continuous import AnswerDelta, Subscription, SubscriptionRegistry
from repro.core.errors import ConfigurationError, InvalidQueryError
from repro.core.engine import (
    EngineConfig,
    ImpreciseQueryEngine,
    PointDatabase,
    UncertainDatabase,
)
from repro.core.parallel import ParallelEngine
from repro.core.sharding import ShardedDatabase
from repro.core.queries import (
    Evaluation,
    NearestNeighborQuery,
    Query,
    RangeQuery,
    RangeQuerySpec,
    RangeQueryTarget,
)
from repro.core.updates import UpdateBatch
from repro.geometry.rect import Rect
from repro.uncertainty.catalog import DEFAULT_CATALOG_LEVELS
from repro.uncertainty.region import PointObject, UncertainObject


class Session:
    """A configured query surface: databases + engine + fluent builders."""

    def __init__(
        self,
        *,
        point_db: PointDatabase | None = None,
        uncertain_db: UncertainDatabase | None = None,
        config: EngineConfig | None = None,
        engine: ImpreciseQueryEngine | ParallelEngine | None = None,
    ) -> None:
        if engine is not None:
            if point_db is not None or uncertain_db is not None or config is not None:
                raise ConfigurationError(
                    "pass either a prebuilt engine or databases/config, not both"
                )
            self._engine = engine
        else:
            self._engine = ImpreciseQueryEngine(
                point_db=point_db, uncertain_db=uncertain_db, config=config
            )
        self._subscriptions: SubscriptionRegistry | None = None

    @classmethod
    def from_objects(
        cls,
        *,
        points: Iterable[PointObject] | None = None,
        uncertain: Iterable[UncertainObject] | None = None,
        point_index: str = "rtree",
        uncertain_index: str = "pti",
        catalog_levels: Sequence[float] | None = DEFAULT_CATALOG_LEVELS,
        bounds: Rect | None = None,
        config: EngineConfig | None = None,
    ) -> "Session":
        """Build databases from raw object collections and wrap them in a session."""
        # One pause covers the databases and the engine, whose pipeline builds
        # the indexes it probes: set-up pays for one due full collection, not
        # one per step.
        with heap.paused():
            point_db = (
                PointDatabase.build(points, index_kind=point_index, bounds=bounds)
                if points is not None
                else None
            )
            uncertain_db = (
                UncertainDatabase.build(
                    uncertain,
                    index_kind=uncertain_index,
                    catalog_levels=catalog_levels,
                    bounds=bounds,
                )
                if uncertain is not None
                else None
            )
            return cls(point_db=point_db, uncertain_db=uncertain_db, config=config)

    @property
    def engine(self) -> ImpreciseQueryEngine | ParallelEngine:
        """The underlying query engine."""
        return self._engine

    @property
    def point_db(self) -> PointDatabase | ShardedDatabase | None:
        """The point-object database (sharded for sharded sessions), if any."""
        return self._engine.point_db

    @property
    def uncertain_db(self) -> UncertainDatabase | ShardedDatabase | None:
        """The uncertain-object database (sharded for sharded sessions), if any."""
        return self._engine.uncertain_db

    def sharded(
        self,
        k: int,
        *,
        workers: int | None = None,
        partitioner: str = "grid",
        hot_threshold: int | None = None,
    ) -> "Session":
        """A new session running this session's data over ``k`` in-process shards.

        The databases are partitioned into ``k`` spatial shards (``"grid"``
        or ``"median"`` splits), each with its own index of the same kind as
        the original database, and queries execute through a
        :class:`~repro.core.parallel.ParallelEngine`: routed to the shards
        their window can touch, run shard by shard in this process, merged.
        Every existing workload runs unchanged on the sharded session;
        results are identical to this session's — Monte-Carlo probabilities
        match bitwise, because every draw is keyed by the query's content.
        To run the shards on other cores or hosts use :meth:`distributed`.

        ``hot_threshold`` arms in-place re-splitting: a shard that grows past
        that many members under live inserts is split into two without
        rebuilding its siblings.
        """
        # ``workers`` is kept only because the frozen benchmarks/suite passes
        # ``workers=1``; the next ``benchmark`` issue drops it.
        if workers not in (None, 1):
            raise ConfigurationError(
                f"sharded() runs its shards in-process (workers={workers} is not "
                "supported); use Session.distributed(k) for multi-process execution"
            )
        sharded_points, sharded_uncertain = self._reshard(
            k, partitioner=partitioner, hot_threshold=hot_threshold
        )
        engine = ParallelEngine(
            point_db=sharded_points,
            uncertain_db=sharded_uncertain,
            config=self._engine.config,
        )
        return Session(engine=engine)

    def _reshard(
        self, k: int, *, partitioner: str, hot_threshold: int | None
    ) -> tuple[ShardedDatabase | None, ShardedDatabase | None]:
        """Partition this session's data into ``k`` shards per database.

        Shared by :meth:`sharded` and :meth:`distributed`.
        """
        point_db = self._engine.point_db
        uncertain_db = self._engine.uncertain_db
        sharded_points = None
        if point_db is not None:
            index_kind = (
                point_db.index_kind
                if isinstance(point_db, ShardedDatabase)
                else point_db.kind
            )
            sharded_points = ShardedDatabase.build_points(
                point_db.objects,
                k,
                partitioner=partitioner,
                index_kind=index_kind,
                hot_threshold=hot_threshold,
            )
        sharded_uncertain = None
        if uncertain_db is not None:
            index_kind = (
                uncertain_db.index_kind
                if isinstance(uncertain_db, ShardedDatabase)
                else uncertain_db.kind
            )
            # Objects coming out of a built database already carry whatever
            # catalogs the original construction attached.
            sharded_uncertain = ShardedDatabase.build_uncertain(
                uncertain_db.objects,
                k,
                partitioner=partitioner,
                index_kind=index_kind,
                catalog_levels=None,
                hot_threshold=hot_threshold,
            )
        return sharded_points, sharded_uncertain

    def distributed(
        self,
        k: int | None = None,
        *,
        addrs: Sequence[tuple[str, int]] | None = None,
        partitioner: str = "grid",
    ) -> "Session":
        """A new session scattering this session's data over shard daemons.

        The databases are partitioned exactly like :meth:`sharded` and each
        shard's snapshot is shipped to one ``shardd`` worker process
        (:mod:`repro.rpc.shardd`).  Queries run through a
        :class:`~repro.rpc.engine.RemoteEngine`: routed plan-token batches
        scatter over persistent pipelined connections, the packed answer
        arrays gather back, and the merge is the parallel engine's —
        answers are bitwise-identical to this session's.

        ``addrs`` connects to already-running daemons (``(host, port)``
        pairs, one per shard, in shard-id order; ``k`` defaults to their
        count).  Without ``addrs``, ``k`` local daemons are spawned and
        owned by the returned session's engine — ``session.engine.close()``
        shuts them down along with the connections.

        Mutations through the returned session apply locally and mirror to
        the one owning daemon, whose reply epoch keeps the engine's
        epoch-vector cache keys coherent without broadcast invalidation.
        """
        from repro.rpc.engine import RemoteEngine
        from repro.rpc.pool import RemoteShardPool

        if addrs is not None:
            if k is None:
                k = len(addrs)
            elif k != len(addrs):
                raise ConfigurationError(
                    f"k={k} does not match the {len(addrs)} daemon addresses"
                )
        elif k is None:
            raise ConfigurationError(
                "distributed() needs a shard count k or an explicit addrs list"
            )
        sharded_points, sharded_uncertain = self._reshard(
            k, partitioner=partitioner, hot_threshold=None
        )
        cluster = None
        if addrs is None:
            from repro.rpc.launcher import LocalShardCluster

            cluster = LocalShardCluster.spawn(k)
            addrs = cluster.addrs
        try:
            engine = RemoteEngine(
                point_db=sharded_points,
                uncertain_db=sharded_uncertain,
                config=self._engine.config,
                pool=RemoteShardPool(addrs),
                cluster=cluster,
                owns_pool=True,
            )
        except BaseException:
            if cluster is not None:
                cluster.close()
            raise
        return Session(engine=engine)

    def cached(self, capacity: int = 1024) -> "Session":
        """A new session serving repeated queries from an epoch-keyed result cache.

        The returned session shares this session's databases (mutations
        through either session are seen by both — the epoch counters keep
        every consumer consistent) but runs with a fresh
        :class:`~repro.core.cache.ResultCache` of the given ``capacity``
        threaded through the query pipeline.  *Sampled* answers are cached
        too: a query's Monte-Carlo draws depend only on its content, never
        on its position in the workload, so a cache hit is bitwise-identical
        to recomputing.

        Monitor hit rates via :meth:`stats`.
        """
        return self.with_config(cache=ResultCache(capacity=capacity))

    def with_config(self, **overrides: Any) -> "Session":
        """A new session sharing this session's databases under a tweaked config.

        ``overrides`` are :class:`~repro.core.engine.EngineConfig` field
        overrides (``probability_method=...``, ``cache=...``, ...).  Both
        sessions see each other's mutations — the databases are the same
        objects — but each evaluates with its own configuration.
        """
        config = self._engine.config.with_overrides(**overrides)
        if isinstance(self._engine, ParallelEngine):
            # Polymorphic: a RemoteEngine reconfigures over the same daemons
            # instead of silently downgrading to in-process shards.
            engine: ImpreciseQueryEngine | ParallelEngine = (
                self._engine.reconfigured(config)
            )
        else:
            engine = ImpreciseQueryEngine(
                point_db=self._engine.point_db,
                uncertain_db=self._engine.uncertain_db,
                config=config,
            )
        return Session(engine=engine)

    def describe(self) -> dict[str, Any]:
        """A JSON-safe snapshot of the session's configuration and counters.

        Wraps :meth:`stats` with the engine kind, the
        :class:`~repro.core.engine.EngineConfig` fields and each configured
        database's shape — the payload the serving front-end returns for a
        ``stats`` request, so clients can introspect a live server.  Each
        database entry's ``index_built`` says whether its index exists yet
        (for a sharded database: how many shards have built theirs);
        reading it builds nothing.
        """
        config = self._engine.config
        databases: dict[str, Any] = {}
        for name, database in (
            ("points", self._engine.point_db),
            ("uncertain", self._engine.uncertain_db),
        ):
            if database is None:
                continue
            entry: dict[str, Any] = {
                "objects": len(database),
                "index": database.index_kind
                if isinstance(database, ShardedDatabase)
                else database.kind,
            }
            if isinstance(database, ShardedDatabase):
                entry["shards"] = database.k
                entry["partitioner"] = database.partitioner
                entry["index_built"] = sum(
                    shard.database.index_built for shard in database.non_empty_shards()
                )
            else:
                entry["index_built"] = database.index_built
            databases[name] = entry
        stats = self.stats()
        epochs = {
            name: {str(sid): epoch for sid, epoch in value.items()}
            if isinstance(value, dict)
            else value
            for name, value in stats.epochs.items()
        }
        engine_entry: dict[str, Any] = {"kind": self._engine.engine_kind}
        if self._engine.engine_kind == "distributed":
            engine_entry["daemons"] = len(self._engine.pool.addrs)
        return {
            "engine": engine_entry,
            "config": {
                "probability_method": config.probability_method,
                "monte_carlo_samples": config.monte_carlo_samples,
                "rng_seed": config.rng_seed,
                "use_p_expanded_query": config.use_p_expanded_query,
                "ciuq_strategies": [s.value for s in config.ciuq_strategies],
                "vectorized": config.vectorized,
                "cache_capacity": config.cache.capacity if config.cache else None,
            },
            "databases": databases,
            "stats": {
                "cache": stats.cache,
                "epochs": epochs,
                "subscriptions": stats.subscriptions,
            },
        }

    def stats(self) -> "SessionStats":
        """A snapshot of the session's serving counters.

        Bundles the result cache's hit/miss/eviction counters (``None``
        when the session runs uncached) with the current database epoch —
        or, for sharded sessions, the per-shard epoch vector — so serving
        workloads can monitor hit rate and watch invalidation happen.
        """
        cache = self._engine.config.cache
        cache_stats = None
        if cache is not None:
            cache_stats = dict(cache.stats.as_dict())
            cache_stats["entries"] = len(cache)
            cache_stats["capacity"] = cache.capacity
        epochs: dict[str, Any] = {}
        for name, database in (
            ("points", self._engine.point_db),
            ("uncertain", self._engine.uncertain_db),
        ):
            if database is None:
                continue
            if isinstance(database, ShardedDatabase):
                epochs[name] = dict(database.epochs())
            else:
                epochs[name] = database.epoch
        subscriptions = (
            self._subscriptions.stats() if self._subscriptions is not None else None
        )
        return SessionStats(
            cache=cache_stats, epochs=epochs, subscriptions=subscriptions
        )

    # ------------------------------------------------------------------ #
    # Continuous queries
    # ------------------------------------------------------------------ #
    def subscriptions(self) -> SubscriptionRegistry:
        """The session's :class:`SubscriptionRegistry` (created on first use).

        The registry shares the session's databases and observes every
        mutation made through this session (or any other consumer of the
        same database objects).
        """
        if self._subscriptions is None:
            self._subscriptions = SubscriptionRegistry(
                point_db=self._engine.point_db,
                uncertain_db=self._engine.uncertain_db,
                config=self._engine.config,
            )
        return self._subscriptions

    def subscribe(self, query: Query) -> Subscription:
        """Register a standing query and return its :class:`Subscription`.

        The handle's :meth:`~repro.core.continuous.Subscription.answer` is
        maintained incrementally as the session mutates; drain its ordered
        ``JOIN``/``LEAVE``/``SCORE_CHANGE`` deltas via
        :meth:`~repro.core.continuous.Subscription.poll` (per subscription)
        or :meth:`poll_deltas` (session-wide).
        """
        return self.subscriptions().subscribe(query)

    def unsubscribe(self, subscription: Subscription | int) -> None:
        """Cancel a standing query (by handle or id)."""
        self.subscriptions().unsubscribe(subscription)

    def poll_deltas(self) -> list[AnswerDelta]:
        """Drain all subscriptions' queued deltas as one ordered stream."""
        if self._subscriptions is None:
            return []
        return self._subscriptions.poll()

    def _pump_subscriptions(self) -> None:
        if self._subscriptions is not None:
            self._subscriptions.pump()

    # ------------------------------------------------------------------ #
    # Fluent builders
    # ------------------------------------------------------------------ #
    def range(
        self, *, half_width: float, half_height: float | None = None
    ) -> "RangeQueryBuilder":
        """Start building a range query (square when ``half_height`` is omitted).

        The target defaults to the only database the session holds; sessions
        with both databases must pick one via :meth:`RangeQueryBuilder.targets`.
        """
        spec = RangeQuerySpec(
            half_width, half_width if half_height is None else half_height
        )
        return RangeQueryBuilder(session=self, spec=spec, target=self._default_target())

    def nearest(self, *, samples: int | None = None) -> "NearestNeighborQueryBuilder":
        """Start building an imprecise nearest-neighbour query."""
        return NearestNeighborQueryBuilder(session=self, samples=samples)

    def _default_target(self) -> RangeQueryTarget | None:
        if self._engine.point_db is not None and self._engine.uncertain_db is None:
            return "points"
        if self._engine.uncertain_db is not None and self._engine.point_db is None:
            return "uncertain"
        return None

    # ------------------------------------------------------------------ #
    # Live mutation
    # ------------------------------------------------------------------ #
    def insert(self, obj: PointObject | UncertainObject):
        """Add one object to the session's matching database (live, no rebuild).

        Returns the stored object (uncertain objects may gain a U-catalog).
        """
        stored = self._engine.insert(obj)
        self._pump_subscriptions()
        return stored

    def delete(self, oid: int, *, target: str | None = None):
        """Remove one object by oid; ``target`` picks the database when both exist.

        Returns the removed object.
        """
        removed = self._engine.delete(oid, target=target)
        self._pump_subscriptions()
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
        """Relocate one object: ``x``/``y`` for a point, ``pdf`` for an uncertain one.

        Returns the stored replacement object.
        """
        moved = self._engine.move(oid, x=x, y=y, pdf=pdf, target=target)
        self._pump_subscriptions()
        return moved

    def apply_updates(self, batch: UpdateBatch) -> None:
        """Apply an ordered :class:`UpdateBatch` to the session's databases.

        Standing subscriptions settle once per batch: each affected
        subscription re-evaluates a single time no matter how many of the
        batch's operations touched it.
        """
        self._engine.apply_updates(batch)
        self._pump_subscriptions()

    # ------------------------------------------------------------------ #
    # Direct execution
    # ------------------------------------------------------------------ #
    def evaluate(self, query: Query) -> Evaluation:
        """Evaluate one query object."""
        return self._engine.evaluate(query)

    def evaluate_many(self, queries: Iterable[Query | UpdateBatch]) -> list[Evaluation]:
        """Evaluate a batch of query objects, preserving input order.

        :class:`UpdateBatch` items may be interleaved with the queries; each
        is applied at its position in the stream and yields no evaluation.
        """
        evaluations = self._engine.evaluate_many(queries)
        self._pump_subscriptions()
        return evaluations


@dataclass(frozen=True)
class SessionStats:
    """Serving counters reported by :meth:`Session.stats`.

    ``cache`` is ``None`` for uncached sessions; otherwise a dict with
    ``hits`` / ``misses`` / ``evictions`` / ``hit_rate`` / ``entries`` /
    ``capacity``.  ``epochs`` maps each configured database (``"points"`` /
    ``"uncertain"``) to its mutation epoch — an int for serial sessions, a
    ``{shard id: epoch}`` dict for sharded ones.  ``subscriptions`` is
    ``None`` until the session's first :meth:`Session.subscribe`; afterwards
    the registry's counters (``active`` / ``subscribed_total`` /
    ``deltas_emitted`` / ``reevaluations`` / ``skipped`` / ``rounds`` /
    ``pending_deltas``).
    """

    cache: dict[str, Any] | None = None
    epochs: dict[str, Any] = field(default_factory=dict)
    subscriptions: dict[str, int] | None = None

    @property
    def hit_rate(self) -> float:
        """Cache hit rate (0.0 for uncached sessions)."""
        return float(self.cache["hit_rate"]) if self.cache else 0.0


@dataclass(frozen=True)
class RangeQueryBuilder:
    """Immutable fluent builder for :class:`RangeQuery` objects."""

    session: Session
    spec: RangeQuerySpec
    target: RangeQueryTarget | None = None
    qp: float = 0.0
    issuer: UncertainObject | None = None

    def targets(self, target: RangeQueryTarget) -> "RangeQueryBuilder":
        """Select the database to query: ``"points"`` or ``"uncertain"``."""
        return replace(self, target=target)

    def threshold(self, qp: float) -> "RangeQueryBuilder":
        """Set the probability threshold ``Qp`` (constrained queries)."""
        return replace(self, qp=qp)

    def issued_by(self, issuer: UncertainObject) -> "RangeQueryBuilder":
        """Set the query issuer ``O0``."""
        return replace(self, issuer=issuer)

    def build(self) -> RangeQuery:
        """Materialise the configured :class:`RangeQuery`."""
        if self.issuer is None:
            raise InvalidQueryError(
                "no issuer configured; call .issued_by(<UncertainObject>) first"
            )
        if self.target is None:
            raise InvalidQueryError(
                "the session holds both databases; "
                'pick one with .targets("points") or .targets("uncertain")'
            )
        return RangeQuery(
            issuer=self.issuer, spec=self.spec, threshold=self.qp, target=self.target
        )

    def run(self) -> Evaluation:
        """Build and evaluate the query."""
        return self.session.evaluate(self.build())

    def run_many(self, issuers: Iterable[UncertainObject]) -> list[Evaluation]:
        """Evaluate the same query shape once per issuer, through the batch path."""
        if self.target is None:
            raise InvalidQueryError(
                "the session holds both databases; "
                'pick one with .targets("points") or .targets("uncertain")'
            )
        queries = [
            RangeQuery(issuer=issuer, spec=self.spec, threshold=self.qp, target=self.target)
            for issuer in issuers
        ]
        return self.session.evaluate_many(queries)


@dataclass(frozen=True)
class NearestNeighborQueryBuilder:
    """Immutable fluent builder for :class:`NearestNeighborQuery` objects."""

    session: Session
    samples: int | None = None
    qp: float = 0.0
    issuer: UncertainObject | None = None

    def threshold(self, qp: float) -> "NearestNeighborQueryBuilder":
        """Only report neighbours with probability at least ``qp``."""
        return replace(self, qp=qp)

    def sample_count(self, samples: int) -> "NearestNeighborQueryBuilder":
        """Set the Monte-Carlo sample count."""
        return replace(self, samples=samples)

    def issued_by(self, issuer: UncertainObject) -> "NearestNeighborQueryBuilder":
        """Set the query issuer ``O0``."""
        return replace(self, issuer=issuer)

    def build(self) -> NearestNeighborQuery:
        """Materialise the configured :class:`NearestNeighborQuery`."""
        if self.issuer is None:
            raise InvalidQueryError(
                "no issuer configured; call .issued_by(<UncertainObject>) first"
            )
        return NearestNeighborQuery(
            issuer=self.issuer, threshold=self.qp, samples=self.samples
        )

    def run(self) -> Evaluation:
        """Build and evaluate the query."""
        return self.session.evaluate(self.build())
