"""Sharded workload execution: routing, the parent-side cache, the merge.

:class:`ParallelEngine` runs whole workloads against a
:class:`~repro.core.sharding.ShardedDatabase`: every query is routed to only
the shards its window can touch (Minkowski-expanded for range queries,
best-distance-bounded for nearest-neighbour queries), the routed per-shard
batches run through each shard's staged pipeline
(:mod:`repro.core.pipeline` — the engine owns no evaluation code), and the
per-shard partial results are merged into ordinary
:class:`~repro.core.queries.Evaluation` envelopes: answers in global oid
order, work counters summed, per-shard wall-clock attribution attached
(:class:`ParallelEvaluation.shard_timings`).

The shards execute **in this process**, one after another; the engine holds
no OS resources.  The one seam is :meth:`ParallelEngine._execute`, which
takes the routed batches and returns :class:`RangePartial` /
:class:`NNPartial` contributions — :class:`~repro.rpc.engine.RemoteEngine`
overrides it to run the same batches on shard daemons, and is the way to put
shards on other cores or hosts (``Session.distributed(k)``).

The result cache is consulted here, not inside the shards: an entry holds a
whole-query answer.  Keys embed the *per-shard epoch vector* of the routed
shards (plus the sharded database's structure version), so a mutation in one
shard does not evict answers that only touched others.

Results are **identical** to a single-shard
:class:`~repro.core.engine.ImpreciseQueryEngine` under a
position-independent draw plan (``"per_oid"``, forced when handed the
streaming plan, or ``"query_keyed"``): the shards partition the objects,
pruning decisions are per-object, and every Monte-Carlo draw is a pure
function of ``(rng_seed, draw token, oid)``.  Updates consume no query
sequence numbers, so a live-mutated sharded database answers
bitwise-identically to a from-scratch rebuild of the same final collection.
One caveat for nearest-neighbour queries: when two objects are at *exactly*
the same distance from a sampled position, the merge breaks the tie towards
the smaller oid while the single-shard engine keeps whichever its R-tree
traversal found first — probability zero under the continuous pdfs used
here, reachable with symmetric grid-aligned point layouts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Hashable, Iterable

import numpy as np

from repro.core.cache import copy_statistics, fill_allowed
from repro.core.engine import EngineConfig
from repro.core.errors import ConfigurationError, EngineStateError, InvalidArgumentError
from repro.core.expansion import minkowski_expanded_query
from repro.core.nearest import nn_query_draws
from repro.core.pipeline import DEFAULT_NN_SAMPLES, partition_workload
from repro.core.plan import query_fingerprint, resolve_draw_token
from repro.core.queries import (
    Evaluation,
    NearestNeighborQuery,
    Query,
    QueryResult,
    RangeQuery,
)
from repro.core.sharding import Shard, ShardedDatabase
from repro.core.statistics import EvaluationStatistics
from repro.core.updates import (
    UpdateBatch,
    apply_update_op,
    pick_mutation_database,
    resolve_move_target,
)
from repro.uncertainty.region import PointObject, UncertainObject


@dataclass(frozen=True)
class ShardTiming:
    """Wall-clock seconds one shard spent on one query."""

    sid: int
    seconds: float


@dataclass(frozen=True)
class ParallelEvaluation(Evaluation):
    """An :class:`Evaluation` carrying per-shard timing attribution.

    ``elapsed_seconds`` is the slowest shard's time (the parallel critical
    path); ``statistics.response_time`` sums the shards' times (the total
    work performed); ``shard_timings`` breaks that total down per shard.
    An answer served from the result cache carries no shard timings — no
    shard ran.
    """

    shard_timings: tuple[ShardTiming, ...] = ()

    def to_dict(self) -> dict:
        """The :meth:`Evaluation.to_dict` payload plus ``shard_timings`` rows."""
        payload = super().to_dict()
        payload["shard_timings"] = [[t.sid, t.seconds] for t in self.shard_timings]
        return payload

    @classmethod
    def from_dict(cls, payload) -> "ParallelEvaluation":
        """Decode a :meth:`to_dict` payload (``shard_timings`` optional)."""
        base = Evaluation.from_dict(payload)
        return cls(
            query=base.query,
            result=base.result,
            statistics=base.statistics,
            elapsed_seconds=base.elapsed_seconds,
            shard_timings=tuple(
                ShardTiming(sid=int(sid), seconds=float(seconds))
                for sid, seconds in payload.get("shard_timings", [])
            ),
        )


@dataclass
class RangePartial:
    """One shard's contribution to a range query (what ``_execute`` returns)."""

    result: QueryResult
    statistics: EvaluationStatistics
    elapsed_seconds: float


@dataclass
class NNPartial:
    """One shard's per-draw nearest-neighbour winners (what ``_execute`` returns)."""

    oids: np.ndarray
    distances: np.ndarray
    statistics: EvaluationStatistics
    elapsed_seconds: float


class ParallelEngine:
    """Evaluates workloads across the shards of a :class:`ShardedDatabase`.

    Drop-in compatible with :class:`ImpreciseQueryEngine` for the query
    surface (``evaluate`` / ``evaluate_many`` / ``config`` / database
    properties), so a :class:`~repro.core.session.Session` can swap one in
    transparently.  The routed shard batches execute serially in-process.
    """

    engine_kind = "parallel"

    def __init__(
        self,
        *,
        point_db: ShardedDatabase | None = None,
        uncertain_db: ShardedDatabase | None = None,
        config: EngineConfig | None = None,
    ) -> None:
        if point_db is None and uncertain_db is None:
            raise ConfigurationError("the engine needs at least one sharded database to query")
        if point_db is not None and point_db.kind != "points":
            raise ConfigurationError("point_db must be a ShardedDatabase of kind 'points'")
        if uncertain_db is not None and uncertain_db.kind != "uncertain":
            raise ConfigurationError("uncertain_db must be a ShardedDatabase of kind 'uncertain'")
        self._point_db = point_db
        self._uncertain_db = uncertain_db
        config = config if config is not None else EngineConfig()
        if config.draw_plan == "stream":
            # Sharded execution is only well-defined under a position- or
            # content-keyed plan: the streaming plan ties draws to batch
            # composition, which no shard can reproduce.  (stream + cache is
            # already rejected by EngineConfig itself.)
            config = config.with_overrides(draw_plan="per_oid")
        self._config = config
        self._config_fingerprint = config.fingerprint()
        self._query_seq = 0

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #
    @property
    def config(self) -> EngineConfig:
        """The engine configuration (draw plan never ``"stream"``)."""
        return self._config

    @property
    def point_db(self) -> ShardedDatabase | None:
        """The sharded point-object database, if any."""
        return self._point_db

    @property
    def uncertain_db(self) -> ShardedDatabase | None:
        """The sharded uncertain-object database, if any."""
        return self._uncertain_db

    def reconfigured(self, config: EngineConfig) -> "ParallelEngine":
        """A fresh engine over the same databases with a new configuration.

        The polymorphic hook :meth:`Session.with_config` uses so a subclass
        (the RPC :class:`~repro.rpc.engine.RemoteEngine`) is not silently
        downgraded to in-process execution when its session is re-tuned.
        """
        return type(self)(
            point_db=self._point_db, uncertain_db=self._uncertain_db, config=config
        )

    def warm(self) -> None:
        """Nothing to start: the shards execute in this process."""

    def close(self) -> None:
        """Nothing to release: the engine holds no OS resources."""

    def __enter__(self) -> "ParallelEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #
    def evaluate(self, query: Query) -> Evaluation:
        """Evaluate one query across the shards it routes to."""
        return self.evaluate_many([query])[0]

    def evaluate_many(self, queries: Iterable[Query | UpdateBatch]) -> list[Evaluation]:
        """Evaluate a workload shard by shard, preserving input order.

        Each query is routed to the shards its window can touch, the routed
        per-shard batches run through the shared staged pipeline (one
        pipeline per shard), and the partial results are merged.  Queries
        whose window misses every shard return empty evaluations without
        touching any shard; queries answerable from the result cache are
        served in the parent without routing any shard work at all.

        An :class:`~repro.core.updates.UpdateBatch` may be interleaved with
        the queries: it is applied at exactly its position in the stream
        (earlier queries see the old data, later ones the new) and produces
        no :class:`Evaluation`.  Updates consume no query sequence numbers,
        so the surrounding queries' per-oid Monte-Carlo draws are unaffected
        — a live-updated sharded database answers bitwise-identically to a
        from-scratch rebuild of the same final collection.
        """
        evaluations: list[Evaluation] = []
        for kind, payload in partition_workload(queries):
            if kind == "updates":
                self.apply_updates(payload)
            else:
                evaluations.extend(self._run_query_batch(payload))
        return evaluations

    # ------------------------------------------------------------------ #
    # Cache stage (parent-side)
    # ------------------------------------------------------------------ #
    def _cache_key(self, fingerprint: str, kind: str, shards: list[Shard]) -> Hashable:
        """The sharded cache key: structure version + routed epoch vector.

        Only the *routed* shards' epochs participate, so a mutation in a
        shard the query never touches leaves the entry reachable.  The
        structure version guards against ``(sid, epoch)`` collisions across
        wholesale database replacements (re-splits restart epochs at zero).
        """
        database = self._require(kind)
        scope = (
            "shards",
            kind,
            database.uid,
            database.version,
            tuple((shard.sid, shard.database.epoch) for shard in shards),
        )
        return (scope, fingerprint, self._config_fingerprint)

    def _run_query_batch(self, batch: list[Query]) -> list[Evaluation]:
        """Consult the cache, then route, execute and merge the misses."""
        base_seq = self._query_seq
        self._query_seq += len(batch)
        cache = self._config.cache

        evaluations: list[Evaluation | None] = [None] * len(batch)
        fill_keys: dict[int, Hashable] = {}
        tasks: dict[tuple[str, int], list[tuple[int, int, Query]]] = {}
        for position, query in enumerate(batch):
            seq = base_seq + position
            kind = "points" if self._targets_points(query) else "uncertain"
            shards = self._route(query)
            started = time.perf_counter()
            fingerprint = query_fingerprint(query) if cache is not None else None
            if fingerprint is not None:
                key = self._cache_key(fingerprint, kind, shards)
                entry = cache.lookup(key)
                if entry is not None:
                    result, stats = entry.materialise()
                    evaluations[position] = ParallelEvaluation(
                        query=query,
                        result=result,
                        statistics=stats,
                        elapsed_seconds=time.perf_counter() - started,
                        shard_timings=(),
                    )
                    continue
                fill_keys[position] = key
            for shard in shards:
                tasks.setdefault((kind, shard.sid), []).append((position, seq, query))

        partials: dict[int, list[tuple[int, RangePartial | NNPartial]]] = {}
        for position, (sid, payload) in self._execute(tasks):
            partials.setdefault(position, []).append((sid, payload))

        for position, query in enumerate(batch):
            if evaluations[position] is not None:
                continue
            merged = self._merge(query, partials.get(position, []))
            key = fill_keys.get(position)
            if key is not None and fill_allowed(self._config.draw_plan, merged.statistics):
                cache.store(key, None, merged.result, merged.statistics)
            evaluations[position] = merged
        return evaluations

    # ------------------------------------------------------------------ #
    # Live mutation
    # ------------------------------------------------------------------ #
    def _mutation_db(self, target: str | None) -> ShardedDatabase:
        return pick_mutation_database(self._point_db, self._uncertain_db, target)

    def insert(self, obj: PointObject | UncertainObject):
        """Insert one object into its owning shard (chosen by nearest cover).

        Returns the stored object.
        """
        if isinstance(obj, PointObject):
            return self._require("points").insert(obj)
        if isinstance(obj, UncertainObject):
            return self._require("uncertain").insert(obj)
        raise InvalidArgumentError(
            f"expected a PointObject or UncertainObject, got {type(obj).__name__}"
        )

    def delete(self, oid: int, *, target: str | None = None):
        """Remove one object from its owning shard; returns the removed object."""
        return self._mutation_db(target).delete(oid)

    def move(
        self,
        oid: int,
        *,
        x: float | None = None,
        y: float | None = None,
        pdf=None,
        target: str | None = None,
    ):
        """Relocate one object, re-homing it across shards when needed.

        ``x``/``y`` move a point object, ``pdf`` an uncertain one.  Returns
        the stored replacement object.
        """
        if resolve_move_target(x, y, pdf, target) == "points":
            return self._require("points").move(oid, x=float(x), y=float(y))
        return self._require("uncertain").move(oid, pdf=pdf)

    def apply_updates(self, batch: UpdateBatch) -> None:
        """Apply an ordered batch of mutations to the sharded databases."""
        for op in batch:
            apply_update_op(self, op)

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    @staticmethod
    def _targets_points(query: Query) -> bool:
        return isinstance(query, NearestNeighborQuery) or query.target == "points"

    def _require(self, kind: str) -> ShardedDatabase:
        database = self._point_db if kind == "points" else self._uncertain_db
        if database is None:
            noun = "point-object" if kind == "points" else "uncertain-object"
            raise EngineStateError(f"no {noun} database configured")
        return database

    def _route(self, query: Query) -> list[Shard]:
        if isinstance(query, NearestNeighborQuery):
            return self._require("points").route_nearest(query.issuer.region)
        database = self._require("points" if query.target == "points" else "uncertain")
        # The Minkowski window is the widest filter any configuration uses
        # (the Qp-expanded-query is a subset), so routing by it is always
        # complete; shards it over-includes contribute zero candidates.
        window = minkowski_expanded_query(query.issuer.region, query.spec)
        return database.route_window(window)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _execute_shard(
        self, kind: str, sid: int, items: list[tuple[int, int, Query]]
    ) -> list[tuple[int, tuple[int, RangePartial | NNPartial]]]:
        """Run one shard's routed queries in-process.

        Range queries run through the shard's staged pipeline
        (:meth:`ShardedDatabase.execute_on_shard`) — the identical stage
        runner the serial engine uses.  Nearest-neighbour queries use the
        shard pipeline's sampler in per-draw mode, because their merge is a
        per-draw argmin across shards rather than an answer-list union.
        """
        database = self._require(kind)
        results: list[tuple[int, tuple[int, RangePartial | NNPartial]]] = []
        range_items = [item for item in items if isinstance(item[2], RangeQuery)]
        nn_items = [item for item in items if isinstance(item[2], NearestNeighborQuery)]
        if range_items:
            evaluations = database.execute_on_shard(
                sid, [(seq, query) for _, seq, query in range_items], self._config
            )
            for (position, _, _), evaluation in zip(range_items, evaluations):
                payload = RangePartial(
                    result=evaluation.result,
                    statistics=evaluation.statistics,
                    elapsed_seconds=evaluation.elapsed_seconds,
                )
                results.append((position, (sid, payload)))
        for position, seq, query in nn_items:
            samples = query.samples if query.samples is not None else DEFAULT_NN_SAMPLES
            token = resolve_draw_token(self._config, query_fingerprint(query), seq)
            draws = nn_query_draws(
                query.issuer.pdf, samples, self._config.rng_seed, token
            )
            nn_engine = database.shard_pipeline(sid, self._config).nearest_engine(samples)
            oids, distances, stats = nn_engine.per_draw_winners(draws)
            payload = NNPartial(
                oids=oids,
                distances=distances,
                statistics=stats,
                elapsed_seconds=stats.response_time,
            )
            results.append((position, (sid, payload)))
        return results

    def _execute(
        self, tasks: dict[tuple[str, int], list[tuple[int, int, Query]]]
    ) -> list[tuple[int, tuple[int, RangePartial | NNPartial]]]:
        """Run the routed batches, shard by shard in ``(kind, sid)`` order."""
        return [
            result
            for (kind, sid), items in sorted(tasks.items())
            for result in self._execute_shard(kind, sid, items)
        ]

    # ------------------------------------------------------------------ #
    # Merging
    # ------------------------------------------------------------------ #
    @staticmethod
    def _merge_statistics(parts: list[EvaluationStatistics]) -> EvaluationStatistics:
        merged = EvaluationStatistics()
        for stats in parts:
            merged.response_time += stats.response_time
            merged.candidates_examined += stats.candidates_examined
            merged.probability_computations += stats.probability_computations
            merged.monte_carlo_samples += stats.monte_carlo_samples
            for strategy, count in stats.pruned.items():
                merged.record_pruned(strategy, count)
            merged.io.merge(stats.io)
        return merged

    def _merge(
        self, query: Query, contributions: list[tuple[int, RangePartial | NNPartial]]
    ) -> ParallelEvaluation:
        contributions = sorted(contributions, key=lambda item: item[0])
        timings = tuple(
            ShardTiming(sid=sid, seconds=payload.elapsed_seconds)
            for sid, payload in contributions
        )
        if isinstance(query, NearestNeighborQuery):
            result, stats = self._merge_nearest(query, contributions)
        elif len(contributions) == 1:
            # One contributing shard: its result *is* the query's (already
            # sorted), but the statistics are copied before the mutation
            # below — the payload's object may be aliased by pipeline-side
            # state, and a shared statistics object must never be edited.
            _, payload = contributions[0]
            result = payload.result
            stats = copy_statistics(payload.statistics)
        else:
            answers = []
            for _, payload in contributions:
                answers.extend(payload.result.answers)
            result = QueryResult(answers=answers)
            result.sort()
            stats = self._merge_statistics(
                [payload.statistics for _, payload in contributions]
            )
        stats.results_returned = len(result)
        elapsed = max((timing.seconds for timing in timings), default=0.0)
        return ParallelEvaluation(
            query=query,
            result=result,
            statistics=stats,
            elapsed_seconds=elapsed,
            shard_timings=timings,
        )

    def _merge_nearest(
        self, query: NearestNeighborQuery, contributions: list[tuple[int, NNPartial]]
    ) -> tuple[QueryResult, EvaluationStatistics]:
        """Combine per-shard per-draw winners into global win probabilities.

        For every draw of the shared per-query plan the globally nearest
        shard winner is kept (ties broken towards the smaller oid, the same
        order answers are ranked in); win counts over the draws then divide
        into probabilities exactly as in the single-shard engine.
        """
        stats = self._merge_statistics(
            [payload.statistics for _, payload in contributions]
        )
        result = QueryResult()
        if not contributions:
            return result, stats
        samples = query.samples if query.samples is not None else DEFAULT_NN_SAMPLES
        # The per-shard passes each draw the full plan, so the sample count
        # is a per-query quantity, not a per-shard one.
        stats.monte_carlo_samples = samples
        best_oids = contributions[0][1].oids.copy()
        best_distances = contributions[0][1].distances.copy()
        for _, payload in contributions[1:]:
            closer = payload.distances < best_distances
            tie = (payload.distances == best_distances) & (payload.oids < best_oids)
            take = closer | tie
            best_oids[take] = payload.oids[take]
            best_distances[take] = payload.distances[take]
        winners, counts = np.unique(best_oids, return_counts=True)
        stats.candidates_examined = int(winners.size)
        for oid, count in zip(winners, counts):
            probability = float(count) / samples
            if probability > 0.0 and probability >= query.threshold:
                result.add(int(oid), probability)
        result.sort()
        return result, stats
