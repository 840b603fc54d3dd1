"""The staged query pipeline shared by every engine.

All three execution paths — the serial
:class:`~repro.core.engine.ImpreciseQueryEngine`, per-shard execution inside
:class:`~repro.core.sharding.ShardedDatabase`, and the shard daemons of
:class:`~repro.rpc.engine.RemoteEngine` — answer queries by
running the exact same stages over a :class:`~repro.core.plan.QueryPlan`:

    plan ──► cache? ──► candidates ──► prune ──► evaluate ──► merge/rank
              │                                                  │
              └────────────── hit: serve stored answer ◄─────────┘
                              miss: fill after ranking

* **plan** compiles the query (:func:`repro.core.plan.compile_plan`): window,
  probe choice, pruner, draw token.
* **cache** consults the shared epoch-keyed
  :class:`~repro.core.cache.ResultCache` (when the configuration carries
  one) under the query's content fingerprint; a hit skips every later
  stage.
* **candidates** retrieves the window's candidates — on the vectorised
  backend a columnar window test of the snapshot (or, for a C-IUQ on a PTI
  and for a single ``evaluate``, a plain index probe mapped to snapshot
  rows), on the scalar reference backend an index probe (the PTI's
  threshold traversal for a C-IUQ on a PTI) — always re-ordered by
  ascending oid, so downstream stages are independent of the candidate
  source.
* **prune** applies the residual Section-5.2 threshold strategies (batched
  rectangle tests on the vectorized backend, the scalar ``decide`` loop as
  reference oracle).
* **evaluate** computes qualification probabilities for the survivors via
  the duality formulas — closed form where possible, Monte-Carlo under the
  plan's draw token otherwise.
* **merge/rank** sorts answers by decreasing probability, applies the
  threshold, and fills the cache.

One :class:`QueryPipeline` instance wraps one pair of databases plus a
configuration; engines own a pipeline instead of re-implementing the flow.
A shard's pipeline also answers the shard-side half of sharded execution
(:meth:`QueryPipeline.shard_partials`), for the in-process executor and
the shard daemons alike.  Every answer is cacheable: a query's Monte-Carlo
draws are a pure function of its content
(:func:`repro.core.plan.query_draw_token`), never of its position in the
workload, so replaying it reproduces the stored answer bitwise.
"""

from __future__ import annotations
from repro.core.errors import ConfigurationError, EngineStateError, InvalidArgumentError

import time
from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Iterable

import numpy as np

from repro.core.columnar import (
    PDF_UNIFORM,
    ColumnarPoints,
    ColumnarUncertain,
    points_in_window_mask,
)
from repro.core.duality import (
    ipq_probabilities,
    ipq_probabilities_monte_carlo_per_oid,
    ipq_probability,
    iuq_probabilities_exact_uniform,
    iuq_probabilities_monte_carlo_per_oid,
    iuq_probability,
    iuq_probability_exact_uniform,
)
from repro.core.database import PointDatabase, UncertainDatabase
from repro.core.nearest import ImpreciseNearestNeighborEngine, nn_query_draws
from repro.core.plan import (
    DEFAULT_NN_SAMPLES,
    QueryPlan,
    compile_plan,
    query_draw_token,
    query_fingerprint,
    resolved_nn_samples,
)
from repro.core.pruning import PruningStrategy
from repro.core.queries import (
    Evaluation,
    NearestNeighborQuery,
    Query,
    QueryResult,
    RangeQuery,
)
from repro.core.statistics import EvaluationStatistics
from repro.core.updates import UpdateBatch
from repro.index.registry import get_index_backend
from repro.uncertainty.pdf import UniformPdf
from repro.uncertainty.region import UncertainObject

__all__ = [
    "DEFAULT_NN_SAMPLES",
    "NNPartial",
    "QueryPipeline",
    "RangePartial",
    "partition_workload",
]


@dataclass
class RangePartial:
    """One shard's contribution to a range query: its ranked local answer."""

    result: QueryResult
    statistics: EvaluationStatistics
    elapsed_seconds: float


@dataclass
class NNPartial:
    """One shard's per-draw nearest-neighbour winners and their distances."""

    oids: np.ndarray
    distances: np.ndarray
    statistics: EvaluationStatistics
    elapsed_seconds: float


def partition_workload(
    items: Iterable[Query | UpdateBatch],
) -> list[tuple[str, list[Query] | UpdateBatch]]:
    """Validate a mixed query/update stream and group it into ordered runs.

    Returns ``("queries", [Query, ...])`` and ``("updates", UpdateBatch)``
    groups in input order, so every engine's ``evaluate_many`` applies an
    interleaved :class:`~repro.core.updates.UpdateBatch` at exactly its
    position in the stream (earlier queries see the old data, later ones the
    new) without re-implementing the splitting and validation.
    """
    materialised = list(items)
    for position, item in enumerate(materialised):
        if not isinstance(item, (RangeQuery, NearestNeighborQuery, UpdateBatch)):
            raise InvalidArgumentError(
                f"evaluate_many() only accepts RangeQuery, NearestNeighborQuery "
                f"and UpdateBatch objects; item {position} is {type(item).__name__!r}"
            )
    groups: list[tuple[str, list[Query] | UpdateBatch]] = []
    for item in materialised:
        if isinstance(item, UpdateBatch):
            groups.append(("updates", item))
        elif groups and groups[-1][0] == "queries":
            groups[-1][1].append(item)
        else:
            groups.append(("queries", [item]))
    return groups


def _indexed_by_pti(database: PointDatabase | UncertainDatabase) -> bool:
    """Whether ``database``'s index is a PTI, read off its kind so nothing is built."""
    try:
        backend = get_index_backend(database.kind)
    except ValueError:
        return False
    return backend.capabilities.supports_probability_pruning


class QueryPipeline:
    """Runs compiled query plans against one pair of databases.

    The pipeline is the single owner of the evaluation machinery the
    engines share: the cached nearest-neighbour samplers, the columnar
    batch filtering and the result-cache stage.  ``cache`` defaults to the
    configuration's :class:`~repro.core.cache.ResultCache`; pass
    ``cache=None`` to disable the stage for this pipeline regardless of the
    configuration — the parallel executor does this for its per-shard
    pipelines, because a shard's partial answers must never be cached as
    whole-query answers (the parent consults the cache instead, with
    per-shard epoch keys).
    """

    _CONFIG_CACHE = object()  # sentinel: "use config.cache"

    def __init__(
        self,
        *,
        point_db: PointDatabase | None = None,
        uncertain_db: UncertainDatabase | None = None,
        config,
        cache=_CONFIG_CACHE,
    ) -> None:
        if point_db is None and uncertain_db is None:
            raise ConfigurationError("the pipeline needs at least one database to query")
        self._point_db = point_db
        self._uncertain_db = uncertain_db
        self._config = config
        self._cache = config.cache if cache is self._CONFIG_CACHE else cache
        self._config_fingerprint = config.fingerprint()
        self._nn_engines: dict[tuple[int, int], ImpreciseNearestNeighborEngine] = {}
        # Build now every index this pipeline's batches probe, so no timed
        # query pays for a build: all of them on the scalar backend, only a
        # PTI on the vectorised one (its thresholded C-IUQs probe it).
        # Nearest-neighbour queries and single-query ``evaluate`` build the
        # point index on first use.
        for database in (point_db, uncertain_db):
            if database is not None and (not config.vectorized or _indexed_by_pti(database)):
                database.index  # the first read builds it

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def config(self):
        """The engine configuration the pipeline runs under."""
        return self._config

    @property
    def point_db(self) -> PointDatabase | None:
        """The point-object database, if any."""
        return self._point_db

    @property
    def uncertain_db(self) -> UncertainDatabase | None:
        """The uncertain-object database, if any."""
        return self._uncertain_db

    @property
    def cache(self):
        """The result cache consulted by this pipeline (``None`` = disabled)."""
        return self._cache

    def _require_point_db(self) -> PointDatabase:
        if self._point_db is None:
            raise EngineStateError("no point-object database configured")
        return self._point_db

    def _require_uncertain_db(self) -> UncertainDatabase:
        if self._uncertain_db is None:
            raise EngineStateError("no uncertain-object database configured")
        return self._uncertain_db

    def _use_monte_carlo(self, issuer: UncertainObject) -> bool:
        method = self._config.probability_method
        if method == "monte_carlo":
            return True
        if method == "exact":
            return False
        return not issuer.pdf.has_closed_form

    # ------------------------------------------------------------------ #
    # Cache stage
    # ------------------------------------------------------------------ #
    def _scope_key(self, target: str) -> Hashable:
        """Epoch component of the cache key for a serial (unsharded) pipeline.

        The database's never-recycled ``uid`` rides along with the epoch:
        engines over *different* collections may share one cache (they share
        an ``EngineConfig``), and equal epoch values across collections must
        not alias.
        """
        if target == "uncertain":
            database = self._require_uncertain_db()
            return ("db", "uncertain", database.uid, database.epoch)
        database = self._require_point_db()
        return ("db", "points", database.uid, database.epoch)

    def _cache_key(self, query: Query, fingerprint: str) -> Hashable:
        """The full cache key of one query — derivable without planning it.

        Built from the query's fingerprint (plus the epoch scope and
        configuration fingerprint) so the hit path never pays plan
        compilation: pruner construction eagerly computes the Minkowski and
        Qp-expanded regions, exactly the work a hit exists to skip.
        """
        target = "nearest" if isinstance(query, NearestNeighborQuery) else query.target
        return (self._scope_key(target), fingerprint, self._config_fingerprint)

    # ------------------------------------------------------------------ #
    # Batch entry point
    # ------------------------------------------------------------------ #
    def run_batch(
        self,
        batch: list[Query],
        *,
        use_snapshots: bool = True,
    ) -> list[Evaluation]:
        """Run a batch of queries, returning one evaluation per query in order.

        The batch path amortises work a per-query loop repeats: database
        presence checks run once per batch, the nearest-neighbour sampler is
        shared, and pruners are reused across queries with equal
        fingerprints.  With ``use_snapshots`` (and the
        vectorized backend) range queries filter candidates with one NumPy
        window test over the databases' columnar snapshots instead of a
        per-query index probe.  C-IUQs on a PTI still probe it: plainly,
        with their candidates mapped to snapshot rows (the threshold
        traversal only runs on the scalar reference backend).  Answers are
        identical either way because candidate processing is oid-ordered in
        every path; only ``statistics.io`` differs.

        Results — including Monte-Carlo draws — are identical to running the
        queries one at a time, in any order, because every draw is keyed by
        the query's content (:func:`repro.core.plan.query_draw_token`).
        """
        # Fail fast, before any query runs, when a required database is absent.
        targets = {query.target for query in batch if isinstance(query, RangeQuery)}
        if "points" in targets:
            self._require_point_db()
        if "uncertain" in targets:
            self._require_uncertain_db()
        if any(isinstance(query, NearestNeighborQuery) for query in batch):
            self._require_point_db()

        # One fingerprint per query keys the result cache, the repeat count
        # and the plan (pruner reuse, draw token).  Pruners own the
        # expanded-region construction, so equal queries share one.  The
        # pruner dict is only engaged for queries that actually repeat — a
        # workload of all-distinct queries (the common case) retains no
        # pruners.
        fingerprints = [query_fingerprint(query) for query in batch]
        repeats = Counter(fingerprints)
        pruners: dict[str, object] = {}
        point_snapshot: ColumnarPoints | None = None
        uncertain_snapshot: ColumnarUncertain | None = None
        if use_snapshots and self._config.vectorized and "points" in targets:
            point_snapshot = self._require_point_db().columnar()
        if use_snapshots and self._config.vectorized and "uncertain" in targets:
            uncertain_snapshot = self._require_uncertain_db().columnar()
        uncertain_pti = self._uncertain_db is not None and _indexed_by_pti(self._uncertain_db)

        evaluations: list[Evaluation] = []
        for query, fingerprint in zip(batch, fingerprints):
            started = time.perf_counter()
            # Cache stage first: a hit must skip every later stage,
            # including plan compilation (pruners build expanded regions
            # eagerly — exactly the repeated work a hit exists to avoid).
            key = None
            if self._cache is not None:
                key = self._cache_key(query, fingerprint)
                entry = self._cache.lookup(key)
                if entry is not None:
                    result, stats = entry.materialise()
                    evaluations.append(
                        Evaluation(
                            query=query,
                            result=result,
                            statistics=stats,
                            elapsed_seconds=time.perf_counter() - started,
                        )
                    )
                    continue
            pruner_cache = pruners if repeats[fingerprint] > 1 else None
            plan = compile_plan(
                query,
                self._config,
                uncertain_pti=uncertain_pti,
                pruner_cache=pruner_cache,
                fingerprint=fingerprint,
            )
            if plan.target == "nearest":
                result, stats = self._run_nearest(plan)
            elif plan.target == "points":
                result, stats = self._run_point_range(plan, columnar=point_snapshot)
            else:
                result, stats = self._run_uncertain_range(
                    plan, columnar=uncertain_snapshot
                )
            if key is not None:
                self._cache.store(key, None, result, stats)
            evaluations.append(
                Evaluation(
                    query=query,
                    result=result,
                    statistics=stats,
                    elapsed_seconds=time.perf_counter() - started,
                )
            )
        return evaluations

    # ------------------------------------------------------------------ #
    # Nearest-neighbour stage runner
    # ------------------------------------------------------------------ #
    def nearest_engine(self, samples: int) -> ImpreciseNearestNeighborEngine:
        """A cached nearest-neighbour sampler sharing the point database's index.

        The cache is keyed by ``(samples, database epoch)``: any live
        mutation of the point database bumps its epoch, so samplers built
        over the old object list are dropped instead of served stale.
        """
        database = self._require_point_db()
        key = (samples, database.epoch)
        engine = self._nn_engines.get(key)
        if engine is None:
            # Mutation invalidated the cache: shed samplers from past epochs.
            self._nn_engines = {
                cached_key: cached
                for cached_key, cached in self._nn_engines.items()
                if cached_key[1] == database.epoch
            }
            # Only an R-tree database's own index serves the sampler; the
            # index of any other kind is neither read nor built for it.
            index = database.index if database.kind == "rtree" else None
            engine = ImpreciseNearestNeighborEngine(
                database.objects,
                index=index,
                samples=samples,
                rng_seed=self._config.rng_seed,
            )
            self._nn_engines[key] = engine
        return engine

    def _nearest_draws(self, query: NearestNeighborQuery, draw_token: int) -> np.ndarray:
        samples = resolved_nn_samples(query)
        return nn_query_draws(query.issuer.pdf, samples, self._config.rng_seed, draw_token)

    def _run_nearest(self, plan: QueryPlan) -> tuple[QueryResult, EvaluationStatistics]:
        query = plan.query
        engine = self.nearest_engine(plan.samples)
        draws = self._nearest_draws(query, plan.draw_token)
        return engine.evaluate(query.issuer, threshold=query.threshold, draws=draws)

    # ------------------------------------------------------------------ #
    # Shard-side execution
    # ------------------------------------------------------------------ #
    def shard_partials(self, queries: list[Query]) -> list[RangePartial | NNPartial]:
        """This shard's partial answer to each routed query, in input order.

        The one shard executor of sharded execution: the in-process
        :class:`~repro.core.parallel.ParallelEngine` hands it the original
        queries, a shard daemon the queries rebuilt from their plan tokens.
        Range queries run as one :meth:`run_batch` (the shard's local answer
        is already ranked); nearest-neighbour queries report the shard's
        winner and its distance for every draw of the query's content-keyed
        draws, because their merge is a per-draw argmin across shards.
        """
        partials: list[RangePartial | NNPartial | None] = [None] * len(queries)
        ranged = [row for row, query in enumerate(queries) if isinstance(query, RangeQuery)]
        evaluations = self.run_batch([queries[row] for row in ranged])
        for row, evaluation in zip(ranged, evaluations):
            partials[row] = RangePartial(
                result=evaluation.result,
                statistics=evaluation.statistics,
                elapsed_seconds=evaluation.elapsed_seconds,
            )
        for row, query in enumerate(queries):
            if partials[row] is None:
                partials[row] = self._nearest_partial(query)
        return partials

    def _nearest_partial(self, query: NearestNeighborQuery) -> NNPartial:
        draws = self._nearest_draws(query, query_draw_token(query_fingerprint(query)))
        engine = self.nearest_engine(resolved_nn_samples(query))
        oids, distances, stats = engine.per_draw_winners(draws)
        return NNPartial(
            oids=oids,
            distances=distances,
            statistics=stats,
            elapsed_seconds=stats.response_time,
        )

    # ------------------------------------------------------------------ #
    # Range-query stage runners
    # ------------------------------------------------------------------ #
    def _run_point_range(
        self,
        plan: QueryPlan,
        *,
        columnar: ColumnarPoints | None = None,
    ) -> tuple[QueryResult, EvaluationStatistics]:
        """(C-)IPQ stages: candidates through the probe, prune, evaluate.

        ``columnar`` (batch path only) replaces the per-query index traversal
        with one NumPy window test over the snapshot; the candidate set is
        identical to an index range search, but no index I/O is performed, so
        ``stats.io`` stays zero.

        Candidates are processed in ascending oid order regardless of how the
        index traversal returned them, so results — including Monte-Carlo
        draw assignment — do not depend on the index kind or the candidate
        source.
        """
        issuer = plan.query.issuer
        spec = plan.query.spec
        threshold = plan.query.threshold
        pruner = plan.pruner
        database = self._require_point_db()
        started = time.perf_counter()
        stats = EvaluationStatistics()

        if self._config.vectorized:
            oids, probabilities = self._point_probabilities_vectorized(plan, stats, columnar)
            result = QueryResult.qualifying(oids, probabilities, threshold)
        else:
            index = database.index
            before = index.stats.snapshot()
            candidates = index.range_search(plan.window)
            stats.io = index.stats.difference_since(before)
            candidates.sort(key=lambda obj: obj.oid)
            stats.candidates_examined = len(candidates)
            result = QueryResult()
            survivors = []
            for obj in candidates:
                decision = pruner.decide(obj)
                if decision.pruned:
                    stats.record_pruned(decision.strategy or "filter")
                    continue
                survivors.append(obj)
            if survivors and self._use_monte_carlo(issuer):
                stats.probability_computations += len(survivors)
                stats.monte_carlo_samples += self._config.monte_carlo_samples * len(survivors)
                xy = np.array([(obj.location.x, obj.location.y) for obj in survivors])
                oids = np.array([obj.oid for obj in survivors], dtype=np.int64)
                probabilities = self._keyed_point_probabilities(plan, xy, oids)
                for obj, probability in zip(survivors, probabilities):
                    probability = float(probability)
                    if probability > 0.0 and probability >= threshold:
                        result.add(obj.oid, probability)
            else:
                for obj in survivors:
                    stats.probability_computations += 1
                    probability = ipq_probability(issuer.pdf, spec, obj.location)
                    if probability > 0.0 and probability >= threshold:
                        result.add(obj.oid, probability)
            result.sort()
        stats.results_returned = len(result)
        stats.response_time = time.perf_counter() - started
        return result, stats

    def _point_probabilities_vectorized(
        self,
        plan: QueryPlan,
        stats: EvaluationStatistics,
        columnar: ColumnarPoints | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Candidate oids and their IPQ probabilities, as arrays in oid order.

        The snapshot path never touches an object: window rows give the
        coordinates and oids directly.  The index path gathers both from
        the objects it returns and re-checks containment, because an index
        may return a superset of the window (the window used to retrieve
        candidates *is* the pruner's filter region).
        """
        if columnar is not None and plan.prefer_columnar:
            rows = columnar.window_rows(plan.window)
            rows = rows[np.argsort(columnar.oids[rows], kind="stable")]
            oids = columnar.oids[rows]
            xy = columnar.xy[rows]
        else:
            index = self._require_point_db().index
            before = index.stats.snapshot()
            candidates = index.range_search(plan.window)
            stats.io = index.stats.difference_since(before)
            candidates.sort(key=lambda obj: obj.oid)
            oids = np.array([obj.oid for obj in candidates], dtype=np.int64)
            xy = np.empty((len(candidates), 2), dtype=float)
            for row, obj in enumerate(candidates):
                xy[row, 0] = obj.location.x
                xy[row, 1] = obj.location.y
        stats.candidates_examined = len(oids)
        if columnar is None and len(oids) > 0:
            keep = points_in_window_mask(xy, plan.window)
            pruned_count = int(len(oids) - np.count_nonzero(keep))
            if pruned_count:
                stats.record_pruned(PruningStrategy.P_EXPANDED_QUERY.value, pruned_count)
                oids = oids[keep]
                xy = xy[keep]
        if not len(oids):
            return oids, np.empty(0, dtype=float)
        stats.probability_computations += len(oids)
        if self._use_monte_carlo(plan.query.issuer):
            stats.monte_carlo_samples += self._config.monte_carlo_samples * len(oids)
            return oids, self._keyed_point_probabilities(plan, xy, oids)
        return oids, ipq_probabilities(plan.query.issuer.pdf, plan.query.spec, xy)

    def _keyed_point_probabilities(
        self, plan: QueryPlan, xy: np.ndarray, oids: np.ndarray
    ) -> np.ndarray:
        """Sampled IPQ probabilities of the points ``xy`` under the plan's draw token."""
        return ipq_probabilities_monte_carlo_per_oid(
            plan.query.issuer.pdf,
            plan.query.spec,
            xy,
            oids,
            self._config.monte_carlo_samples,
            self._config.rng_seed,
            plan.draw_token,
        )

    def _run_uncertain_range(
        self,
        plan: QueryPlan,
        *,
        columnar: ColumnarUncertain | None = None,
    ) -> tuple[QueryResult, EvaluationStatistics]:
        """(C-)IUQ stages: candidates, prune, evaluate.

        The vectorised backend works on snapshot rows from the candidates
        to the kernel (:meth:`_uncertain_rows_vectorized`); the scalar
        reference backend probes the index — the PTI's threshold traversal
        when ``plan.use_pti`` — and walks objects.  Either way candidates
        are processed in ascending oid order, so results do not depend on
        the candidate source.
        """
        threshold = plan.query.threshold
        started = time.perf_counter()
        stats = EvaluationStatistics()
        if self._config.vectorized:
            oids, probabilities = self._uncertain_rows_vectorized(plan, stats, columnar)
        else:
            oids, probabilities = self._uncertain_objects_scalar(plan, stats)
        result = QueryResult.qualifying(oids, probabilities, threshold)
        stats.results_returned = len(result)
        stats.response_time = time.perf_counter() - started
        return result, stats

    def _uncertain_rows_vectorized(
        self,
        plan: QueryPlan,
        stats: EvaluationStatistics,
        columnar: ColumnarUncertain | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Survivor oids and their probabilities, computed on snapshot rows.

        The batch path scans ``plan.window`` over the snapshot (no index
        I/O, so ``stats.io`` stays zero) unless the plan probes the index
        (a C-IUQ on a PTI); that probe, and the one without a snapshot
        (single-query ``evaluate``), is a plain index probe of the window
        that yields oids off the leaves' oid columns, sorted and mapped to
        rows with :meth:`ColumnarUncertain.rows_of`.  Neither runs the
        PTI's threshold traversal: Strategy 1 runs per row in
        :meth:`_prune_rows`.
        """
        if columnar is not None and plan.prefer_columnar:
            rows = columnar.window_rows(plan.window)
            rows = rows[np.argsort(columnar.oids[rows], kind="stable")]
        else:
            database = self._require_uncertain_db()
            if columnar is None:
                columnar = database.columnar()
            index = database.index
            before = index.stats.snapshot()
            rows = columnar.rows_of(np.sort(index.range_search_oids(plan.window)))
            stats.io = index.stats.difference_since(before)
        stats.candidates_examined = len(rows)
        rows = self._prune_rows(plan, columnar, rows, stats)
        probabilities = self._uncertain_probabilities_vectorized(plan, columnar, rows, stats)
        return columnar.oids[rows], probabilities

    def _residual_strategies(self, threshold: float) -> tuple[PruningStrategy, ...]:
        """The configured strategies a plain window probe or scan leaves to run.

        A window that is the Qp-expanded query already applied Strategy 2.
        """
        configured = self._config.ciuq_strategies
        if self._config.use_p_expanded_query and threshold > 0.0:
            return tuple(s for s in configured if s is not PruningStrategy.P_EXPANDED_QUERY)
        return configured

    def _prune_rows(
        self,
        plan: QueryPlan,
        snapshot: ColumnarUncertain,
        rows: np.ndarray,
        stats: EvaluationStatistics,
    ) -> np.ndarray:
        """The candidate rows that survive the residual Section-5.2 strategies.

        All three strategies are rectangle predicates over the snapshot's
        bounds and catalog columns, so the batch runs through
        :meth:`CIUQPruner.decide_many` (same decisions and attribution as
        the scalar loop).  When the snapshot has no shared catalog levels
        and a catalog-based strategy is asked for, the scalar ``decide``
        runs on the candidates' objects instead.
        """
        pruner = plan.pruner
        strategies = self._residual_strategies(plan.query.threshold)
        if plan.query.threshold <= 0.0 or not len(rows) or not strategies:
            return rows
        levels = catalog_bounds = None
        if snapshot.catalog_bounds is not None:
            # Gather only the catalog levels the strategies read.
            start = pruner.catalog_start(snapshot.catalog_levels)
            levels = snapshot.catalog_levels[start:]
            catalog_bounds = snapshot.catalog_bounds[rows, start:]
        batched = pruner.decide_many(
            snapshot.bounds[rows], levels, catalog_bounds, strategies=strategies
        )
        if batched is None:
            keep = np.ones(len(rows), dtype=bool)
            for position, obj in enumerate(snapshot.objects_at(rows)):
                decision = pruner.decide(obj, strategies=strategies)
                if decision.pruned:
                    stats.record_pruned(decision.strategy or "filter")
                    keep[position] = False
            return rows[keep]
        keep, pruned_counts = batched
        if not pruned_counts:
            return rows
        for strategy_name, count in pruned_counts.items():
            stats.record_pruned(strategy_name, count)
        return rows[keep]

    def _uncertain_probabilities_vectorized(
        self,
        plan: QueryPlan,
        snapshot: ColumnarUncertain,
        rows: np.ndarray,
        stats: EvaluationStatistics,
    ) -> np.ndarray:
        """Qualification probabilities of the surviving rows, batched.

        Rows are routed by the snapshot's pdf-kind column, with the routing
        of :meth:`_uncertain_routes`: uniform issuer/target pairs take the
        batched closed form on the rows' bounds; every other row is sampled
        under ``auto``/``monte_carlo`` (draws keyed by the plan's token, so
        bitwise equal to the scalar backend) or takes the deterministic grid
        under ``exact``.  Only the sampled and grid rows are gathered as
        objects, because those kernels read each target's pdf.
        """
        if not len(rows):
            return np.empty(0, dtype=float)
        stats.probability_computations += len(rows)
        issuer, spec = plan.query.issuer, plan.query.spec
        method = self._config.probability_method
        if method != "monte_carlo" and isinstance(issuer.pdf, UniformPdf):
            closed = snapshot.kinds[rows] == PDF_UNIFORM
        else:
            closed = np.zeros(len(rows), dtype=bool)
        probabilities = np.empty(len(rows), dtype=float)
        if closed.any():
            probabilities[closed] = iuq_probabilities_exact_uniform(
                issuer.pdf, snapshot.bounds[rows[closed]], spec
            )
        others = np.flatnonzero(~closed)
        if not len(others):
            return probabilities
        targets = snapshot.objects_at(rows[others])
        if method == "exact":
            # No closed form: the deterministic grid keeps results
            # reproducible (same fallback as the scalar path).
            probabilities[others] = [
                iuq_probability(issuer.pdf, target, spec, grid_resolution=24)
                for target in targets
            ]
            return probabilities
        samples = self._config.monte_carlo_samples
        stats.monte_carlo_samples += samples * len(others)
        probabilities[others] = iuq_probabilities_monte_carlo_per_oid(
            issuer.pdf, targets, spec, samples, self._config.rng_seed, plan.draw_token
        )
        return probabilities

    def _uncertain_objects_scalar(
        self, plan: QueryPlan, stats: EvaluationStatistics
    ) -> tuple[np.ndarray, np.ndarray]:
        """Scalar-reference (C-)IUQ: index probe, ``decide`` loop, per-object kernels."""
        index = self._require_uncertain_db().index
        before = index.stats.snapshot()
        candidates, residual_strategies = self._retrieve_uncertain_candidates(index, plan)
        stats.io = index.stats.difference_since(before)
        candidates.sort(key=lambda obj: obj.oid)
        stats.candidates_examined = len(candidates)
        survivors = []
        for obj in candidates:
            decision = plan.pruner.decide(obj, strategies=residual_strategies)
            if decision.pruned:
                stats.record_pruned(decision.strategy or "filter")
                continue
            survivors.append(obj)
        probabilities = self._uncertain_probabilities_scalar(
            plan.query.issuer, survivors, plan.query.spec, stats, plan.draw_token
        )
        oids = np.fromiter((obj.oid for obj in survivors), dtype=np.int64, count=len(survivors))
        return oids, probabilities

    def _uncertain_routes(
        self, issuer: UncertainObject, survivors: list[UncertainObject]
    ) -> tuple[list[int], list[int], list[int]]:
        """Partition survivors by evaluation route: (monte_carlo, exact, grid).

        The routing mirrors the per-object dispatch the engine has always
        used: uniform issuer/target pairs get the closed form, everything
        else is sampled under ``auto``/``monte_carlo``, and ``exact`` without
        a closed form falls back to the deterministic grid.
        """
        method = self._config.probability_method
        if method == "monte_carlo":
            return list(range(len(survivors))), [], []
        issuer_uniform = isinstance(issuer.pdf, UniformPdf)
        mc_rows: list[int] = []
        exact_rows: list[int] = []
        grid_rows: list[int] = []
        for row, obj in enumerate(survivors):
            exact_possible = issuer_uniform and isinstance(obj.pdf, UniformPdf)
            if method == "auto" and not exact_possible:
                mc_rows.append(row)
            elif exact_possible:
                exact_rows.append(row)
            else:
                grid_rows.append(row)
        return mc_rows, exact_rows, grid_rows

    def _uncertain_probabilities_scalar(
        self,
        issuer: UncertainObject,
        survivors: list[UncertainObject],
        spec,
        stats: EvaluationStatistics,
        draw_token: int,
    ) -> np.ndarray:
        """Scalar-reference twin of :meth:`_uncertain_probabilities_vectorized`.

        Same routing and the same Monte-Carlo draws, but every closed-form
        probability is evaluated with a per-object loop — this is the oracle
        the parity suite compares the batched kernels against.
        """
        if not survivors:
            return np.empty(0, dtype=float)
        stats.probability_computations += len(survivors)
        mc_rows, exact_rows, grid_rows = self._uncertain_routes(issuer, survivors)
        probabilities = np.empty(len(survivors), dtype=float)
        if mc_rows:
            samples = self._config.monte_carlo_samples
            stats.monte_carlo_samples += samples * len(mc_rows)
            targets = [survivors[row] for row in mc_rows]
            probabilities[mc_rows] = iuq_probabilities_monte_carlo_per_oid(
                issuer.pdf, targets, spec, samples, self._config.rng_seed, draw_token
            )
        for row in exact_rows:
            probabilities[row] = iuq_probability_exact_uniform(
                issuer.pdf, survivors[row], spec
            )
        for row in grid_rows:
            probabilities[row] = iuq_probability(
                issuer.pdf, survivors[row], spec, grid_resolution=24
            )
        return probabilities

    def _retrieve_uncertain_candidates(
        self, index, plan: QueryPlan
    ) -> tuple[list[UncertainObject], tuple[PruningStrategy, ...]]:
        """Index probe of a scalar-backend (C-)IUQ plan.

        * ``plan.use_pti`` (a PTI, Qp > 0): the threshold traversal —
          node- and entry-level Strategy 1 against the Minkowski window,
          plus Strategy 2 against the Qp-expanded query when it is on
          (Figure 12's "PTI + p-expanded-query").  The strategies the index
          already applied are removed from the per-object pass — re-running
          them would test the same rounded-level conditions on the same
          rectangles.
        * Any other plan: a plain probe of the plan's window (the
          Qp-expanded query when enabled, otherwise the Minkowski sum).

        Returns the candidates and the strategies still to be applied per
        object.
        """
        pruner = plan.pruner
        if plan.use_pti:
            p_window = (
                pruner.qp_expanded_region if self._config.use_p_expanded_query else None
            )
            candidates = index.range_search_with_threshold(
                pruner.minkowski_region, plan.query.threshold, p_window
            )
            applied = {PruningStrategy.P_BOUND}
            if p_window is not None:
                applied.add(PruningStrategy.P_EXPANDED_QUERY)
            residual = tuple(s for s in self._config.ciuq_strategies if s not in applied)
            return candidates, residual
        return index.range_search(plan.window), self._residual_strategies(plan.query.threshold)
