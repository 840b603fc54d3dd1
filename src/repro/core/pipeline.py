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

* **plan** compiles the query (:func:`repro.core.plan.plan_query`): window,
  probe choice, pruner, draw-plan slot.
* **cache** consults the shared epoch-keyed
  :class:`~repro.core.cache.ResultCache` (when the configuration carries
  one) under the query's content fingerprint; a hit skips every later
  stage.
* **candidates** retrieves the window's objects — an index probe (with PTI
  node-level threshold pruning when engaged) or a columnar window test on
  the batch path — always re-ordered by ascending oid, so downstream stages
  are independent of the candidate source.
* **prune** applies the residual Section-5.2 threshold strategies (batched
  rectangle tests on the vectorized backend, the scalar ``decide`` loop as
  reference oracle).
* **evaluate** computes qualification probabilities for the survivors via
  the duality formulas — closed form where possible, Monte-Carlo under the
  plan's draw token otherwise.
* **merge/rank** sorts answers by decreasing probability, applies the
  threshold, and (when the plan is replay-deterministic) fills the cache.

One :class:`QueryPipeline` instance wraps one pair of databases plus a
configuration; engines own a pipeline instead of re-implementing the flow.
A cache fill only happens when replaying the query later is guaranteed to
reproduce the stored answer bitwise: always for draw-free (closed-form)
evaluations, and for sampled ones only under ``draw_plan="query_keyed"``,
where draws are a pure function of the query's content rather than its
position in the workload.
"""

from __future__ import annotations
from repro.core.errors import ConfigurationError, EngineStateError, InvalidArgumentError

import time
from collections import Counter
from typing import Hashable, Iterable

import numpy as np

from repro.core.columnar import (
    ColumnarPoints,
    ColumnarUncertain,
    points_in_window_mask,
)
from repro.core.duality import (
    ipq_probabilities,
    ipq_probabilities_monte_carlo,
    ipq_probabilities_monte_carlo_per_oid,
    ipq_probability,
    iuq_probabilities_exact_uniform,
    iuq_probabilities_monte_carlo,
    iuq_probabilities_monte_carlo_per_oid,
    iuq_probability,
    iuq_probability_exact_uniform,
    monte_carlo_iuq_draws,
)
from repro.core.cache import fill_allowed
from repro.core.database import PointDatabase, UncertainDatabase
from repro.core.nearest import ImpreciseNearestNeighborEngine, nn_query_draws
from repro.core.plan import (
    DEFAULT_NN_SAMPLES,
    QueryPlan,
    plan_query,
    query_fingerprint,
)
from repro.core.pruning import CIUQPruner, PruningStrategy
from repro.core.queries import (
    Evaluation,
    NearestNeighborQuery,
    Query,
    QueryResult,
    RangeQuery,
)
from repro.core.statistics import EvaluationStatistics
from repro.core.updates import UpdateBatch
from repro.index.rtree import RTree
from repro.uncertainty.pdf import UniformPdf
from repro.uncertainty.region import UncertainObject

__all__ = [
    "DEFAULT_NN_SAMPLES",
    "QueryPipeline",
    "partition_workload",
]


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


class QueryPipeline:
    """Runs compiled query plans against one pair of databases.

    The pipeline is the single owner of the evaluation machinery the
    engines share: the stream random generator, the cached
    nearest-neighbour samplers, the columnar batch filtering and the
    result-cache stage.  ``cache`` defaults to the configuration's
    :class:`~repro.core.cache.ResultCache`; pass ``cache=None`` to disable
    the stage for this pipeline regardless of the configuration — the
    parallel executor does this for its per-shard pipelines, because a
    shard's partial answers must never be cached as whole-query answers
    (the parent consults the cache instead, with per-shard epoch keys).
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
        self._rng = np.random.default_rng(config.rng_seed)
        self._nn_engines: dict[tuple[int, int], ImpreciseNearestNeighborEngine] = {}

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
        seqs: list[int],
        *,
        use_snapshots: bool = True,
    ) -> list[Evaluation]:
        """Run a batch of queries (with caller-assigned sequence numbers).

        The batch path amortises work a per-query loop repeats: database
        presence checks run once per batch, the nearest-neighbour sampler is
        shared, and pruners are reused across queries with equal
        fingerprints.  With ``use_snapshots`` (and the
        vectorized backend) range queries filter candidates with one NumPy
        window test over the databases' columnar snapshots instead of a
        per-query index traversal (PTI-engaged plans keep the index — its
        node-level pruning is the feature under study).  Answers are
        identical either way because candidate processing is oid-ordered in
        every path; only ``statistics.io`` differs.

        Results — including Monte-Carlo draws — are identical to running the
        queries one at a time with the same sequence numbers, because
        queries execute in input order against the same random generator.
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
        uncertain_index = (
            self._uncertain_db.index if self._uncertain_db is not None else None
        )

        evaluations: list[Evaluation] = []
        for query, fingerprint, seq in zip(batch, fingerprints, seqs):
            started = time.perf_counter()
            # Cache stage first: a hit must skip every later stage,
            # including plan compilation (pruners build expanded regions
            # eagerly — exactly the repeated work a hit exists to avoid).
            key = None
            if self._cache is not None and fingerprint is not None:
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
            plan = plan_query(
                query,
                seq,
                self._config,
                uncertain_index=uncertain_index,
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
            if key is not None and fill_allowed(self._config.draw_plan, stats):
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
            index = database.index if isinstance(database.index, RTree) else None
            engine = ImpreciseNearestNeighborEngine(
                database.objects,
                index=index,
                samples=samples,
                rng_seed=self._config.rng_seed,
            )
            self._nn_engines[key] = engine
        return engine

    def _run_nearest(self, plan: QueryPlan) -> tuple[QueryResult, EvaluationStatistics]:
        query = plan.query
        engine = self.nearest_engine(plan.samples)
        if plan.draw_token is not None:
            draws = nn_query_draws(
                query.issuer.pdf, plan.samples, self._config.rng_seed, plan.draw_token
            )
            return engine.evaluate(query.issuer, threshold=query.threshold, draws=draws)
        return engine.evaluate(query.issuer, threshold=query.threshold)

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

        vectorized = self._config.vectorized
        candidate_xy: np.ndarray | None = None
        if columnar is not None and plan.prefer_columnar:
            rows = columnar.window_rows(plan.window)
            rows = rows[np.argsort(columnar.oids[rows], kind="stable")]
            candidates = [columnar.objects[row] for row in rows]
            candidate_xy = columnar.xy[rows]
        else:
            index = database.index
            before = index.stats.snapshot()
            candidates = index.range_search(plan.window)
            stats.io = index.stats.difference_since(before)
            candidates.sort(key=lambda obj: obj.oid)
        stats.candidates_examined = len(candidates)

        result = QueryResult()
        if vectorized:
            if candidate_xy is None:
                candidate_xy = np.empty((len(candidates), 2), dtype=float)
                for row, obj in enumerate(candidates):
                    candidate_xy[row, 0] = obj.location.x
                    candidate_xy[row, 1] = obj.location.y
            # The window used to retrieve candidates *is* the pruner's filter
            # region, so the per-object containment re-check only matters for
            # indexes that may return a superset of the window.
            survivors = candidates
            survivor_xy = candidate_xy
            if columnar is None and len(candidates) > 0:
                keep = points_in_window_mask(candidate_xy, plan.window)
                pruned_count = int(len(candidates) - np.count_nonzero(keep))
                if pruned_count:
                    stats.record_pruned(PruningStrategy.P_EXPANDED_QUERY.value, pruned_count)
                    rows = np.flatnonzero(keep)
                    survivors = [candidates[row] for row in rows]
                    survivor_xy = candidate_xy[rows]
            if survivors:
                stats.probability_computations += len(survivors)
                if self._use_monte_carlo(issuer):
                    samples = self._config.monte_carlo_samples
                    stats.monte_carlo_samples += samples * len(survivors)
                    if plan.draw_token is not None:
                        probabilities = ipq_probabilities_monte_carlo_per_oid(
                            issuer.pdf,
                            spec,
                            survivor_xy,
                            np.fromiter(
                                (obj.oid for obj in survivors),
                                dtype=np.int64,
                                count=len(survivors),
                            ),
                            samples,
                            self._config.rng_seed,
                            plan.draw_token,
                        )
                    else:
                        probabilities = ipq_probabilities_monte_carlo(
                            issuer.pdf, spec, survivor_xy, samples, self._rng
                        )
                else:
                    probabilities = ipq_probabilities(issuer.pdf, spec, survivor_xy)
                for obj, probability in zip(survivors, probabilities):
                    probability = float(probability)
                    if probability > 0.0 and probability >= threshold:
                        result.add(obj.oid, probability)
        else:
            survivors = []
            for obj in candidates:
                decision = pruner.decide(obj)
                if decision.pruned:
                    stats.record_pruned(decision.strategy or "filter")
                    continue
                survivors.append(obj)
            if survivors and self._use_monte_carlo(issuer):
                samples = self._config.monte_carlo_samples
                if plan.draw_token is not None:
                    # The per-oid plan is inherently per-object, so both
                    # backends share the exact same helper.
                    locations = np.empty((len(survivors), 2), dtype=float)
                    for i, obj in enumerate(survivors):
                        locations[i, 0] = obj.location.x
                        locations[i, 1] = obj.location.y
                    stats.probability_computations += len(survivors)
                    stats.monte_carlo_samples += samples * len(survivors)
                    probabilities = ipq_probabilities_monte_carlo_per_oid(
                        issuer.pdf,
                        spec,
                        locations,
                        np.fromiter(
                            (obj.oid for obj in survivors),
                            dtype=np.int64,
                            count=len(survivors),
                        ),
                        samples,
                        self._config.rng_seed,
                        plan.draw_token,
                    )
                    for obj, probability in zip(survivors, probabilities):
                        probability = float(probability)
                        if probability > 0.0 and probability >= threshold:
                            result.add(obj.oid, probability)
                else:
                    # Same per-query draw plan as the vectorized backend (one
                    # batched issuer draw), evaluated with a scalar per-object
                    # loop — probabilities are bitwise identical across backends.
                    draws = issuer.pdf.sample_batch(self._rng, samples, len(survivors))
                    for i, obj in enumerate(survivors):
                        stats.probability_computations += 1
                        stats.monte_carlo_samples += samples
                        dx = np.abs(draws[i, :, 0] - obj.location.x)
                        dy = np.abs(draws[i, :, 1] - obj.location.y)
                        inside = (dx <= spec.half_width) & (dy <= spec.half_height)
                        probability = float(np.count_nonzero(inside)) / samples
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

    def _run_uncertain_range(
        self,
        plan: QueryPlan,
        *,
        columnar: ColumnarUncertain | None = None,
    ) -> tuple[QueryResult, EvaluationStatistics]:
        """(C-)IUQ stages: candidates through the probe, prune, evaluate.

        See :meth:`_run_point_range` for the ``columnar`` batch-path
        contract; as there, candidates are processed in ascending oid order
        so results do not depend on the candidate source.  The columnar
        window filter only replaces plain window probes — a PTI-engaged plan
        keeps the index traversal (its node-level pruning is the feature
        under study).
        """
        issuer = plan.query.issuer
        spec = plan.query.spec
        threshold = plan.query.threshold
        pruner = plan.pruner
        database = self._require_uncertain_db()
        started = time.perf_counter()
        stats = EvaluationStatistics()
        index = database.index
        snapshot_rows: np.ndarray | None = None
        if columnar is not None and plan.prefer_columnar:
            rows = columnar.window_rows(plan.window)
            rows = rows[np.argsort(columnar.oids[rows], kind="stable")]
            snapshot_rows = rows
            candidates = [columnar.objects[row] for row in rows]
            if self._config.use_p_expanded_query and threshold > 0.0:
                residual_strategies = tuple(
                    s
                    for s in self._config.ciuq_strategies
                    if s is not PruningStrategy.P_EXPANDED_QUERY
                )
            else:
                residual_strategies = self._config.ciuq_strategies
        else:
            before = index.stats.snapshot()
            candidates, residual_strategies = self._retrieve_uncertain_candidates(
                index, plan, pruner, threshold
            )
            stats.io = index.stats.difference_since(before)
            candidates.sort(key=lambda obj: obj.oid)
        stats.candidates_examined = len(candidates)

        result = QueryResult()
        if self._config.vectorized:
            survivors, survivor_bounds = self._prune_uncertain_vectorized(
                candidates,
                pruner,
                residual_strategies,
                threshold,
                stats,
                snapshot=columnar,
                snapshot_rows=snapshot_rows,
            )
            pairs = self._uncertain_probabilities_vectorized(
                issuer, survivors, spec, stats, plan.draw_token, bounds=survivor_bounds
            )
        else:
            survivors = []
            for obj in candidates:
                decision = pruner.decide(obj, strategies=residual_strategies)
                if decision.pruned:
                    stats.record_pruned(decision.strategy or "filter")
                    continue
                survivors.append(obj)
            pairs = self._uncertain_probabilities_scalar(
                issuer, survivors, spec, stats, plan.draw_token
            )
        for oid, probability in pairs:
            if probability > 0.0 and probability >= threshold:
                result.add(oid, probability)
        result.sort()
        stats.results_returned = len(result)
        stats.response_time = time.perf_counter() - started
        return result, stats

    def _prune_uncertain_vectorized(
        self,
        candidates: list[UncertainObject],
        pruner: CIUQPruner,
        strategies: tuple[PruningStrategy, ...],
        threshold: float,
        stats: EvaluationStatistics,
        *,
        snapshot: ColumnarUncertain | None = None,
        snapshot_rows: np.ndarray | None = None,
    ) -> tuple[list[UncertainObject], np.ndarray | None]:
        """Apply the residual pruning strategies as batched rectangle tests.

        All three Section-5.2 strategies are pure rectangle predicates once
        the candidates' region bounds and catalog bound rectangles are
        available as arrays, so the whole batch runs through
        :meth:`CIUQPruner.decide_many` (same decisions, same per-strategy
        attribution as the scalar loop).  When the columnar snapshot cannot
        serve a catalog-based strategy (heterogeneous or missing catalogs),
        the scalar ``decide`` loop runs instead.

        ``snapshot_rows`` are the candidates' snapshot rows when the caller
        already knows them (columnar retrieval); otherwise they are resolved
        by oid.  Returns the survivors together with their region bounds
        ``(K, 4)`` (``None`` when no bounds array was materialised).
        """
        if threshold <= 0.0 or not candidates or not strategies:
            survivor_bounds = (
                snapshot.bounds[snapshot_rows]
                if snapshot is not None and snapshot_rows is not None
                else None
            )
            return list(candidates), survivor_bounds
        if snapshot is None:
            snapshot = self._require_uncertain_db().columnar()
        rows = snapshot_rows
        if rows is None:
            try:
                rows = snapshot.rows_for(candidates)
            except ValueError:
                # Candidates from a foreign collection (hand-wired database):
                # fall back to materialising their bounds directly.
                rows = None
        if rows is not None:
            bounds = snapshot.bounds[rows]
            catalog_levels = snapshot.catalog_levels
            catalog_bounds = (
                snapshot.catalog_bounds[rows]
                if snapshot.catalog_bounds is not None
                else None
            )
        else:
            bounds = np.empty((len(candidates), 4), dtype=float)
            for row, obj in enumerate(candidates):
                bounds[row] = obj.region.as_tuple()
            catalog_levels = None
            catalog_bounds = None
        batched = pruner.decide_many(
            bounds, catalog_levels, catalog_bounds, strategies=strategies
        )
        if batched is None:
            survivors = []
            for obj in candidates:
                decision = pruner.decide(obj, strategies=strategies)
                if decision.pruned:
                    stats.record_pruned(decision.strategy or "filter")
                else:
                    survivors.append(obj)
            return survivors, None
        keep, pruned_counts = batched
        if not pruned_counts:
            return list(candidates), bounds
        for strategy_name, count in pruned_counts.items():
            stats.record_pruned(strategy_name, count)
        kept_rows = np.flatnonzero(keep)
        return [candidates[row] for row in kept_rows], bounds[kept_rows]

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

    def _uncertain_probabilities_vectorized(
        self,
        issuer: UncertainObject,
        survivors: list[UncertainObject],
        spec,
        stats: EvaluationStatistics,
        draw_token: int | None,
        *,
        bounds: np.ndarray | None = None,
    ) -> list[tuple[int, float]]:
        """Qualification probabilities of the surviving candidates, batched.

        Survivors are partitioned by evaluation route — batched closed form
        for uniform issuer/target pairs, batched Monte-Carlo for sampled
        pairs, the deterministic grid fallback for ``exact`` without a closed
        form — and each batch runs as one NumPy kernel.  Monte-Carlo draws
        come from the plan's draw token (or the shared per-query streaming
        plan), so sampled probabilities are bitwise identical to the scalar
        backend given the same seed.  Returns ``(oid, probability)`` pairs in
        survivor order.
        """
        if not survivors:
            return []
        stats.probability_computations += len(survivors)
        mc_rows, exact_rows, grid_rows = self._uncertain_routes(issuer, survivors)
        probabilities = np.empty(len(survivors), dtype=float)
        if mc_rows:
            samples = self._config.monte_carlo_samples
            stats.monte_carlo_samples += samples * len(mc_rows)
            all_mc = len(mc_rows) == len(survivors)
            if draw_token is not None:
                probabilities[mc_rows] = iuq_probabilities_monte_carlo_per_oid(
                    issuer.pdf,
                    survivors if all_mc else [survivors[row] for row in mc_rows],
                    spec,
                    samples,
                    self._config.rng_seed,
                    draw_token,
                )
            else:
                probabilities[mc_rows] = iuq_probabilities_monte_carlo(
                    issuer.pdf,
                    survivors if all_mc else [survivors[row] for row in mc_rows],
                    spec,
                    samples,
                    self._rng,
                    target_bounds=(
                        bounds if all_mc else bounds[mc_rows]
                    ) if bounds is not None else None,
                )
        if exact_rows:
            if bounds is not None:
                exact_bounds = bounds[exact_rows]
            else:
                exact_bounds = np.empty((len(exact_rows), 4), dtype=float)
                for i, row in enumerate(exact_rows):
                    exact_bounds[i] = survivors[row].region.as_tuple()
            probabilities[exact_rows] = iuq_probabilities_exact_uniform(
                issuer.pdf, exact_bounds, spec
            )
        for row in grid_rows:
            # method == "exact" without a closed form: the deterministic grid
            # keeps results reproducible (same fallback as the scalar path).
            probabilities[row] = iuq_probability(
                issuer.pdf, survivors[row], spec, grid_resolution=24
            )
        return [
            (obj.oid, float(probability))
            for obj, probability in zip(survivors, probabilities)
        ]

    def _uncertain_probabilities_scalar(
        self,
        issuer: UncertainObject,
        survivors: list[UncertainObject],
        spec,
        stats: EvaluationStatistics,
        draw_token: int | None,
    ) -> list[tuple[int, float]]:
        """Scalar-reference twin of :meth:`_uncertain_probabilities_vectorized`.

        Same routing and the same Monte-Carlo draw plan, but every
        probability is evaluated with a per-object loop — this is the oracle
        the parity suite compares the batched kernels against.
        """
        if not survivors:
            return []
        stats.probability_computations += len(survivors)
        mc_rows, exact_rows, grid_rows = self._uncertain_routes(issuer, survivors)
        probabilities = np.empty(len(survivors), dtype=float)
        if mc_rows:
            samples = self._config.monte_carlo_samples
            stats.monte_carlo_samples += samples * len(mc_rows)
            targets = [survivors[row] for row in mc_rows]
            if draw_token is not None:
                # The per-oid plan is inherently per-object, so both backends
                # share the exact same helper.
                probabilities[mc_rows] = iuq_probabilities_monte_carlo_per_oid(
                    issuer.pdf, targets, spec, samples, self._config.rng_seed, draw_token
                )
            else:
                issuer_draws, target_draws = monte_carlo_iuq_draws(
                    issuer.pdf, targets, samples, self._rng
                )
                for i, row in enumerate(mc_rows):
                    dx = np.abs(target_draws[i, :, 0] - issuer_draws[i, :, 0])
                    dy = np.abs(target_draws[i, :, 1] - issuer_draws[i, :, 1])
                    inside = (dx <= spec.half_width) & (dy <= spec.half_height)
                    probabilities[row] = float(np.count_nonzero(inside)) / samples
        for row in exact_rows:
            probabilities[row] = iuq_probability_exact_uniform(
                issuer.pdf, survivors[row], spec
            )
        for row in grid_rows:
            probabilities[row] = iuq_probability(
                issuer.pdf, survivors[row], spec, grid_resolution=24
            )
        return [
            (obj.oid, float(probability))
            for obj, probability in zip(survivors, probabilities)
        ]

    def _retrieve_uncertain_candidates(
        self, index, plan: QueryPlan, pruner: CIUQPruner, threshold: float
    ) -> tuple[list[UncertainObject], tuple[PruningStrategy, ...]]:
        """Index probe for (C-)IUQ plans.

        * PTI engaged (``plan.use_pti``): node-level Strategy-1 pruning
          against the Minkowski window plus Strategy-2 pruning against the
          Qp-expanded-query (Figure 12's "PTI + p-expanded-query").  The
          strategies the index already applied per entry are removed from the
          per-object pass — re-running them would test the exact same
          rounded-level conditions on the exact same rectangles.
        * Any other index: a plain window probe of the plan's candidate
          window (the Qp-expanded-query when enabled, otherwise the
          Minkowski sum).

        Returns the candidates and the strategies still to be applied per
        object.
        """
        configured = self._config.ciuq_strategies
        if plan.use_pti:
            p_window = (
                pruner.qp_expanded_region if self._config.use_p_expanded_query else None
            )
            candidates = index.range_search_with_threshold(
                pruner.minkowski_region, threshold, p_window
            )
            applied = {PruningStrategy.P_BOUND}
            if p_window is not None:
                applied.add(PruningStrategy.P_EXPANDED_QUERY)
            residual = tuple(s for s in configured if s not in applied)
            return candidates, residual
        candidates = index.range_search(plan.window)
        if self._config.use_p_expanded_query and threshold > 0.0:
            # The window probe already discarded objects outside the
            # Qp-expanded-query, i.e. it applied Strategy 2.
            residual = tuple(
                s for s in configured if s is not PruningStrategy.P_EXPANDED_QUERY
            )
            return candidates, residual
        return candidates, configured
