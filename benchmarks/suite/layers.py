"""Per-layer replay: one sample of queries through each layer's public calls.

Every layer is measured **from outside**: harness code times calls into the
functions the layer exports (``plan_query``, ``window_rows``,
``range_search``, ``decide_many``, the duality kernels, the wire codecs) on
the same queries the served phase sends.  Spans inside ``src/`` are a later
change.  Per query the replay records one ``replay.request`` span whose
children are the layer calls; the staged engine calls (plan, filter, prune,
kernel) are children of a whole-call ``core.engine.evaluate`` span, so the
engine's self time — result building, sorting, statistics, Python glue — is
that span minus its children.

The whole call runs first (``Session.evaluate_many`` in batches of 8, the
wave size the closed loop produces; each query's span is an equal slice of
its batch) and the stages are then replayed one query at a time, so child
spans follow their parent in time instead of nesting inside it.
"""

from __future__ import annotations

import asyncio
import json
import statistics

import numpy as np

from benchmarks.suite.trace import Tracer, clock
from benchmarks.suite.workloads import WorkloadSpec
from repro.core.cache import ResultCache
from repro.core.duality import (
    ipq_probabilities,
    ipq_probabilities_monte_carlo_per_oid,
    iuq_probabilities_exact_uniform,
)
from repro.core.expansion import minkowski_expanded_query
from repro.core.plan import plan_query, query_cache_key
from repro.core.pruning import PruningStrategy
from repro.core.queries import Evaluation, RangeQuery, query_from_dict
from repro.core.session import Session
from repro.core.sharding import ShardedDatabase
from repro.core.updates import UpdateBatch
from repro.serve.framing import encode_json_line
from repro.serve.schemas import decode_request, decode_response, ok_response, request_envelope
from repro.serve.server import QueryServer

#: Queries per ``evaluate_many`` call in the replay (the closed loop's wave).
REPLAY_BATCH = 8

_US = 1e6


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


class _Stages:
    """Seconds one leaf database spent in each engine stage for one query."""

    __slots__ = ("window", "search", "node_accesses", "prune", "kernel", "survivors", "columnar")

    def __init__(self) -> None:
        self.window = self.search = self.prune = self.kernel = 0.0
        self.node_accesses = 0
        self.survivors = 0
        self.columnar = True

    @property
    def filter(self) -> float:
        """The filter the plan selects: columnar scan or index probe."""
        return self.window if self.columnar else self.search

    @property
    def total(self) -> float:
        return self.filter + self.prune + self.kernel


def _replay_leaf(plan, database, config) -> _Stages:
    """Time filter, prune and kernel of ``plan`` on one (shard) database."""
    stages = _Stages()
    stages.columnar = plan.prefer_columnar
    query = plan.query
    snapshot = database.columnar()
    index = database.index

    started = clock()
    rows = snapshot.window_rows(plan.window)
    stages.window = clock() - started

    before = index.stats.snapshot()
    started = clock()
    if plan.use_pti:
        p_window = plan.pruner.qp_expanded_region if config.use_p_expanded_query else None
        candidates = index.range_search_with_threshold(
            plan.pruner.minkowski_region, query.threshold, p_window
        )
    else:
        candidates = index.range_search(plan.window)
    stages.search = clock() - started
    stages.node_accesses = index.stats.difference_since(before).node_accesses

    if query.target == "points":
        # The window *is* the C-IPQ filter region: nothing left to prune.
        stages.survivors = len(rows)
        if len(rows):
            xy = snapshot.xy[rows]
            started = clock()
            if config.probability_method == "monte_carlo":
                ipq_probabilities_monte_carlo_per_oid(
                    query.issuer.pdf,
                    query.spec,
                    xy,
                    snapshot.oids[rows],
                    config.monte_carlo_samples,
                    config.rng_seed,
                    plan.draw_token,
                )
            else:
                ipq_probabilities(query.issuer.pdf, query.spec, xy)
            stages.kernel = clock() - started
        return stages

    if not plan.prefer_columnar:
        rows = snapshot.rows_for(candidates)
    applied = set()
    if plan.use_pti:
        applied.add(PruningStrategy.P_BOUND)
    if config.use_p_expanded_query and query.threshold > 0.0:
        applied.add(PruningStrategy.P_EXPANDED_QUERY)
    residual = tuple(s for s in config.ciuq_strategies if s not in applied)
    bounds = snapshot.bounds[rows]
    if query.threshold > 0.0 and len(rows) and residual:
        catalog_bounds = (
            snapshot.catalog_bounds[rows] if snapshot.catalog_bounds is not None else None
        )
        started = clock()
        decided = plan.pruner.decide_many(
            bounds, snapshot.catalog_levels, catalog_bounds, strategies=residual
        )
        stages.prune = clock() - started
        if decided is not None:
            bounds = bounds[np.flatnonzero(decided[0])]
    stages.survivors = len(bounds)
    if len(bounds):
        started = clock()
        iuq_probabilities_exact_uniform(query.issuer.pdf, bounds, query.spec)
        stages.kernel = clock() - started
    return stages


def replay(
    spec: WorkloadSpec, session: Session, sample: list[RangeQuery], tracer: Tracer
) -> dict[str, float]:
    """Run ``sample`` through every layer's public calls; returns layer metrics."""
    engine = session.engine
    config = engine.config
    database = session.point_db if spec.target == "points" else session.uncertain_db
    sharded = isinstance(database, ShardedDatabase)
    concurrent = engine.engine_kind == "distributed"
    uncertain_index = None if sharded or spec.target == "points" else database.index
    every_leaf = (
        [shard.database for shard in database.non_empty_shards()] if sharded else [database]
    )
    for leaf in every_leaf:
        leaf.columnar()  # built lazily on first use; not part of any query's time

    count = len(sample)
    request_ids = [f"replay:{position}" for position in range(count)]
    parents: list[int] = []
    request_bytes: list[int] = []
    decoded: list[RangeQuery] = []
    client_encode: list[float] = []
    server_decode: list[float] = []
    for position, query in enumerate(sample):
        started = clock()
        line = encode_json_line(request_envelope("query", position, query.to_dict()))
        encoded = clock()
        _, _, body = decode_request(json.loads(line))
        decoded.append(query_from_dict(body))
        finished = clock()
        parent = tracer.record(
            "replay.request", started, finished, parent=None, request=request_ids[position]
        )
        parents.append(parent)
        tracer.record(
            "serve.client.encode", started, encoded, parent=parent, request=request_ids[position]
        )
        tracer.record(
            "serve.server.decode", encoded, finished, parent=parent, request=request_ids[position]
        )
        client_encode.append(encoded - started)
        server_decode.append(finished - encoded)
        request_bytes.append(len(line))

    # Whole call, on wire-decoded queries, in wave-sized batches.
    pool = engine.pool if concurrent else None
    if pool is not None:
        pool.reset_query_accounting()
    evaluations: list[Evaluation] = []
    evaluate_spans: list[int] = []
    evaluate: list[float] = []
    for offset in range(0, count, REPLAY_BATCH):
        batch = decoded[offset : offset + REPLAY_BATCH]
        started = clock()
        evaluations.extend(session.evaluate_many(batch))
        share = (clock() - started) / len(batch)
        for slot in range(len(batch)):
            position = offset + slot
            evaluate.append(share)
            evaluate_spans.append(
                tracer.record(
                    "core.engine.evaluate",
                    started + slot * share,
                    started + (slot + 1) * share,
                    parent=parents[position],
                    request=request_ids[position],
                )
            )
    rpc_bytes = (pool.query_bytes_sent + pool.query_bytes_received) / count if pool else 0.0

    # The same calls, stage by stage.
    plan_s: list[float] = []
    route_s: list[float] = []
    routed: list[int] = []
    window_s: list[float] = []
    search_s: list[float] = []
    filter_s: list[float] = []
    prune_s: list[float] = []
    kernel_s: list[float] = []
    per_candidate_ns: list[float] = []
    node_accesses: list[int] = []
    for position, query in enumerate(decoded):
        request = request_ids[position]
        parent = evaluate_spans[position]
        started = clock()
        plan = plan_query(query, position, config, uncertain_index=uncertain_index)
        planned = clock()
        tracer.record("core.plan.plan_query", started, planned, parent=parent, request=request)
        plan_s.append(planned - started)
        if sharded:
            started = clock()
            shards = database.route_window(
                minkowski_expanded_query(query.issuer.region, query.spec)
            )
            finished = clock()
            tracer.record(
                "core.sharding.route_window", started, finished, parent=parent, request=request
            )
            route_s.append(finished - started)
            routed.append(len(shards))
            leaves = [shard.database for shard in shards]
        else:
            leaves = [database]
        stage_start = clock()
        per_leaf = [_replay_leaf(plan, leaf, config) for leaf in leaves]
        if not per_leaf:
            per_leaf = [_Stages()]
        # Daemons work side by side, so only the slowest shard blocks the
        # answer; in-process shards run one after another.
        blocking = [max(per_leaf, key=lambda s: s.total)] if concurrent else per_leaf
        filter_time = sum(s.filter for s in blocking)
        prune_time = sum(s.prune for s in blocking)
        kernel_time = sum(s.kernel for s in blocking)
        cursor = stage_start
        filter_name = "core.columnar.window_rows" if plan.prefer_columnar else "index.range_search"
        for name, duration in (
            (filter_name, filter_time),
            ("core.pruning.decide_many", prune_time),
            ("core.duality.kernel", kernel_time),
        ):
            tracer.record(name, cursor, cursor + duration, parent=parent, request=request)
            cursor += duration
        window_s.append(sum(s.window for s in blocking))
        search_s.append(sum(s.search for s in blocking))
        node_accesses.append(sum(s.node_accesses for s in per_leaf))
        filter_s.append(filter_time)
        prune_s.append(prune_time)
        kernel_s.append(kernel_time)
        survivors = sum(s.survivors for s in blocking)
        if survivors:
            per_candidate_ns.append(kernel_time * 1e9 / survivors)

    server_encode: list[float] = []
    client_decode: list[float] = []
    response_bytes: list[int] = []
    for position, evaluation in enumerate(evaluations):
        request = request_ids[position]
        started = clock()
        line = encode_json_line(ok_response(position, evaluation.to_dict()))
        encoded = clock()
        Evaluation.from_dict(decode_response(json.loads(line)))
        finished = clock()
        tracer.record(
            "serve.server.encode", started, encoded, parent=parents[position], request=request
        )
        tracer.record(
            "serve.client.decode", encoded, finished, parent=parents[position], request=request
        )
        tracer.extend(parents[position], finished)
        server_encode.append(encoded - started)
        client_decode.append(finished - encoded)
        response_bytes.append(len(line))

    candidates = [e.statistics.candidates_examined for e in evaluations]
    total_candidates = sum(candidates)
    pruned: dict[str, int] = {}
    for evaluation in evaluations:
        for strategy, number in evaluation.statistics.pruned.items():
            pruned[strategy] = pruned.get(strategy, 0) + number

    def pruned_share(strategy: str | None = None) -> float:
        if not total_candidates:
            return 0.0
        number = sum(pruned.values()) if strategy is None else pruned.get(strategy, 0)
        return number / total_candidates

    metrics = {
        "serve.client.encode_us": _median(client_encode) * _US,
        "serve.client.decode_us": _median(client_decode) * _US,
        "serve.server.decode_us": _median(server_decode) * _US,
        "serve.server.encode_us": _median(server_encode) * _US,
        "serve.server.request_bytes": _mean(request_bytes),
        "serve.server.response_bytes": _mean(response_bytes),
        "core.engine.evaluate_us": _median(evaluate) * _US,
        "core.plan.plan_us": _median(plan_s) * _US,
        "core.columnar.window_us": _median(window_s) * _US,
        "index.range_search_us": _median(search_s) * _US,
        "index.node_accesses": _mean(node_accesses),
        "core.pruning.decide_us": _median(prune_s) * _US,
        "core.pruning.pruned_share": pruned_share(),
        "core.pruning.pruned_share.p_expanded_query": pruned_share(
            PruningStrategy.P_EXPANDED_QUERY.value
        ),
        "core.pruning.pruned_share.p_bound": pruned_share(PruningStrategy.P_BOUND.value),
        "core.pruning.pruned_share.product_bound": pruned_share(
            PruningStrategy.PRODUCT_BOUND.value
        ),
        "core.duality.kernel_us": _median(kernel_s) * _US,
        "core.duality.kernel_ns_per_candidate": _median(per_candidate_ns),
        "core.statistics.candidates": _mean(candidates),
        "core.statistics.answers": _mean([e.statistics.results_returned for e in evaluations]),
        "core.statistics.mc_samples": _mean(
            [e.statistics.monte_carlo_samples for e in evaluations]
        ),
        "core.sharding.route_us": _median(route_s) * _US,
        "core.sharding.shards_per_query": _mean(routed),
        "rpc.pool.bytes_per_query": rpc_bytes,
    }
    # Reported, not hidden: what the whole call costs beyond its stages.
    metrics["core.pipeline.unattributed_us"] = metrics["core.engine.evaluate_us"] - (
        metrics["core.plan.plan_us"]
        + _median(filter_s) * _US
        + metrics["core.pruning.decide_us"]
        + metrics["core.duality.kernel_us"]
    )
    metrics.update(_parallel_metrics(evaluations, evaluate))
    metrics.update(_cache_metrics(decoded, evaluations))
    # Decoded afresh: a cached session would answer the objects it has
    # already seen from its cache and make the dispatch look free.
    fresh = [query_from_dict(query.to_dict()) for query in decoded]
    metrics["serve.server.dispatch_overhead_us"] = (
        _dispatch_per_query(session, fresh) - _mean(evaluate)
    ) * _US
    return metrics


def _parallel_metrics(evaluations: list[Evaluation], evaluate: list[float]) -> dict[str, float]:
    """Shard attribution from ``ParallelEvaluation.shard_timings`` (zeros when serial)."""
    slowest, total, imbalance, gather = [], [], [], []
    for evaluation, whole in zip(evaluations, evaluate):
        timings = [t.seconds for t in getattr(evaluation, "shard_timings", ())]
        if not timings:
            continue
        slowest.append(max(timings))
        total.append(sum(timings))
        mean = sum(timings) / len(timings)
        imbalance.append(max(timings) / mean if mean > 0.0 else 1.0)
        gather.append(whole - max(timings))
    return {
        "core.parallel.slowest_shard_us": _median(slowest) * _US,
        "core.parallel.shard_sum_us": _median(total) * _US,
        "core.parallel.shard_imbalance": _median(imbalance),
        "core.parallel.gather_overhead_us": _median(gather) * _US,
    }


def _cache_metrics(queries: list[RangeQuery], evaluations: list[Evaluation]) -> dict[str, float]:
    """``ResultCache.store`` then ``lookup`` with the workload's own keys and answers."""
    cache = ResultCache(capacity=4096)
    keys = [("replay", query_cache_key(query)) for query in queries]
    store_s, lookup_s = [], []
    for key, query, evaluation in zip(keys, queries, evaluations):
        started = clock()
        cache.store(key, query.issuer, evaluation.result, evaluation.statistics)
        store_s.append(clock() - started)
    for key, query in zip(keys, queries):
        started = clock()
        entry = cache.lookup(key, query.issuer)
        if entry is not None:
            entry.materialise()
        lookup_s.append(clock() - started)
    return {
        "core.cache.lookup_us": _median(lookup_s) * _US,
        "core.cache.store_us": _median(store_s) * _US,
    }


def _dispatch_per_query(session: Session, queries: list[RangeQuery]) -> float:
    """Seconds per query through an in-process ``QueryServer`` with 8 lanes."""

    async def run() -> float:
        async with QueryServer(session) as server:

            async def lane(mine: list[RangeQuery]) -> None:
                for query in mine:
                    await server.submit_query(query)

            started = clock()
            await asyncio.gather(
                *[lane(queries[number::REPLAY_BATCH]) for number in range(REPLAY_BATCH)]
            )
            return (clock() - started) / len(queries)

    return asyncio.run(run())


def update_metrics(
    plain: Session, subscribed: Session, batches: list[UpdateBatch]
) -> dict[str, float]:
    """``Session.apply_updates`` without and with the standing subscriptions."""
    if not batches:
        return {"core.updates.apply_us_per_op": 0.0, "core.continuous.pump_us_per_batch": 0.0}
    timings = []
    for session in (plain, subscribed):
        spent = []
        for batch in batches:
            started = clock()
            session.apply_updates(batch)
            spent.append(clock() - started)
        timings.append(_median(spent))
    return {
        "core.updates.apply_us_per_op": timings[0] / len(batches[0]) * _US,
        "core.continuous.pump_us_per_batch": (timings[1] - timings[0]) * _US,
    }
