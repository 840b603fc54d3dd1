"""The serial query engine (Sections 4.3 and 5.3 of the paper).

Once a 1,500-line monolith holding the databases, the evaluation cores and
a stack of deprecation shims, this module is now the thin serial front of a
layered architecture:

* :mod:`repro.core.database` — :class:`PointDatabase` /
  :class:`UncertainDatabase` (live mutators, epoch counters, columnar
  snapshots); re-exported here for compatibility.
* :mod:`repro.core.plan` — per-query :class:`~repro.core.plan.QueryPlan`
  compilation (candidate window, index probe, pruner, draw-plan slot) and
  the query fingerprint every key derives from.
* :mod:`repro.core.pipeline` — the staged
  plan → cache? → candidates → prune → evaluate → merge runner shared
  verbatim with per-shard execution (:mod:`repro.core.sharding`) and the
  shard daemons (:mod:`repro.rpc.shardd`).
* :mod:`repro.core.cache` — the epoch-keyed
  :class:`~repro.core.cache.ResultCache` consulted and filled by the
  pipeline when :class:`EngineConfig` carries one.

The engine owns what is genuinely serial-engine state: the configuration,
the monotonic query sequence counter, and the mutation surface dispatching
inserts/deletes/moves to the owning database.  All query flavours funnel
through ``engine.evaluate(query)`` (single-dispatched on
:class:`~repro.core.queries.RangeQuery` /
:class:`~repro.core.queries.NearestNeighborQuery`) and the batch
``engine.evaluate_many(...)``, which also accepts interleaved
:class:`~repro.core.updates.UpdateBatch` items.
"""

from __future__ import annotations
from repro.core.errors import ConfigurationError, EngineStateError, InvalidArgumentError

from dataclasses import dataclass, field, fields, replace
from functools import singledispatchmethod
from typing import Iterable, Literal

import numpy as np

from repro.core.cache import ResultCache
from repro.core.database import (  # noqa: F401  (re-exported: historical home)
    PointDatabase,
    UncertainDatabase,
    _MutableDatabaseMixin,
    _TrackedObjects,
)
from repro.core.pipeline import DEFAULT_NN_SAMPLES, QueryPipeline, partition_workload
from repro.core.pruning import ALL_STRATEGIES, PruningStrategy
from repro.core.queries import (
    Evaluation,
    NearestNeighborQuery,
    Query,
    RangeQuery,
)
from repro.core.updates import (
    UpdateBatch,
    apply_update_op,
    pick_mutation_database,
    resolve_move_target,
)
from repro.uncertainty.region import PointObject, UncertainObject

__all__ = [
    "DEFAULT_NN_SAMPLES",
    "DrawPlan",
    "EngineConfig",
    "ImpreciseQueryEngine",
    "IndexKind",
    "PointDatabase",
    "ProbabilityMethod",
    "UncertainDatabase",
]

#: Names of the index backends shipped with the reproduction.  Any name
#: registered via :func:`repro.index.registry.register_index` is accepted
#: wherever an ``IndexKind`` is expected.
IndexKind = Literal["rtree", "pti", "grid", "linear"]
ProbabilityMethod = Literal["auto", "exact", "monte_carlo"]

#: How Monte-Carlo draws are assigned to candidate objects.  ``"stream"`` is
#: the historical plan: one batched draw per query consumed from the engine's
#: shared, advancing generator.  ``"per_oid"`` derives an independent
#: generator per ``(query sequence number, object id)`` pair, which makes a
#: survivor's draws independent of batch composition — the property the
#: sharded parallel executor needs for bitwise-identical results.
#: ``"query_keyed"`` goes one step further and keys the draws by a stable
#: fingerprint of the query's *content* instead of its position, so a
#: repeated query samples the same draws wherever it appears — the property
#: the result cache needs to serve sampled answers without breaking replay
#: determinism.
DrawPlan = Literal["stream", "per_oid", "query_keyed"]

_DRAW_PLANS = ("stream", "per_oid", "query_keyed")


@dataclass(frozen=True)
class EngineConfig:
    """Tunable behaviour of the query engine.

    The defaults reproduce the paper's "enhanced" configuration: analytic
    probabilities where possible, p-expanded-query filtering and all three
    pruning strategies for constrained queries, and PTI-level pruning when the
    uncertain database is indexed with a PTI.
    """

    probability_method: ProbabilityMethod = "auto"
    monte_carlo_samples: int = 250
    rng_seed: int = 7
    use_p_expanded_query: bool = True
    use_pti_pruning: bool = True
    ciuq_strategies: tuple[PruningStrategy, ...] = ALL_STRATEGIES
    #: Evaluate qualification probabilities with the NumPy-columnar backend.
    #: Answer sets are identical to the scalar path (Monte-Carlo draws are
    #: bitwise identical given the same seed); pdfs without array kernels
    #: transparently fall back to their scalar implementations.
    vectorized: bool = True
    #: Monte-Carlo draw plan (see :data:`DrawPlan`).  ``"per_oid"`` makes
    #: sampled probabilities a pure function of ``(rng_seed, query sequence
    #: number, oid)`` — required by sharded execution; ``"query_keyed"``
    #: makes them a pure function of ``(rng_seed, query content, oid)`` —
    #: required for cached sampled answers; the default ``"stream"``
    #: preserves the historical draw sequence.
    draw_plan: DrawPlan = "stream"
    #: Shared :class:`~repro.core.cache.ResultCache` consulted and filled by
    #: the pipeline's cache stage (``None`` disables caching).  Excluded
    #: from equality/fingerprints: the cache is infrastructure, not
    #: behaviour — two engines sharing one cache but otherwise differing
    #: never see each other's entries, because every key embeds the
    #: :meth:`fingerprint` of the filling configuration.
    cache: ResultCache | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.monte_carlo_samples < 1:
            raise ConfigurationError(
                f"monte_carlo_samples must be >= 1, got {self.monte_carlo_samples}"
            )
        if self.draw_plan not in _DRAW_PLANS:
            raise ConfigurationError(
                f"draw_plan must be one of {_DRAW_PLANS}, got {self.draw_plan!r}"
            )
        if (
            isinstance(self.rng_seed, bool)
            or not isinstance(self.rng_seed, (int, np.integer))
            or self.rng_seed < 0
        ):
            raise ConfigurationError(
                f"rng_seed must be a non-negative integer, got {self.rng_seed!r}"
            )
        if self.cache is not None:
            if not isinstance(self.cache, ResultCache):
                raise ConfigurationError(
                    f"cache must be a repro.core.cache.ResultCache or None, "
                    f"got {type(self.cache).__name__!r} (capacity must be a "
                    "positive integer — build one with ResultCache(capacity=...))"
                )
            if self.draw_plan == "stream":
                raise ConfigurationError(
                    "cache + draw_plan='stream' would break replay determinism: "
                    "the streaming plan ties Monte-Carlo draws to batch "
                    "composition, so an answer served from the cache would "
                    "desynchronise the shared generator for every later query. "
                    "Use draw_plan='query_keyed' (cached sampled answers) or "
                    "'per_oid' (only draw-free answers are cached)."
                )

    def fingerprint(self) -> tuple:
        """A hashable digest of every field that can influence an answer.

        Embedded in result-cache keys so engines sharing one cache but
        running different configurations can never serve each other's
        results.  The ``cache`` field itself is excluded — where an answer
        is stored does not change what the answer is.
        """
        return tuple(
            getattr(self, f.name) for f in fields(self) if f.name != "cache"
        )

    def with_overrides(self, **kwargs) -> "EngineConfig":
        """Return a copy of the configuration with the given fields replaced.

        Unknown field names are rejected with a message listing the valid
        fields, so typos fail loudly instead of being silently ignored by a
        downstream ``replace``.
        """
        valid = {f.name for f in fields(self)}
        unknown = sorted(set(kwargs) - valid)
        if unknown:
            raise ConfigurationError(
                f"unknown EngineConfig field(s): {', '.join(unknown)}; "
                f"valid fields are: {', '.join(sorted(valid))}"
            )
        return replace(self, **kwargs)


class ImpreciseQueryEngine:
    """Evaluates IPQ, IUQ, C-IPQ, C-IUQ and nearest-neighbour queries.

    The single entry point is :meth:`evaluate`, which dispatches on the query
    object's type; :meth:`evaluate_many` is the batch counterpart.  Both run
    the staged pipeline of :mod:`repro.core.pipeline` — the same stage runner
    sharded and parallel execution use — so the serial engine is exactly
    "the pipeline plus a sequence counter and a mutation surface".
    """

    #: Reported by :meth:`Session.describe` so clients can tell which
    #: executor answers their queries.
    engine_kind = "serial"

    def __init__(
        self,
        *,
        point_db: PointDatabase | None = None,
        uncertain_db: UncertainDatabase | None = None,
        config: EngineConfig | None = None,
    ) -> None:
        if point_db is None and uncertain_db is None:
            raise ConfigurationError("the engine needs at least one database to query")
        self._point_db = point_db
        self._uncertain_db = uncertain_db
        self._config = config if config is not None else EngineConfig()
        self._pipeline = QueryPipeline(
            point_db=point_db, uncertain_db=uncertain_db, config=self._config
        )
        # Monotonic query sequence number.  Every evaluated query consumes
        # one (whatever its kind), so that under the per-oid draw plan the
        # n-th query of any call pattern — evaluate() loop, evaluate_many(),
        # or a sharded executor replaying explicit numbers through
        # evaluate_many_at() — samples the same draws.
        self._query_seq = 0

    @property
    def config(self) -> EngineConfig:
        """The engine configuration."""
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
    def pipeline(self) -> QueryPipeline:
        """The staged pipeline executing this engine's queries."""
        return self._pipeline

    # ------------------------------------------------------------------ #
    # Unified entry point
    # ------------------------------------------------------------------ #
    def _next_query_seq(self) -> int:
        seq = self._query_seq
        self._query_seq += 1
        return seq

    @singledispatchmethod
    def evaluate(self, query):
        """Evaluate one query object and return an :class:`Evaluation`.

        Dispatches on the query's type: :class:`RangeQuery` covers all four
        paper query flavours via its target kind and threshold,
        :class:`NearestNeighborQuery` the nearest-neighbour extension.
        """
        raise InvalidArgumentError(
            f"cannot evaluate {type(query).__name__!r}; expected a RangeQuery "
            "or a NearestNeighborQuery"
        )

    @evaluate.register
    def _evaluate_range_query(
        self, query: RangeQuery, *, query_seq: int | None = None
    ) -> Evaluation:
        seq = self._next_query_seq() if query_seq is None else query_seq
        return self._pipeline.run_batch([query], [seq], use_snapshots=False)[0]

    @evaluate.register
    def _evaluate_nearest_query(
        self, query: NearestNeighborQuery, *, query_seq: int | None = None
    ) -> Evaluation:
        seq = self._next_query_seq() if query_seq is None else query_seq
        return self._pipeline.run_batch([query], [seq], use_snapshots=False)[0]

    def evaluate_many(self, queries: Iterable[Query | UpdateBatch]) -> list[Evaluation]:
        """Evaluate a batch of queries, preserving input order.

        The batch path amortises work a per-query loop repeats (see
        :meth:`repro.core.pipeline.QueryPipeline.run_batch`); results —
        including Monte-Carlo draws — are identical to calling
        :meth:`evaluate` on each query in order, because queries execute in
        input order against the same random generator.

        An :class:`~repro.core.updates.UpdateBatch` may be interleaved with
        the queries: it is applied at exactly its position in the stream
        (earlier queries see the old data, later ones the new) and produces
        no :class:`Evaluation` of its own.  Updates consume no query sequence
        numbers, so under the per-oid draw plan the surrounding queries'
        Monte-Carlo draws are unaffected.
        """
        evaluations: list[Evaluation] = []
        for kind, payload in partition_workload(queries):
            if kind == "updates":
                self.apply_updates(payload)
            else:
                seqs = [self._next_query_seq() for _ in payload]
                evaluations.extend(self._pipeline.run_batch(payload, seqs))
        return evaluations

    def evaluate_many_at(self, items: Iterable[tuple[int, Query]]) -> list[Evaluation]:
        """Batch evaluation with caller-assigned query sequence numbers.

        ``items`` is an iterable of ``(query_seq, query)`` pairs.  This is the
        replay entry point of the sharded executor: a shard engine evaluates
        only the queries routed to it, but under the per-oid draw plan each
        query must carry the sequence number it holds in the *global*
        workload so that its Monte-Carlo draws match the single-shard
        engine's.  The engine's own sequence counter is left untouched.
        Everything else — pruner caching, columnar batch filtering — behaves
        exactly like :meth:`evaluate_many`.
        """
        materialised = list(items)
        batch = [query for _, query in materialised]
        for position, query in enumerate(batch):
            if not isinstance(query, (RangeQuery, NearestNeighborQuery)):
                raise InvalidArgumentError(
                    f"evaluate_many_at() only accepts RangeQuery and NearestNeighborQuery "
                    f"objects; item {position} is {type(query).__name__!r}"
                )
        seqs = [int(seq) for seq, _ in materialised]
        return self._pipeline.run_batch(batch, seqs)

    # ------------------------------------------------------------------ #
    # Live mutation
    # ------------------------------------------------------------------ #
    def _require_point_db(self) -> PointDatabase:
        if self._point_db is None:
            raise EngineStateError("no point-object database configured")
        return self._point_db

    def _require_uncertain_db(self) -> UncertainDatabase:
        if self._uncertain_db is None:
            raise EngineStateError("no uncertain-object database configured")
        return self._uncertain_db

    def _mutation_db(self, target: str | None) -> PointDatabase | UncertainDatabase:
        return pick_mutation_database(self._point_db, self._uncertain_db, target)

    def insert(self, obj: PointObject | UncertainObject):
        """Add one object to the matching database (chosen by the object's type).

        The database keeps its index in sync and bumps its epoch, so cached
        columnar snapshots, nearest-neighbour samplers and result-cache
        entries are invalidated lazily.  Returns the stored object.
        """
        if isinstance(obj, PointObject):
            return self._require_point_db().insert(obj)
        if isinstance(obj, UncertainObject):
            return self._require_uncertain_db().insert(obj)
        raise InvalidArgumentError(
            f"expected a PointObject or UncertainObject, got {type(obj).__name__}"
        )

    def delete(self, oid: int, *, target: str | None = None):
        """Remove one object by oid; ``target`` picks the database when both exist.

        Returns the removed object.
        """
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
        """Relocate one object: ``x``/``y`` for a point, ``pdf`` for an uncertain one.

        Returns the stored replacement object.
        """
        if resolve_move_target(x, y, pdf, target) == "points":
            return self._require_point_db().move(oid, float(x), float(y))
        return self._require_uncertain_db().move(oid, pdf)

    def apply_updates(self, batch: UpdateBatch) -> None:
        """Apply an ordered batch of mutations to this engine's databases."""
        for op in batch:
            apply_update_op(self, op)
