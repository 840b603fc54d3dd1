"""Core query model and evaluation engines — the paper's contribution.

The package is organised around the paper's structure:

* :mod:`repro.core.queries` — query and answer types (IPQ, IUQ, C-IPQ, C-IUQ).
* :mod:`repro.core.basic` — the basic evaluation method of Section 3.3
  (direct numerical integration of Equations 2 and 4).
* :mod:`repro.core.expansion` — query expansion via the Minkowski sum
  (Section 4.1) and the p-expanded-query (Section 5.1).
* :mod:`repro.core.duality` — query–data duality probability computation
  (Section 4.2, Lemmas 2–4).
* :mod:`repro.core.pruning` — threshold pruning strategies (Section 5.2).
* :mod:`repro.core.database` — live point / uncertain databases with epoch
  counters that invalidate every derived cache.
* :mod:`repro.core.plan` — per-query execution plans (candidate window,
  index probe, pruner, draw token, cache key).
* :mod:`repro.core.pipeline` — the staged
  plan → cache? → candidates → prune → evaluate → merge runner shared by
  the serial engine, per-shard execution and the shard daemons.
* :mod:`repro.core.cache` — the epoch-keyed LRU result cache consulted and
  filled by the pipeline in every engine.
* :mod:`repro.core.engine` — the serial engine front over the pipeline
  (Sections 4.3 and 5.3).
* :mod:`repro.core.columnar` — columnar database snapshots backing the
  vectorized (NumPy) evaluation paths.
* :mod:`repro.core.nearest` — imprecise nearest-neighbour extension
  (the paper's future work).
* :mod:`repro.core.sharding` — spatial partitioning of databases into
  independently indexed shards, with window / best-distance shard routing
  and live per-shard mutation (insert/delete/move, hot-shard re-splits).
* :mod:`repro.core.parallel` — sharded workload execution (routing,
  parent-side cache, in-process shards, merge), with results identical to
  the single-shard engine; :mod:`repro.rpc` runs the same shards in daemons.
* :mod:`repro.core.updates` — ordered insert/delete/move batches that both
  engines apply directly or interleave with query workloads, plus the
  mutation-observer hook continuous subscriptions listen on.
* :mod:`repro.core.continuous` — standing query subscriptions maintained
  incrementally: affected-only re-evaluation after each update, with
  ordered JOIN/LEAVE/SCORE_CHANGE answer deltas.
* :mod:`repro.core.quality` — answer-quality metrics (expected cardinality,
  precision, recall) for reasoning about the privacy/quality trade-off.
* :mod:`repro.core.errors` — the typed exception hierarchy shared by the
  engines and the serving layer (every subclass keeps the builtin its call
  sites historically raised as a second base).
* :mod:`repro.core.wire` — shared plumbing for the versioned ``to_dict`` /
  ``from_dict`` wire schemas used by :mod:`repro.serve` and the CLI client.
"""

from repro.core.queries import (
    RangeQuerySpec,
    Query,
    RangeQuery,
    NearestNeighborQuery,
    Evaluation,
    QueryAnswer,
    QueryResult,
    query_from_dict,
)
from repro.core.errors import (
    BackpressureError,
    ConfigurationError,
    InvalidQueryError,
    InvalidUpdateError,
    ReproError,
    SchemaError,
    SchemaVersionError,
    UnknownObjectError,
)
from repro.core.wire import WIRE_VERSION, check_schema, tagged
from repro.core.expansion import (
    minkowski_expanded_query,
    p_expanded_query,
    p_expanded_query_from_catalog,
)
from repro.core.columnar import ColumnarPoints, ColumnarUncertain
from repro.core.duality import (
    ipq_probabilities,
    ipq_probability,
    ipq_probability_monte_carlo,
    iuq_probabilities_exact_uniform,
    iuq_probability,
    iuq_probability_exact_uniform,
    iuq_probability_monte_carlo,
)
from repro.core.basic import (
    BasicEvaluator,
    basic_ipq_probabilities,
    basic_ipq_probability,
    basic_iuq_probabilities,
    basic_iuq_probability,
    issuer_grid_arrays,
)
from repro.core.pruning import CIPQPruner, CIUQPruner, PruneDecision, PruningStrategy
from repro.core.statistics import EvaluationStatistics, aggregate_statistics
from repro.core.cache import CachedAnswer, CacheStats, ResultCache
from repro.core.continuous import (
    AnswerDelta,
    DeltaKind,
    Subscription,
    SubscriptionRegistry,
    replay_deltas,
)
from repro.core.database import PointDatabase, UncertainDatabase
from repro.core.engine import (
    ImpreciseQueryEngine,
    EngineConfig,
)
from repro.core.nearest import ImpreciseNearestNeighborEngine
from repro.core.plan import QueryPlan, compile_plan, query_fingerprint
from repro.core.pipeline import QueryPipeline
from repro.core.sharding import Shard, ShardedDatabase
from repro.core.updates import MutationObservable, UpdateBatch, UpdateEvent, UpdateOp
from repro.core.parallel import ParallelEngine, ParallelEvaluation, ShardTiming
from repro.core.session import (
    NearestNeighborQueryBuilder,
    RangeQueryBuilder,
    Session,
    SessionStats,
)
from repro.core.quality import (
    expected_cardinality,
    expected_precision,
    expected_recall,
    certainty_score,
    f_score,
    threshold_sweep,
)

__all__ = [
    "RangeQuerySpec",
    "query_from_dict",
    "ReproError",
    "ConfigurationError",
    "InvalidQueryError",
    "InvalidUpdateError",
    "UnknownObjectError",
    "BackpressureError",
    "SchemaError",
    "SchemaVersionError",
    "WIRE_VERSION",
    "tagged",
    "check_schema",
    "Query",
    "RangeQuery",
    "NearestNeighborQuery",
    "Evaluation",
    "QueryAnswer",
    "QueryResult",
    "Session",
    "RangeQueryBuilder",
    "NearestNeighborQueryBuilder",
    "minkowski_expanded_query",
    "p_expanded_query",
    "p_expanded_query_from_catalog",
    "ipq_probabilities",
    "ipq_probability",
    "ipq_probability_monte_carlo",
    "iuq_probabilities_exact_uniform",
    "iuq_probability",
    "iuq_probability_exact_uniform",
    "iuq_probability_monte_carlo",
    "BasicEvaluator",
    "basic_ipq_probabilities",
    "basic_ipq_probability",
    "basic_iuq_probabilities",
    "basic_iuq_probability",
    "issuer_grid_arrays",
    "ColumnarPoints",
    "ColumnarUncertain",
    "CIPQPruner",
    "CIUQPruner",
    "PruneDecision",
    "PruningStrategy",
    "EvaluationStatistics",
    "aggregate_statistics",
    "PointDatabase",
    "UncertainDatabase",
    "ImpreciseQueryEngine",
    "EngineConfig",
    "ImpreciseNearestNeighborEngine",
    "CachedAnswer",
    "CacheStats",
    "ResultCache",
    "QueryPlan",
    "QueryPipeline",
    "compile_plan",
    "query_fingerprint",
    "SessionStats",
    "Shard",
    "ShardedDatabase",
    "MutationObservable",
    "UpdateBatch",
    "UpdateEvent",
    "UpdateOp",
    "AnswerDelta",
    "DeltaKind",
    "Subscription",
    "SubscriptionRegistry",
    "replay_deltas",
    "ParallelEngine",
    "ParallelEvaluation",
    "ShardTiming",
    "expected_cardinality",
    "expected_precision",
    "expected_recall",
    "certainty_score",
    "f_score",
    "threshold_sweep",
]
