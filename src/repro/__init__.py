"""repro — a reproduction of "Efficient Evaluation of Imprecise Location-Dependent Queries".

The package implements the query model, evaluation algorithms, spatial
indexes and experiment harness of Chen & Cheng (ICDE 2007), wrapped in a
unified query-object API:

* :class:`~repro.core.session.Session` — the fluent facade: build databases
  from raw objects and construct queries builder-style
  (``session.range(half_width=500.0).targets("uncertain").threshold(0.5)
  .issued_by(user).run()``);
* :class:`~repro.core.queries.RangeQuery` and
  :class:`~repro.core.queries.NearestNeighborQuery` — query objects covering
  IPQ / IUQ / C-IPQ / C-IUQ and the nearest-neighbour extension;
* :class:`~repro.core.engine.ImpreciseQueryEngine` — ``engine.evaluate(query)``
  single-dispatches on the query object and returns an
  :class:`~repro.core.queries.Evaluation` envelope;
  ``engine.evaluate_many(queries)`` is the batch hot path;
* :func:`~repro.index.registry.register_index` — pluggable registry of index
  backends (R-tree, PTI, grid file, linear scan ship registered; third-party
  backends drop in by name);
* :mod:`repro.datasets` — synthetic stand-ins for the paper's datasets and
  query workloads;
* :mod:`repro.experiments` — the per-figure experiment harness.
"""

from repro.geometry import Point, Rect
from repro.uncertainty import (
    UniformPdf,
    TruncatedGaussianPdf,
    HistogramPdf,
    UniformCirclePdf,
    PointObject,
    UncertainObject,
    UCatalog,
)
from repro.core import (
    AnswerDelta,
    DeltaKind,
    Subscription,
    SubscriptionRegistry,
    UpdateEvent,
    replay_deltas,
    RangeQuerySpec,
    Query,
    RangeQuery,
    NearestNeighborQuery,
    Evaluation,
    QueryAnswer,
    QueryResult,
    EngineConfig,
    ImpreciseQueryEngine,
    PointDatabase,
    UncertainDatabase,
    ResultCache,
    Session,
    SessionStats,
    BasicEvaluator,
    ImpreciseNearestNeighborEngine,
    ParallelEngine,
    ParallelEvaluation,
    ShardedDatabase,
    UpdateBatch,
    UpdateOp,
)
from repro.index import (
    RTree,
    ProbabilityThresholdIndex,
    GridFile,
    LinearScanIndex,
    IndexCapabilities,
    available_indexes,
    register_index,
)

__version__ = "1.3.0"

__all__ = [
    "Point",
    "Rect",
    "UniformPdf",
    "TruncatedGaussianPdf",
    "HistogramPdf",
    "UniformCirclePdf",
    "PointObject",
    "UncertainObject",
    "UCatalog",
    "RangeQuerySpec",
    "Query",
    "RangeQuery",
    "NearestNeighborQuery",
    "Evaluation",
    "QueryAnswer",
    "QueryResult",
    "EngineConfig",
    "ImpreciseQueryEngine",
    "PointDatabase",
    "UncertainDatabase",
    "ResultCache",
    "Session",
    "SessionStats",
    "BasicEvaluator",
    "ImpreciseNearestNeighborEngine",
    "ParallelEngine",
    "ParallelEvaluation",
    "ShardedDatabase",
    "UpdateBatch",
    "UpdateEvent",
    "UpdateOp",
    "AnswerDelta",
    "DeltaKind",
    "Subscription",
    "SubscriptionRegistry",
    "replay_deltas",
    "RTree",
    "ProbabilityThresholdIndex",
    "GridFile",
    "LinearScanIndex",
    "IndexCapabilities",
    "available_indexes",
    "register_index",
    "__version__",
]
