"""Generic machinery for running query batches and collecting figure data."""

from __future__ import annotations
from repro.core.errors import DatasetError, MissingItemError

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.core.engine import ImpreciseQueryEngine
from repro.core.parallel import ParallelEngine
from repro.core.session import Session
from repro.experiments.config import ExperimentConfig
from repro.core.queries import (
    QueryResult,
    RangeQuery,
    RangeQuerySpec,
    RangeQueryTarget,
)
from repro.core.statistics import (
    AggregatedStatistics,
    EvaluationStatistics,
    aggregate_statistics,
)
from repro.datasets.workload import QueryWorkload
from repro.uncertainty.region import UncertainObject

#: A callable that evaluates one query for one issuer and returns the result
#: and its statistics.  Kept for custom evaluators (e.g. the basic method of
#: Section 3.3) that do not go through :class:`ImpreciseQueryEngine`.
QueryRunner = Callable[[UncertainObject], tuple[QueryResult, EvaluationStatistics]]


def run_query_batch(
    workload: QueryWorkload,
    count: int,
    runner: QueryRunner,
) -> AggregatedStatistics:
    """Issue ``count`` workload queries through ``runner`` and average the statistics.

    This mirrors the paper's methodology: every plotted data point is the
    average response time over a batch of randomly placed queries.
    """
    stats: list[EvaluationStatistics] = []
    for issuer in workload.issuers(count):
        _, query_stats = runner(issuer)
        stats.append(query_stats)
    return aggregate_statistics(stats)


def run_engine_batch(
    engine: ImpreciseQueryEngine | ParallelEngine,
    workload: QueryWorkload,
    count: int,
    *,
    target: RangeQueryTarget,
    threshold: float | None = None,
    spec: RangeQuerySpec | None = None,
) -> AggregatedStatistics:
    """Issue ``count`` workload queries through ``engine.evaluate_many``.

    The engine-native counterpart of :func:`run_query_batch`: the whole batch
    of :class:`RangeQuery` objects goes through the engine's amortised batch
    path, which is how the figures issue their 500 queries per data point.
    A :class:`~repro.core.parallel.ParallelEngine` drops in unchanged (the
    figures stay single-shard so index I/O counters keep their meaning, but
    sharded-execution studies reuse this same harness).  ``threshold`` and
    ``spec`` default to the workload's own values.
    """
    spec = workload.spec if spec is None else spec
    threshold = workload.threshold if threshold is None else threshold
    queries = [
        RangeQuery(issuer=issuer, spec=spec, threshold=threshold, target=target)
        for issuer in workload.issuers(count)
    ]
    evaluations = engine.evaluate_many(queries)
    return aggregate_statistics([evaluation.statistics for evaluation in evaluations])


def run_session_batch(
    session: Session,
    workload: QueryWorkload,
    count: int,
    *,
    target: RangeQueryTarget,
    threshold: float | None = None,
    spec: RangeQuerySpec | None = None,
    config: ExperimentConfig | None = None,
) -> AggregatedStatistics:
    """:func:`run_engine_batch` through a session's engine.

    Works for plain and sharded sessions alike; passing an
    :class:`~repro.experiments.config.ExperimentConfig` first applies its
    ``shards`` / ``shard_remote`` settings
    (:meth:`~repro.experiments.config.ExperimentConfig.sharded_session`), so
    one config knob switches an experiment to sharded execution.
    """
    if config is not None:
        session = config.sharded_session(session)
    return run_engine_batch(
        session.engine, workload, count, target=target, threshold=threshold, spec=spec
    )


@dataclass(frozen=True)
class SeriesPoint:
    """One plotted point of a figure: an x value plus the measured averages."""

    x: float
    response_time_ms: float
    candidates: float
    node_accesses: float
    results: float
    probability_computations: float = 0.0

    @staticmethod
    def from_aggregate(x: float, aggregate: AggregatedStatistics) -> "SeriesPoint":
        """Build a point from a batch aggregate."""
        return SeriesPoint(
            x=x,
            response_time_ms=aggregate.mean_response_time_ms,
            candidates=aggregate.mean_candidates,
            node_accesses=aggregate.mean_node_accesses,
            results=aggregate.mean_results,
            probability_computations=aggregate.mean_probability_computations,
        )


@dataclass
class FigureResult:
    """All measured series of one reproduced figure."""

    figure_id: str
    title: str
    x_label: str
    series: dict[str, list[SeriesPoint]] = field(default_factory=dict)
    notes: str = ""

    def add_point(self, series_name: str, point: SeriesPoint) -> None:
        """Append a measured point to the named series."""
        self.series.setdefault(series_name, []).append(point)

    def series_names(self) -> list[str]:
        """Names of the measured series, in insertion order."""
        return list(self.series.keys())

    def x_values(self) -> list[float]:
        """Sorted union of x values across all series."""
        values = {point.x for points in self.series.values() for point in points}
        return sorted(values)

    def value_at(self, series_name: str, x: float) -> SeriesPoint:
        """The measured point of ``series_name`` at ``x`` (raises when missing)."""
        for point in self.series.get(series_name, []):
            if point.x == x:
                return point
        raise MissingItemError(f"series {series_name!r} has no point at x={x}")

    def response_times(self, series_name: str) -> list[float]:
        """Response times (ms) of one series, ordered by x."""
        points = sorted(self.series.get(series_name, []), key=lambda p: p.x)
        return [point.response_time_ms for point in points]

    def mean_ratio(self, numerator: str, denominator: str) -> float:
        """Average ratio of the response times of two series over common x values.

        Used by the shape checks: e.g. "the basic method is an order of
        magnitude slower than the enhanced method" becomes
        ``mean_ratio('basic', 'enhanced') > 5``.
        """
        ratios: list[float] = []
        for x in self.x_values():
            try:
                top = self.value_at(numerator, x).response_time_ms
                bottom = self.value_at(denominator, x).response_time_ms
            except KeyError:
                continue
            if bottom > 0:
                ratios.append(top / bottom)
        if not ratios:
            raise DatasetError("the two series share no x values")
        return sum(ratios) / len(ratios)


def sweep(
    values: Iterable[float],
    make_runner: Callable[[float], tuple[QueryWorkload, int, QueryRunner]],
) -> list[SeriesPoint]:
    """Run one series of a sweep: for every x value build a runner and batch it."""
    points: list[SeriesPoint] = []
    for x in values:
        workload, count, runner = make_runner(x)
        aggregate = run_query_batch(workload, count, runner)
        points.append(SeriesPoint.from_aggregate(x, aggregate))
    return points
