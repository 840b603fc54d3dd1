"""Per-figure experiment definitions (Figures 8–13 of the paper).

Every function builds the relevant datasets and indexes once, then sweeps the
figure's x-axis parameter, averaging a batch of random queries per point
exactly as the paper does.  The returned :class:`FigureResult` carries one
series per competing method with response times (ms) and machine-independent
cost counters.
"""

from __future__ import annotations

from typing import Callable

from repro.core.basic import BasicEvaluator
from repro.core.engine import (
    ImpreciseQueryEngine,
    PointDatabase,
    UncertainDatabase,
)
from repro.core.queries import RangeQuery
from repro.datasets.tiger import california_points, long_beach_uncertain_objects
from repro.datasets.workload import QueryWorkload
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    FigureResult,
    SeriesPoint,
    run_engine_batch,
    run_query_batch,
)


def _point_database(config: ExperimentConfig) -> PointDatabase:
    objects = california_points(scale=config.dataset_scale)
    return PointDatabase.build(objects)


def _uncertain_database(config: ExperimentConfig, *, index_kind: str = "pti") -> UncertainDatabase:
    objects = long_beach_uncertain_objects(scale=config.dataset_scale)
    return UncertainDatabase.build(
        objects, index_kind=index_kind, catalog_levels=config.catalog_levels
    )


def _workload(
    config: ExperimentConfig,
    *,
    issuer_half_size: float,
    range_half_size: float,
    threshold: float = 0.0,
    issuer_pdf: str = "uniform",
    salt: int = 0,
) -> QueryWorkload:
    return QueryWorkload(
        issuer_half_size=issuer_half_size,
        range_half_size=range_half_size,
        threshold=threshold,
        issuer_pdf=issuer_pdf,  # type: ignore[arg-type]
        catalog_levels=config.catalog_levels,
        seed=config.workload_seed(salt),
    )


# --------------------------------------------------------------------------- #
# Figure 8 — Basic vs Enhanced method (IUQ), response time vs u
# --------------------------------------------------------------------------- #
def figure_08(config: ExperimentConfig | None = None) -> FigureResult:
    """Figure 8: the basic method (Equation 4) against the enhanced method (Equation 8)."""
    config = config or ExperimentConfig()
    uncertain_objects = long_beach_uncertain_objects(scale=config.dataset_scale)
    database = UncertainDatabase.build(
        uncertain_objects, index_kind="rtree", catalog_levels=config.catalog_levels
    )
    engine = ImpreciseQueryEngine(uncertain_db=database, config=config.engine_config())
    basic = BasicEvaluator(
        issuer_samples=config.basic_issuer_samples,
        vectorized=config.engine_vectorized,
    )

    result = FigureResult(
        figure_id="figure_08",
        title="Basic vs Enhanced evaluation of IUQ",
        x_label="uncertainty region size u",
        notes=(
            "Both methods use the same Minkowski-sum candidate filter; the series "
            "differ only in how qualification probabilities are computed."
        ),
    )
    w = config.defaults.range_half_size
    for salt, u in enumerate(config.issuer_half_sizes):
        workload = _workload(config, issuer_half_size=u, range_half_size=w, salt=salt)
        spec = workload.spec

        enhanced = run_engine_batch(
            engine, workload, config.queries_per_point, target="uncertain"
        )
        result.add_point("enhanced", SeriesPoint.from_aggregate(u, enhanced))

        def run_basic(issuer):
            return basic.evaluate_iuq(RangeQuery.iuq(issuer, spec), database.objects)

        basic_aggregate = run_query_batch(workload, config.queries_per_point, run_basic)
        result.add_point("basic", SeriesPoint.from_aggregate(u, basic_aggregate))
    return result


# --------------------------------------------------------------------------- #
# Figures 9 and 10 — response time vs u for several range sizes
# --------------------------------------------------------------------------- #
def figure_09(config: ExperimentConfig | None = None) -> FigureResult:
    """Figure 9: IPQ response time against u for range sizes 500 / 1000 / 1500."""
    config = config or ExperimentConfig()
    database = _point_database(config)
    engine = ImpreciseQueryEngine(point_db=database, config=config.engine_config())
    result = FigureResult(
        figure_id="figure_09",
        title="IPQ response time vs uncertainty region size",
        x_label="uncertainty region size u",
    )
    for w_index, w in enumerate(config.range_half_sizes):
        series = f"range_size={int(w)}"
        for salt, u in enumerate(config.issuer_half_sizes):
            workload = _workload(
                config,
                issuer_half_size=u,
                range_half_size=w,
                salt=w_index * 1000 + salt,
            )
            aggregate = run_engine_batch(
                engine, workload, config.queries_per_point, target="points"
            )
            result.add_point(series, SeriesPoint.from_aggregate(u, aggregate))
    return result


def figure_10(config: ExperimentConfig | None = None) -> FigureResult:
    """Figure 10: IUQ response time against u for range sizes 500 / 1000 / 1500."""
    config = config or ExperimentConfig()
    database = _uncertain_database(config, index_kind="rtree")
    engine = ImpreciseQueryEngine(uncertain_db=database, config=config.engine_config())
    result = FigureResult(
        figure_id="figure_10",
        title="IUQ response time vs uncertainty region size",
        x_label="uncertainty region size u",
    )
    for w_index, w in enumerate(config.range_half_sizes):
        series = f"range_size={int(w)}"
        for salt, u in enumerate(config.issuer_half_sizes):
            workload = _workload(
                config,
                issuer_half_size=u,
                range_half_size=w,
                salt=w_index * 1000 + salt,
            )
            aggregate = run_engine_batch(
                engine, workload, config.queries_per_point, target="uncertain"
            )
            result.add_point(series, SeriesPoint.from_aggregate(u, aggregate))
    return result


# --------------------------------------------------------------------------- #
# Figure 11 — C-IPQ: Minkowski sum vs p-expanded-query, response time vs Qp
# --------------------------------------------------------------------------- #
def figure_11(config: ExperimentConfig | None = None) -> FigureResult:
    """Figure 11: constrained IPQ with and without the p-expanded-query."""
    config = config or ExperimentConfig()
    database = _point_database(config)
    minkowski_engine = ImpreciseQueryEngine(
        point_db=database, config=config.engine_config(use_p_expanded_query=False)
    )
    expanded_engine = ImpreciseQueryEngine(
        point_db=database, config=config.engine_config(use_p_expanded_query=True)
    )
    result = FigureResult(
        figure_id="figure_11",
        title="C-IPQ: Minkowski sum vs p-expanded-query",
        x_label="probability threshold Qp",
    )
    u = config.defaults.issuer_half_size
    w = config.defaults.range_half_size
    for salt, qp in enumerate(config.thresholds):
        workload = _workload(
            config, issuer_half_size=u, range_half_size=w, threshold=qp, salt=salt
        )
        minkowski = run_engine_batch(
            minkowski_engine, workload, config.queries_per_point, target="points"
        )
        result.add_point("minkowski_sum", SeriesPoint.from_aggregate(qp, minkowski))
        expanded = run_engine_batch(
            expanded_engine, workload, config.queries_per_point, target="points"
        )
        result.add_point("p_expanded_query", SeriesPoint.from_aggregate(qp, expanded))
    return result


# --------------------------------------------------------------------------- #
# Figure 12 — C-IUQ: R-tree + Minkowski sum vs PTI + p-expanded-query
# --------------------------------------------------------------------------- #
def figure_12(config: ExperimentConfig | None = None) -> FigureResult:
    """Figure 12: constrained IUQ with a plain R-tree vs the PTI."""
    config = config or ExperimentConfig()
    objects = long_beach_uncertain_objects(scale=config.dataset_scale)
    rtree_db = UncertainDatabase.build(
        objects, index_kind="rtree", catalog_levels=config.catalog_levels
    )
    pti_db = UncertainDatabase.build(
        objects, index_kind="pti", catalog_levels=config.catalog_levels
    )
    # The baseline mirrors the paper's "R-tree with the Minkowski sum": no
    # threshold-aware pruning anywhere, neither at the index nor per object.
    minkowski_engine = ImpreciseQueryEngine(
        uncertain_db=rtree_db,
        config=config.engine_config(
            use_p_expanded_query=False, use_pti_pruning=False, ciuq_strategies=()
        ),
    )
    pti_engine = ImpreciseQueryEngine(
        uncertain_db=pti_db,
        config=config.engine_config(use_p_expanded_query=True, use_pti_pruning=True),
    )
    result = FigureResult(
        figure_id="figure_12",
        title="C-IUQ: R-tree + Minkowski sum vs PTI + p-expanded-query",
        x_label="probability threshold Qp",
    )
    u = config.defaults.issuer_half_size
    w = config.defaults.range_half_size
    for salt, qp in enumerate(config.thresholds):
        workload = _workload(
            config, issuer_half_size=u, range_half_size=w, threshold=qp, salt=salt
        )
        minkowski = run_engine_batch(
            minkowski_engine, workload, config.queries_per_point, target="uncertain"
        )
        result.add_point("minkowski_sum", SeriesPoint.from_aggregate(qp, minkowski))
        pti = run_engine_batch(
            pti_engine, workload, config.queries_per_point, target="uncertain"
        )
        result.add_point("pti_p_expanded_query", SeriesPoint.from_aggregate(qp, pti))
    return result


# --------------------------------------------------------------------------- #
# Figure 13 — C-IPQ with a Gaussian issuer pdf (Monte-Carlo evaluation)
# --------------------------------------------------------------------------- #
def figure_13(config: ExperimentConfig | None = None) -> FigureResult:
    """Figure 13: the non-uniform-pdf experiment (truncated Gaussian, Monte-Carlo)."""
    config = config or ExperimentConfig()
    database = _point_database(config)
    engine_config = config.engine_config(
        probability_method="monte_carlo",
        monte_carlo_samples=config.monte_carlo_samples,
    )
    minkowski_engine = ImpreciseQueryEngine(
        point_db=database, config=engine_config.with_overrides(use_p_expanded_query=False)
    )
    expanded_engine = ImpreciseQueryEngine(
        point_db=database, config=engine_config.with_overrides(use_p_expanded_query=True)
    )
    result = FigureResult(
        figure_id="figure_13",
        title="C-IPQ with Gaussian uncertainty pdf (Monte-Carlo)",
        x_label="probability threshold Qp",
        notes=(
            f"Issuer pdf: truncated Gaussian (sigma = region size / 6); "
            f"{config.monte_carlo_samples} Monte-Carlo samples per probability."
        ),
    )
    u = config.defaults.issuer_half_size
    w = config.defaults.range_half_size
    for salt, qp in enumerate(config.thresholds):
        workload = _workload(
            config,
            issuer_half_size=u,
            range_half_size=w,
            threshold=qp,
            issuer_pdf="gaussian",
            salt=salt,
        )
        minkowski = run_engine_batch(
            minkowski_engine, workload, config.queries_per_point, target="points"
        )
        result.add_point("minkowski_sum", SeriesPoint.from_aggregate(qp, minkowski))
        expanded = run_engine_batch(
            expanded_engine, workload, config.queries_per_point, target="points"
        )
        result.add_point("p_expanded_query", SeriesPoint.from_aggregate(qp, expanded))
    return result


#: All figure functions keyed by their identifier, for the CLI and benchmarks.
ALL_FIGURES: dict[str, Callable[[ExperimentConfig | None], FigureResult]] = {
    "figure_08": figure_08,
    "figure_09": figure_09,
    "figure_10": figure_10,
    "figure_11": figure_11,
    "figure_12": figure_12,
    "figure_13": figure_13,
}
