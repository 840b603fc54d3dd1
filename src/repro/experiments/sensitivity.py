"""Ablation and sensitivity experiments beyond the paper's figures.

These studies back the design decisions called out in DESIGN.md:

* :func:`monte_carlo_sample_sweep` — the paper's claim that ~200 samples
  suffice for C-IPQ under a Gaussian pdf (Section 6.2);
* :func:`catalog_size_sweep` — how many stored p-bounds a U-catalog needs
  before pruning quality saturates;
* :func:`index_comparison` — R-tree vs grid file vs linear scan for the
  expanded-query filter step;
* :func:`pruning_strategy_ablation` — the contribution of each C-IUQ pruning
  strategy (Section 5.2) in isolation and combined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.duality import ipq_probability, ipq_probability_monte_carlo
from repro.core.engine import (
    ImpreciseQueryEngine,
    PointDatabase,
    UncertainDatabase,
)
from repro.core.pruning import ALL_STRATEGIES, PruningStrategy
from repro.datasets.tiger import california_points, long_beach_uncertain_objects
from repro.datasets.workload import QueryWorkload
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import FigureResult, SeriesPoint, run_engine_batch
from repro.geometry.point import Point


@dataclass(frozen=True)
class SampleSweepPoint:
    """Monte-Carlo accuracy at one sample count."""

    samples: int
    mean_absolute_error: float
    max_absolute_error: float


def monte_carlo_sample_sweep(
    sample_counts: Sequence[int] = (25, 50, 100, 200, 400, 800),
    *,
    probes: int = 50,
    config: ExperimentConfig | None = None,
) -> list[SampleSweepPoint]:
    """Error of Monte-Carlo IPQ probabilities against the closed form.

    Probes random point-object locations inside the expanded query of a
    Gaussian issuer and compares the sampled estimate with the exact truncated
    Gaussian probability, reproducing the paper's sensitivity analysis that
    settled on 200 samples for C-IPQ.
    """
    config = config or ExperimentConfig()
    workload = QueryWorkload(
        issuer_half_size=config.defaults.issuer_half_size,
        range_half_size=config.defaults.range_half_size,
        issuer_pdf="gaussian",
        seed=config.seed,
    )
    issuer = next(workload.issuers(1))
    spec = workload.spec
    rng = np.random.default_rng(config.seed)
    region = issuer.region.expand(spec.half_width, spec.half_height)
    locations = [
        Point(float(x), float(y))
        for x, y in zip(
            rng.uniform(region.xmin, region.xmax, size=probes),
            rng.uniform(region.ymin, region.ymax, size=probes),
        )
    ]
    exact = [ipq_probability(issuer.pdf, spec, loc) for loc in locations]

    points: list[SampleSweepPoint] = []
    for samples in sample_counts:
        errors = []
        for loc, truth in zip(locations, exact):
            estimate = ipq_probability_monte_carlo(issuer.pdf, spec, loc, samples, rng)
            errors.append(abs(estimate - truth))
        points.append(
            SampleSweepPoint(
                samples=samples,
                mean_absolute_error=float(np.mean(errors)),
                max_absolute_error=float(np.max(errors)),
            )
        )
    return points


def catalog_size_sweep(
    catalog_sizes: Sequence[int] = (2, 3, 6, 11, 21),
    *,
    threshold: float = 0.6,
    config: ExperimentConfig | None = None,
) -> FigureResult:
    """C-IUQ cost as a function of the number of stored p-bound levels."""
    config = config or ExperimentConfig()
    objects = long_beach_uncertain_objects(scale=config.dataset_scale)
    result = FigureResult(
        figure_id="ablation_catalog",
        title="C-IUQ cost vs U-catalog size",
        x_label="stored p-bound levels",
    )
    for size in catalog_sizes:
        levels = tuple(np.linspace(0.0, 0.5, size))
        database = UncertainDatabase.build(objects, index_kind="pti", catalog_levels=levels)
        engine = ImpreciseQueryEngine(uncertain_db=database, config=config.engine_config())
        # Every catalog size is measured on the *same* query stream so the
        # comparison isolates the catalog resolution.
        workload = QueryWorkload(
            issuer_half_size=config.defaults.issuer_half_size,
            range_half_size=config.defaults.range_half_size,
            threshold=threshold,
            catalog_levels=levels,
            seed=config.workload_seed(0),
        )
        aggregate = run_engine_batch(
            engine, workload, config.queries_per_point, target="uncertain"
        )
        result.add_point("pti_p_expanded_query", SeriesPoint.from_aggregate(size, aggregate))
    return result


def index_comparison(
    *,
    config: ExperimentConfig | None = None,
    index_kinds: Sequence[str] = ("rtree", "grid", "linear"),
) -> FigureResult:
    """IPQ cost under different spatial indexes for the filter step."""
    config = config or ExperimentConfig()
    objects = california_points(scale=config.dataset_scale)
    result = FigureResult(
        figure_id="ablation_index",
        title="IPQ cost by index kind",
        x_label="uncertainty region size u",
    )
    for kind_index, kind in enumerate(index_kinds):
        database = PointDatabase.build(objects, index_kind=kind)  # type: ignore[arg-type]
        engine = ImpreciseQueryEngine(point_db=database, config=config.engine_config())
        for salt, u in enumerate(config.issuer_half_sizes):
            workload = QueryWorkload(
                issuer_half_size=u,
                range_half_size=config.defaults.range_half_size,
                seed=config.workload_seed(kind_index * 1000 + salt),
            )
            aggregate = run_engine_batch(
                engine, workload, config.queries_per_point, target="points"
            )
            result.add_point(kind, SeriesPoint.from_aggregate(u, aggregate))
    return result


#: Named strategy subsets exercised by the pruning ablation.
STRATEGY_SUBSETS: dict[str, tuple[PruningStrategy, ...]] = {
    "none": (),
    "p_bound_only": (PruningStrategy.P_BOUND,),
    "p_expanded_only": (PruningStrategy.P_EXPANDED_QUERY,),
    "product_only": (PruningStrategy.PRODUCT_BOUND,),
    "all": ALL_STRATEGIES,
}


def pruning_strategy_ablation(
    *,
    threshold: float = 0.6,
    config: ExperimentConfig | None = None,
) -> FigureResult:
    """C-IUQ cost with each pruning strategy enabled in isolation.

    The index window is kept at the Minkowski sum for every variant so the
    measured differences are attributable to the object-level strategies
    alone (index-level pruning is studied separately in Figure 12).
    """
    config = config or ExperimentConfig()
    objects = long_beach_uncertain_objects(scale=config.dataset_scale)
    database = UncertainDatabase.build(
        objects, index_kind="rtree", catalog_levels=config.catalog_levels
    )
    result = FigureResult(
        figure_id="ablation_strategies",
        title=f"C-IUQ pruning-strategy ablation (Qp = {threshold})",
        x_label="probability threshold Qp",
    )
    for name, strategies in STRATEGY_SUBSETS.items():
        engine = ImpreciseQueryEngine(
            uncertain_db=database,
            config=config.engine_config(
                use_p_expanded_query=False,
                ciuq_strategies=strategies,
            ),
        )
        # Every strategy subset sees the *same* query stream so differences
        # are attributable to the pruning strategies alone.
        workload = QueryWorkload(
            issuer_half_size=config.defaults.issuer_half_size,
            range_half_size=config.defaults.range_half_size,
            threshold=threshold,
            catalog_levels=config.catalog_levels,
            seed=config.workload_seed(0),
        )
        aggregate = run_engine_batch(
            engine, workload, config.queries_per_point, target="uncertain"
        )
        result.add_point(name, SeriesPoint.from_aggregate(threshold, aggregate))
    return result
