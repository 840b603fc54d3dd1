"""The three C-IUQ candidate sources agree: scan, plain PTI probe and PTI traversal.

The vectorised backend scans the snapshot's Qp window when the collection
sits on an R-tree, and probes a PTI with that window plainly (its
candidates mapped to snapshot rows); either way it applies Strategy 1 per
row.  The scalar reference backend runs the PTI's threshold traversal,
which applies Strategy 1 (and, with the Qp window on, Strategy 2) at its
nodes and entries.  All three must give bitwise-equal answers query by
query.  Scan and probe count the same candidates; the traversal's are
theirs less the rows they prune by ``p_bound`` (with the window off,
Strategies 1 and 3 only run, so that Strategy 2 claims none of those rows
first).  On the uniform Long Beach collection the Qp window leaves
Strategy 1 nothing to prune, so there the counts are equal outright;
Gaussian targets inside the window can still fall to it.  A single
``evaluate`` answers like the batch.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.engine import EngineConfig, ImpreciseQueryEngine, UncertainDatabase
from repro.core.pruning import PruningStrategy
from repro.core.queries import RangeQuery
from repro.datasets.tiger import long_beach_uncertain_objects
from repro.datasets.workload import QueryWorkload
from repro.uncertainty.catalog import PAPER_CATALOG_LEVELS
from repro.uncertainty.pdf import TruncatedGaussianPdf
from repro.uncertainty.region import UncertainObject

SCALE = 0.02
SEED = 4343
QUERIES = 6


def _answer(evaluation) -> tuple[bytes, bytes]:
    result = evaluation.result
    return result.oid_array.tobytes(), result.probability_array.tobytes()


def _check_sources(databases, queries, window: bool, **overrides) -> list[int]:
    """Assert the agreement; returns the vectorised ``p_bound`` prunes per query."""
    pti, rtree = databases
    if not window:
        # No Qp window anywhere: per row, Strategy 2 would otherwise claim
        # first (cheapest-first order) the rows the PTI drops by p-bound.
        overrides["ciuq_strategies"] = (PruningStrategy.P_BOUND, PruningStrategy.PRODUCT_BOUND)
    base = EngineConfig(use_p_expanded_query=window, **overrides)
    scan = ImpreciseQueryEngine(uncertain_db=rtree, config=base)
    probe = ImpreciseQueryEngine(uncertain_db=pti, config=base)
    traversal = ImpreciseQueryEngine(
        uncertain_db=pti, config=base.with_overrides(vectorized=False)
    )
    scanned = scan.evaluate_many(queries)
    probed = probe.evaluate_many(queries)
    traversed = [traversal.evaluate(query) for query in queries]
    p_bounds = []
    for query, batch, probed_one, reference in zip(queries, scanned, probed, traversed):
        assert _answer(batch) == _answer(reference)
        assert _answer(probed_one) == _answer(reference)
        assert _answer(probe.evaluate(query)) == _answer(probed_one)
        assert _answer(scan.evaluate(query)) == _answer(batch)
        assert batch.statistics.io.node_accesses == 0
        assert probed_one.statistics.io.node_accesses > 0
        assert reference.statistics.io.node_accesses > 0
        assert probed_one.statistics.candidates_examined == batch.statistics.candidates_examined
        assert probed_one.statistics.pruned == batch.statistics.pruned
        p_bound = batch.statistics.pruned.get("p_bound", 0)
        assert batch.statistics.candidates_examined - p_bound == (
            reference.statistics.candidates_examined
        )
        for vectorised in (batch, probed_one):
            assert vectorised.statistics.probability_computations == (
                reference.statistics.probability_computations
            )
            assert vectorised.statistics.monte_carlo_samples == (
                reference.statistics.monte_carlo_samples
            )
        p_bounds.append(p_bound)
    return p_bounds


def _pti_and_rtree(objects):
    pti = UncertainDatabase.build(objects, catalog_levels=PAPER_CATALOG_LEVELS)
    rtree = UncertainDatabase.build(
        pti.objects, index_kind="rtree", catalog_levels=PAPER_CATALOG_LEVELS
    )
    return pti, rtree


@pytest.fixture(scope="module")
def long_beach():
    return _pti_and_rtree(long_beach_uncertain_objects(scale=SCALE))


@pytest.fixture(scope="module")
def mixed_long_beach():
    """Every third Long Beach region carries a truncated Gaussian instead."""
    objects = [
        UncertainObject(oid=obj.oid, pdf=TruncatedGaussianPdf(obj.region)) if row % 3 else obj
        for row, obj in enumerate(long_beach_uncertain_objects(scale=SCALE / 2))
    ]
    return _pti_and_rtree(objects)


def _queries(issuer_half: float, threshold: float, issuer_pdf: str = "uniform"):
    workload = QueryWorkload(
        issuer_half_size=issuer_half,
        threshold=threshold,
        issuer_pdf=issuer_pdf,
        catalog_levels=PAPER_CATALOG_LEVELS,
        seed=SEED,
    )
    return [
        RangeQuery.ciuq(issuer, workload.spec, threshold)
        for issuer in workload.issuers(QUERIES)
    ]


@pytest.mark.parametrize(
    ("issuer_half", "threshold", "window"),
    list(itertools.product((100.0, 250.0, 1000.0), (0.2, 0.6), (True, False))),
)
def test_scan_and_traversal_agree_on_long_beach(long_beach, issuer_half, threshold, window):
    p_bounds = _check_sources(long_beach, _queries(issuer_half, threshold), window)
    if window:
        assert p_bounds == [0] * QUERIES


@pytest.mark.parametrize("method", ["auto", "exact", "monte_carlo"])
@pytest.mark.parametrize("window", [True, False])
@pytest.mark.parametrize("issuer_pdf", ["uniform", "gaussian"])
def test_scan_and_traversal_agree_on_mixed_targets(
    mixed_long_beach, issuer_pdf, method, window
):
    """Uniform and Gaussian targets: the closed-form mask, the sampled and grid gathers."""
    queries = _queries(100.0, 0.2, issuer_pdf=issuer_pdf)[:1]
    _check_sources(
        mixed_long_beach,
        queries,
        window,
        probability_method=method,
        monte_carlo_samples=64,
    )
    if method != "exact":
        # The sampled route ran (and, under a uniform issuer on ``auto``,
        # beside the closed form).
        answers = ImpreciseQueryEngine(
            uncertain_db=mixed_long_beach[0],
            config=EngineConfig(probability_method=method, monte_carlo_samples=64),
        ).evaluate_many(queries)
        assert sum(e.statistics.monte_carlo_samples for e in answers) > 0
