"""Figure 12 — C-IUQ: R-tree + Minkowski sum vs PTI + p-expanded-query, vs Qp.

Expected shape: the PTI + p-expanded-query configuration is at least as fast
for every positive threshold (the paper reports ≈60 % gain at Qp = 0.6); the
gain is smaller than for C-IPQ because uncertain regions are harder to prune
than points.
"""

import pytest

from repro.core.queries import RangeQuery
from repro.core.engine import EngineConfig, ImpreciseQueryEngine

from benchmarks.conftest import issuer_for

THRESHOLDS = [0.0, 0.2, 0.4, 0.6, 0.8]


@pytest.mark.parametrize("qp", THRESHOLDS)
def test_ciuq_rtree_minkowski(benchmark, uncertain_db_rtree, qp):
    """Baseline: plain R-tree window query with the Minkowski sum."""
    engine = ImpreciseQueryEngine(
        uncertain_db=uncertain_db_rtree,
        config=EngineConfig(
            use_p_expanded_query=False, ciuq_strategies=(), vectorized=False
        ),
    )
    issuer, spec = issuer_for(250.0, threshold=qp)
    result = benchmark(lambda: engine.evaluate(RangeQuery.ciuq(issuer, spec, qp)))
    assert all(answer.probability >= qp for answer in result)


@pytest.mark.parametrize("qp", THRESHOLDS)
def test_ciuq_pti_p_expanded(benchmark, uncertain_db_pti, qp):
    """Paper's method: PTI node-level pruning plus the Qp-expanded-query.

    Both series pin the scalar reference backend, the only one that runs the
    PTI's threshold traversal (the vectorised backend scans the Qp window).
    """
    engine = ImpreciseQueryEngine(
        uncertain_db=uncertain_db_pti,
        config=EngineConfig(use_p_expanded_query=True, vectorized=False),
    )
    issuer, spec = issuer_for(250.0, threshold=qp)
    result = benchmark(lambda: engine.evaluate(RangeQuery.ciuq(issuer, spec, qp)))
    assert all(answer.probability >= qp for answer in result)
