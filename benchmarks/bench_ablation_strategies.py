"""Ablation — contribution of each C-IUQ pruning strategy (Section 5.2).

Not a figure of the paper, but a study of the design choice it motivates:
how much does each of the three pruning strategies contribute on its own,
and how much does combining them add?  The index window is pinned to the
Minkowski sum so that differences are attributable to the object-level
strategies alone.
"""

import pytest

from repro.core.queries import RangeQuery
from repro.core.engine import EngineConfig, ImpreciseQueryEngine
from repro.core.pruning import ALL_STRATEGIES, PruningStrategy

from benchmarks.conftest import issuer_for

THRESHOLD = 0.6

SUBSETS = {
    "none": (),
    "p_bound": (PruningStrategy.P_BOUND,),
    "p_expanded": (PruningStrategy.P_EXPANDED_QUERY,),
    "product": (PruningStrategy.PRODUCT_BOUND,),
    "all": ALL_STRATEGIES,
}


@pytest.mark.parametrize("subset", sorted(SUBSETS))
def test_ciuq_strategy_subset(benchmark, uncertain_db_rtree, subset):
    """C-IUQ at Qp = 0.6 with only the named strategy subset enabled."""
    engine = ImpreciseQueryEngine(
        uncertain_db=uncertain_db_rtree,
        config=EngineConfig(
            use_p_expanded_query=False,
            ciuq_strategies=SUBSETS[subset],
        ),
    )
    issuer, spec = issuer_for(250.0, threshold=THRESHOLD)
    result = benchmark(lambda: engine.evaluate(RangeQuery.ciuq(issuer, spec, THRESHOLD)))
    assert all(answer.probability >= THRESHOLD for answer in result)
