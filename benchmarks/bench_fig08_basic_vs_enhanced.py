"""Figure 8 — basic method (Equation 4) vs enhanced method (Equation 8) for IUQ.

The paper's figure plots average response time against the issuer's
uncertainty-region size ``u`` for the two evaluation methods.  Each benchmark
below is one point of one series; the benchmark table therefore reproduces
the figure's data.  Expected shape: the basic method is at least an order of
magnitude slower at every ``u``, and both series grow with ``u``.
"""

import pytest

from repro.core.basic import BasicEvaluator
from repro.core.engine import ImpreciseQueryEngine
from repro.core.queries import RangeQuery

from benchmarks.conftest import issuer_for

U_VALUES = [100.0, 250.0, 500.0, 1000.0]


@pytest.mark.parametrize("u", U_VALUES)
def test_enhanced_iuq(benchmark, uncertain_db_rtree, u):
    """Enhanced evaluation: Minkowski filter + closed-form Equation 8."""
    engine = ImpreciseQueryEngine(uncertain_db=uncertain_db_rtree)
    issuer, spec = issuer_for(u)
    result = benchmark(lambda: engine.evaluate(RangeQuery.iuq(issuer, spec)))
    assert result.result is not None


@pytest.mark.parametrize("u", U_VALUES)
def test_basic_iuq(benchmark, uncertain_db_rtree, uncertain_objects, u):
    """Basic evaluation: Equation 4 by discretising the issuer region."""
    evaluator = BasicEvaluator(issuer_samples=400)
    issuer, spec = issuer_for(u)
    query = RangeQuery.iuq(issuer, spec)
    result = benchmark(lambda: evaluator.evaluate_iuq(query, uncertain_objects))
    assert result[0] is not None
