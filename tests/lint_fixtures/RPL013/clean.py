# lint-fixture-path: repro/core/parallel.py
"""A shard merge that concatenates the ranked arrays and ranks them once."""

import numpy as np

from repro.core.queries import QueryAnswer, QueryResult


def merge(parts: list[QueryResult]) -> QueryResult:
    return QueryResult.ranked(
        np.concatenate([part.oid_array for part in parts]),
        np.concatenate([part.probability_array for part in parts]),
    )


def best(result: QueryResult) -> QueryAnswer | None:
    top = result.top(1)
    return top[0] if top else None
