# lint-fixture-path: repro/core/parallel.py
"""A shard merge that wraps every answer in an object before ranking."""

from repro.core import queries
from repro.core.queries import QueryAnswer, QueryResult


def merge(parts):
    answers = [QueryAnswer(oid=oid, probability=p) for part in parts for oid, p in part]
    answers.append(queries.QueryAnswer(0, 1.0))
    return QueryResult(answers=answers)
