# lint-fixture-path: repro/core/plan.py
"""Identity-keyed lookups: a decoded twin of the query never matches."""


def query_cache_key(query):
    return ("range", id(query.issuer), query.spec, query.threshold)


def shard_pipeline(pipelines, sid, config):
    return pipelines.get((sid, id(config)))
