# lint-fixture-path: repro/core/plan.py
"""Content-keyed lookups: equal queries and equal configs share one entry."""


def query_cache_key(query):
    pdf = query.issuer.pdf.to_dict()
    return repr((query.issuer.oid, pdf, query.spec, query.threshold))


def shard_pipeline(pipelines, sid, config):
    return pipelines.get((sid, config.fingerprint()))


def scope_key(database):
    # A database uid is never reassigned, unlike an id().
    return (database.uid, database.epoch)
