# lint-fixture-path: repro/core/pipeline.py
"""A range stage that probes the database's own index, built on first read."""


def candidates(database, window):
    index = database.index
    return index.range_search(window)


def built(database) -> bool:
    return database.index_built
