# lint-fixture-path: repro/core/sharding.py
"""An engine module that maps an index probe's objects back to rows."""


def candidate_rows(database, window):
    columnar = database.columnar()
    return columnar.rows_for(database.index.range_search(window))
