# lint-fixture-path: repro/core/sharding.py
"""An engine module that probes for oids and maps them to rows."""

import numpy as np


def candidate_rows(database, window):
    columnar = database.columnar()
    return columnar.rows_of(np.sort(database.index.range_search_oids(window)))


def objects_of(columnar, rows):
    # Only core/pipeline.py must not walk a snapshot's objects.
    return [columnar.objects[row] for row in rows]
