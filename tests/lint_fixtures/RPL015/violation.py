# lint-fixture-path: repro/core/pipeline.py
"""A range path that turns its window rows back into objects."""

import numpy as np


def run(columnar, window, issuer_uniform):
    rows = columnar.window_rows(window)
    candidates = [columnar.objects[row] for row in rows]
    exact = [row for row, obj in enumerate(columnar.objects) if issuer_uniform]
    for obj in columnar.objects:
        exact.append(obj.oid)
    return np.fromiter((obj.oid for obj in candidates), dtype=np.int64), exact
