# lint-fixture-path: repro/core/pipeline.py
"""A range path on columns: rows in, oids out, objects only for sampled rows."""

from repro.core.columnar import PDF_UNIFORM


def run(columnar, database, window, kernel):
    rows = columnar.window_rows(window)
    closed = columnar.kinds[rows] == PDF_UNIFORM
    sampled = kernel(columnar.objects_at(rows[~closed]))
    engine = build_nearest(database.objects)
    return columnar.oids[rows], columnar.bounds[rows[closed]], sampled, engine


def build_nearest(objects):
    return len(objects)
