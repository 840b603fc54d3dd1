# lint-fixture-path: repro/core/pipeline.py
"""A range stage that indexes the collection itself before probing it."""

from repro.index import registry
from repro.index.registry import build_index
from repro.index.rtree import RTree


def candidates(database, window):
    index = build_index(list(database.objects), database.kind)
    return index.range_search(window)


def nearest(database, point):
    tree = RTree.bulk_load(database.objects)
    return tree.nearest_neighbors(point, k=1)


def rebuilt(database):
    return registry.build_index(database.objects, "grid")
