# lint-fixture-path: repro/core/database.py
"""A bulk build that pauses the collector through the heap module."""

from repro.core import heap


def build(objects, index_kind):
    with heap.paused():
        return make_database(objects, index_kind)
