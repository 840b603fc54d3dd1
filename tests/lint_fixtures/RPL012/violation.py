# lint-fixture-path: repro/core/database.py
"""A bulk build that switches the collector off by hand."""

import gc
from gc import freeze


def build(objects, index_kind):
    gc.disable()
    database = make_database(objects, index_kind)
    gc.enable()
    freeze()
    return database
