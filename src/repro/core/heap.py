"""The one place the package touches Python's cyclic garbage collector.

Bulk construction — a database's objects, U-catalogs, index nodes and
columnar arrays — allocates hundreds of thousands of container objects and
creates no garbage cycles.  With the collector running, every few hundred
allocations trigger a pass, and the generation-2 passes walk everything built
so far: on the paper-scale ``ciuq_pti`` session they cost about a third of the
build.  :func:`paused` switches the collector off for such a block and
restores the caller's previous state on the way out (nested uses compose).

Pausing must not hand the collector's work to whatever runs next.  CPython
starts a full collection once the objects that reached the old generation
since the last one grow past a quarter of it; a paused block skips the young
collections that would count its objects, so that full pass would land on
the first queries instead.  When the block leaves the young generations
holding more than a quarter of the old one's size, :func:`paused` runs that
full collection itself before re-enabling, so the build pays for its own
pass — once, instead of once per quarter of growth.

It never freezes objects, never changes thresholds, and is never used around
update or query paths.  Lint rule RPL012 keeps every other ``gc`` call out of
the package.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def paused() -> Iterator[None]:
    """Disable the cyclic collector for the block; restore its prior state.

    On the way out of an outermost pause (the collector was enabled), the
    full collection the block's growth has made due runs before the
    collector is re-enabled.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            young = len(gc.get_objects(0)) + len(gc.get_objects(1))
            if young > len(gc.get_objects(2)) // 4:
                gc.collect()
            gc.enable()
