"""``repro.core.heap.paused``: the collector is off inside, as before outside."""

import gc

import pytest

from repro.core import heap
from repro.core.database import PointDatabase, UncertainDatabase
from repro.geometry.rect import Rect
from repro.uncertainty.region import PointObject, UncertainObject


@pytest.fixture()
def collector_state():
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.usefixtures("collector_state")
class TestPaused:
    def test_disables_inside_and_restores_an_enabled_collector(self):
        gc.enable()
        with heap.paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_leaves_a_disabled_collector_disabled(self):
        gc.disable()
        with heap.paused():
            assert not gc.isenabled()
        assert not gc.isenabled()

    def test_nested_pauses_restore_the_outer_state(self):
        gc.enable()
        with heap.paused():
            with heap.paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_restores_on_error(self):
        gc.enable()
        with pytest.raises(RuntimeError):
            with heap.paused():
                raise RuntimeError("boom")
        assert gc.isenabled()

    def test_never_freezes_or_retunes(self):
        thresholds = gc.get_threshold()
        frozen = gc.get_freeze_count()
        with heap.paused():
            pass
        assert gc.get_threshold() == thresholds
        assert gc.get_freeze_count() == frozen

    def test_a_large_build_pays_for_its_full_collection(self):
        """Growth past a quarter of the old generation is collected on exit,
        not left for the next caller's allocations to trigger."""
        gc.enable()
        fulls = gc.get_stats()[2]["collections"]
        with heap.paused():
            built = [[i] for i in range(len(gc.get_objects(2)) // 2 + 1000)]
        assert gc.get_stats()[2]["collections"] == fulls + 1
        assert len(gc.get_objects(0)) < 1000  # the block's objects were promoted
        del built

    def test_a_small_build_leaves_collection_to_the_collector(self):
        gc.enable()
        gc.collect()
        fulls = gc.get_stats()[2]["collections"]
        with heap.paused():
            built = [[i] for i in range(100)]
        assert gc.get_stats()[2]["collections"] == fulls
        del built

    def test_database_builds_leave_the_callers_state(self):
        points = [PointObject.at(i, float(i), float(i)) for i in range(50)]
        uncertain = [UncertainObject.uniform(i, Rect(i, i, i + 2.0, i + 3.0)) for i in range(50)]
        for enabled in (True, False):
            if enabled:
                gc.enable()
            else:
                gc.disable()
            PointDatabase.build(points)
            UncertainDatabase.build(uncertain)
            assert gc.isenabled() is enabled
