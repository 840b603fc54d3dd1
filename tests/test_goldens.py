"""Tier-1 goldens: every suite workload's answers and exact counts stay put.

``tests/golden/<workload>.json`` records, per query, the bitwise answer
digest and the exact work counts of the workload's serial session, and
``tests/golden/pruners.json`` those of one small session per pruning
device (see :mod:`tests.golden.regenerate`, which also regenerates them).  A change to
a kernel, a pruner, the ranking or the candidate filter that moves any of
them fails here, naming the queries that moved.
"""

from __future__ import annotations

import json

import pytest

from benchmarks.suite.workloads import WORKLOADS
from tests.golden.regenerate import PRUNER_SESSIONS, PRUNERS, golden_path, measure, measure_pruners


def _assert_rows_match(golden_rows: list[dict], rows: list[dict]) -> None:
    assert len(rows) == len(golden_rows)
    moved = [
        f"query {position}: {field} {expected[field]!r} -> {row[field]!r}"
        for position, (expected, row) in enumerate(zip(golden_rows, rows))
        for field in expected
        if row[field] != expected[field]
    ]
    assert not moved, f"{len(moved)} golden fields moved:\n" + "\n".join(moved[:20])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_answers_and_counts_match_the_golden(name):
    golden = json.loads(golden_path(name).read_text(encoding="utf-8"))
    current = measure(name)
    assert (current["scale"], current["seed"]) == (golden["scale"], golden["seed"])
    _assert_rows_match(golden["queries"], current["queries"])


@pytest.fixture(scope="module")
def pruner_measurement() -> dict:
    return measure_pruners()


@pytest.mark.parametrize("device", sorted(PRUNER_SESSIONS))
def test_every_pruning_device_matches_its_golden(device, pruner_measurement):
    """Each pruning device's session keeps its answers and exact counts."""
    golden = json.loads(golden_path(PRUNERS).read_text(encoding="utf-8"))
    assert (pruner_measurement["scale"], pruner_measurement["seed"]) == (
        golden["scale"],
        golden["seed"],
    )
    _assert_rows_match(golden["sessions"][device], pruner_measurement["sessions"][device])
