"""Tier-1 goldens: every suite workload's answers and exact counts stay put.

``tests/golden/<workload>.json`` records, per query, the bitwise answer
digest and the exact work counts of the workload's serial session (see
:mod:`tests.golden.regenerate`, which also regenerates them).  A change to
a kernel, a pruner, the ranking or the candidate filter that moves any of
them fails here, naming the queries that moved.
"""

from __future__ import annotations

import json

import pytest

from benchmarks.suite.workloads import WORKLOADS
from tests.golden.regenerate import golden_path, measure


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_answers_and_counts_match_the_golden(name):
    golden = json.loads(golden_path(name).read_text(encoding="utf-8"))
    current = measure(name)
    assert (current["scale"], current["seed"]) == (golden["scale"], golden["seed"])
    assert len(current["queries"]) == len(golden["queries"])
    moved = [
        f"query {position}: {field} {expected[field]!r} -> {row[field]!r}"
        for position, (expected, row) in enumerate(zip(golden["queries"], current["queries"]))
        for field in expected
        if row[field] != expected[field]
    ]
    assert not moved, f"{len(moved)} golden fields moved:\n" + "\n".join(moved[:20])
