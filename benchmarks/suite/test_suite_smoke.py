"""Tier-1 smoke test of the benchmark suite (``run --quick``, a few seconds).

Quick mode runs every workload at scale 0.02 with 64 operations, so this
checks the harness — every metric is emitted, counts repeat, failures are
counted instead of raised — not the numbers.
"""

from __future__ import annotations

import json
import re
from concurrent.futures import ThreadPoolExecutor

import pytest

from benchmarks.suite import report
from benchmarks.suite.__main__ import main
from benchmarks.suite.harness import RunOptions, run_workload
from benchmarks.suite.workloads import WORKLOADS

#: Per-layer counts that are a pure function of the seed.
EXACT_COUNTS = (
    "serve.server.request_bytes",
    "core.statistics.candidates",
    "core.statistics.answers",
    "core.statistics.mc_samples",
    "rpc.pool.bytes_per_query",
)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Every quick run the tests below look at, two at a time."""
    plain_dir = tmp_path_factory.mktemp("plain")
    traced_dir = tmp_path_factory.mktemp("traced")

    def traced(workload: str, seed: int):
        return run_workload(workload, RunOptions(seed=seed, quick=True, traced=True))

    def faulty(workload: str, fault: str):
        return run_workload(workload, RunOptions(seed=7, quick=True, fault=fault))

    with ThreadPoolExecutor(max_workers=2) as pool:
        jobs = {
            "plain": pool.submit(main, ["run", "--quick", "--report-dir", str(plain_dir)]),
            "traced": pool.submit(
                main, ["run", "--quick", "--trace", "--report-dir", str(traced_dir)]
            ),
            "killed": pool.submit(faulty, "cipq_mc_dist", "kill_daemon"),
            "wrong": pool.submit(faulty, "ipq_wide", "wrong_answer"),
            "again": pool.submit(traced, "ipq_wide", 2007),
            "other": pool.submit(traced, "ipq_wide", 7),
        }
        done = {name: job.result() for name, job in jobs.items()}
    for name, directory in (("plain", plain_dir), ("traced", traced_dir)):
        (path,) = [p for p in directory.glob("*.json") if p.name != "trace.json"]
        done[f"{name}_report"] = json.loads(path.read_text())
        done[f"{name}_path"] = path
    return done


def test_quick_run_emits_every_metric_without_failures(runs):
    assert runs["plain"] == 0 and runs["traced"] == 0
    contract = report.contract()
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    for kind, document in (
        ("end_to_end", runs["plain_report"]),
        ("per_layer", runs["traced_report"]),
    ):
        assert document["quick"] is True
        names = [metric["name"] for metric in contract[kind]]
        assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
        assert set(document["workloads"]) == set(WORKLOADS)
        for workload, entry in document["workloads"].items():
            assert entry["failed"] == 0, (workload, entry["failures"])
            assert entry["attempted"] >= 64
            assert list(entry[kind]) == names, workload  # none missing, none extra
    for workload, entry in runs["plain_report"]["workloads"].items():
        assert all(cell["value"] > 0 for cell in entry["end_to_end"].values()), workload


def test_stage_sum_explains_the_whole(runs):
    for workload, entry in runs["traced_report"]["workloads"].items():
        layer = {name: cell["value"] for name, cell in entry["per_layer"].items()}
        filtered = (
            "index.range_search_us" if workload == "ciuq_pti" else "core.columnar.window_us"
        )
        stages = (
            layer["core.plan.plan_us"]
            + layer[filtered]
            + layer["core.pruning.decide_us"]
            + layer["core.duality.kernel_us"]
        )
        assert layer["core.engine.evaluate_us"] > 0
        assert stages + layer["core.pipeline.unattributed_us"] == pytest.approx(
            layer["core.engine.evaluate_us"]
        )


def test_counts_repeat_for_a_seed_and_differ_across_seeds(runs):
    first = runs["traced_report"]["workloads"]["ipq_wide"]["per_layer"]
    again, other = runs["again"], runs["other"]
    assert again.failed == 0 and other.failed == 0
    for name in EXACT_COUNTS:
        assert again.per_layer[name] == first[name]["value"], name
    assert any(other.per_layer[name] != first[name]["value"] for name in EXACT_COUNTS)


def test_injected_faults_are_counted_not_raised(runs):
    wrong, killed = runs["wrong"], runs["killed"]
    assert wrong.failed >= 1
    assert any("differs bitwise" in failure for failure in wrong.failures)
    assert killed.failed >= 1 and killed.attempted >= killed.failed


def test_compare_refuses_quick_reports(runs, capsys):
    path = str(runs["plain_path"])
    assert main(["compare", path, path]) == 2
    assert "quick" in capsys.readouterr().out
