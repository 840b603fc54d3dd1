"""Golden answers and exact work counts of the four suite workloads.

One JSON file per workload of ``benchmarks/suite`` holds, for the first
:data:`QUERIES` queries of seed :data:`SEED` on the workload's *serial*
session at dataset scale :data:`SCALE`, each query's answer digest
(``benchmarks.suite.oracle.digest``: the ranked oids and probabilities,
bit for bit) and its exact counts: candidates, index node accesses, pruned
objects per strategy, probability computations, Monte-Carlo samples and
answers returned.  ``tests/test_goldens.py`` recomputes and compares them,
so a change that moves any served answer or count fails tier-1.

A fifth file, ``pruners.json``, does the same for small C-IUQ sessions
over the Long Beach rectangles in which each pruning device of Section 5.2
has a non-zero marginal — the suite workloads run every device behind the
Qp-expanded window, where three of them remove nothing, so their goldens
would not notice a broken one (see :data:`PRUNER_SESSIONS`).

Every workload uses uniform issuers and counter-based draws, whose
arithmetic is portable, so the digests compare bitwise.

Regenerate (only when a change *should* move answers or counts — say in
the change log which queries moved and why) from the repository root::

    PYTHONPATH=src python -m tests.golden.regenerate
"""

from __future__ import annotations

import json
from pathlib import Path

from benchmarks.suite import oracle
from benchmarks.suite.workloads import WORKLOADS, Workload, build_serial_session, dataset
from repro.core.pruning import PruningStrategy
from repro.core.queries import RangeQuery
from repro.core.session import Session
from repro.datasets.tiger import long_beach_uncertain_objects
from repro.datasets.workload import QueryWorkload

#: Dataset scale (1.0 = the paper's cardinality), workload seed, query count.
SCALE = 0.1
SEED = 2007
QUERIES = 64

GOLDEN_DIR = Path(__file__).resolve().parent

#: The pruner goldens' file name (under :data:`GOLDEN_DIR`) and query count.
PRUNERS = "pruners"
PRUNER_QUERIES = 32

#: One C-IUQ session per pruning device, each configured so that the device
#: removes candidates no other active device removes: ``(index kind, u, Qp,
#: EngineConfig overrides)``, with w = 500 throughout.
#:
#: * ``pti_level_test`` — the PTI's node-level and entry-level p-bound tests
#:   (the index form of Strategy 1) with the Qp window off; they show in
#:   candidates and node accesses, since the index applies them.  Pinned to
#:   the scalar reference backend, the only one that runs the traversal.
#: * ``strategy_1`` — Strategy 1 per object (R-tree, window off): a
#:   ``p_bound`` pruned count.
#: * ``strategy_3`` — Strategy 3 at u = 100, Qp = 0.2 on the default path: a
#:   ``product_bound`` pruned count.
#: * ``strategy_2`` — Strategy 2 on the default path, where the
#:   Qp-expanded window is the probe itself: it shows in candidates.
PRUNER_SESSIONS: dict[str, tuple[str, float, float, dict]] = {
    "pti_level_test": (
        "pti",
        250.0,
        0.6,
        {
            "use_p_expanded_query": False,
            "ciuq_strategies": (PruningStrategy.P_BOUND,),
            "vectorized": False,
        },
    ),
    "strategy_1": (
        "rtree",
        250.0,
        0.6,
        {"use_p_expanded_query": False, "ciuq_strategies": (PruningStrategy.P_BOUND,)},
    ),
    "strategy_3": ("pti", 100.0, 0.2, {}),
    "strategy_2": ("pti", 250.0, 0.6, {}),
}


def golden_path(name: str) -> Path:
    """The golden file of workload ``name``."""
    return GOLDEN_DIR / f"{name}.json"


def _rows(evaluations) -> list[dict]:
    """Each evaluation's answer digest and exact work counts."""
    rows = []
    for evaluation in evaluations:
        stats = evaluation.statistics
        rows.append(
            {
                "digest": oracle.digest(evaluation),
                "candidates": stats.candidates_examined,
                "node_accesses": stats.io.node_accesses,
                "pruned": dict(sorted(stats.pruned.items())),
                "probability_computations": stats.probability_computations,
                "mc_samples": stats.monte_carlo_samples,
                "results_returned": stats.results_returned,
            }
        )
    return rows


def measure(name: str) -> dict:
    """The golden document of workload ``name``, computed on this tree."""
    spec = WORKLOADS[name]
    session = build_serial_session(spec, dataset(spec, SCALE))
    queries = Workload(spec, seed=SEED, factor=1.0).queries[:QUERIES]
    rows = _rows(session.evaluate_many(queries))
    return {"workload": name, "scale": SCALE, "seed": SEED, "queries": rows}


def measure_pruners() -> dict:
    """The pruner golden document (one row list per device), computed on this tree."""
    objects = long_beach_uncertain_objects(scale=SCALE)
    bases = {
        kind: Session.from_objects(uncertain=objects, uncertain_index=kind)
        for kind in ("pti", "rtree")
    }
    sessions = {}
    for device, (kind, issuer_half, threshold, overrides) in PRUNER_SESSIONS.items():
        workload = QueryWorkload(issuer_half_size=issuer_half, threshold=threshold, seed=SEED)
        queries = [
            RangeQuery.ciuq(issuer, workload.spec, threshold)
            for issuer in workload.issuers(PRUNER_QUERIES)
        ]
        session = bases[kind].with_config(**overrides)
        sessions[device] = _rows(session.evaluate_many(queries))
    return {"workload": PRUNERS, "scale": SCALE, "seed": SEED, "sessions": sessions}


def _write(name: str, document: dict) -> None:
    golden_path(name).write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")


def main() -> None:
    for name in WORKLOADS:
        document = measure(name)
        _write(name, document)
        answers = sum(row["results_returned"] for row in document["queries"])
        print(f"{golden_path(name)}: {len(document['queries'])} queries, {answers} answers")
    document = measure_pruners()
    _write(PRUNERS, document)
    for device, rows in document["sessions"].items():
        pruned = sum(sum(row["pruned"].values()) for row in rows)
        candidates = sum(row["candidates"] for row in rows)
        print(f"{golden_path(PRUNERS)} {device}: {candidates} candidates, {pruned} pruned")


if __name__ == "__main__":
    main()
