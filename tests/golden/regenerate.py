"""Golden answers and exact work counts of the four suite workloads.

One JSON file per workload of ``benchmarks/suite`` holds, for the first
:data:`QUERIES` queries of seed :data:`SEED` on the workload's *serial*
session at dataset scale :data:`SCALE`, each query's answer digest
(``benchmarks.suite.oracle.digest``: the ranked oids and probabilities,
bit for bit) and its exact counts: candidates, index node accesses, pruned
objects per strategy, probability computations, Monte-Carlo samples and
answers returned.  ``tests/test_goldens.py`` recomputes and compares them,
so a change that moves any served answer or count fails tier-1.

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

#: Dataset scale (1.0 = the paper's cardinality), workload seed, query count.
SCALE = 0.1
SEED = 2007
QUERIES = 64

GOLDEN_DIR = Path(__file__).resolve().parent


def golden_path(name: str) -> Path:
    """The golden file of workload ``name``."""
    return GOLDEN_DIR / f"{name}.json"


def measure(name: str) -> dict:
    """The golden document of workload ``name``, computed on this tree."""
    spec = WORKLOADS[name]
    session = build_serial_session(spec, dataset(spec, SCALE))
    queries = Workload(spec, seed=SEED, factor=1.0).queries[:QUERIES]
    rows = []
    for evaluation in session.evaluate_many(queries):
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
    return {"workload": name, "scale": SCALE, "seed": SEED, "queries": rows}


def main() -> None:
    for name in WORKLOADS:
        document = measure(name)
        golden_path(name).write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
        answers = sum(row["results_returned"] for row in document["queries"])
        print(f"{golden_path(name)}: {len(document['queries'])} queries, {answers} answers")


if __name__ == "__main__":
    main()
