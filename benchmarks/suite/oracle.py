"""Answer verification: bitwise digests against a serial session, cheap invariants.

Under ``draw_plan="query_keyed"`` an answer is a pure function of the query's
content and the database state, so the served and the embedded answer of a
query must equal — bit for bit — what an in-process *serial* session under
the same ``EngineConfig`` computes.  Digests cover the oids and the
probabilities in ranked order.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.core.queries import Evaluation

#: Every this-many-th distinct query is compared bitwise; all others are
#: checked for the invariants only.
DIGEST_STRIDE = 8


def digest(evaluation: Evaluation) -> str:
    """A hash of the ranked ``(oid, probability)`` answers, bit-exact."""
    answers = evaluation.answers
    oids = np.fromiter((a.oid for a in answers), dtype=np.int64, count=len(answers))
    probabilities = np.fromiter(
        (a.probability for a in answers), dtype=np.float64, count=len(answers)
    )
    return hashlib.blake2b(oids.tobytes() + probabilities.tobytes(), digest_size=16).hexdigest()


def invariant_violation(evaluation: Evaluation, threshold: float) -> str | None:
    """Why ``evaluation`` cannot be a valid answer, or ``None`` when it can."""
    answers = evaluation.answers
    if len(answers) != evaluation.statistics.results_returned:
        return (
            f"{len(answers)} answers but statistics.results_returned="
            f"{evaluation.statistics.results_returned}"
        )
    if not answers:
        return None
    probabilities = np.fromiter(
        (a.probability for a in answers), dtype=np.float64, count=len(answers)
    )
    if not (probabilities.min() > 0.0 and probabilities.max() <= 1.0):
        return "a probability outside (0, 1]"
    if probabilities.min() < threshold:
        return f"a probability below the threshold {threshold}"
    if np.any(np.diff(probabilities) > 0.0):
        return "answers not sorted by decreasing probability"
    return None


def verify(
    evaluations: dict[int, Evaluation],
    expected: dict[int, str],
    threshold: float,
    *,
    phase: str,
) -> list[str]:
    """Failures among ``evaluations`` (query index → answer).

    ``expected`` maps the sampled query indices to their reference digests;
    every answer is checked for the invariants, the sampled ones bitwise.
    """
    failures = []
    for index, evaluation in evaluations.items():
        problem = invariant_violation(evaluation, threshold)
        if problem is None and index in expected and digest(evaluation) != expected[index]:
            problem = "answer differs bitwise from the serial reference"
        if problem is not None:
            failures.append(f"{phase} query {index}: {problem}")
    return failures
