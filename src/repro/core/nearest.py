"""Imprecise nearest-neighbour queries — the paper's stated future work.

The conclusion of the paper announces support for "other location-dependent
queries (such as the nearest-neighbor queries)" as future work.  This module
provides a snapshot imprecise nearest-neighbour query over point objects: the
query issuer's location is uncertain, and each object's qualification
probability is the probability (under the issuer's pdf) that the object is
the issuer's nearest neighbour.

Evaluation samples the issuer's pdf, finds the nearest point object for every
sampled position with a best-first R-tree search, and normalises the win
counts.  The standalone :class:`ImpreciseNearestNeighborEngine` samples
from its own generator; the query engines hand it the query's counter
stream (:func:`nn_query_draws`), which holds no generator state.  The
candidate set is first narrowed with a conservative geometric filter: an
object whose minimum possible distance to the issuer region exceeds the
smallest maximum distance of some other object can never win.
"""

from __future__ import annotations
from repro.core.errors import ConfigurationError, InvalidQueryError

from dataclasses import dataclass

import math

import numpy as np

from repro.geometry.point import Point
from repro.core.draws import query_stream_key, uniforms
from repro.core.queries import QueryAnswer, QueryResult
from repro.core.statistics import EvaluationStatistics
from repro.index.rtree import RTree
from repro.uncertainty.pdf import UncertaintyPdf
from repro.uncertainty.region import PointObject, UncertainObject
import time


def nn_query_draws(
    issuer_pdf: UncertaintyPdf, samples: int, rng_seed: int, query_seq: int
) -> np.ndarray:
    """The keyed draws of a nearest-neighbour query: ``(samples, 2)`` positions.

    The issuer draws are the counter draws of the query's own stream
    (:func:`repro.core.draws.query_stream_key` of ``(engine seed, draw
    token)`` — a domain no oid's stream key comes from, since NN draws
    belong to the query rather than to a candidate): x from columns
    ``[0, n)``, y from ``[n, 2n)``.  Every shard of a sharded database, and
    the single-shard reference engine, samples the identical positions for
    a given query.  ``query_seq`` is the plan's draw token, any integer.
    """
    if samples <= 0:
        raise InvalidQueryError(f"samples must be positive, got {samples}")
    u = uniforms(query_stream_key(rng_seed, query_seq), 2 * samples)[0]
    xs, ys = issuer_pdf.from_uniforms(u[:samples], u[samples:])
    return np.column_stack([xs, ys])


@dataclass(frozen=True)
class NearestNeighborAnswer:
    """An object together with its probability of being the nearest neighbour."""

    oid: int
    probability: float


class ImpreciseNearestNeighborEngine:
    """Evaluates imprecise nearest-neighbour queries over point objects."""

    def __init__(
        self,
        objects: list[PointObject],
        *,
        index: RTree | None = None,
        samples: int = 256,
        rng_seed: int = 11,
    ) -> None:
        if not objects:
            raise ConfigurationError("the nearest-neighbour engine needs at least one object")
        if samples <= 0:
            raise InvalidQueryError("samples must be positive")
        self._objects = list(objects)
        self._index = index if index is not None else RTree.bulk_load(self._objects)
        self._samples = samples
        self._rng_seed = rng_seed
        self._rng: np.random.Generator | None = None

    def evaluate(
        self,
        issuer: UncertainObject,
        *,
        threshold: float = 0.0,
        draws: np.ndarray | None = None,
    ) -> tuple[QueryResult, EvaluationStatistics]:
        """Return objects with their nearest-neighbour qualification probabilities.

        Only objects with probability at least ``threshold`` (and non-zero)
        are reported, mirroring the constrained range-query semantics.
        ``draws`` optionally supplies the issuer positions as an ``(n, 2)``
        array (e.g. the deterministic per-query plan of
        :func:`nn_query_draws`); when omitted, the engine's own advancing
        generator draws ``samples`` positions as before.
        """
        if not 0.0 <= threshold <= 1.0:
            raise InvalidQueryError(f"threshold must lie in [0, 1], got {threshold}")
        started = time.perf_counter()
        stats = EvaluationStatistics()
        before = self._index.stats.snapshot()

        if draws is None:
            if self._rng is None:
                self._rng = np.random.default_rng(self._rng_seed)
            draws = issuer.pdf.sample(self._rng, self._samples)
        samples = len(draws)
        stats.monte_carlo_samples = samples
        winner_oids: list[int] = []
        for x, y in draws:
            winners = self._index.nearest_neighbors(Point(float(x), float(y)), k=1)
            if winners:
                winner: PointObject = winners[0]
                winner_oids.append(winner.oid)

        stats.io = self._index.stats.difference_since(before)
        oids, counts = np.unique(np.array(winner_oids, dtype=np.int64), return_counts=True)
        stats.candidates_examined = int(oids.size)
        result = QueryResult.qualifying(oids, counts / samples, threshold)
        stats.results_returned = len(result)
        stats.response_time = time.perf_counter() - started
        return result, stats

    def per_draw_winners(
        self, draws: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, EvaluationStatistics]:
        """Nearest object per issuer draw: ``(oids, distances, statistics)``.

        The shard-merge primitive of the parallel executor: each shard
        reports, for every draw of the shared per-query plan, its local
        winner and that winner's exact distance; the merger keeps the
        globally closest (ties broken towards the smaller oid).  The returned
        statistics carry the index I/O and wall-clock time of this pass.
        """
        started = time.perf_counter()
        stats = EvaluationStatistics()
        before = self._index.stats.snapshot()
        oids = np.empty(len(draws), dtype=np.int64)
        distances = np.empty(len(draws), dtype=float)
        for row, (x, y) in enumerate(draws):
            winner: PointObject = self._index.nearest_neighbors(
                Point(float(x), float(y)), k=1
            )[0]
            oids[row] = winner.oid
            distances[row] = math.hypot(
                float(x) - winner.location.x, float(y) - winner.location.y
            )
        stats.io = self._index.stats.difference_since(before)
        stats.monte_carlo_samples = len(draws)
        stats.response_time = time.perf_counter() - started
        return oids, distances, stats

    def most_probable_neighbor(self, issuer: UncertainObject) -> QueryAnswer | None:
        """Convenience wrapper returning only the most probable nearest neighbour."""
        result, _ = self.evaluate(issuer)
        best = result.top(1)
        return best[0] if best else None
