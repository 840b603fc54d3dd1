"""Imprecise nearest-neighbour queries — the paper's stated future work.

The conclusion of the paper announces support for "other location-dependent
queries (such as the nearest-neighbor queries)" as future work.  This module
provides a snapshot imprecise nearest-neighbour query over point objects: the
query issuer's location is uncertain, and each object's qualification
probability is the probability (under the issuer's pdf) that the object is
the issuer's nearest neighbour.

Evaluation samples the issuer's pdf, finds the nearest point object for every
sampled position with a best-first R-tree search, and normalises the win
counts.  The issuer positions are the counter draws of the query's content
(:func:`nn_query_draws` under the query's draw token), which hold no
generator state: the standalone :class:`ImpreciseNearestNeighborEngine`,
the query engines and every shard sample the identical positions for one
query and one seed.
"""

from __future__ import annotations
from repro.core.errors import ConfigurationError, InvalidQueryError

import math

import numpy as np

from repro.geometry.point import Point
from repro.core.draws import query_stream_key, uniforms
from repro.core.plan import query_draw_token, query_fingerprint
from repro.core.queries import NearestNeighborQuery, QueryAnswer, QueryResult
from repro.core.statistics import EvaluationStatistics
from repro.index.rtree import RTree
from repro.uncertainty.pdf import UncertaintyPdf
from repro.uncertainty.region import PointObject, UncertainObject
import time


def nn_query_draws(
    issuer_pdf: UncertaintyPdf, samples: int, rng_seed: int, draw_token: int
) -> np.ndarray:
    """The keyed draws of a nearest-neighbour query: ``(samples, 2)`` positions.

    The issuer draws are the counter draws of the query's own stream
    (:func:`repro.core.draws.query_stream_key` of ``(engine seed, draw
    token)`` — a domain no oid's stream key comes from, since NN draws
    belong to the query rather than to a candidate): x from columns
    ``[0, n)``, y from ``[n, 2n)``.  Every shard of a sharded database, and
    the single-shard reference engine, samples the identical positions for
    a given query.  ``draw_token`` is the query's draw token, any integer.
    """
    if samples <= 0:
        raise InvalidQueryError(f"samples must be positive, got {samples}")
    u = uniforms(query_stream_key(rng_seed, draw_token), 2 * samples)[0]
    xs, ys = issuer_pdf.from_uniforms(u[:samples], u[samples:])
    return np.column_stack([xs, ys])


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
        array; when omitted, they are the content-keyed draws of
        ``NearestNeighborQuery(issuer, threshold, samples)`` under the
        engine's ``rng_seed`` — the draws a query engine with that seed
        samples for that query, so both answer bitwise alike.
        """
        if not 0.0 <= threshold <= 1.0:
            raise InvalidQueryError(f"threshold must lie in [0, 1], got {threshold}")
        started = time.perf_counter()
        if draws is None:
            query = NearestNeighborQuery(
                issuer=issuer, threshold=threshold, samples=self._samples
            )
            draws = nn_query_draws(
                issuer.pdf,
                self._samples,
                self._rng_seed,
                query_draw_token(query_fingerprint(query)),
            )
        winners, _, stats = self.per_draw_winners(draws)
        oids, counts = np.unique(winners, return_counts=True)
        stats.candidates_examined = int(oids.size)
        result = QueryResult.qualifying(oids, counts / len(draws), threshold)
        stats.results_returned = len(result)
        stats.response_time = time.perf_counter() - started
        return result, stats

    def per_draw_winners(
        self, draws: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, EvaluationStatistics]:
        """Nearest object per issuer draw: ``(oids, distances, statistics)``.

        :meth:`evaluate` counts the winners; it is also the shard-merge
        primitive of sharded execution: each shard
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
