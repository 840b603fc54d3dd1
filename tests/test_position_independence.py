"""A query's answer depends on its content and the data, never on its position.

Every Monte-Carlo draw is keyed by the query's content (its fingerprint's
draw token), so a sampled workload answers bitwise alike in order,
reversed, one query per call, split around an (empty) update batch, and
on serial, sharded, distributed and cached sessions.  The standalone
nearest-neighbour engine draws the same content-keyed positions as the
query engines, and a pdf without a wire form — which would have no
content identity — cannot be built at all.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import EngineConfig, ImpreciseQueryEngine
from repro.core.nearest import ImpreciseNearestNeighborEngine
from repro.core.queries import NearestNeighborQuery, RangeQuery, RangeQuerySpec
from repro.core.session import Session
from repro.core.updates import UpdateBatch
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.uncertainty.pdf import TruncatedGaussianPdf, UncertaintyPdf, UniformPdf
from repro.uncertainty.region import UncertainObject

CONFIG = EngineConfig(probability_method="monte_carlo", monte_carlo_samples=64)


def _gaussian_issuer(center: Point, oid: int) -> UncertainObject:
    region = Rect.from_center(center, 300.0, 300.0)
    return UncertainObject(oid=oid, pdf=TruncatedGaussianPdf(region)).with_catalog()


def _workload(small_points, small_uncertain) -> list:
    """Seeded C-IPQ, C-IUQ and NN queries, some repeated, shuffled together."""
    rng = np.random.default_rng(4242)
    spec = RangeQuerySpec.square(400.0)
    distinct = []
    for i in range(3):
        point = small_points[int(rng.integers(len(small_points)))].location
        center = small_uncertain[int(rng.integers(len(small_uncertain)))].region.center
        distinct.append(RangeQuery.cipq(_gaussian_issuer(point, -1 - 3 * i), spec, 0.1))
        distinct.append(RangeQuery.ciuq(_gaussian_issuer(center, -2 - 3 * i), spec, 0.1))
        distinct.append(
            NearestNeighborQuery(issuer=_gaussian_issuer(point, -3 - 3 * i), samples=48)
        )
    repeats = [distinct[int(j)] for j in rng.integers(len(distinct), size=5)]
    pool = distinct + repeats
    return [pool[int(k)] for k in rng.permutation(len(pool))]


def _bits(evaluation) -> tuple[bytes, bytes]:
    result = evaluation.result
    return result.oid_array.tobytes(), result.probability_array.tobytes()


def _call_patterns(session: Session, queries: list) -> dict[str, list[tuple[bytes, bytes]]]:
    """Each query's answer bits under four call patterns, in workload order."""
    half = len(queries) // 2
    return {
        "in order": [_bits(e) for e in session.evaluate_many(queries)],
        "reversed": [_bits(e) for e in session.evaluate_many(queries[::-1])][::-1],
        "one per call": [_bits(session.evaluate(query)) for query in queries],
        "split by an update batch": [
            _bits(e)
            for e in session.evaluate_many(queries[:half] + [UpdateBatch()] + queries[half:])
        ],
    }


def test_every_call_pattern_and_session_kind_agrees(small_points, small_uncertain):
    queries = _workload(small_points, small_uncertain)
    serial = Session.from_objects(points=small_points, uncertain=small_uncertain, config=CONFIG)
    expected = [_bits(e) for e in serial.evaluate_many(queries)]
    assert sum(1 for oids, _ in expected if oids) >= len(queries) // 2
    distributed = serial.distributed(2)
    try:
        sessions = {
            "serial": serial,
            "sharded(3)": serial.sharded(3),
            "distributed(2)": distributed,
            "cached()": serial.cached(),
        }
        for kind, session in sessions.items():
            for way, answers in _call_patterns(session, queries).items():
                assert answers == expected, f"{kind}, {way}"
    finally:
        distributed.engine.close()


def test_standalone_nearest_engine_draws_like_the_query_engine(point_db, small_points):
    issuer = _gaussian_issuer(small_points[5].location, oid=-9)
    engine = ImpreciseQueryEngine(point_db=point_db, config=EngineConfig(rng_seed=31))
    for threshold in (0.0, 0.2):
        query = NearestNeighborQuery(issuer=issuer, threshold=threshold, samples=200)
        standalone = ImpreciseNearestNeighborEngine(
            small_points, index=point_db.index, samples=200, rng_seed=31
        )
        result, _ = standalone.evaluate(issuer, threshold=threshold)
        assert len(result) > 0
        expected = engine.evaluate(query).result
        assert result.oid_array.tobytes() == expected.oid_array.tobytes()
        assert result.probability_array.tobytes() == expected.probability_array.tobytes()
        # Repeating a standalone query draws the same positions again.
        again, _ = standalone.evaluate(issuer, threshold=threshold)
        assert again.probability_array.tobytes() == result.probability_array.tobytes()


def test_a_pdf_without_a_wire_form_cannot_be_built():
    class NoWirePdf(UniformPdf):
        to_dict = UncertaintyPdf.to_dict

    with pytest.raises(TypeError):
        NoWirePdf(Rect(0.0, 0.0, 1.0, 1.0))
