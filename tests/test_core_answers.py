"""Columnar answers: one ranked oid/probability array pair end to end.

A :class:`~repro.core.queries.QueryResult` is two read-only arrays ranked by
(−p, oid).  These tests pin what that representation promises:

* :meth:`QueryResult.ranked` ranks exactly like the reference
  ``sorted(key=lambda a: (-a.probability, a.oid))``, ties included;
* a query with many tied answers is answered bitwise equally by every
  session kind (serial, sharded, distributed, cached, served);
* cached arrays are read-only;
* the evaluate and codec paths build no per-answer :class:`QueryAnswer`,
  and the JSON text of an evaluation is unchanged byte for byte;
* :meth:`Evaluation.from_dict` rejects answer rows a ranked result cannot hold.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from benchmarks.suite.workloads import WORKLOADS, Workload, build_serial_session, dataset
from repro.core.cache import ResultCache
from repro.core.errors import InvalidQueryError, SchemaError
from repro.core.queries import (
    Evaluation,
    QueryAnswer,
    QueryResult,
    RangeQuery,
    RangeQuerySpec,
)
from repro.core.session import Session
from repro.core.statistics import EvaluationStatistics
from repro.core.wire import tagged
from repro.geometry.rect import Rect
from repro.index.iostats import IOStatistics
from repro.serve import QueryServer, ServeClient
from repro.serve.framing import encode_json_line
from repro.uncertainty.region import PointObject, UncertainObject


def _reference_ranking(oids, probabilities) -> list[tuple[int, float]]:
    answers = [QueryAnswer(int(o), float(p)) for o, p in zip(oids, probabilities)]
    answers.sort(key=lambda a: (-a.probability, a.oid))
    return [(a.oid, a.probability) for a in answers]


def _rows(result: QueryResult) -> list[tuple[int, float]]:
    return list(zip(result.oid_array.tolist(), result.probability_array.tolist()))


def _bits(result: QueryResult) -> tuple[bytes, bytes]:
    return result.oid_array.tobytes(), result.probability_array.tobytes()


class TestRanked:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_reference_sort_bitwise_on_heavy_ties(self, seed):
        rng = np.random.default_rng(seed)
        count = int(rng.integers(0, 400))
        oids = rng.choice(np.arange(-500, 500), size=count, replace=False)
        # A handful of distinct values: most answers tie with many others.
        levels = np.array([0.0, 0.125, 1 / 3, 0.5, 0.9999999999999999, 1.0, 1.0 + 1e-10])
        probabilities = levels[rng.integers(0, len(levels), size=count)]
        result = QueryResult.ranked(oids, probabilities)
        expected = _reference_ranking(oids, probabilities)
        assert _rows(result) == expected
        reference = QueryResult(answers=[QueryAnswer(o, p) for o, p in expected])
        assert _bits(result) == _bits(reference)
        assert result.oid_array.dtype == np.int64
        assert result.probability_array.dtype == np.float64

    def test_arrays_are_read_only_copies(self):
        oids = np.array([3, 1, 2])
        probabilities = np.array([0.5, 0.5, 0.75])
        result = QueryResult.ranked(oids, probabilities)
        oids[0] = 99  # the caller's arrays are not aliased
        assert result.oid_array.tolist() == [2, 1, 3]
        with pytest.raises(ValueError):
            result.oid_array[0] = 5
        with pytest.raises(ValueError):
            result.probability_array[0] = 0.0

    @pytest.mark.parametrize("bad", [-1e-12, 1.0 + 1e-8, float("nan"), float("inf")])
    def test_rejects_what_a_query_answer_rejects(self, bad):
        with pytest.raises(InvalidQueryError):
            QueryAnswer(1, bad)
        with pytest.raises(InvalidQueryError):
            QueryResult.ranked([1, 2], [0.5, bad])

    def test_rejects_mismatched_columns(self):
        with pytest.raises(InvalidQueryError):
            QueryResult.ranked([1, 2], [0.5])

    def test_views_derive_from_the_arrays(self):
        result = QueryResult.ranked([4, 2, 9], [0.25, 1.0, 0.25])
        assert [(a.oid, a.probability) for a in result] == [(2, 1.0), (4, 0.25), (9, 0.25)]
        assert result.answers == [QueryAnswer(2, 1.0), QueryAnswer(4, 0.25), QueryAnswer(9, 0.25)]
        assert result.top(2) == result.answers[:2]
        assert result.probabilities() == {2: 1.0, 4: 0.25, 9: 0.25}
        assert result.oids() == {2, 4, 9}
        assert _rows(result.above_threshold(0.5)) == [(2, 1.0)]
        assert result == QueryResult.ranked([9, 4, 2], [0.25, 0.25, 1.0])
        assert result != QueryResult.ranked([9, 4, 2], [0.25, 0.25, 0.5])

    def test_qualifying_drops_zero_and_below_threshold(self):
        oids = [5, 1, 2, 3]
        probabilities = [0.25, 0.0, 0.5, 0.5]
        assert _rows(QueryResult.qualifying(oids, probabilities, 0.3)) == [(2, 0.5), (3, 0.5)]
        unthresholded = QueryResult.qualifying(oids, probabilities, 0.0)
        assert _rows(unthresholded) == [(2, 0.5), (3, 0.5), (5, 0.25)]

    def test_add_then_read_ranks_the_pending_answers(self):
        result = QueryResult.ranked([5], [0.5])
        result.add(2, 0.5)
        result.add(7, 0.75)
        assert _rows(result) == [(7, 0.75), (2, 0.5), (5, 0.5)]


# --------------------------------------------------------------------------- #
# Ties across every session kind
# --------------------------------------------------------------------------- #
def _grid_session() -> Session:
    points = [
        PointObject.at(row * 101 + col, 10.0 * col, 10.0 * row)
        for row in range(101)
        for col in range(101)
    ]
    return Session.from_objects(points=points, bounds=Rect(0.0, 0.0, 1_000.0, 1_000.0))


def _tie_query() -> RangeQuery:
    # Every grid point in [350, 650]² lies in the range wherever the issuer
    # is: 961 answers at p = 1.0, ringed by fractional ones.
    return RangeQuery.ipq(
        UncertainObject.uniform(0, Rect(450.0, 450.0, 550.0, 550.0)),
        RangeQuerySpec.square(200.0),
    )


async def _served(session: Session, query: RangeQuery) -> Evaluation:
    server = QueryServer(session, window=0.0)
    tcp = await server.serve("127.0.0.1", 0)
    port = tcp.sockets[0].getsockname()[1]
    try:
        async with await ServeClient.connect("127.0.0.1", port) as client:
            return await client.query(query)
    finally:
        tcp.close()
        await tcp.wait_closed()
        await server.stop()


class TestTiesAcrossSessions:
    def test_many_certain_answers_are_bitwise_equal_everywhere(self):
        serial = _grid_session()
        query = _tie_query()
        reference = serial.evaluate(query)
        probabilities = reference.result.probability_array
        assert int(np.count_nonzero(probabilities == 1.0)) == 31 * 31
        assert np.count_nonzero(probabilities < 1.0) > 100
        expected = _bits(reference.result)

        cached = serial.cached(16)
        answers = {
            "sharded": serial.sharded(3).evaluate(query),
            "cached miss": cached.evaluate(query),
            "cached hit": cached.evaluate(query),
            "served": asyncio.run(_served(serial, query)),
        }
        distributed = serial.distributed(2)
        try:
            answers["distributed"] = distributed.evaluate(query)
        finally:
            distributed.engine.close()
        assert cached.stats().cache["hits"] == 1
        for kind, evaluation in answers.items():
            assert _bits(evaluation.result) == expected, kind
            assert evaluation.statistics.results_returned == len(reference), kind


class TestCachedArrays:
    def test_entries_and_hits_are_read_only(self):
        cache = ResultCache(capacity=4)
        cache.store("k", None, QueryResult.ranked([3, 1], [0.5, 0.75]), EvaluationStatistics())
        entry = cache.lookup("k")
        result, _ = entry.materialise()
        # A hit shares the entry's arrays instead of copying them.
        assert result.oid_array is entry.result.oid_array
        session = _grid_session().cached(4)
        session.evaluate(_tie_query())
        hit = session.evaluate(_tie_query())
        assert session.stats().cache["hits"] == 1
        stored = entry.result
        for array in (stored.oid_array, stored.probability_array, hit.result.oid_array):
            with pytest.raises(ValueError):
                array[0] = 0


# --------------------------------------------------------------------------- #
# No per-answer objects on the evaluate and codec paths
# --------------------------------------------------------------------------- #
def _pinned_evaluation() -> Evaluation:
    query = RangeQuery.cipq(
        UncertainObject.uniform(7, Rect(10.0, 20.0, 30.0, 60.0)), RangeQuerySpec(5.0, 2.5), 0.125
    )
    result = QueryResult()
    for oid, probability in [(4, 0.1), (9, 1.0), (2, 1.0), (-3, 0.30000000000000004), (11, 2 / 3)]:
        result.add(oid, probability)
    result.sort()
    statistics = EvaluationStatistics(
        response_time=0.001953125,
        candidates_examined=6,
        probability_computations=5,
        pruned={"p_bound": 1},
        monte_carlo_samples=0,
        results_returned=5,
        io=IOStatistics(
            node_accesses=3,
            leaf_accesses=2,
            internal_accesses=1,
            entries_examined=17,
            objects_returned=6,
        ),
    )
    return Evaluation(query=query, result=result, statistics=statistics, elapsed_seconds=0.00390625)


#: ``_pinned_evaluation()`` on the serve wire, as encoded before answers
#: became arrays: the representation must not move a byte.
PINNED_LINE = (
    '{"schema":"repro.evaluation","version":1,"query":{"schema":"repro.query",'
    '"version":1,"kind":"range","issuer":{"schema":"repro.uncertain_object",'
    '"version":1,"oid":7,"pdf":{"schema":"repro.pdf","version":1,"type":"uniform",'
    '"region":[10.0,20.0,30.0,60.0]},"catalog_levels":null},"half_width":5.0,'
    '"half_height":2.5,"threshold":0.125,"target":"points"},'
    '"answers":[[2,1.0],[9,1.0],[11,0.6666666666666666],[-3,0.30000000000000004],[4,0.1]],'
    '"statistics":{"schema":"repro.statistics","version":1,"response_time":0.001953125,'
    '"candidates_examined":6,"probability_computations":5,"pruned":{"p_bound":1},'
    '"monte_carlo_samples":0,"results_returned":5,"io":[3,2,1,17,6]},'
    '"elapsed_seconds":0.00390625}\n'
)


class TestNoPerAnswerObjects:
    def test_evaluate_many_and_the_codec_build_no_query_answer(self, monkeypatch):
        spec = WORKLOADS["ipq_wide"]
        session = build_serial_session(spec, dataset(spec, 0.1))
        queries = Workload(spec, seed=2007, factor=0.3).queries[:64]
        built = []
        original = QueryAnswer.__post_init__

        def counting(answer):
            built.append(answer)
            original(answer)

        monkeypatch.setattr(QueryAnswer, "__post_init__", counting)
        evaluations = session.evaluate_many(queries)
        decoded = [
            Evaluation.from_dict(json.loads(json.dumps(evaluation.to_dict())))
            for evaluation in evaluations
        ]
        assert len(built) == 0
        assert sum(len(evaluation) for evaluation in decoded) > 64 * 100
        assert [_bits(d.result) for d in decoded] == [_bits(e.result) for e in evaluations]
        # The counter does count: the on-demand view builds one per answer.
        assert len(decoded[0].answers) == len(built) == len(decoded[0])

    def test_json_text_is_unchanged(self):
        evaluation = _pinned_evaluation()
        assert encode_json_line(evaluation.to_dict()).decode() == PINNED_LINE
        decoded = Evaluation.from_dict(json.loads(PINNED_LINE))
        assert decoded.result == evaluation.result
        assert decoded.statistics == evaluation.statistics
        assert encode_json_line(decoded.to_dict()).decode() == PINNED_LINE


# --------------------------------------------------------------------------- #
# The decoder rejects rows a ranked result cannot hold
# --------------------------------------------------------------------------- #
def _payload_with(rows) -> dict:
    payload = _pinned_evaluation().to_dict()
    payload["answers"] = rows
    return json.loads(json.dumps(payload))


class TestDecoderRejectsMalformedAnswers:
    @pytest.mark.parametrize(
        "rows",
        [
            pytest.param([[3.7, "0.5"], [True, 0.25]], id="float-and-bool-oids"),
            pytest.param([[3.7, 0.5]], id="non-integral-oid"),
            pytest.param([[3.0, 0.5]], id="float-oid"),
            pytest.param([[True, 0.25]], id="bool-oid"),
            pytest.param([[3, "0.5"]], id="str-probability"),
            pytest.param([[3, True]], id="bool-probability"),
            pytest.param([[3, float("nan")]], id="nan-probability"),
            pytest.param([[3, float("inf")]], id="inf-probability"),
            pytest.param([[1, 0.25], [2, 0.5]], id="not-ranked-by-probability"),
            pytest.param([[2, 0.5], [1, 0.5]], id="tie-not-ranked-by-oid"),
            pytest.param([[1, 0.5], [1, 0.5]], id="adjacent-duplicate"),
            pytest.param([[1, 0.5], [2, 0.25], [1, 0.125]], id="duplicate-oid"),
            pytest.param([[1, 0.5, 2]], id="three-column-row"),
            pytest.param([[1]], id="one-column-row"),
            pytest.param([{"oid": 1, "p": 0.5}], id="object-row"),
            pytest.param({"1": 0.5}, id="object-answers"),
            pytest.param([[2**63, 0.5]], id="oid-beyond-int64"),
        ],
    )
    def test_malformed_rows_raise_schema_error(self, rows):
        with pytest.raises(SchemaError):
            Evaluation.from_dict(_payload_with(rows))

    def test_out_of_range_probability_is_rejected(self):
        with pytest.raises(InvalidQueryError):
            Evaluation.from_dict(_payload_with([[1, 1.5]]))

    def test_well_formed_rows_decode(self):
        rows = [[5, 1.0], [-2, 0.5], [3, 0.5], [1, 0]]
        decoded = Evaluation.from_dict(_payload_with(rows))
        assert _rows(decoded.result) == [(5, 1.0), (-2, 0.5), (3, 0.5), (1, 0.0)]
        assert Evaluation.from_dict(_payload_with([])).result == QueryResult()

    def test_payload_is_still_schema_checked(self):
        with pytest.raises(SchemaError):
            Evaluation.from_dict(tagged("repro.evaluation", {"answers": []}))
