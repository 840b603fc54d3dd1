"""A malformed ``query`` request is a typed error, answered in-band.

Query rows on the shard RPC wire are ``[position, token]`` pairs.  Every
malformation — a non-list item list, a row of the wrong arity (including a
stale ``[position, seq, token]`` row), a non-integer position, a
non-integer shard id — must raise :class:`~repro.core.errors.SchemaError`,
so the daemon replies with an error frame and keeps serving the
connection instead of dropping it on a bare ``ValueError``.
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.core.engine import EngineConfig, ImpreciseQueryEngine, PointDatabase
from repro.core.errors import SchemaError
from repro.core.plan import PlanToken
from repro.core.queries import RangeQuery, RangeQuerySpec
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.rpc import wire
from repro.rpc.launcher import LocalShardCluster
from repro.rpc.shardd import ShardHost
from repro.serve.framing import encode_frame, read_frame_from_socket
from repro.uncertainty.pdf import UniformPdf
from repro.uncertainty.region import UncertainObject


def _query() -> RangeQuery:
    region = Rect.from_center(Point(5_000.0, 5_000.0), 250.0, 250.0)
    issuer = UncertainObject(oid=0, pdf=UniformPdf(region))
    return RangeQuery.ipq(issuer, RangeQuerySpec.square(500.0))


def _token_dict() -> dict:
    return wire.token_to_dict(PlanToken.from_query(_query()))


def _query_header(digest: str, range_items, *, sid=0) -> dict:
    header = wire.query_header("points", 0, digest, [], [])
    header.update(sid=sid, range_items=range_items)
    # Through JSON, as the framing ships it.
    return json.loads(json.dumps(header))


def _load_header(small_points) -> dict:
    return wire.load_header("points", 0, "rtree", None, EngineConfig(), small_points)


@pytest.fixture()
def host(small_points):
    host = ShardHost()
    reply, _ = host.handle(json.loads(json.dumps(_load_header(small_points))), {})
    assert reply["op"] == "loaded"
    host.digest = reply["config_digest"]
    return host


BAD_ROWS = {
    "one-field-row": [[0]],
    "token-is-not-a-token": [[0, {}]],
    "items-are-a-string": "abc",
    "row-is-a-scalar": [5],
    "stale-three-field-row": [[0, 0, "TOKEN"]],
    "bool-position": [[True, "TOKEN"]],
    "string-position": [["0", "TOKEN"]],
    "float-position": [[0.0, "TOKEN"]],
}


def _resolve(rows):
    if isinstance(rows, list):
        return [
            [_token_dict() if field == "TOKEN" else field for field in row]
            if isinstance(row, list)
            else row
            for row in rows
        ]
    return rows


@pytest.mark.parametrize("name", sorted(BAD_ROWS))
def test_malformed_rows_raise_schema_errors(host, name):
    with pytest.raises(SchemaError):
        host.handle(_query_header(host.digest, _resolve(BAD_ROWS[name])), {})


@pytest.mark.parametrize("sid", ["0", "x", True, 0.5, None])
def test_non_integer_shard_id_is_a_schema_error(host, sid):
    rows = [[0, _token_dict()]]
    with pytest.raises(SchemaError):
        host.handle(_query_header(host.digest, rows, sid=sid), {})


def test_well_formed_row_answers_like_the_serial_engine(host, small_points):
    reply, arrays = host.handle(_query_header(host.digest, [[3, _token_dict()]]), {})
    assert reply["op"] == "answers"
    [(position, partial)] = wire.unpack_answers(arrays, tuple(reply["pruned_names"]))
    assert position == 3
    expected = ImpreciseQueryEngine(point_db=PointDatabase.build(small_points)).evaluate(
        _query()
    )
    assert partial.result.oid_array.tobytes() == expected.result.oid_array.tobytes()
    assert (
        partial.result.probability_array.tobytes()
        == expected.result.probability_array.tobytes()
    )


def test_daemon_answers_a_malformed_row_in_band_and_keeps_serving(small_points):
    with LocalShardCluster.spawn(1) as cluster:
        with socket.create_connection(cluster.addrs[0], timeout=60.0) as sock:

            def call(header: dict) -> tuple[dict, dict]:
                sock.sendall(encode_frame(header, {}))
                frame = read_frame_from_socket(sock)
                assert frame is not None, "the daemon dropped the connection"
                return frame

            loaded, _ = call(_load_header(small_points))
            digest = loaded["config_digest"]
            error, _ = call(_query_header(digest, [[0, {}]]))
            assert error["op"] == "error"
            assert error["error"]["code"] == SchemaError.wire_code
            stale, _ = call(_query_header(digest, [[0, 0, _token_dict()]]))
            assert stale["op"] == "error"
            answers, arrays = call(_query_header(digest, [[0, _token_dict()]]))
            assert answers["op"] == "answers"
            [(position, partial)] = wire.unpack_answers(arrays, tuple(answers["pruned_names"]))
            assert position == 0 and len(partial.result) > 0
