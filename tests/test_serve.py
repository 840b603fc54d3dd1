"""Tests for the asyncio serving front-end.

Concurrent clients against a live TCP server must receive answers bitwise
identical to calling ``Session.evaluate`` directly on the served session
(a query's draws are a pure function of its content, so coalescing cannot
change them), updates
must be observed in submission order, backpressure must reject cleanly with
the typed error, and the protocol envelopes must round-trip losslessly.

No pytest-asyncio in the toolchain: each test drives its own event loop via
``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.errors import (
    BackpressureError,
    ConfigurationError,
    ReproError,
    SchemaError,
    UnknownObjectError,
)
from repro.core.queries import NearestNeighborQuery, RangeQuery, RangeQuerySpec
from repro.core.session import Session
from repro.core.updates import UpdateBatch
from repro.geometry.rect import Rect
from repro.serve import QueryServer, ServeClient
from repro.serve.schemas import (
    decode_request,
    decode_response,
    error_from_dict,
    error_response,
    ok_response,
    request_envelope,
)
from repro.uncertainty.region import PointObject, UncertainObject

SPACE = Rect(0.0, 0.0, 1_000.0, 1_000.0)


def make_session() -> Session:
    points = [
        PointObject.at(oid, (oid * 37.0) % 1_000, (oid * 91.0) % 1_000)
        for oid in range(400)
    ]
    return Session.from_objects(points=points, bounds=SPACE)


def issuer_at(index: int, half: float = 40.0) -> UncertainObject:
    center = (index * 53.0) % 880 + 60
    return UncertainObject.uniform(
        0, Rect(center - half, center - half, center + half, center + half)
    )


def range_query(index: int, threshold: float = 0.0) -> RangeQuery:
    return RangeQuery(
        issuer=issuer_at(index),
        spec=RangeQuerySpec.square(90.0),
        threshold=threshold,
        target="points",
    )


async def start_tcp(server: QueryServer):
    tcp = await server.serve("127.0.0.1", 0)
    return tcp, tcp.sockets[0].getsockname()[1]


class TestCoalescedParity:
    def test_concurrent_clients_get_bitwise_identical_answers(self):
        async def scenario():
            server = QueryServer(make_session(), window=0.003)
            tcp, port = await start_tcp(server)
            queries = [range_query(i, threshold=0.1 * (i % 3)) for i in range(24)]
            # Direct evaluation on the *served* session is the parity oracle.
            direct = [server.session.evaluate(query) for query in queries]
            clients = [await ServeClient.connect("127.0.0.1", port) for _ in range(8)]
            try:
                served = await asyncio.gather(
                    *[
                        clients[i % len(clients)].query(query)
                        for i, query in enumerate(queries)
                    ]
                )
            finally:
                for client in clients:
                    await client.aclose()
                tcp.close()
                await tcp.wait_closed()
                await server.stop()
            assert [s.probabilities() for s in served] == [
                d.probabilities() for d in direct
            ]
            # Waves really coalesced (not 24 singleton dispatches).
            stats = await server.stats()
            assert stats["serving"]["largest_wave"] > 1
            return stats

        asyncio.run(scenario())

    def test_window_zero_dispatches_per_request(self):
        async def scenario():
            server = QueryServer(make_session(), window=0.0)
            async with server:
                queries = [range_query(i) for i in range(5)]
                direct = [server.session.evaluate(query) for query in queries]
                served = await asyncio.gather(
                    *[server.submit_query(query) for query in queries]
                )
                stats = await server.stats()
            assert [s.probabilities() for s in served] == [
                d.probabilities() for d in direct
            ]
            assert stats["serving"]["largest_wave"] == 1
            assert stats["serving"]["waves"] == 5

        asyncio.run(scenario())

    def test_nearest_neighbor_parity(self):
        async def scenario():
            server = QueryServer(make_session(), window=0.002)
            async with server:
                query = NearestNeighborQuery(issuer=issuer_at(3), samples=64)
                direct = server.session.evaluate(query)
                served = await server.submit_query(query)
            assert served.probabilities() == direct.probabilities()

        asyncio.run(scenario())


class TestServedCaching:
    def test_repeated_query_over_tcp_hits_the_cache(self):
        """Each request decodes a fresh query; equal content still hits."""

        async def scenario():
            server = QueryServer(make_session().cached(capacity=64), window=0.0)
            tcp, port = await start_tcp(server)
            query = range_query(5, threshold=0.2)
            try:
                async with await ServeClient.connect("127.0.0.1", port) as client:
                    first = await client.query(query)
                    second = await client.query(query)
                    remote = await client.stats()
            finally:
                tcp.close()
                await tcp.wait_closed()
                await server.stop()
            assert remote["stats"]["cache"]["hits"] == 1
            assert remote["stats"]["cache"]["entries"] == 1
            assert [(a.oid, a.probability) for a in second] == [
                (a.oid, a.probability) for a in first
            ]

        asyncio.run(scenario())


class TestUpdates:
    def test_updates_observed_in_submission_order(self):
        async def scenario():
            server = QueryServer(make_session(), window=0.005, max_wave=64)
            async with server:
                probe = RangeQuery.ipq(
                    UncertainObject.uniform(0, Rect(460, 460, 540, 540)),
                    RangeQuerySpec.square(60.0),
                )
                # Same wave: query before the insert, the insert, query after.
                before_future = asyncio.ensure_future(server.submit_query(probe))
                await asyncio.sleep(0)
                insert_future = asyncio.ensure_future(
                    server.submit_update(
                        UpdateBatch().insert(PointObject.at(9_001, 500.0, 500.0))
                    )
                )
                await asyncio.sleep(0)
                after_future = asyncio.ensure_future(server.submit_query(probe))
                before, applied, after = await asyncio.gather(
                    before_future, insert_future, after_future
                )
            assert applied == 1
            assert 9_001 not in before.oids()
            assert 9_001 in after.oids()

        asyncio.run(scenario())

    def test_failed_update_isolated_from_neighbours(self):
        async def scenario():
            server = QueryServer(make_session(), window=0.005, max_wave=64)
            async with server:
                good = asyncio.ensure_future(
                    server.submit_update(
                        UpdateBatch().insert(PointObject.at(9_002, 100.0, 100.0))
                    )
                )
                await asyncio.sleep(0)
                bad = asyncio.ensure_future(
                    server.submit_update(UpdateBatch().delete(777_777, target="points"))
                )
                await asyncio.sleep(0)
                query = asyncio.ensure_future(
                    server.submit_query(
                        RangeQuery.ipq(
                            UncertainObject.uniform(0, Rect(60, 60, 140, 140)),
                            RangeQuerySpec.square(60.0),
                        )
                    )
                )
                applied = await good
                with pytest.raises(UnknownObjectError):
                    await bad
                evaluation = await query
            assert applied == 1
            assert 9_002 in evaluation.oids()

        asyncio.run(scenario())


class TestBackpressure:
    def test_rejects_past_high_water_mark(self):
        async def scenario():
            # Dispatch loop never started: the queue fills deterministically.
            server = QueryServer(make_session(), max_pending=3)
            parked = [
                asyncio.ensure_future(server.submit_query(range_query(i)))
                for i in range(3)
            ]
            await asyncio.sleep(0)
            with pytest.raises(BackpressureError):
                await server.submit_query(range_query(3))
            stats = await server.stats()
            assert stats["serving"]["rejected"] == 1
            assert stats["serving"]["pending"] == 3
            for future in parked:
                future.cancel()

        asyncio.run(scenario())

    def test_backpressure_error_is_a_runtime_error(self):
        assert issubclass(BackpressureError, RuntimeError)
        assert issubclass(BackpressureError, ReproError)

    def test_server_recovers_after_rejection(self):
        async def scenario():
            server = QueryServer(make_session(), window=0.0, max_pending=2)
            async with server:
                first = await server.submit_query(range_query(0))
            assert first.probabilities() == (
                server.session.evaluate(range_query(0)).probabilities()
            )

        asyncio.run(scenario())


class TestProtocol:
    def test_request_envelope_round_trip(self):
        envelope = json.loads(json.dumps(request_envelope("query", 7, {"a": 1})))
        op, rid, payload = decode_request(envelope)
        assert (op, rid, payload) == ("query", 7, {"a": 1})

    def test_unknown_op_rejected(self):
        with pytest.raises(SchemaError):
            request_envelope("explode", 1)
        with pytest.raises(SchemaError):
            decode_request({"schema": "repro.serve", "version": 1, "op": "explode"})

    def test_error_model_round_trips_typed_exceptions(self):
        original = BackpressureError("queue full")
        envelope = json.loads(json.dumps(error_response(3, original)))
        rebuilt = error_from_dict(envelope["error"])
        assert type(rebuilt) is BackpressureError
        assert str(rebuilt) == "queue full"
        with pytest.raises(BackpressureError):
            decode_response(envelope)

    def test_unknown_error_code_decodes_to_base_class(self):
        rebuilt = error_from_dict({"code": "martian", "message": "?"})
        assert type(rebuilt) is ReproError

    def test_ok_response_round_trip(self):
        envelope = json.loads(json.dumps(ok_response(9, {"answers": []})))
        assert decode_response(envelope) == {"answers": []}

    def test_stats_request_served_verbatim(self):
        async def scenario():
            server = QueryServer(make_session(), window=0.001)
            tcp, port = await start_tcp(server)
            try:
                async with await ServeClient.connect("127.0.0.1", port) as client:
                    remote = await client.stats()
            finally:
                tcp.close()
                await tcp.wait_closed()
                await server.stop()
            local = await server.stats()
            assert remote["engine"] == local["engine"]
            assert remote["config"] == local["config"]
            assert remote["databases"] == local["databases"]
            # describe() payloads are JSON-safe by construction.
            json.dumps(remote)

        asyncio.run(scenario())

    def test_malformed_line_gets_structured_error(self):
        async def scenario():
            server = QueryServer(make_session())
            tcp, port = await start_tcp(server)
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(b"this is not json\n")
                await writer.drain()
                response = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
            finally:
                tcp.close()
                await tcp.wait_closed()
                await server.stop()
            assert response["ok"] is False
            assert response["error"]["code"] == "schema"

        asyncio.run(scenario())


class TestConfiguration:
    def test_invalid_knobs_raise_configuration_error(self):
        session = make_session()
        with pytest.raises(ConfigurationError):
            QueryServer(session, window=-0.001)
        with pytest.raises(ConfigurationError):
            QueryServer(session, max_pending=0)
        with pytest.raises(ConfigurationError):
            QueryServer(session, max_wave=0)

    def test_server_forces_query_keyed_draw_plan(self):
        # Nothing to force any more: every draw is keyed by the query's
        # content, so a sampled answer is the same alone or amid a wave.
        server = QueryServer(make_session().with_config(probability_method="monte_carlo"))
        queries = [range_query(i) for i in range(6)]
        alone = server.session.evaluate(queries[3]).probabilities()
        amid = server.session.evaluate_many(queries)[3].probabilities()
        assert alone == amid
        assert any(0.0 < p < 1.0 for p in alone.values())

    def test_per_oid_sessions_keep_their_plan(self):
        session = make_session().with_config(monte_carlo_samples=64)
        server = QueryServer(session)
        assert server.session is session
        assert server.session.engine.config.monte_carlo_samples == 64


class TestCommandLine:
    def test_distributed_flag_serves_over_shard_daemons(self):
        from repro.serve.__main__ import _build_parser, build_session

        args = _build_parser().parse_args(
            ["--scale", "0.01", "--no-uncertain", "--shards", "2", "--distributed"]
        )
        session = build_session(args)
        try:
            assert session.describe()["engine"] == {"kind": "distributed", "daemons": 2}
        finally:
            session.engine.close()

    def test_distributed_flag_needs_a_shard_count(self):
        from repro.serve.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(["--distributed"])
        assert exit_info.value.code == 2
