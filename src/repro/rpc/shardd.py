"""``shardd`` — one process hosting shard indexes behind the RPC transport.

A daemon owns zero or more *loaded shards*: each is one shard's objects,
rebuilt into a full :class:`~repro.core.database.PointDatabase` /
:class:`~repro.core.database.UncertainDatabase` (identical index kind and
catalog levels, so answers are bitwise-identical to the parent's local
copy), plus one staged :class:`~repro.core.pipeline.QueryPipeline` per
registered engine-config digest — the very same stage runner every other
executor in the repository uses.  One process typically hosts the point
*and* uncertain shard of the same shard id, halving the process count of a
two-kind deployment.

The transport is the length-prefixed binary framing of
:mod:`repro.serve.framing`.  Connections are served sequentially per
connection (a pipelined client reads replies in send order) and execution
is synchronous inside the event loop — a shard daemon is a single-core unit
of deployment; parallelism comes from running many of them.

Query execution (:func:`execute_token_items`) rebuilds each query from its
plan token, keys its draws exactly as the in-process shard path does and
packs the partial answers into the arrays of :func:`repro.rpc.wire.pack_answers`.
Mutations apply the same database primitives the parent's owning
shard applied and reply with the shard's new epoch — the parent's
epoch-vector cache keys stay coherent without any broadcast invalidation.

Run standalone with::

    python -m repro.rpc.shardd --host 127.0.0.1 --port 0

(port 0 binds an ephemeral port; the bound address is printed to stdout).
Typed failures (:class:`~repro.errors.ReproError`) are answered as error
frames and the connection keeps serving; anything else kills the daemon —
supervision is the launcher's job.
"""

from __future__ import annotations

import argparse
import asyncio
from typing import Mapping

import numpy as np

from repro.core.database import PointDatabase, UncertainDatabase
from repro.core.engine import EngineConfig
from repro.core.errors import EngineStateError, SchemaError
from repro.core.nearest import nn_query_draws
from repro.core.pipeline import DEFAULT_NN_SAMPLES, QueryPipeline
from repro.core.plan import PlanToken, query_fingerprint, resolve_draw_token
from repro.core.statistics import StatsPack
from repro.core.updates import UpdateOp
from repro.core.wire import require
from repro.errors import ReproError
from repro.rpc import wire
from repro.serve.framing import encode_frame, read_frame
from repro.serve.schemas import error_to_dict

RPC_SCHEMA = wire.RPC_SCHEMA


def execute_token_items(
    pipeline: QueryPipeline,
    config: EngineConfig,
    range_items: list[tuple[int, int, PlanToken]],
    nn_items: list[tuple[int, int, PlanToken]],
) -> list[wire.AnswerPack]:
    """Run routed plan tokens through one shard pipeline, packing the answers.

    Items are ``(position, query_seq, token)`` triples; the result preserves
    range-before-nn pack order.  Range queries run as one pipeline batch;
    nearest-neighbour queries use the pipeline's sampler in per-draw mode,
    because their merge is a per-draw argmin across shards.
    """
    answers: list[wire.AnswerPack] = []
    if range_items:
        batch = [token.to_query() for _, _, token in range_items]
        seqs = [int(seq) for _, seq, _ in range_items]
        evaluations = pipeline.run_batch(batch, seqs)
        for (position, _, _), evaluation in zip(range_items, evaluations):
            rows = evaluation.result.answers
            answers.append(
                wire.AnswerPack(
                    kind="range",
                    position=position,
                    oids=np.fromiter(
                        (a.oid for a in rows), dtype=np.int64, count=len(rows)
                    ),
                    values=np.fromiter(
                        (a.probability for a in rows),
                        dtype=np.float64,
                        count=len(rows),
                    ),
                    stats=StatsPack.from_statistics(evaluation.statistics),
                    elapsed_seconds=evaluation.elapsed_seconds,
                )
            )
    for position, seq, token in nn_items:
        query = token.to_query()
        samples = token.samples if token.samples is not None else DEFAULT_NN_SAMPLES
        draw_token = resolve_draw_token(config, query_fingerprint(query), seq)
        draws = nn_query_draws(query.issuer.pdf, samples, config.rng_seed, draw_token)
        nn_engine = pipeline.nearest_engine(samples)
        oids, distances, stats = nn_engine.per_draw_winners(draws)
        answers.append(
            wire.AnswerPack(
                kind="nn",
                position=position,
                oids=oids,
                values=distances,
                stats=StatsPack.from_statistics(stats),
                elapsed_seconds=stats.response_time,
            )
        )
    return answers


class _LoadedShard:
    """One hosted shard: its database plus per-config-digest pipelines."""

    def __init__(self, kind: str, database: PointDatabase | UncertainDatabase) -> None:
        self.kind = kind
        self.database = database
        self._configs: dict[str, EngineConfig] = {}
        self._pipelines: dict[str, QueryPipeline] = {}

    def register(self, config: EngineConfig) -> str:
        """Register one engine configuration; returns its digest."""
        digest = wire.config_digest(config)
        self._configs.setdefault(digest, config)
        return digest

    def pipeline(self, digest: str) -> tuple[QueryPipeline, EngineConfig]:
        """The staged pipeline for one registered configuration."""
        config = self._configs.get(digest)
        if config is None:
            raise EngineStateError(
                f"no configuration registered under digest {digest!r}; "
                "send a load or configure request first"
            )
        pipeline = self._pipelines.get(digest)
        if pipeline is None:
            if self.kind == "points":
                pipeline = QueryPipeline(
                    point_db=self.database, config=config, cache=None
                )
            else:
                pipeline = QueryPipeline(
                    uncertain_db=self.database, config=config, cache=None
                )
            self._pipelines[digest] = pipeline
        return pipeline, config


class ShardHost:
    """The daemon's state: loaded shards keyed by ``(kind, sid)``."""

    def __init__(self) -> None:
        self._shards: dict[tuple[str, int], _LoadedShard] = {}
        self.shutdown_requested = asyncio.Event()

    # ------------------------------------------------------------------ #
    # Request handling (synchronous: one frame in, one frame out)
    # ------------------------------------------------------------------ #
    def handle(
        self, header: Mapping, arrays: dict[str, np.ndarray]
    ) -> tuple[dict, dict[str, np.ndarray]]:
        """Execute one request; returns the reply header + arrays."""
        op, header = wire.check_header(header)
        if op == "load":
            return self._load(header), {}
        if op == "configure":
            return self._configure(header), {}
        if op == "query":
            return self._query(header)
        if op == "update":
            return self._update(header), {}
        if op == "shutdown":
            self.shutdown_requested.set()
            return wire.header("bye"), {}
        raise SchemaError(f"unknown rpc op {op!r}")

    def _shard(self, header: Mapping) -> _LoadedShard:
        kind = require(header, RPC_SCHEMA, "kind")
        sid = int(require(header, RPC_SCHEMA, "sid"))
        shard = self._shards.get((kind, sid))
        if shard is None:
            raise EngineStateError(
                f"shard ({kind!r}, {sid}) is not loaded on this daemon"
            )
        return shard

    def _load(self, header: Mapping) -> dict:
        """Rebuild one shard's database from its shipped objects.

        Loading an already-loaded ``(kind, sid)`` replaces it wholesale —
        the parent re-ships a shard's snapshot when it detects epoch drift
        (e.g. a shard that was drained and later repopulated locally).
        """
        kind = require(header, RPC_SCHEMA, "kind")
        if kind not in ("points", "uncertain"):
            raise SchemaError(f"unknown shard kind {kind!r}")
        sid = int(require(header, RPC_SCHEMA, "sid"))
        index_kind = require(header, RPC_SCHEMA, "index_kind")
        levels = require(header, RPC_SCHEMA, "catalog_levels")
        config = wire.config_from_dict(require(header, RPC_SCHEMA, "config"))
        objects = [
            wire.object_from_dict(payload)
            for payload in require(header, RPC_SCHEMA, "objects")
        ]
        if kind == "points":
            database: PointDatabase | UncertainDatabase = PointDatabase.build(
                objects, index_kind=index_kind
            )
        else:
            database = UncertainDatabase.build(
                objects,
                index_kind=index_kind,
                catalog_levels=(
                    [float(level) for level in levels] if levels is not None else None
                ),
            )
        shard = _LoadedShard(kind, database)
        digest = shard.register(config)
        self._shards[(kind, sid)] = shard
        return wire.header(
            "loaded", epoch=database.epoch, count=len(objects), config_digest=digest
        )

    def _configure(self, header: Mapping) -> dict:
        shard = self._shard(header)
        digest = shard.register(
            wire.config_from_dict(require(header, RPC_SCHEMA, "config"))
        )
        return wire.header("configured", config_digest=digest)

    def _query(self, header: Mapping) -> tuple[dict, dict[str, np.ndarray]]:
        shard = self._shard(header)
        digest = require(header, RPC_SCHEMA, "config_digest")
        pipeline, config = shard.pipeline(digest)
        answers = execute_token_items(
            pipeline,
            config,
            wire.decode_items(require(header, RPC_SCHEMA, "range_items")),
            wire.decode_items(require(header, RPC_SCHEMA, "nn_items")),
        )
        arrays, pruned_names = wire.pack_answers(answers)
        reply = wire.header(
            "answers", pruned_names=list(pruned_names), epoch=shard.database.epoch
        )
        return reply, arrays

    def _update(self, header: Mapping) -> dict:
        """Apply one-shard mutation ops; reply with the shard's new epoch."""
        shard = self._shard(header)
        ops = [UpdateOp.from_dict(payload) for payload in require(header, RPC_SCHEMA, "ops")]
        for op in ops:
            self._apply(shard.database, op)
        return wire.header("epoch", epoch=shard.database.epoch)

    @staticmethod
    def _apply(database: PointDatabase | UncertainDatabase, op: UpdateOp) -> None:
        # The same primitives the parent's owning shard database applied, in
        # the same order — so the shard's epoch counter and object set stay
        # bitwise in step with the parent's local copy.
        if op.action == "insert":
            database.insert(op.obj)
        elif op.action == "delete":
            database.delete(int(op.oid))
        elif op.pdf is not None:
            database.move(int(op.oid), op.pdf)
        else:
            database.move(int(op.oid), float(op.x), float(op.y))

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #
    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one connection: sequential frames, replies in request order."""
        try:
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break
                header, arrays = frame
                try:
                    reply, reply_arrays = self.handle(header, arrays)
                except ReproError as error:
                    # Typed failures answer in-band; the connection (and the
                    # daemon's other shards) keep serving.
                    reply = wire.header("error", error=error_to_dict(error))
                    reply_arrays = {}
                writer.write(encode_frame(reply, reply_arrays))
                await writer.drain()
                if self.shutdown_requested.is_set():
                    break
        except SchemaError:
            pass  # unframeable stream: nothing sane left to reply to
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


async def serve(
    host: ShardHost, bind_host: str = "127.0.0.1", port: int = 0
) -> asyncio.Server:
    """Start one daemon server (``port=0`` binds an ephemeral port)."""
    return await asyncio.start_server(host.handle_connection, bind_host, port)


async def _amain(bind_host: str, port: int) -> int:
    host = ShardHost()
    server = await serve(host, bind_host, port)
    bound = server.sockets[0].getsockname()
    print(f"shardd listening on {bound[0]}:{bound[1]}", flush=True)
    async with server:
        await host.shutdown_requested.wait()
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: host one shard daemon until a shutdown request."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.rpc.shardd",
        description="Serve shard indexes over the repro RPC transport.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 = ephemeral")
    args = parser.parse_args(argv)
    return asyncio.run(_amain(args.host, args.port))


if __name__ == "__main__":
    raise SystemExit(main())
