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

Query execution rebuilds each query from its plan token and runs the
rebuilt queries through the shard pipeline's
:meth:`~repro.core.pipeline.QueryPipeline.shard_partials` — the very
executor the in-process sharded engine runs — then packs the partial
answers straight into reply arrays (:func:`repro.rpc.wire.pack_answers`);
no per-answer object is built.
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

from repro.core import heap
from repro.core.database import PointDatabase, UncertainDatabase
from repro.core.engine import EngineConfig
from repro.core.errors import EngineStateError, SchemaError
from repro.core.pipeline import QueryPipeline
from repro.core.updates import UpdateOp
from repro.core.wire import require
from repro.errors import ReproError
from repro.rpc import wire
from repro.serve.framing import encode_frame, read_frame
from repro.serve.schemas import error_to_dict
from repro.uncertainty.catalog import catalog_levels
from repro.uncertainty.region import UncertainObject

RPC_SCHEMA = wire.RPC_SCHEMA


def _decode_uncertain(payloads: list, levels: list[float] | None) -> list[UncertainObject]:
    """Decode a shard's uncertain objects for a database build at ``levels``.

    An object shipped with the shard's own catalog levels (every object, in
    practice) is decoded without its catalog: the database build then makes
    all of them in one batch, bitwise equal to a per-object rebuild.  Any
    other object rebuilds its catalog on decoding, as before.
    """
    shard_levels = catalog_levels(levels) if levels is not None else None
    objects = []
    for payload in payloads:
        shipped = payload.get("catalog_levels") if isinstance(payload, Mapping) else None
        if (
            shard_levels is not None
            and shipped is not None
            and catalog_levels(shipped) == shard_levels
        ):
            payload = {**payload, "catalog_levels": None}
        obj = wire.object_from_dict(payload)
        if not isinstance(obj, UncertainObject):
            raise SchemaError(f"uncertain shard got a {type(obj).__name__} payload")
        objects.append(obj)
    return objects


class _LoadedShard:
    """One hosted shard: its database plus per-config-digest pipelines."""

    def __init__(self, kind: str, database: PointDatabase | UncertainDatabase) -> None:
        self.kind = kind
        self.database = database
        self._configs: dict[str, EngineConfig] = {}
        self._pipelines: dict[str, QueryPipeline] = {}

    def register(self, config: EngineConfig) -> str:
        """Register one engine configuration; returns its digest.

        The configuration's pipeline is built here, with the indexes its
        plans probe, so no query pays for that build.
        """
        digest = wire.config_digest(config)
        self._configs.setdefault(digest, config)
        self.pipeline(digest)
        return digest

    def pipeline(self, digest: str) -> QueryPipeline:
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
        return pipeline


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
        sid = wire.integer_field(require(header, RPC_SCHEMA, "sid"), "sid")
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
        sid = wire.integer_field(require(header, RPC_SCHEMA, "sid"), "sid")
        index_kind = require(header, RPC_SCHEMA, "index_kind")
        levels = require(header, RPC_SCHEMA, "catalog_levels")
        levels = [float(level) for level in levels] if levels is not None else None
        config = wire.config_from_dict(require(header, RPC_SCHEMA, "config"))
        payloads = require(header, RPC_SCHEMA, "objects")
        with heap.paused():
            if kind == "points":
                objects = [wire.object_from_dict(payload) for payload in payloads]
                database: PointDatabase | UncertainDatabase = PointDatabase.build(
                    objects, index_kind=index_kind
                )
            else:
                objects = _decode_uncertain(payloads, levels)
                database = UncertainDatabase.build(
                    objects, index_kind=index_kind, catalog_levels=levels
                )
            # Registering builds the pipeline and the indexes it probes.
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
        pipeline = shard.pipeline(require(header, RPC_SCHEMA, "config_digest"))
        items = wire.decode_items(require(header, RPC_SCHEMA, "range_items"))
        items += wire.decode_items(require(header, RPC_SCHEMA, "nn_items"))
        partials = pipeline.shard_partials([token.to_query() for _, token in items])
        arrays, pruned_names = wire.pack_answers(
            [(position, partial) for (position, _), partial in zip(items, partials)]
        )
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
