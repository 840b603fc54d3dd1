"""Parent-side connection pool over a fleet of shard daemons.

:class:`RemoteShardPool` owns one persistent TCP connection per shard
address (lazily opened, ``TCP_NODELAY``) and speaks the framed protocol of
:mod:`repro.rpc.wire`.  Scatter is **pipelined**: every routed shard batch
is written before any reply is read, so one round of scatter-gather costs
one round trip regardless of how many shards participate — the daemon
answers frames in request order, which makes replies trivially matchable
without request ids.

The pool also keeps the authoritative **epoch map**: every ``load`` and
``update`` reply records the daemon-reported epoch per ``(kind, sid)``.
Query replies carry the answering shard's epoch too, and a mismatch with
the recorded value raises :class:`~repro.errors.EngineStateError` — a
remote shard that drifted from the parent's copy can never serve a silently
stale answer.

Error replies decode through the serving layer's error codec and re-raise
as the same typed exception classes the in-process engines raise.  A daemon
that accepts a request and then says nothing for
:data:`_REPLY_TIMEOUT_SECONDS` raises :class:`~repro.errors.EngineStateError`
naming its address, and every connection left with an unread reply is
dropped — the next request reconnects instead of reading a stale frame.

Byte counters (``query_bytes_sent`` / ``query_bytes_received``) account the
scatter hot path only — exact on-the-wire frame sizes, read by
``benchmarks/suite`` for its ``rpc.pool.bytes_per_query`` metric.
"""

from __future__ import annotations

import socket
from typing import Mapping, Sequence

import numpy as np

from repro.core.engine import EngineConfig
from repro.core.errors import EngineStateError
from repro.core.wire import require
from repro.rpc import wire
from repro.serve.framing import encode_frame, read_sized_frame_from_socket
from repro.serve.schemas import error_from_dict

#: One routed shard batch: ``(kind, sid, range_items, nn_items)`` where each
#: item is a ``(position, PlanToken)`` pair.
ShardTask = tuple[str, int, list, list]

_CONNECT_TIMEOUT_SECONDS = 30.0

#: Longest silence tolerated on an open connection, per send or receive.  A
#: ``load`` reply arrives only after the daemon has rebuilt the shard's index
#: and catalogs (about 10 s for a paper-scale PTI shard), so this sits well
#: above any healthy reply and only bounds a daemon that stopped answering.
_REPLY_TIMEOUT_SECONDS = 300.0


class RemoteShardPool:
    """Persistent pipelined connections to one daemon per shard id."""

    def __init__(self, addrs: Sequence[tuple[str, int]]) -> None:
        if not addrs:
            raise EngineStateError("a remote shard pool needs at least one address")
        self._addrs = [(str(host), int(port)) for host, port in addrs]
        self._sockets: dict[int, socket.socket] = {}
        self._epochs: dict[tuple[str, int], int] = {}
        self.query_bytes_sent = 0
        self.query_bytes_received = 0

    @property
    def addrs(self) -> list[tuple[str, int]]:
        return list(self._addrs)

    # ------------------------------------------------------------------ #
    # Epoch map
    # ------------------------------------------------------------------ #
    def loaded(self, kind: str, sid: int) -> bool:
        """Whether this pool has shipped ``(kind, sid)`` to its daemon."""
        return (kind, sid) in self._epochs

    def epoch(self, kind: str, sid: int) -> int:
        """The daemon-reported epoch of one loaded shard."""
        epoch = self._epochs.get((kind, sid))
        if epoch is None:
            raise EngineStateError(f"shard ({kind!r}, {sid}) is not loaded remotely")
        return epoch

    def forget(self, kind: str, sid: int) -> None:
        """Drop the epoch entry of a shard that was drained locally."""
        self._epochs.pop((kind, sid), None)

    def reset_query_accounting(self) -> None:
        self.query_bytes_sent = 0
        self.query_bytes_received = 0

    # ------------------------------------------------------------------ #
    # Transport primitives
    # ------------------------------------------------------------------ #
    def _socket(self, sid: int) -> socket.socket:
        sock = self._sockets.get(sid)
        if sock is not None:
            return sock
        if not 0 <= sid < len(self._addrs):
            raise EngineStateError(
                f"shard id {sid} has no address (pool spans {len(self._addrs)})"
            )
        sock = socket.create_connection(
            self._addrs[sid], timeout=_CONNECT_TIMEOUT_SECONDS
        )
        sock.settimeout(_REPLY_TIMEOUT_SECONDS)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sockets[sid] = sock
        return sock

    def _drop(self, sid: int) -> None:
        """Close and forget one connection; the next request to it reconnects."""
        sock = self._sockets.pop(sid, None)
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass  # already torn down by the peer

    def _unresponsive(self, sid: int) -> EngineStateError:
        self._drop(sid)
        return EngineStateError(
            f"shardd at {self._addrs[sid]} did not respond within "
            f"{_REPLY_TIMEOUT_SECONDS:g} s; the connection was dropped"
        )

    def _send(self, sid: int, header: dict, arrays: dict | None = None) -> int:
        frame = encode_frame(header, arrays or {})
        try:
            self._socket(sid).sendall(frame)
        except TimeoutError:
            raise self._unresponsive(sid) from None
        return len(frame)

    def _read_reply(
        self, sid: int
    ) -> tuple[str, Mapping, dict[str, np.ndarray], int, Exception | None]:
        """One reply frame: ``(op, header, arrays, wire_bytes, error)``.

        A decoded ``error`` reply is *returned*, not raised, so pipelined
        readers can drain a scatter round before surfacing the failure.
        """
        try:
            sized = read_sized_frame_from_socket(self._socket(sid))
        except TimeoutError:
            raise self._unresponsive(sid) from None
        if sized is None:
            self._drop(sid)
            raise EngineStateError(
                f"shardd at {self._addrs[sid]} closed the connection mid-reply"
            )
        header, arrays, nbytes = sized
        op, header = wire.check_header(header)
        if op == "error":
            return op, header, arrays, nbytes, error_from_dict(
                require(header, wire.RPC_SCHEMA, "error")
            )
        return op, header, arrays, nbytes, None

    def _call(
        self, sid: int, header: dict
    ) -> tuple[str, Mapping, dict[str, np.ndarray]]:
        """One unpipelined request/reply exchange, raising typed errors."""
        self._send(sid, header)
        op, reply, arrays, _, error = self._read_reply(sid)
        if error is not None:
            raise error
        return op, reply, arrays

    # ------------------------------------------------------------------ #
    # Control plane
    # ------------------------------------------------------------------ #
    def load(
        self,
        kind: str,
        sid: int,
        index_kind: str,
        catalog_levels: tuple[float, ...] | None,
        config: EngineConfig,
        objects: list,
    ) -> str:
        """Ship one shard's snapshot; records its epoch; returns the digest."""
        _, reply, _ = self._call(
            sid, wire.load_header(kind, sid, index_kind, catalog_levels, config, objects)
        )
        self._epochs[(kind, sid)] = int(require(reply, wire.RPC_SCHEMA, "epoch"))
        return str(require(reply, wire.RPC_SCHEMA, "config_digest"))

    def configure(self, kind: str, sid: int, config: EngineConfig) -> str:
        """Register another engine config with a loaded shard."""
        _, reply, _ = self._call(sid, wire.configure_header(kind, sid, config))
        return str(require(reply, wire.RPC_SCHEMA, "config_digest"))

    def update(self, kind: str, sid: int, ops: list) -> int:
        """Apply mutation ops on the owning shard; returns its new epoch."""
        _, reply, _ = self._call(sid, wire.update_header(kind, sid, ops))
        epoch = int(require(reply, wire.RPC_SCHEMA, "epoch"))
        self._epochs[(kind, sid)] = epoch
        return epoch

    # ------------------------------------------------------------------ #
    # Query hot path
    # ------------------------------------------------------------------ #
    def scatter(
        self, tasks: Sequence[ShardTask], config_digest: str
    ) -> list[tuple[Mapping, dict[str, np.ndarray]]]:
        """Pipelined scatter-gather of routed plan-token batches.

        Every task's query frame is written before any reply is read; each
        connection then yields its replies in send order.  Returns replies
        in task order.  Reply epochs are checked against the recorded epoch
        map — drift raises :class:`EngineStateError`.  When the round is cut
        short (a daemon timed out or hung up), every connection still owed a
        reply is dropped with it.
        """
        #: Per connection, the task indices whose replies are still unread.
        unread: dict[int, list[int]] = {}
        results: list[tuple[Mapping, dict[str, np.ndarray]] | None]
        results = [None] * len(tasks)
        first_error: Exception | None = None
        try:
            for index, (kind, sid, range_items, nn_items) in enumerate(tasks):
                unread.setdefault(sid, []).append(index)
                self.query_bytes_sent += self._send(
                    sid,
                    wire.query_header(kind, sid, config_digest, range_items, nn_items),
                )
            for sid, indices in unread.items():
                while indices:
                    _, reply, arrays, nbytes, error = self._read_reply(sid)
                    index = indices.pop(0)
                    self.query_bytes_received += nbytes
                    if error is not None:
                        first_error = first_error or error
                        continue
                    kind = tasks[index][0]
                    shard_epoch = int(require(reply, wire.RPC_SCHEMA, "epoch"))
                    expected = self._epochs.get((kind, tasks[index][1]))
                    if expected is None or shard_epoch != expected:
                        first_error = first_error or EngineStateError(
                            f"shard ({kind!r}, {tasks[index][1]}) answered at epoch "
                            f"{shard_epoch} but the pool recorded {expected}"
                        )
                        continue
                    results[index] = (reply, arrays)
        finally:
            for sid, indices in unread.items():
                if indices:
                    self._drop(sid)
        if first_error is not None:
            raise first_error
        return [result for result in results if result is not None]

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def shutdown(self) -> None:
        """Ask every daemon to stop (best effort), then drop the sockets."""
        for sid in range(len(self._addrs)):
            try:
                self._call(sid, wire.header("shutdown"))
            except (ConnectionError, OSError, EngineStateError):
                pass  # already gone: shutdown is idempotent
        self.close()

    def close(self) -> None:
        """Close every connection; the daemons themselves keep running."""
        for sid in list(self._sockets):
            self._drop(sid)

    def __enter__(self) -> "RemoteShardPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
