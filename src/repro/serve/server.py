"""Asyncio serving front-end with a micro-batching dispatch loop.

A :class:`QueryServer` owns one :class:`~repro.core.session.Session` and
converts the *batch* amortisation of ``Session.evaluate_many`` into
multi-client throughput: concurrently arriving ``submit_query`` calls park
on per-request futures in a queue, and a single dispatch loop drains them in
*waves* — it takes the first pending request, keeps collecting for up to the
coalescing ``window`` (or until ``max_wave`` requests are in hand), then
evaluates every query of the wave through **one** ``evaluate_many`` call on
a worker thread, so the event loop (and the TCP transport) stays responsive
while the engine works.

Updates ride the same queue: inside a wave they split the query runs exactly
where they were submitted, so each :class:`~repro.core.updates.UpdateBatch`
is applied at a wave boundary in submission order — queries submitted before
it see the old data, queries after it the new, and subscription deltas and
cache invalidation stay consistent with single-client semantics.

Two properties make coalesced answers **bitwise identical** to calling
``Session.evaluate`` directly on the same session:

* a query's Monte-Carlo draws are a pure function of its content, never of
  its position in whatever wave it landed in, and
* ``evaluate_many`` runs the same staged pipeline per query as ``evaluate``.

Backpressure is applied at submission: once ``max_pending`` requests are
queued, further submissions fail *immediately* with
:class:`~repro.core.errors.BackpressureError` — nothing is enqueued, so a
client can back off and retry without consuming server memory.

The JSON-lines TCP transport (:meth:`QueryServer.serve`) speaks the
:mod:`repro.serve.schemas` envelopes: one request per line, one response
line per request (matched by ``id``, possibly out of order — responses are
written as their waves complete).
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Any

from repro.core.errors import ConfigurationError, SchemaError
from repro.core.queries import Evaluation, Query, query_from_dict
from repro.core.session import Session
from repro.core.updates import UpdateBatch
from repro.serve.framing import MAX_LINE_BYTES, encode_json_line, read_line
from repro.serve.schemas import decode_request, error_response, ok_response

#: Default coalescing window, seconds.  Long enough to collect a burst of
#: concurrent submissions, short enough to be invisible next to a query.
DEFAULT_WINDOW = 0.002

#: Default request-queue high-water mark.
DEFAULT_MAX_PENDING = 1024


@dataclass
class _Request:
    """One parked submission: its kind, operand and completion future."""

    kind: str  # "query" | "update"
    payload: Any
    future: asyncio.Future


class QueryServer:
    """One session, many clients: micro-batched async request dispatch.

    ``window`` is the coalescing window in seconds (``0`` disables batching
    — every request dispatches alone, the baseline the serving benchmark
    compares against); ``max_pending`` the queue's high-water mark past
    which submissions are rejected; ``max_wave`` caps how many requests one
    wave may collect (default: no cap below ``max_pending``) — a full wave
    dispatches immediately without waiting out the window.
    """

    def __init__(
        self,
        session: Session,
        *,
        window: float = DEFAULT_WINDOW,
        max_pending: int = DEFAULT_MAX_PENDING,
        max_wave: int | None = None,
    ) -> None:
        if window < 0:
            raise ConfigurationError(f"window must be >= 0 seconds, got {window}")
        if max_pending < 1:
            raise ConfigurationError(f"max_pending must be >= 1, got {max_pending}")
        if max_wave is not None and max_wave < 1:
            raise ConfigurationError(f"max_wave must be >= 1, got {max_wave}")
        self._session = session
        self._window = float(window)
        self._max_pending = int(max_pending)
        self._max_wave = int(max_wave) if max_wave is not None else int(max_pending)
        self._queue: asyncio.Queue[_Request] = asyncio.Queue()
        self._dispatch_task: asyncio.Task | None = None
        self._accepted = 0
        self._rejected = 0
        self._waves = 0
        self._wave_items = 0
        self._largest_wave = 0
        self._queries_served = 0
        self._update_ops_applied = 0

    @property
    def session(self) -> Session:
        """The served session."""
        return self._session

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Start the dispatch loop on the running event loop (idempotent)."""
        if self._dispatch_task is None or self._dispatch_task.done():
            self._dispatch_task = asyncio.get_running_loop().create_task(
                self._dispatch(), name="repro-serve-dispatch"
            )

    async def stop(self) -> None:
        """Stop the dispatch loop; already-queued requests are abandoned."""
        if self._dispatch_task is not None:
            self._dispatch_task.cancel()
            try:
                await self._dispatch_task
            except asyncio.CancelledError:
                pass
            self._dispatch_task = None
        while not self._queue.empty():
            request = self._queue.get_nowait()
            if not request.future.done():
                request.future.cancel()

    async def __aenter__(self) -> "QueryServer":
        self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------ #
    # Async API
    # ------------------------------------------------------------------ #
    def _submit(self, kind: str, payload: Any) -> asyncio.Future:
        from repro.core.errors import BackpressureError

        if self._queue.qsize() >= self._max_pending:
            self._rejected += 1
            raise BackpressureError(
                f"request queue is at its high-water mark "
                f"({self._max_pending} pending); back off and retry"
            )
        future = asyncio.get_running_loop().create_future()
        self._queue.put_nowait(_Request(kind=kind, payload=payload, future=future))
        self._accepted += 1
        return future

    async def submit_query(self, query: Query) -> Evaluation:
        """Queue one query; resolves with its :class:`Evaluation`."""
        return await self._submit("query", query)

    async def submit_update(self, batch: UpdateBatch) -> int:
        """Queue one update batch; resolves with the number of ops applied."""
        return await self._submit("update", batch)

    async def stats(self) -> dict:
        """The session's :meth:`~repro.core.session.Session.describe` snapshot
        plus the front-end's serving counters."""
        snapshot = self._session.describe()
        snapshot["serving"] = {
            "window_seconds": self._window,
            "max_pending": self._max_pending,
            "max_wave": self._max_wave,
            "pending": self._queue.qsize(),
            "accepted": self._accepted,
            "rejected": self._rejected,
            "waves": self._waves,
            "wave_items": self._wave_items,
            "largest_wave": self._largest_wave,
            "queries_served": self._queries_served,
            "update_ops_applied": self._update_ops_applied,
        }
        return snapshot

    # ------------------------------------------------------------------ #
    # Dispatch loop
    # ------------------------------------------------------------------ #
    async def _dispatch(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            wave = [await self._queue.get()]
            if self._window > 0.0:
                deadline = loop.time() + self._window
                while len(wave) < self._max_wave:
                    remaining = deadline - loop.time()
                    if remaining <= 0.0:
                        break
                    try:
                        wave.append(await asyncio.wait_for(self._queue.get(), remaining))
                    except TimeoutError:
                        break
            await self._run_wave(wave)

    async def _run_wave(self, wave: list[_Request]) -> None:
        # Consecutive queries form one evaluate_many run; an update splits
        # the runs, keeping the wave's submission order = application order.
        groups: list[tuple[str, list[_Request]]] = []
        for request in wave:
            if groups and groups[-1][0] == "query" and request.kind == "query":
                groups[-1][1].append(request)
            else:
                groups.append((request.kind, [request]))
        outcomes = await asyncio.get_running_loop().run_in_executor(
            None, self._execute_groups, groups
        )
        self._waves += 1
        self._wave_items += len(wave)
        self._largest_wave = max(self._largest_wave, len(wave))
        for request, ok, value in outcomes:
            if request.future.cancelled():
                continue
            if ok:
                request.future.set_result(value)
            else:
                request.future.set_exception(value)

    def _execute_groups(
        self, groups: list[tuple[str, list[_Request]]]
    ) -> list[tuple[_Request, bool, Any]]:
        """Run one wave's groups on the worker thread; never raises."""
        outcomes: list[tuple[_Request, bool, Any]] = []
        for kind, requests in groups:
            if kind == "query":
                try:
                    evaluations = self._session.evaluate_many(
                        [request.payload for request in requests]
                    )
                except Exception as error:  # engine failure fails the run
                    outcomes.extend((request, False, error) for request in requests)
                else:
                    self._queries_served += len(requests)
                    outcomes.extend(
                        (request, True, evaluation)
                        for request, evaluation in zip(requests, evaluations)
                    )
            else:
                # Updates apply individually: one bad batch must not block
                # or roll back its neighbours.
                for request in requests:
                    try:
                        self._session.apply_updates(request.payload)
                    except Exception as error:
                        outcomes.append((request, False, error))
                    else:
                        self._update_ops_applied += len(request.payload)
                        outcomes.append((request, True, len(request.payload)))
        return outcomes

    # ------------------------------------------------------------------ #
    # JSON-lines TCP transport
    # ------------------------------------------------------------------ #
    async def handle_request(self, payload: Any) -> dict:
        """Decode and execute one request envelope; always returns a response."""
        rid = payload.get("id") if isinstance(payload, dict) else None
        try:
            op, rid, body = decode_request(payload)
            if op == "query":
                evaluation = await self.submit_query(query_from_dict(body))
                result: Any = evaluation.to_dict()
            elif op == "update":
                result = {"applied": await self.submit_update(UpdateBatch.from_dict(body))}
            else:
                result = await self.stats()
            return ok_response(rid, result)
        except Exception as error:
            return error_response(rid, error)

    async def serve(self, host: str = "127.0.0.1", port: int = 8707) -> asyncio.Server:
        """Start the dispatch loop and listen for JSON-lines connections."""
        self.start()
        return await asyncio.start_server(
            self._handle_connection, host, port, limit=MAX_LINE_BYTES
        )

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await read_line(reader)
                except SchemaError as error:
                    # An over-long line leaves the stream unframeable: tell
                    # the client why, then hang up.
                    await self._write_response(
                        error_response(None, error), writer, write_lock
                    )
                    break
                if line is None:
                    break
                if not line.strip():
                    continue
                # One task per request so a whole connection's pipeline can
                # land in the same wave instead of serializing on readline.
                task = asyncio.get_running_loop().create_task(
                    self._handle_line(line, writer, write_lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_line(
        self, line: bytes, writer: asyncio.StreamWriter, write_lock: asyncio.Lock
    ) -> None:
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as error:
            response = error_response(None, SchemaError(f"request is not JSON: {error}"))
        else:
            response = await self.handle_request(payload)
        await self._write_response(response, writer, write_lock)

    @staticmethod
    async def _write_response(
        response: dict, writer: asyncio.StreamWriter, write_lock: asyncio.Lock
    ) -> None:
        data = encode_json_line(response)
        async with write_lock:
            try:
                writer.write(data)
                await writer.drain()
            except (ConnectionError, OSError):
                pass  # client went away; its wave results stand
