"""The load generator: server child lifecycle and the closed request loop.

The harness drives the server from one asyncio thread over
:func:`~benchmarks.suite.workloads.connections` ``ServeClient`` connections,
each keeping four requests in flight: a **closed loop** — a lane sends its
next request only once the previous answer is decoded, so a slower system is
offered less load and the outstanding count (8 on two cores) is the stated
concurrency.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from benchmarks.suite import procstat
from benchmarks.suite.trace import Tracer, clock
from repro.core.errors import ReproError
from repro.core.queries import Evaluation
from repro.core.updates import UpdateBatch
from repro.serve.client import ServeClient
from repro.serve.framing import MAX_LINE_BYTES, encode_json_line, read_line
from repro.serve.schemas import decode_response, request_envelope

ROOT = Path(__file__).resolve().parents[2]

#: How long the harness waits for the server child to listen, and to exit.
LAUNCH_TIMEOUT_S = 150.0
EXIT_TIMEOUT_S = 30.0
ORPHAN_GRACE_S = 5.0


# --------------------------------------------------------------------------- #
# Server child
# --------------------------------------------------------------------------- #
class ServerProcess:
    """The harness-owned server child (``benchmarks.suite.server_proc``)."""

    def __init__(self, process: subprocess.Popen, port: int) -> None:
        self.process = process
        self.port = port
        #: Every process ever seen in the child's tree, for the orphan check.
        self.seen: dict[int, procstat.ProcessSample] = {}

    @classmethod
    async def launch(
        cls,
        workload: str,
        *,
        seed: int,
        scale: float,
    ) -> "ServerProcess":
        """Start the child and wait until it reports its port."""
        command = [
            sys.executable, "-m", "benchmarks.suite.server_proc",
            "--workload", workload,
            "--seed", str(seed),
            "--scale", repr(scale),
        ]  # fmt: skip
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        loop = asyncio.get_running_loop()
        try:
            line = await asyncio.wait_for(
                loop.run_in_executor(None, process.stdout.readline), LAUNCH_TIMEOUT_S
            )
            port = int(json.loads(line)["port"])
        except (TimeoutError, ValueError, KeyError) as error:
            process.kill()
            process.wait()
            process.stdin.close()
            process.stdout.close()
            raise RuntimeError(
                f"server child for {workload!r} did not come up "
                f"(exit code {process.returncode})"
            ) from error
        return cls(process, port)

    def tree(self) -> dict[int, procstat.ProcessSample]:
        """The child and its live descendants (remembered for :meth:`stop`)."""
        members = procstat.tree(self.process.pid)
        self.seen.update(members)
        return members

    def stop(self) -> list[str]:
        """Close the child's stdin, wait for it, and report what it left behind."""
        violations = []
        self.tree()
        self.process.stdin.close()
        try:
            self.process.wait(timeout=EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            violations.append("server child did not exit within the timeout; killed")
        self.process.stdout.close()
        if self.process.returncode != 0:
            violations.append(f"server child exit code {self.process.returncode}")
        self.seen.pop(self.process.pid, None)
        # Helpers that end *because* the child ended (multiprocessing's
        # resource tracker) get a moment to do so; a daemon that outlives
        # the grace period was orphaned.
        deadline = clock() + ORPHAN_GRACE_S
        while (orphans := procstat.survivors(self.seen)) and clock() < deadline:
            time.sleep(0.05)
        if orphans:
            violations.append(f"surviving descendants: {sorted(orphans)}")
            for pid in orphans:
                try:
                    os.kill(pid, 9)
                except ProcessLookupError:
                    pass
        return violations


# --------------------------------------------------------------------------- #
# Clients
# --------------------------------------------------------------------------- #
class _CountingReader:
    """A ``StreamReader`` stand-in that counts the bytes of every line read."""

    def __init__(self, reader: asyncio.StreamReader) -> None:
        self._reader = reader
        self.bytes = 0

    async def readuntil(self, separator: bytes = b"\n") -> bytes:
        line = await self._reader.readuntil(separator)
        self.bytes += len(line)
        return line

    def __getattr__(self, name: str):
        return getattr(self._reader, name)


class _CountingWriter:
    """A ``StreamWriter`` stand-in that counts the bytes of every write."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self._writer = writer
        self.bytes = 0

    def write(self, data: bytes) -> None:
        self.bytes += len(data)
        self._writer.write(data)

    def __getattr__(self, name: str):
        return getattr(self._writer, name)


class StagedClient:
    """``ServeClient``'s request path spelled out stage by stage, with spans.

    Used by traced runs only: each request records ``request`` →
    ``serve.client.encode`` → ``wire_wait`` → ``serve.client.decode`` from
    the public codec functions the real client is built from.  End-to-end
    metrics never come from this class.
    """

    def __init__(self, reader, writer, tracer: Tracer, name: str) -> None:
        self._reader = reader
        self._writer = writer
        self._tracer = tracer
        self._name = name
        self._pending: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._pump = asyncio.get_running_loop().create_task(self._read_responses())

    async def query(self, query) -> Evaluation:
        return await self._call("query", query.to_dict, Evaluation.from_dict)

    async def update(self, batch: UpdateBatch) -> int:
        return await self._call("update", batch.to_dict, lambda result: int(result["applied"]))

    async def _call(self, op: str, payload, build):
        self._next_id += 1
        rid = self._next_id
        request = f"{self._name}:{rid}"
        started = clock()
        line = encode_json_line(request_envelope(op, rid, payload()))
        encoded = clock()
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[rid] = future
        self._writer.write(line)
        await self._writer.drain()
        arrived, parsed, result = await future
        resumed = clock()
        value = build(result)
        done = clock()
        root = self._tracer.record("request", started, done, parent=None, request=request)
        self._tracer.record("serve.client.encode", started, encoded, parent=root, request=request)
        self._tracer.record("wire_wait", encoded, arrived, parent=root, request=request)
        # Decoding is split like the real client's: envelope parsing in the
        # reader task, answer rebuilding in the caller.
        self._tracer.record("serve.client.decode", arrived, parsed, parent=root, request=request)
        self._tracer.record("serve.client.decode", resumed, done, parent=root, request=request)
        return value

    async def _read_responses(self) -> None:
        error: BaseException = ConnectionError("server closed the connection")
        try:
            while (line := await read_line(self._reader)) is not None:
                arrived = clock()
                payload = json.loads(line)
                future = self._pending.pop(payload.get("id"), None)
                if future is None or future.done():
                    continue
                try:
                    future.set_result((arrived, clock(), decode_response(payload)))
                except ReproError as failure:
                    future.set_exception(failure)
        except (ConnectionError, OSError, ReproError) as failure:
            error = failure
        for future in self._pending.values():
            if not future.done():
                future.set_exception(error)
        self._pending.clear()

    async def aclose(self) -> None:
        self._pump.cancel()
        try:
            await self._pump
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


@dataclass
class Connection:
    """One client connection and its byte counters."""

    client: ServeClient | StagedClient
    reader: _CountingReader
    writer: _CountingWriter

    @property
    def bytes(self) -> int:
        return self.reader.bytes + self.writer.bytes


async def connect(port: int, *, tracer: Tracer | None = None, name: str = "c") -> Connection:
    """Open one counted connection; traced when ``tracer`` is given."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=MAX_LINE_BYTES)
    counted_reader = _CountingReader(reader)
    counted_writer = _CountingWriter(writer)
    if tracer is None:
        client: ServeClient | StagedClient = ServeClient(counted_reader, counted_writer)
    else:
        client = StagedClient(counted_reader, counted_writer, tracer, name)
    return Connection(client, counted_reader, counted_writer)


# --------------------------------------------------------------------------- #
# The closed loop
# --------------------------------------------------------------------------- #
@dataclass
class PhaseResult:
    """What one closed-loop phase observed."""

    wall_s: float = 0.0
    wire_bytes: int = 0
    #: Query index → round trip (ms) / decoded answer.
    latencies_ms: dict[int, float] = field(default_factory=dict)
    evaluations: dict[int, Evaluation] = field(default_factory=dict)
    update_acks_ms: list[float] = field(default_factory=list)
    #: Update batches in acknowledgement order.
    acked: list[UpdateBatch] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: How far the caller's ``probe`` moved over the phase.
    probed: float = 0.0


@contextlib.contextmanager
def collector_paused():
    """Keep the cyclic garbage collector out of a timed section.

    The harness keeps every decoded answer until it is verified; with the
    collector on, full collections walk those millions of live objects and
    show up as 100-ms stalls in tail latency and a third off the embedded
    throughput.  A caller that used its answers and dropped them would see
    none of that, so the stalls are the harness's, not the system's.
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


async def drive(
    connections: list[Connection],
    lane_operations: list[list],
    outcome: PhaseResult,
    *,
    deadline_s: float,
    probe: Callable[[], float] = lambda: 0.0,
) -> None:
    """Run every lane's operations to completion, filling ``outcome``.

    Lane ``n`` uses ``connections[n % len(connections)]`` (an entry may repeat).
    Never raises on a failed operation.  ``probe`` (e.g. the server tree's
    CPU seconds) is read when the phase starts and when it ends;
    :attr:`PhaseResult.probed` is the difference.  The
    result is handed back through ``outcome`` instead of being returned:
    ``asyncio.Runner`` formats a finished task's result when it restores the
    SIGINT handler, which for a million decoded answers takes seconds.
    """
    outcome.attempted = sum(len(ops) for ops in lane_operations)
    async def lane(client, operations: list) -> None:
        for position, (index, item) in enumerate(operations):
            label = "update" if index is None else f"query {index}"
            started = clock()
            try:
                async with asyncio.timeout(deadline_s):
                    if index is None:
                        await client.update(item)
                    else:
                        evaluation = await client.query(item)
            except ReproError as error:
                # A typed error reply (or backpressure): this op failed, the
                # connection is still good.
                outcome.failures.append(f"{label}: {type(error).__name__}: {error}")
                continue
            except (ConnectionError, OSError, TimeoutError) as error:
                # Lost connection or a wedged server: fail the rest of the
                # lane at once instead of waiting out a deadline per op.
                remaining = len(operations) - position
                outcome.failures.extend(
                    [f"{label}: {type(error).__name__}: {error or 'deadline exceeded'}"]
                    * remaining
                )
                return
            elapsed_ms = (clock() - started) * 1000.0
            if index is None:
                outcome.update_acks_ms.append(elapsed_ms)
                outcome.acked.append(item)
            else:
                outcome.latencies_ms[index] = elapsed_ms
                outcome.evaluations[index] = evaluation

    distinct = list({id(connection): connection for connection in connections}.values())
    bytes_before = sum(connection.bytes for connection in distinct)
    with collector_paused():
        before = probe()
        started = clock()
        await asyncio.gather(
            *[
                lane(connections[number % len(connections)].client, operations)
                for number, operations in enumerate(lane_operations)
            ]
        )
        outcome.wall_s = clock() - started
        outcome.probed = probe() - before
    outcome.wire_bytes = sum(connection.bytes for connection in distinct) - bytes_before
