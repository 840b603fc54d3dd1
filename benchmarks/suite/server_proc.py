"""The harness-owned server child: one workload's session behind a ``QueryServer``.

``python -m benchmarks.suite.server_proc --workload NAME ...`` builds the
workload's session, listens on an ephemeral loopback port, prints
``{"port": N}`` on stdout and serves until its stdin reaches end-of-file —
the harness closes the pipe to stop it, and a harness that dies takes the
server down with it instead of leaving an orphan.  On the way out the engine
is closed (daemons asked to stop, shared memory unlinked) and the process
exits 0.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from benchmarks.suite.workloads import (
    WORKLOADS,
    build_session,
    close_session,
    dataset,
    standing_queries,
)
from repro.serve.server import QueryServer


async def _serve(args: argparse.Namespace) -> None:
    spec = WORKLOADS[args.workload]
    session = build_session(
        spec, dataset(spec, args.scale), standing_queries(spec, args.seed)
    )
    try:
        front_end = QueryServer(session)  # default 2-ms coalescing window
        server = await front_end.serve("127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        print(json.dumps({"port": port}), flush=True)
        async with server:
            await asyncio.get_running_loop().run_in_executor(None, sys.stdin.buffer.read)
        await front_end.stop()
    finally:
        close_session(session)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite.server_proc")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    asyncio.run(_serve(parser.parse_args(argv)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
