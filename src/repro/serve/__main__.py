"""Serve a session over TCP: ``python -m repro.serve``.

Builds the synthetic California/Long Beach datasets at the requested scale,
wraps them in a :class:`~repro.core.session.Session` through the experiment
configuration plumbing (so sharding, shard daemons and result caching use
the exact same knobs as the experiment harness), and listens with a
micro-batching :class:`~repro.serve.server.QueryServer`::

    python -m repro.serve --port 8707 --window-ms 2 --scale 0.05
    python -m repro.serve --shards 4 --distributed --cache-capacity 1024
"""

from __future__ import annotations

import argparse
import asyncio

from repro.core.session import Session
from repro.datasets.tiger import california_points, long_beach_uncertain_objects
from repro.experiments.config import ExperimentConfig
from repro.serve.server import DEFAULT_MAX_PENDING, DEFAULT_WINDOW, QueryServer


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve an imprecise-query session over JSON lines.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8707)
    parser.add_argument(
        "--window-ms",
        type=float,
        default=DEFAULT_WINDOW * 1000.0,
        help="coalescing window in milliseconds (0 = per-request dispatch)",
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=DEFAULT_MAX_PENDING,
        help="pending-request high-water mark (rejections past it)",
    )
    parser.add_argument(
        "--max-wave",
        type=int,
        default=None,
        help="cap on requests coalesced into one wave (default: queue depth)",
    )
    parser.add_argument(
        "--scale", type=float, default=0.05, help="dataset scale (1.0 = paper size)"
    )
    parser.add_argument(
        "--no-points", action="store_true", help="serve without the point dataset"
    )
    parser.add_argument(
        "--no-uncertain",
        action="store_true",
        help="serve without the uncertain dataset",
    )
    parser.add_argument("--shards", type=int, default=0, help="spatial shards (0 = serial)")
    parser.add_argument(
        "--distributed",
        action="store_true",
        help="run each shard in its own local shardd process (needs --shards)",
    )
    parser.add_argument(
        "--cache-capacity", type=int, default=0, help="result-cache entries (0 = uncached)"
    )
    return parser


def build_session(args: argparse.Namespace) -> Session:
    """Assemble the served session from the CLI flags."""
    config = ExperimentConfig(
        dataset_scale=args.scale,
        shards=args.shards,
        shard_remote=args.distributed,
        cache_capacity=args.cache_capacity,
    )
    points = None if args.no_points else california_points(scale=config.dataset_scale)
    uncertain = (
        None
        if args.no_uncertain
        else long_beach_uncertain_objects(scale=config.dataset_scale)
    )
    session = Session.from_objects(
        points=points, uncertain=uncertain, config=config.engine_config()
    )
    return config.sharded_session(session)


async def _amain(args: argparse.Namespace) -> int:
    session = build_session(args)
    front_end = QueryServer(
        session,
        window=args.window_ms / 1000.0,
        max_pending=args.queue_depth,
        max_wave=args.max_wave,
    )
    server = await front_end.serve(args.host, args.port)
    sockets = ", ".join(
        f"{sock.getsockname()[0]}:{sock.getsockname()[1]}" for sock in server.sockets
    )
    databases = ", ".join(
        f"{name}={entry['objects']}"
        for name, entry in front_end.session.describe()["databases"].items()
    )
    print(
        f"serving on {sockets} (window={args.window_ms:g} ms, "
        f"queue depth {args.queue_depth}; {databases})",
        flush=True,
    )
    try:
        async with server:
            await server.serve_forever()
    finally:
        await front_end.stop()
        if args.distributed:
            session.engine.close()  # shuts the spawned shard daemons down
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.distributed and args.shards <= 0:
        parser.error("--distributed needs --shards N (one daemon per shard)")
    try:
        return asyncio.run(_amain(args))
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
