"""Distributed shard service: RPC workers, scatter-gather, epoch coherence.

The package runs the sharded engine's per-shard batches across process — and
potentially machine — boundaries; it is the repository's one multi-process
executor:

* :mod:`repro.rpc.wire` — the framed binary protocol's header codecs.
* :mod:`repro.rpc.shardd` — the per-shard daemon (``python -m
  repro.rpc.shardd``) hosting shard indexes behind an asyncio server.
* :mod:`repro.rpc.pool` — the parent-side pipelined connection pool and
  authoritative epoch map.
* :mod:`repro.rpc.engine` — :class:`~repro.rpc.engine.RemoteEngine`, the
  :class:`~repro.core.parallel.ParallelEngine` subclass that scatters
  routed plan-token batches over the pool.
* :mod:`repro.rpc.launcher` — :class:`~repro.rpc.launcher.LocalShardCluster`
  for spawning a local daemon fleet (tests, benchmarks, demos).

Entry point for most callers: ``Session.distributed(...)``
(:meth:`repro.core.session.Session.distributed`).

Submodules are imported lazily by consumers (``shardd`` pulls in the full
engine stack); this package module stays import-light so ``repro.rpc.wire``
can load inside daemon processes without dragging the launcher along.
"""

from repro.rpc import wire

__all__ = ["wire"]
