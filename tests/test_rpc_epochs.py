"""Epoch-vector coherence over live shard daemons (satellite of the RPC PR).

The distributed cache key embeds, per routed shard, both the parent's local
``(uid, epoch)`` and the daemon-reported remote epoch.  These tests pin the
two halves of that contract against spawned ``shardd`` processes:

* **Fine-grained invalidation** — a cached answer keeps serving hits across
  mutations to shards the query does not route to, and is invalidated by
  the first mutation to a shard it does route to (no broadcast
  invalidation, no stale hit).
* **Semantic invisibility** — a Hypothesis-driven interleaving of queries
  and one-shard mutations matches, bitwise at every checkpoint, an
  uncached serial engine fed the same stream; and the observed hit count
  equals an oracle that grants a hit exactly when the routed shard's
  epoch vector is unchanged since the query was last answered.

The layout is two well-separated point clusters under a median
partitioner, so every query and mutation routes to exactly one knowable
shard.  Content-keyed draws make sampled answers depend only on query
content, which is what lets a serial engine act as the cold oracle.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.core.cache import ResultCache
from repro.core.engine import EngineConfig, ImpreciseQueryEngine, PointDatabase
from repro.core.queries import NearestNeighborQuery, RangeQuery, RangeQuerySpec
from repro.core.sharding import ShardedDatabase
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.rpc.engine import RemoteEngine
from repro.rpc.launcher import LocalShardCluster
from repro.rpc.pool import RemoteShardPool
from repro.uncertainty.pdf import UniformPdf
from repro.uncertainty.region import PointObject, UncertainObject


@pytest.fixture(scope="module")
def cluster():
    cluster = LocalShardCluster.spawn(2)
    yield cluster
    cluster.close()


def _issuer(oid: int, x: float, y: float, half: float = 50.0) -> UncertainObject:
    region = Rect.from_center(Point(x, y), half, half)
    return UncertainObject(oid=oid, pdf=UniformPdf(region)).with_catalog()


def _two_cluster_points() -> list[PointObject]:
    left = [PointObject.at(i, 100.0 + i, 100.0 + (i % 7)) for i in range(40)]
    right = [
        PointObject.at(100 + i, 9_000.0 + i, 9_000.0 + (i % 7)) for i in range(40)
    ]
    return left + right


#: Query pool, keyed by name.  The "L"/"R" prefix names the only shard the
#: query's window (or NN probe) can route to under the median partitioner.
_QUERIES = {
    "L-cipq": RangeQuery.cipq(
        _issuer(10_000, 150.0, 150.0), RangeQuerySpec.square(100.0), 0.2
    ),
    "L-nn": NearestNeighborQuery(issuer=_issuer(10_001, 130.0, 120.0), samples=32),
    "R-ipq": RangeQuery.ipq(
        _issuer(10_002, 9_050.0, 9_050.0), RangeQuerySpec.square(100.0)
    ),
}


def _remote(cluster, cache: ResultCache) -> tuple[RemoteShardPool, RemoteEngine]:
    pool = RemoteShardPool(cluster.addrs)
    engine = RemoteEngine(
        point_db=ShardedDatabase.build_points(
            _two_cluster_points(), 2, partitioner="median"
        ),
        config=EngineConfig(cache=cache),
        pool=pool,
        owns_pool=False,
    )
    return pool, engine


def _serial_mirror() -> ImpreciseQueryEngine:
    return ImpreciseQueryEngine(
        point_db=PointDatabase.build(_two_cluster_points()),
        config=EngineConfig(),
    )


class TestFineGrainedInvalidation:
    def test_far_shard_mutations_keep_hits_routed_mutations_evict(self, cluster):
        cache = ResultCache(capacity=128)
        pool, engine = _remote(cluster, cache)
        try:
            query = _QUERIES["L-cipq"]
            first = engine.evaluate(query).probabilities()
            assert engine.evaluate(query).probabilities() == first
            assert cache.stats.hits == 1
            # Mutating the far (right) shard leaves the left epoch vector —
            # and therefore the cached key — untouched: still a hit, and no
            # broadcast invalidation reloads the left daemon.
            engine.move(100, x=9_050.0, y=9_050.0)
            assert engine.evaluate(query).probabilities() == first
            assert cache.stats.hits == 2
            # Mutating the routed (left) shard bumps its epoch both locally
            # and daemon-side: the old key is unreachable, so a recompute.
            engine.move(0, x=120.0, y=120.0)
            engine.evaluate(query)
            assert cache.stats.hits == 2
            assert cache.stats.misses >= 2
        finally:
            engine.close()
            pool.close()


_OPS = st.lists(
    st.sampled_from(["L-cipq", "L-nn", "R-ipq", "mutate-L", "mutate-R"]),
    min_size=2,
    max_size=20,
)


@settings(max_examples=10, deadline=None)
@given(_OPS)
def test_interleaved_stream_matches_oracle(cluster, ops):
    """Hit count equals the epoch-vector oracle; answers stay exact."""
    cache = ResultCache(capacity=128)
    pool, engine = _remote(cluster, cache)
    mirror = _serial_mirror()
    try:
        version = {"L": 0, "R": 0}  # bumps whenever that shard mutates
        answered_at: dict[str, tuple[str, int]] = {}
        expected_hits = 0
        tick = 0
        for op in ops:
            if op.startswith("mutate"):
                side = op[-1]
                version[side] += 1
                tick += 1
                if side == "L":
                    oid, x, y = 3 + tick % 5, 120.0 + tick, 130.0 + tick % 7
                else:
                    oid, x, y = 100 + tick % 5, 9_050.0 + tick, 9_040.0 + tick % 7
                engine.move(oid, x=x, y=y)
                mirror.move(oid, x=x, y=y)
                continue
            side = op[0]
            if answered_at.get(op) == (side, version[side]):
                expected_hits += 1
            answered_at[op] = (side, version[side])
            got = engine.evaluate(_QUERIES[op]).probabilities()
            # Checkpoint: bitwise parity with the cold (uncached, serial)
            # evaluation of the same stream.
            assert got == mirror.evaluate(_QUERIES[op]).probabilities()
            assert cache.stats.hits == expected_hits
    finally:
        engine.close()
        pool.close()
