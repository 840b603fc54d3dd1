"""Distributed parity suite: ``RemoteEngine`` must equal the serial engine.

Acceptance criteria of the RPC shard-service change: for all four paper
query kinds (IPQ, C-IPQ, IUQ, C-IUQ) plus the nearest-neighbour extension,
``RemoteEngine.evaluate_many`` over K ∈ {2, 4} shards — each shard hosted
by a live spawned ``shardd`` process — returns answer sets and
probabilities bitwise-identical to the single-shard vectorized engine,
including after interleaved
:class:`~repro.core.updates.UpdateBatch` mutations, with the scatter hot
path averaging under the 2 KiB/query transport budget.

One four-daemon cluster is spawned per module (the launcher uses the
``spawn`` start method, matching the CI smoke environment); K = 2 engines
simply use the first two addresses.
"""

from __future__ import annotations

import contextlib
import socket
import time

import pytest

from repro.core.engine import (
    EngineConfig,
    ImpreciseQueryEngine,
    PointDatabase,
    UncertainDatabase,
)
from repro.core.errors import ConfigurationError, EngineStateError
from repro.core.session import Session
from repro.core.sharding import ShardedDatabase
from repro.core.updates import UpdateBatch
from repro.rpc import pool as rpc_pool
from repro.rpc.engine import RemoteEngine
from repro.rpc.launcher import LocalShardCluster
from repro.rpc.pool import RemoteShardPool

from tests.test_updates_parity import (
    _all_kind_workload,
    _assert_identical,
    _mutation_batch,
    _queries,
    _rebuilt_engine,
)


@pytest.fixture(scope="module")
def cluster():
    cluster = LocalShardCluster.spawn(4)
    yield cluster
    cluster.close()


def _single_engine(small_points, small_uncertain, **overrides):
    config = EngineConfig(**overrides)
    return ImpreciseQueryEngine(
        point_db=PointDatabase.build(small_points),
        uncertain_db=UncertainDatabase.build(small_uncertain),
        config=config,
    )


@contextlib.contextmanager
def _remote_engine(cluster, small_points, small_uncertain, k, **overrides):
    config = EngineConfig(**overrides)
    pool = RemoteShardPool(cluster.addrs[:k])
    try:
        engine = RemoteEngine(
            point_db=ShardedDatabase.build_points(small_points, k),
            uncertain_db=ShardedDatabase.build_uncertain(
                small_uncertain, k, catalog_levels=None
            ),
            config=config,
            pool=pool,
            owns_pool=False,  # the module fixture owns the daemons
        )
        yield engine
        engine.close()
    finally:
        pool.close()


class TestDistributedParity:
    """K ∈ {2, 4} × every query kind over live shard daemons."""

    @pytest.mark.parametrize("k", [2, 4])
    def test_all_query_kinds(self, cluster, small_points, small_uncertain, k):
        single = _single_engine(small_points, small_uncertain)
        workload = _all_kind_workload()
        with _remote_engine(cluster, small_points, small_uncertain, k) as remote:
            _assert_identical(
                single.evaluate_many(workload), remote.evaluate_many(workload)
            )

    def test_monte_carlo_probabilities_bitwise_identical(
        self, cluster, small_points, small_uncertain
    ):
        overrides = {"probability_method": "monte_carlo", "monte_carlo_samples": 60}
        single = _single_engine(small_points, small_uncertain, **overrides)
        workload = _queries(3, target="points", threshold=0.2, seed=5) + _queries(
            3, target="uncertain", threshold=0.2, seed=6
        )
        reference = single.evaluate_many(workload)
        assert sum(e.statistics.monte_carlo_samples for e in reference) > 0
        with _remote_engine(
            cluster, small_points, small_uncertain, 2, **overrides
        ) as remote:
            _assert_identical(reference, remote.evaluate_many(workload))

    @pytest.mark.parametrize("k", [2, 4])
    def test_interleaved_update_batch_stays_exact(
        self, cluster, small_points, small_uncertain, k
    ):
        """Queries → UpdateBatch → queries: one stream, both engines."""
        workload = (
            _queries(2, target="points", seed=71)
            + [_mutation_batch()]
            + _queries(2, target="uncertain", threshold=0.4, seed=72)
            + _queries(2, nn_every=1, seed=73)
        )
        single = _single_engine(small_points, small_uncertain)
        with _remote_engine(cluster, small_points, small_uncertain, k) as remote:
            _assert_identical(
                single.evaluate_many(workload), remote.evaluate_many(workload)
            )

    def test_interleaved_update_costs_one_update_rpc_and_no_reload(
        self, cluster, small_points, small_uncertain, monkeypatch
    ):
        """The daemons survive a mutation: one ``update`` to the owning shard,
        no snapshot re-shipped, the same processes, answers equal to a rebuild."""
        head = _queries(3, target="points", threshold=0.2, seed=61)
        tail = _queries(3, target="points", seed=62) + _queries(2, nn_every=1, seed=63)
        with _remote_engine(cluster, small_points, small_uncertain, 2) as remote:
            session = Session(engine=remote)
            session.evaluate_many(_queries(1, target="uncertain", seed=60))  # all loaded
            mover = small_points[0]
            owner = remote.point_db.owner_of(mover.oid).sid
            pids = [process.pid for process in cluster._processes]
            calls = []

            def count(name):
                original = getattr(RemoteShardPool, name)

                def counted(self, kind, sid, *args):
                    calls.append((name, kind, sid))
                    return original(self, kind, sid, *args)

                monkeypatch.setattr(RemoteShardPool, name, counted)

            count("load")
            count("update")

            batch = UpdateBatch().move(mover.oid, x=mover.x + 1.0, y=mover.y + 1.0)
            evaluations = session.evaluate_many(head + [batch] + tail)

            assert remote.point_db.owner_of(mover.oid).sid == owner
            assert calls == [("update", "points", owner)]
            assert [process.pid for process in cluster._processes] == pids
            assert all(process.is_alive() for process in cluster._processes)

            # Head against the original data, tail against the mutated data;
            # draws are keyed by content, so neither depends on its position.
            pristine = _single_engine(small_points, small_uncertain)
            _assert_identical(
                pristine.evaluate_many(head),
                evaluations[: len(head)],
            )
            reference = _rebuilt_engine(remote).evaluate_many(tail)
            _assert_identical(reference, evaluations[len(head) :])

    def test_rpc_bytes_per_query_stay_under_budget(
        self, cluster, small_points, small_uncertain
    ):
        """The scatter hot path must average ≤ 2 KiB per query on the wire."""
        workload = _all_kind_workload()
        with _remote_engine(cluster, small_points, small_uncertain, 2) as remote:
            remote.pool.reset_query_accounting()
            remote.evaluate_many(workload)
            per_query = (
                remote.pool.query_bytes_sent + remote.pool.query_bytes_received
            ) / len(workload)
        assert per_query <= 2048.0, f"{per_query:.0f} bytes/query"


class TestDistributedSurface:
    def test_unknown_config_digest_raises_typed_error(self, cluster, small_points):
        """A daemon-side failure re-raises client-side as the same class."""
        with RemoteShardPool(cluster.addrs[:1]) as pool:
            with pytest.raises(EngineStateError):
                pool.scatter([("points", 0, [], [])], "0badd1ge5700d00d")

    def test_shard_count_must_fit_the_address_list(
        self, cluster, small_points, small_uncertain
    ):
        with RemoteShardPool(cluster.addrs[:2]) as pool:
            with pytest.raises(ConfigurationError):
                RemoteEngine(
                    point_db=ShardedDatabase.build_points(small_points, 4),
                    pool=pool,
                    owns_pool=False,
                )

    def test_hot_threshold_rejected(self, cluster, small_points):
        with RemoteShardPool(cluster.addrs[:2]) as pool:
            with pytest.raises(ConfigurationError):
                RemoteEngine(
                    point_db=ShardedDatabase.build_points(
                        small_points, 2, hot_threshold=64
                    ),
                    pool=pool,
                    owns_pool=False,
                )


class TestHungDaemon:
    def test_silent_daemon_raises_typed_error_in_bounded_time(
        self, cluster, monkeypatch
    ):
        """A listener that accepts and never replies must not wedge the parent."""
        monkeypatch.setattr(rpc_pool, "_REPLY_TIMEOUT_SECONDS", 0.2)
        with socket.create_server(("127.0.0.1", 0)) as listener:
            addr = listener.getsockname()
            with RemoteShardPool([addr]) as pool:
                started = time.monotonic()
                with pytest.raises(EngineStateError, match=str(addr[1])):
                    pool.scatter([("points", 0, [], [])], "0badd1ge5700d00d")
                assert time.monotonic() - started < 5.0
                # The half-read connection is gone, not parked for reuse.
                assert pool._sockets == {}
        # Nothing global broke: a fresh pool to a live daemon still answers
        # (here with the daemon's own typed error for the unknown shard/digest).
        with RemoteShardPool(cluster.addrs[:1]) as pool:
            with pytest.raises(EngineStateError, match="not loaded|no configuration"):
                pool.scatter([("points", 0, [], [])], "0badd1ge5700d00d")
