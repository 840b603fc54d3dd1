"""The four workloads: what is served, with which session, and the operations sent.

A workload is a :class:`WorkloadSpec` (the fixed part: session shape, query
shape, operation counts) materialised for one ``--seed`` into a
:class:`Workload` (the generated operations).  The server child and the
harness both build sessions through :func:`build_session`, so the served and
the embedded phase run the same configuration.

**Seeds are replicates of one workload, not different workloads.**  Issuer
centres follow a seed-independent Halton layout (any prefix of which covers
the data space evenly) and the seed adds a jitter of 2 % of the query
reach to every centre; the hot-set draw order of ``fleet_mixed`` is a
van der Corput sequence rotated by a seeded offset, and its stream of moves
is the same for every seed.  Every seed therefore sends different queries —
nothing can be remembered across seeds — while the aggregate work (answers
per query, bytes on the wire, cache pressure, index reorganisation) stays
within a percent.  With independently sampled issuers the clustered datasets
make the mean answer count of a thousand queries vary by several percent
between seeds, and one move in twenty makes the R-tree reinsert thousands of
entries (0.2–1.3 s against a 30-ms median batch), so which seed met how many
of those would decide ``fleet_mixed`` — either would drown every bound.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.engine import EngineConfig
from repro.core.queries import RangeQuery, RangeQuerySpec
from repro.core.session import Session
from repro.core.updates import UpdateBatch
from repro.datasets.tiger import DATA_SPACE, california_points, long_beach_uncertain_objects
from repro.datasets.workload import QueryWorkload
from repro.geometry.point import Point
from repro.uncertainty.catalog import DEFAULT_CATALOG_LEVELS, PAPER_CATALOG_LEVELS

#: Requests each connection keeps in flight.
LANES_PER_CONNECTION = 4

#: The operation counts below keep a served phase busy for about this many
#: seconds on a 2-core host; ``--seconds`` scales all of them by one factor.
BASE_SECONDS = 20.0

#: Fraction of the query reach (issuer + range half-size) a seed moves a centre by.
SEED_JITTER = 0.02

#: The move stream of ``fleet_mixed`` is drawn from this generator seed for
#: every ``--seed`` (see the module docstring).
_MOVE_STREAM_SEED = 20070415

#: Warm-up queries at factor 1.0 (discarded; scaled like every other count).
BASE_WARMUP = 200

#: Share of the served operation list the embedded phase replays.
EMBEDDED_SHARE = 0.5

#: Standing subscriptions and end-of-phase probe queries of ``fleet_mixed``.
STANDING_QUERIES = 64

#: Moves per ``UpdateBatch`` and their Gaussian step (data-space units).
MOVES_PER_BATCH = 4
MOVE_SIGMA = 50.0


def connections() -> int:
    """Client connections the harness opens: ``min(2, nproc)``."""
    return min(2, os.cpu_count() or 1)


def lanes() -> int:
    """Outstanding requests of the closed loop."""
    return connections() * LANES_PER_CONNECTION


@dataclass(frozen=True)
class WorkloadSpec:
    """The seed-independent definition of one workload."""

    name: str
    why: str
    target: str  # "points" | "uncertain"
    issuer_half: float
    range_half: float
    threshold: float
    base_queries: int
    #: Launches of the server child per run; ``setup_s`` is their median.
    #: Fewer where a launch is dear (``ciuq_pti``'s catalog + PTI build takes
    #: 10 s and steadies itself, ``cipq_mc_dist`` spawns daemons for 4.5 s):
    #: three of those would not fit the run.
    setup_repeats: int = 3
    catalog_levels: tuple[float, ...] = DEFAULT_CATALOG_LEVELS
    #: Monte-Carlo draws per candidate (``None`` = closed-form probabilities).
    monte_carlo_samples: int | None = None
    #: Scale-out of the serial session: shard daemons, or in-process shards
    #: behind a result cache of ``cache_capacity`` entries.
    daemons: int | None = None
    shards: int | None = None
    cache_capacity: int | None = None
    #: ``fleet_mixed`` only: distinct queries drawn Zipf(s) with repetition.
    hot_set: int | None = None
    zipf_s: float = 1.1
    #: ``fleet_mixed`` only: lane 0 sends one update batch after this many
    #: of its own queries.
    update_every: int | None = None

    @property
    def mutating(self) -> bool:
        return self.update_every is not None


WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="ipq_wide",
            why=(
                "Paper-default unthresholded IPQ (~1.5k answers): codec and transport "
                "dominate; Monte-Carlo, pruning, cache and shards idle."
            ),
            target="points",
            issuer_half=250.0,
            range_half=500.0,
            threshold=0.0,
            base_queries=3200,
        ),
        WorkloadSpec(
            name="ciuq_pti",
            why=(
                "The paper's headline C-IUQ (Qp=0.6) over the PTI: index traversal, "
                "CIUQPruner and the exact kernel share time with the codec."
            ),
            target="uncertain",
            issuer_half=250.0,
            range_half=500.0,
            threshold=0.6,
            base_queries=3200,
            setup_repeats=1,
            catalog_levels=PAPER_CATALOG_LEVELS,
        ),
        WorkloadSpec(
            name="cipq_mc_dist",
            why=(
                "Monte-Carlo C-IPQ over 2 shard daemons: the sampling kernel dominates; "
                "the only workload where routing, rpc scatter, shardd and merge run."
            ),
            target="points",
            issuer_half=250.0,
            range_half=500.0,
            threshold=0.6,
            base_queries=1600,
            setup_repeats=2,
            monte_carlo_samples=200,
            daemons=2,
        ),
        WorkloadSpec(
            name="fleet_mixed",
            why=(
                "Zipf-repeated small C-IPQs beside update batches on 8 cached shards with "
                "64 subscriptions: cache, mutation, invalidation and wave splitting."
            ),
            target="points",
            issuer_half=100.0,
            range_half=250.0,
            threshold=0.5,
            base_queries=6400,
            shards=8,
            cache_capacity=4096,
            hot_set=256,
            update_every=5,
        ),
    )
}


def _radical_inverse(count: int, base: int) -> np.ndarray:
    """The first ``count`` terms of the van der Corput sequence in ``base``."""
    index = np.arange(1, count + 1)
    result = np.zeros(count)
    scale = 1.0 / base
    while index.any():
        result += (index % base) * scale
        index //= base
        scale /= base
    return result


def engine_config(spec: WorkloadSpec) -> EngineConfig:
    """The workload's configuration; ``query_keyed`` makes an answer a pure
    function of query content and database state."""
    if spec.monte_carlo_samples is not None:
        return EngineConfig(
            probability_method="monte_carlo",
            monte_carlo_samples=spec.monte_carlo_samples,
            draw_plan="query_keyed",
        )
    return EngineConfig(draw_plan="query_keyed")


def dataset(spec: WorkloadSpec, scale: float) -> list:
    """The workload's objects at ``scale`` (1.0 = the paper's cardinality)."""
    if spec.target == "uncertain":
        return long_beach_uncertain_objects(scale=scale)
    return california_points(scale=scale)


def build_serial_session(spec: WorkloadSpec, objects: list) -> Session:
    """A serial session under the workload's configuration: the answer oracle,
    and the served session itself for the two serial workloads."""
    if spec.target == "uncertain":
        return Session.from_objects(
            uncertain=objects,
            uncertain_index="pti",
            catalog_levels=spec.catalog_levels,
            config=engine_config(spec),
        )
    return Session.from_objects(
        points=objects, point_index="rtree", config=engine_config(spec)
    )


def scale_out(spec: WorkloadSpec, session: Session, standing: list[RangeQuery]) -> Session:
    """Shard, distribute, cache and subscribe a serial session as the workload asks."""
    if spec.daemons is not None:
        session = session.distributed(spec.daemons)
        session.engine.warm()
    elif spec.shards is not None:
        session = session.sharded(spec.shards, workers=1).cached(spec.cache_capacity)
    for query in standing:
        session.subscribe(query)
    return session


def build_session(spec: WorkloadSpec, objects: list, standing: list[RangeQuery]) -> Session:
    """The session the workload serves (and embeds); close its engine when done."""
    return scale_out(spec, build_serial_session(spec, objects), standing)


def close_session(session: Session) -> None:
    """Release daemons, pools and shared-memory blocks of a built session."""
    close = getattr(session.engine, "close", None)
    if close is not None:
        close()


def _interleave(items: list, batches: Iterator[UpdateBatch], every: int, wrap) -> list:
    """``items`` with ``wrap(next batch)`` inserted after every ``every`` of them."""
    merged: list = []
    for sent, item in enumerate(items, start=1):
        merged.append(item)
        if sent % every == 0:
            batch = next(batches, None)
            if batch is not None:
                merged.append(wrap(batch))
    return merged


def deal(
    indexed: list[tuple[int, RangeQuery]],
    lane_count: int,
    batches: Iterator[UpdateBatch] | None = None,
    every: int | None = None,
) -> list[list]:
    """Deal ``(index, query)`` pairs round-robin over the lanes.

    With ``batches``, lane 0 additionally sends the next of them — as
    ``(None, batch)`` — after every ``every`` of its own queries.
    """
    dealt: list[list] = [[] for _ in range(lane_count)]
    for position, item in enumerate(indexed):
        dealt[position % lane_count].append(item)
    if batches is not None:
        dealt[0] = _interleave(dealt[0], batches, every, lambda batch: (None, batch))
    return dealt


def distinct_queries(spec: WorkloadSpec, count: int, rng: np.random.Generator) -> list[RangeQuery]:
    """``count`` queries on the Halton layout, each centre jittered by ``rng``."""
    generator = QueryWorkload(
        issuer_half_size=spec.issuer_half,
        range_half_size=spec.range_half,
        threshold=spec.threshold,
        catalog_levels=spec.catalog_levels,
    )
    margin = spec.issuer_half
    jitter = SEED_JITTER * (spec.issuer_half + spec.range_half)
    low = np.array([DATA_SPACE.xmin + margin, DATA_SPACE.ymin + margin])
    high = np.array([DATA_SPACE.xmax - margin, DATA_SPACE.ymax - margin])
    layout = np.column_stack([_radical_inverse(count, 2), _radical_inverse(count, 3)])
    centres = low + layout * (high - low) + rng.uniform(-jitter, jitter, (count, 2))
    centres = np.clip(centres, low, high)
    shape = RangeQuerySpec.square(spec.range_half)
    return [
        RangeQuery(
            issuer=generator.make_issuer(Point(float(x), float(y)), oid=oid),
            spec=shape,
            threshold=spec.threshold,
            target=spec.target,
        )
        for oid, (x, y) in enumerate(centres)
    ]


def standing_queries(spec: WorkloadSpec, seed: int) -> list[RangeQuery]:
    """The hottest queries of a hot-set workload, which the server subscribes to.

    The hot set is the first thing a :class:`Workload` draws from its seed,
    so the server child and the harness agree on it without sharing more
    than the seed.
    """
    if spec.hot_set is None:
        return []
    hot = distinct_queries(spec, spec.hot_set, np.random.default_rng(seed))
    return hot[:STANDING_QUERIES]


class Workload:
    """One workload's operations for one seed, scale and length factor."""

    def __init__(
        self,
        spec: WorkloadSpec,
        *,
        seed: int,
        factor: float,
        operations: int | None = None,
    ) -> None:
        self.spec = spec
        self.query_count = (
            operations if operations is not None else max(8, round(spec.base_queries * factor))
        )
        self.warmup_count = max(8, round(BASE_WARMUP * factor))
        if operations is not None:
            self.warmup_count = min(self.warmup_count, max(8, operations // 4))
        self.embedded_count = max(8, round(self.query_count * EMBEDDED_SHARE))
        rng = np.random.default_rng(seed)
        total = self.query_count + self.warmup_count
        self.standing: list[RangeQuery] = []
        if spec.hot_set is None:
            sequence = distinct_queries(spec, total, rng)
        else:
            hot = distinct_queries(spec, spec.hot_set, rng)
            sequence = [hot[rank] for rank in self._zipf_ranks(total, rng)]
            self.standing = hot[:STANDING_QUERIES]
        self.queries = sequence[: self.query_count]
        self.warmup = sequence[self.query_count :]
        self.updates: list[UpdateBatch] = []

    def _zipf_ranks(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Zipf(s) ranks whose every prefix holds the exact proportions."""
        weights = 1.0 / np.arange(1, self.spec.hot_set + 1) ** self.spec.zipf_s
        cdf = np.cumsum(weights / weights.sum())
        positions = (_radical_inverse(count, 2) + rng.uniform()) % 1.0
        return np.minimum(np.searchsorted(cdf, positions, side="right"), len(cdf) - 1)

    def generate_updates(self, objects: list, lane_count: int) -> None:
        """Fill :attr:`updates` with lane 0's batches of local moves.

        Lane 0 is dealt every ``lane_count``-th query and sends one batch
        after every ``update_every`` of them.
        """
        if not self.spec.mutating:
            return
        lane0_queries = len(range(0, self.query_count, lane_count))
        batches = lane0_queries // self.spec.update_every
        positions = {obj.oid: (obj.x, obj.y) for obj in objects}
        oids = np.fromiter(positions, dtype=np.int64, count=len(positions))
        rng = np.random.default_rng(_MOVE_STREAM_SEED)
        for _ in range(batches):
            batch = UpdateBatch()
            picked = rng.choice(oids, size=MOVES_PER_BATCH, replace=False)
            steps = rng.normal(0.0, MOVE_SIGMA, size=(MOVES_PER_BATCH, 2))
            for oid, (dx, dy) in zip(picked, steps):
                x, y = positions[int(oid)]
                x = float(np.clip(x + dx, DATA_SPACE.xmin, DATA_SPACE.xmax))
                y = float(np.clip(y + dy, DATA_SPACE.ymin, DATA_SPACE.ymax))
                positions[int(oid)] = (x, y)
                batch.move(int(oid), x=x, y=y, target="points")
            self.updates.append(batch)

    # ------------------------------------------------------------------ #
    # Operation streams
    # ------------------------------------------------------------------ #
    def lane_operations(self, lane_count: int) -> list[list]:
        """The whole served operation list, dealt over the lanes (see :func:`deal`).

        ``index`` is the query's position in :attr:`queries`.
        """
        return deal(
            list(enumerate(self.queries)),
            lane_count,
            iter(self.updates) if self.spec.mutating else None,
            self.spec.update_every,
        )

    def embedded_operations(self, lane_count: int) -> list:
        """The first part of the served operation list as one flat stream.

        Update batches sit where lane 0 would have sent them: after every
        ``update_every * lane_count`` queries.
        """
        queries = self.queries[: self.embedded_count]
        if not self.spec.mutating:
            return queries
        stride = self.spec.update_every * lane_count
        return _interleave(queries, iter(self.updates), stride, lambda batch: batch)

    def probes(self) -> list[RangeQuery]:
        """Fresh copies of the hottest queries, fired after the last update ack."""
        return [
            RangeQuery(
                issuer=query.issuer,
                spec=query.spec,
                threshold=query.threshold,
                target=query.target,
            )
            for query in self.standing
        ]
