"""Property test: the result cache is invisible to query semantics.

A Hypothesis-driven interleaved stream of queries and insert/delete/move
mutations, run against two independently built engine stacks over the same
data — one with the cache enabled, one without — must produce bitwise
identical answers at every position.  The cache can never serve a stale
answer (mutations bump the epoch embedded in every key) nor a cross-config
answer (the configuration fingerprint is embedded too), and under the
``query_keyed`` draw plan even Monte-Carlo answers are cacheable because a
query's draws depend only on its content.

A second property pins the cache's notion of "the same query": queries
equal by content — one of them decoded from the other's wire form — share
one entry on serial, sharded and distributed sessions, and changing any
single field of the content misses.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import ResultCache
from repro.core.engine import EngineConfig, ImpreciseQueryEngine, PointDatabase, UncertainDatabase
from repro.core.queries import (
    NearestNeighborQuery,
    RangeQuery,
    RangeQuerySpec,
    query_from_dict,
)
from repro.core.session import Session
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.uncertainty.pdf import TruncatedGaussianPdf, UniformPdf
from repro.uncertainty.region import PointObject, UncertainObject

SPACE = Rect(0.0, 0.0, 2_000.0, 2_000.0)
SPEC = RangeQuerySpec.square(300.0)

#: A fixed pool of issuers so the generated streams naturally repeat
#: queries (repetition is what exercises cache hits).  The Gaussian issuers
#: route their probability computations through Monte-Carlo sampling.
ISSUERS = [
    UncertainObject(
        oid=10_000 + position,
        pdf=UniformPdf(Rect.from_center(Point(x, y), 150.0, 150.0)),
    ).with_catalog()
    for position, (x, y) in enumerate([(400.0, 400.0), (1_200.0, 900.0)])
] + [
    UncertainObject(
        oid=10_100 + position,
        pdf=TruncatedGaussianPdf(Rect.from_center(Point(x, y), 150.0, 150.0)),
    ).with_catalog()
    for position, (x, y) in enumerate([(700.0, 1_300.0), (1_000.0, 600.0)])
]


def _base_points() -> list[PointObject]:
    return [
        PointObject.at(i, 37.0 + (i * 97.0) % 1_900.0, 53.0 + (i * 61.0) % 1_900.0)
        for i in range(120)
    ]


def _base_uncertain() -> list[UncertainObject]:
    objects = []
    for i in range(80):
        center = Point(91.0 + (i * 83.0) % 1_800.0, 71.0 + (i * 59.0) % 1_800.0)
        region = Rect.from_center(center, 20.0 + (i % 5) * 8.0, 25.0 + (i % 4) * 7.0)
        objects.append(UncertainObject(oid=1_000 + i, pdf=UniformPdf(region)).with_catalog())
    return objects


def _query_op(draw_issuer, kind, threshold):
    issuer = ISSUERS[draw_issuer]
    if kind == "nn":
        return ("query", NearestNeighborQuery(issuer=issuer, samples=48))
    target = "points" if kind in ("ipq", "cipq") else "uncertain"
    qp = threshold if kind in ("cipq", "ciuq") else 0.0
    return ("query", RangeQuery(issuer=issuer, spec=SPEC, threshold=qp, target=target))


_ops = st.one_of(
    st.builds(
        _query_op,
        st.integers(min_value=0, max_value=len(ISSUERS) - 1),
        st.sampled_from(["ipq", "cipq", "iuq", "ciuq", "nn"]),
        st.sampled_from([0.2, 0.5]),
    ),
    st.builds(
        lambda x, y: ("insert", x, y),
        st.floats(min_value=10.0, max_value=1_990.0),
        st.floats(min_value=10.0, max_value=1_990.0),
    ),
    st.builds(lambda i: ("delete", i), st.integers(min_value=0, max_value=119)),
    st.builds(
        lambda i, x, y: ("move", i, x, y),
        st.integers(min_value=0, max_value=119),
        st.floats(min_value=10.0, max_value=1_990.0),
        st.floats(min_value=10.0, max_value=1_990.0),
    ),
)


def _build_engine(cache: ResultCache | None) -> ImpreciseQueryEngine:
    config = EngineConfig(draw_plan="query_keyed", cache=cache, monte_carlo_samples=48)
    return ImpreciseQueryEngine(
        point_db=PointDatabase.build(_base_points()),
        uncertain_db=UncertainDatabase.build(_base_uncertain()),
        config=config,
    )


def _apply(engine: ImpreciseQueryEngine, ops) -> list[dict]:
    answers = []
    next_oid = [500]
    for op in ops:
        if op[0] == "query":
            answers.append(engine.evaluate(op[1]).probabilities())
        elif op[0] == "insert":
            engine.insert(PointObject.at(next_oid[0], op[1], op[2]))
            next_oid[0] += 1
        elif op[0] == "delete":
            if op[1] in engine.point_db and len(engine.point_db) > 1:
                engine.delete(op[1], target="points")
        else:  # move
            if op[1] in engine.point_db:
                engine.move(op[1], x=op[2], y=op[3], target="points")
    return answers


@settings(max_examples=20, deadline=None)
@given(st.lists(_ops, min_size=4, max_size=24))
def test_cached_stream_bitwise_identical_to_uncached(ops):
    """Interleaved queries + mutations: cached answers == uncached, bitwise.

    Floating-point dict equality is exact, so any cache entry surviving a
    relevant mutation — or any draw depending on query position — would
    fail this property immediately.
    """
    cache = ResultCache(capacity=64)
    cached = _apply(_build_engine(cache), ops)
    uncached = _apply(_build_engine(None), ops)
    assert cached == uncached


@settings(max_examples=10, deadline=None)
@given(st.lists(_ops, min_size=6, max_size=24))
def test_repeated_stream_hits_cache(ops):
    """Replaying a stream twice without mutations in between serves hits."""
    queries = [op for op in ops if op[0] == "query"]
    if not queries:
        return
    cache = ResultCache(capacity=256)
    engine = _build_engine(cache)
    first = _apply(engine, queries)
    hits_before = cache.stats.hits
    second = _apply(engine, queries)
    assert second == first
    # No mutation ran in between, so every replayed query is a hit.
    assert cache.stats.hits == hits_before + len(queries)


# --------------------------------------------------------------------------- #
# One identity: equal content shares one entry, any field change misses
# --------------------------------------------------------------------------- #
_LEVEL_SETS = (None, (0.0, 0.1, 0.2, 0.3, 0.4, 0.5), (0.0, 0.25, 0.5))


@dataclasses.dataclass(frozen=True)
class _Content:
    """Every field that makes up a query's content."""

    kind: str
    oid: int
    pdf: str
    x: float
    y: float
    sigma: float
    levels: int  # index into _LEVEL_SETS
    half_width: float
    half_height: float
    threshold: float
    target: str
    samples: int

    def build(self):
        region = Rect.from_center(Point(self.x, self.y), 150.0, 150.0)
        if self.pdf == "uniform":
            pdf = UniformPdf(region)
        else:
            pdf = TruncatedGaussianPdf(region, sigma_x=self.sigma, sigma_y=self.sigma)
        issuer = UncertainObject(oid=self.oid, pdf=pdf)
        if _LEVEL_SETS[self.levels] is not None:
            issuer = issuer.with_catalog(_LEVEL_SETS[self.levels])
        if self.kind == "nn":
            return NearestNeighborQuery(
                issuer=issuer, threshold=self.threshold, samples=self.samples
            )
        return RangeQuery(
            issuer=issuer,
            spec=RangeQuerySpec(self.half_width, self.half_height),
            threshold=self.threshold,
            target=self.target,
        )


#: One single-field change per content field; the range fields only apply
#: to range queries and ``samples`` only to nearest-neighbour ones.
_CHANGES = {
    "oid": lambda c: dataclasses.replace(c, oid=c.oid + 1),
    "pdf kind": lambda c: dataclasses.replace(
        c, pdf="gaussian" if c.pdf == "uniform" else "uniform"
    ),
    "pdf parameters": lambda c: (
        dataclasses.replace(c, x=c.x + 7.0)
        if c.pdf == "uniform"
        else dataclasses.replace(c, sigma=c.sigma + 5.0)
    ),
    "catalog levels": lambda c: dataclasses.replace(c, levels=(c.levels + 1) % 3),
    "extents": lambda c: dataclasses.replace(c, half_width=c.half_width + 25.0),
    "threshold": lambda c: dataclasses.replace(c, threshold=(c.threshold + 0.3) % 0.9),
    "target": lambda c: dataclasses.replace(
        c, target="uncertain" if c.target == "points" else "points"
    ),
    "samples": lambda c: dataclasses.replace(c, samples=c.samples + 16),
}
_RANGE_ONLY = {"extents", "target"}

_contents = st.builds(
    _Content,
    kind=st.sampled_from(["range", "nn"]),
    oid=st.integers(min_value=20_000, max_value=20_003),
    pdf=st.sampled_from(["uniform", "gaussian"]),
    x=st.floats(min_value=300.0, max_value=1_700.0),
    y=st.floats(min_value=300.0, max_value=1_700.0),
    sigma=st.sampled_from([25.0, 50.0]),
    levels=st.integers(min_value=0, max_value=2),
    half_width=st.sampled_from([200.0, 300.0]),
    half_height=st.sampled_from([200.0, 300.0]),
    threshold=st.sampled_from([0.0, 0.3, 0.6]),
    target=st.sampled_from(["points", "uncertain"]),
    samples=st.sampled_from([32, 48]),
)


@pytest.fixture(scope="module")
def identity_sessions():
    """Serial, ``sharded(2)`` and ``distributed(2)`` sessions over one dataset."""
    serial = Session.from_objects(
        points=_base_points(),
        uncertain=_base_uncertain(),
        config=EngineConfig(draw_plan="query_keyed", monte_carlo_samples=48),
    )
    distributed = serial.distributed(2)
    try:
        yield {"serial": serial, "sharded": serial.sharded(2), "distributed": distributed}
    finally:
        distributed.engine.close()


def _answers(evaluation):
    return [(answer.oid, answer.probability) for answer in evaluation]


@settings(max_examples=12, deadline=None)
@given(content=_contents, data=st.data())
def test_equal_content_shares_one_entry_and_any_field_change_misses(
    identity_sessions, content, data
):
    """A decoded twin hits the original's entry; a one-field change misses.

    The hit returns bitwise-equal answers *and* statistics, on every
    execution path — the cache key is the query's content, never the
    identity of the objects that spell it.
    """
    fields = [
        name
        for name in _CHANGES
        if (content.kind == "range" or name not in _RANGE_ONLY)
        and (content.kind == "nn" or name != "samples")
    ]
    changed = _CHANGES[data.draw(st.sampled_from(fields), label="field")](content)
    query = content.build()
    twin = query_from_dict(query.to_dict())
    assert twin is not query and twin.issuer is not query.issuer
    for name, session in identity_sessions.items():
        cached = session.cached(capacity=16)
        first = cached.evaluate(query)
        second = cached.evaluate(twin)
        stats = cached.stats().cache
        assert (stats["hits"], stats["misses"], stats["entries"]) == (1, 1, 1), name
        assert _answers(second) == _answers(first), name
        assert second.statistics.to_dict() == first.statistics.to_dict(), name
        cached.evaluate(changed.build())
        stats = cached.stats().cache
        assert (stats["hits"], stats["misses"], stats["entries"]) == (1, 2, 2), name
