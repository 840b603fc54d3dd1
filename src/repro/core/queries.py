"""Query and answer types (Section 3.2 of the paper).

An imprecise location-dependent range query is described by

* the *query issuer* ``O0`` — an uncertain object whose pdf models the
  imprecision of the issuer's own location,
* the range rectangle's half-width ``w`` and half-height ``h`` (the range is
  centred at the issuer's true, unknown position), and
* an optional *probability threshold* ``Qp``; answers with qualification
  probability below the threshold are not reported (Definitions 5 and 6).

The module also defines the unified query-object model that the engine's
single ``evaluate()`` entry point dispatches on:

* :class:`Query` — abstract base of every request;
* :class:`RangeQuery` — one type covering all four paper query flavours
  (IPQ, IUQ, C-IPQ, C-IUQ) via a target kind plus an optional threshold;
* :class:`NearestNeighborQuery` — the imprecise nearest-neighbour extension;
* :class:`Evaluation` — the response envelope bundling the answers, the
  work counters, the wall-clock time and an echo of the query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Literal

from repro.core.errors import InvalidQueryError, SchemaError
from repro.core.statistics import EvaluationStatistics
from repro.core.wire import check_schema, require, tagged
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.uncertainty.region import UncertainObject

#: Wire schema names of the query and answer-envelope payloads.
QUERY_SCHEMA = "repro.query"
EVALUATION_SCHEMA = "repro.evaluation"


@dataclass(frozen=True, slots=True)
class RangeQuerySpec:
    """The shape of a location-dependent range query: half-width and half-height."""

    half_width: float
    half_height: float

    def __post_init__(self) -> None:
        if self.half_width < 0 or self.half_height < 0:
            raise InvalidQueryError("query half-extents must be non-negative")

    @staticmethod
    def square(half_size: float) -> "RangeQuerySpec":
        """A square range, the shape used throughout the paper's experiments."""
        return RangeQuerySpec(half_size, half_size)

    def region_at(self, center: Point) -> Rect:
        """The concrete range rectangle ``R(x, y)`` for an issuer located at ``center``."""
        return Rect.from_center(center, self.half_width, self.half_height)

    @property
    def area(self) -> float:
        """Area of the range rectangle."""
        return (2.0 * self.half_width) * (2.0 * self.half_height)


@dataclass(frozen=True, slots=True)
class QueryAnswer:
    """One tuple of a query result: an object identity and its qualification probability."""

    oid: int
    probability: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0 + 1e-9:
            raise InvalidQueryError(f"probability out of range: {self.probability}")


@dataclass
class QueryResult:
    """An ordered collection of query answers.

    Answers are kept sorted by decreasing probability so that the "most
    certainly qualifying" objects come first, matching how a location-based
    service would present them.
    """

    answers: list[QueryAnswer] = field(default_factory=list)

    def add(self, oid: int, probability: float) -> None:
        """Append an answer (re-sorting is deferred to :meth:`sort`)."""
        self.answers.append(QueryAnswer(oid=oid, probability=probability))

    def sort(self) -> None:
        """Sort answers by decreasing probability, ties broken by object id."""
        self.answers.sort(key=lambda a: (-a.probability, a.oid))

    def __len__(self) -> int:
        return len(self.answers)

    def __iter__(self) -> Iterator[QueryAnswer]:
        return iter(self.answers)

    def probabilities(self) -> dict[int, float]:
        """Return a ``{oid: probability}`` mapping of the answers."""
        return {answer.oid: answer.probability for answer in self.answers}

    def oids(self) -> set[int]:
        """Return the set of object identities in the answer."""
        return {answer.oid for answer in self.answers}

    def above_threshold(self, threshold: float) -> "QueryResult":
        """Return a new result keeping only answers with probability ≥ threshold."""
        filtered = [a for a in self.answers if a.probability >= threshold]
        return QueryResult(answers=filtered)


# --------------------------------------------------------------------------- #
# Unified query-object model
# --------------------------------------------------------------------------- #

#: Which database a range query runs against: the point-object collection
#: (IPQ / C-IPQ) or the uncertain-object collection (IUQ / C-IUQ).
RangeQueryTarget = Literal["points", "uncertain"]

RANGE_QUERY_TARGETS: tuple[RangeQueryTarget, ...] = ("points", "uncertain")


@dataclass(frozen=True)
class Query:
    """Base class of every request accepted by ``engine.evaluate()``.

    All queries are issued by an uncertain object ``O0`` whose pdf models the
    imprecision of the issuer's own location.
    """

    issuer: UncertainObject

    @property
    def kind(self) -> str:
        """Short machine-readable name of the query flavour."""
        raise NotImplementedError

    @property
    def issuer_region(self) -> Rect:
        """The issuer's uncertainty region ``U0``."""
        return self.issuer.region


@dataclass(frozen=True)
class RangeQuery(Query):
    """A location-dependent range query in the unified model.

    One type covers all four flavours of the paper: the ``target`` selects
    the database (points → IPQ family, uncertain → IUQ family) and a
    positive ``threshold`` turns the query into its constrained variant
    (C-IPQ / C-IUQ, Definitions 5–6).
    """

    spec: RangeQuerySpec
    threshold: float = 0.0
    target: RangeQueryTarget = "points"

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise InvalidQueryError(f"threshold must lie in [0, 1], got {self.threshold}")
        if self.target not in RANGE_QUERY_TARGETS:
            raise InvalidQueryError(
                f"unknown range-query target {self.target!r}; "
                f"expected one of {RANGE_QUERY_TARGETS}"
            )

    # -- constructors named after the paper's query types ----------------- #
    @classmethod
    def ipq(cls, issuer: UncertainObject, spec: RangeQuerySpec) -> "RangeQuery":
        """Imprecise range query over point objects (Definition 3)."""
        return cls(issuer=issuer, spec=spec, threshold=0.0, target="points")

    @classmethod
    def iuq(cls, issuer: UncertainObject, spec: RangeQuerySpec) -> "RangeQuery":
        """Imprecise range query over uncertain objects (Definition 4)."""
        return cls(issuer=issuer, spec=spec, threshold=0.0, target="uncertain")

    @classmethod
    def cipq(
        cls, issuer: UncertainObject, spec: RangeQuerySpec, threshold: float
    ) -> "RangeQuery":
        """Constrained imprecise range query over point objects (Definition 5)."""
        return cls(issuer=issuer, spec=spec, threshold=threshold, target="points")

    @classmethod
    def ciuq(
        cls, issuer: UncertainObject, spec: RangeQuerySpec, threshold: float
    ) -> "RangeQuery":
        """Constrained imprecise range query over uncertain objects (Definition 6)."""
        return cls(issuer=issuer, spec=spec, threshold=threshold, target="uncertain")

    # -- properties -------------------------------------------------------- #
    @property
    def kind(self) -> str:
        """``"ipq"``, ``"iuq"``, ``"cipq"`` or ``"ciuq"``."""
        constrained = "c" if self.is_constrained else ""
        flavour = "ipq" if self.target == "points" else "iuq"
        return constrained + flavour

    @property
    def is_constrained(self) -> bool:
        """True when a positive probability threshold applies."""
        return self.threshold > 0.0

    def range_at(self, center: Point) -> Rect:
        """Range rectangle for a hypothetical issuer position ``center``."""
        return self.spec.region_at(center)

    def to_dict(self) -> dict:
        """A JSON-safe, versioned description of this query."""
        return tagged(
            QUERY_SCHEMA,
            {
                "kind": "range",
                "issuer": self.issuer.to_dict(),
                "half_width": self.spec.half_width,
                "half_height": self.spec.half_height,
                "threshold": self.threshold,
                "target": self.target,
            },
        )

    @classmethod
    def from_dict(cls, payload) -> "RangeQuery":
        """Decode a :meth:`to_dict` payload (exact: extents round-trip bitwise)."""
        payload = check_schema(payload, QUERY_SCHEMA)
        kind = require(payload, QUERY_SCHEMA, "kind")
        if kind != "range":
            raise SchemaError(f"expected a 'range' query payload, got kind {kind!r}")
        return cls(
            issuer=UncertainObject.from_dict(require(payload, QUERY_SCHEMA, "issuer")),
            spec=RangeQuerySpec(
                float(require(payload, QUERY_SCHEMA, "half_width")),
                float(require(payload, QUERY_SCHEMA, "half_height")),
            ),
            threshold=float(require(payload, QUERY_SCHEMA, "threshold")),
            target=require(payload, QUERY_SCHEMA, "target"),
        )


@dataclass(frozen=True)
class NearestNeighborQuery(Query):
    """An imprecise nearest-neighbour query over point objects.

    The paper's stated future work: report each point object's probability
    (under the issuer's pdf) of being the issuer's nearest neighbour.
    ``samples`` overrides the Monte-Carlo sample count; when ``None`` the
    engine uses its default.
    """

    threshold: float = 0.0
    samples: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise InvalidQueryError(f"threshold must lie in [0, 1], got {self.threshold}")
        if self.samples is not None and self.samples <= 0:
            raise InvalidQueryError(f"samples must be positive, got {self.samples}")

    @property
    def kind(self) -> str:
        return "nn"

    def to_dict(self) -> dict:
        """A JSON-safe, versioned description of this query."""
        return tagged(
            QUERY_SCHEMA,
            {
                "kind": "nn",
                "issuer": self.issuer.to_dict(),
                "threshold": self.threshold,
                "samples": self.samples,
            },
        )

    @classmethod
    def from_dict(cls, payload) -> "NearestNeighborQuery":
        """Decode a :meth:`to_dict` payload."""
        payload = check_schema(payload, QUERY_SCHEMA)
        kind = require(payload, QUERY_SCHEMA, "kind")
        if kind != "nn":
            raise SchemaError(f"expected an 'nn' query payload, got kind {kind!r}")
        samples = require(payload, QUERY_SCHEMA, "samples")
        return cls(
            issuer=UncertainObject.from_dict(require(payload, QUERY_SCHEMA, "issuer")),
            threshold=float(require(payload, QUERY_SCHEMA, "threshold")),
            samples=None if samples is None else int(samples),
        )


def query_from_dict(payload) -> Query:
    """Decode any query payload, dispatching on its ``kind`` discriminator."""
    payload = check_schema(payload, QUERY_SCHEMA)
    kind = require(payload, QUERY_SCHEMA, "kind")
    if kind == "range":
        return RangeQuery.from_dict(payload)
    if kind == "nn":
        return NearestNeighborQuery.from_dict(payload)
    raise SchemaError(f"unknown query kind {kind!r}; expected 'range' or 'nn'")


@dataclass(frozen=True)
class Evaluation:
    """The response envelope returned by ``engine.evaluate()``.

    Bundles the ranked answers with the per-query work counters, the
    wall-clock time of the whole evaluation (including dispatch overhead,
    hence ≥ ``statistics.response_time``) and an echo of the query so that
    batch results remain self-describing.
    """

    query: Query
    result: QueryResult
    statistics: EvaluationStatistics
    elapsed_seconds: float

    @property
    def answers(self) -> list[QueryAnswer]:
        """The ranked answers."""
        return self.result.answers

    @property
    def elapsed_ms(self) -> float:
        """Wall-clock time in milliseconds."""
        return self.elapsed_seconds * 1000.0

    def __len__(self) -> int:
        return len(self.result)

    def __iter__(self) -> Iterator[QueryAnswer]:
        return iter(self.result)

    def probabilities(self) -> dict[int, float]:
        """``{oid: probability}`` mapping of the answers."""
        return self.result.probabilities()

    def oids(self) -> set[int]:
        """Object identities in the answer."""
        return self.result.oids()

    def top(self, count: int = 1) -> list[QueryAnswer]:
        """The ``count`` most probable answers."""
        return self.result.answers[:count]

    def as_tuple(self) -> tuple[QueryResult, EvaluationStatistics]:
        """The legacy ``(result, statistics)`` shape of the old engine API."""
        return self.result, self.statistics

    def to_dict(self) -> dict:
        """A JSON-safe, versioned description of the full answer envelope.

        Answers are shipped as ``[oid, probability]`` pairs in ranked order;
        JSON preserves float values exactly, so a decoded envelope carries
        bitwise-identical probabilities.
        """
        return tagged(
            EVALUATION_SCHEMA,
            {
                "query": self.query.to_dict(),
                "answers": [[a.oid, a.probability] for a in self.result.answers],
                "statistics": self.statistics.to_dict(),
                "elapsed_seconds": self.elapsed_seconds,
            },
        )

    @classmethod
    def from_dict(cls, payload) -> "Evaluation":
        """Decode a :meth:`to_dict` payload."""
        payload = check_schema(payload, EVALUATION_SCHEMA)
        return cls(
            query=query_from_dict(require(payload, EVALUATION_SCHEMA, "query")),
            result=QueryResult(
                answers=[
                    QueryAnswer(oid=int(oid), probability=float(probability))
                    for oid, probability in require(payload, EVALUATION_SCHEMA, "answers")
                ]
            ),
            statistics=EvaluationStatistics.from_dict(
                require(payload, EVALUATION_SCHEMA, "statistics")
            ),
            elapsed_seconds=float(require(payload, EVALUATION_SCHEMA, "elapsed_seconds")),
        )
