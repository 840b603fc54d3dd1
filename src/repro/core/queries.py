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

**Answer storage.**  A :class:`QueryResult` is two read-only arrays, the
oids (``int64``) and their probabilities (``float64``), ranked by (−p,
oid).  It is the one representation of an answer from the probability
kernel through the result cache, the shard merge, the RPC reply and the
serve codec; :meth:`QueryResult.ranked` builds every result and validates
every probability in one array check.  :class:`QueryAnswer` objects exist
only as a lazy view (``answers``, iteration, ``top()``) built on demand
for callers that ask for them.  The serve wire is unchanged: an
evaluation still encodes its answers as ``[[oid, p], ...]`` JSON rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Literal

import numpy as np

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


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _is_ranked(oids: np.ndarray, probabilities: np.ndarray) -> bool:
    """Whether rows are strictly ranked by (−p, oid): no equal pair, no oid repeated at one p."""
    higher, lower = probabilities[:-1], probabilities[1:]
    return bool(((higher > lower) | ((higher == lower) & (oids[:-1] < oids[1:]))).all())


_NO_OIDS = _read_only(np.empty(0, dtype=np.int64))
_NO_PROBABILITIES = _read_only(np.empty(0, dtype=np.float64))


class QueryResult:
    """A ranked query answer held as two read-only arrays.

    :attr:`oid_array` (``int64``) and :attr:`probability_array`
    (``float64``) are ranked by decreasing probability, ties broken by
    ascending object id, so that the "most certainly qualifying" objects
    come first, matching how a location-based service would present them.
    :meth:`ranked` builds every result.  Because the arrays are read-only, a
    :meth:`copy` (a cache entry, a shard's partial answer) shares them.

    The per-answer views — :attr:`answers`, iteration, :meth:`top`,
    :meth:`probabilities`, :meth:`oids` — derive from the arrays on demand.
    :meth:`add`/:meth:`sort` remain as the builder of the scalar reference
    paths: ``add`` collects answers, which ``sort`` (or the next read) ranks
    into the arrays through :meth:`ranked`.
    """

    __slots__ = ("_oids", "_probabilities", "_pending")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, answers: Iterable[QueryAnswer] = ()) -> None:
        self._oids = _NO_OIDS
        self._probabilities = _NO_PROBABILITIES
        self._pending = [(answer.oid, answer.probability) for answer in answers]

    @classmethod
    def ranked(cls, oids, probabilities) -> "QueryResult":
        """The result answering ``oids`` with ``probabilities``, ranked by (−p, oid).

        Every probability must satisfy :class:`QueryAnswer`'s rule,
        ``0 ≤ p ≤ 1 + 1e-9`` (NaN is rejected); the check is one array test.
        Rows that are not already ranked are ranked by one ``np.lexsort``.
        The inputs are copied, never aliased.
        """
        oids = np.array(oids, dtype=np.int64)
        probabilities = np.array(probabilities, dtype=np.float64)
        if oids.ndim != 1 or oids.shape != probabilities.shape:
            raise InvalidQueryError(
                f"oids {oids.shape} and probabilities {probabilities.shape} "
                "must be 1-D arrays of one length"
            )
        valid = (probabilities >= 0.0) & (probabilities <= 1.0 + 1e-9)
        if not valid.all():
            raise InvalidQueryError(f"probability out of range: {probabilities[~valid][0]}")
        if not _is_ranked(oids, probabilities):
            order = np.lexsort((oids, -probabilities))
            oids, probabilities = oids[order], probabilities[order]
        return cls._sharing(_read_only(oids), _read_only(probabilities))

    @classmethod
    def qualifying(cls, oids, probabilities, threshold: float) -> "QueryResult":
        """The answer of a query over candidates ``oids`` with ``probabilities``.

        Reports the candidates with a non-zero probability of at least
        ``threshold`` (Definitions 3–6), ranked by :meth:`ranked`.
        """
        probabilities = np.asarray(probabilities, dtype=np.float64)
        keep = (probabilities > 0.0) & (probabilities >= threshold)
        return cls.ranked(np.asarray(oids)[keep], probabilities[keep])

    @classmethod
    def _sharing(cls, oids: np.ndarray, probabilities: np.ndarray) -> "QueryResult":
        """A result over arrays that are already read-only and ranked."""
        result = cls.__new__(cls)
        result._oids = oids
        result._probabilities = probabilities
        result._pending = []
        return result

    def add(self, oid: int, probability: float) -> None:
        """Collect one answer; :meth:`sort` or the next read ranks it in."""
        self._pending.append((oid, probability))

    def sort(self) -> None:
        """Rank the answers collected by :meth:`add` into the arrays."""
        if self._pending:
            oids, probabilities = zip(*self._pending)
            merged = QueryResult.ranked(
                np.concatenate((self._oids, np.array(oids, dtype=np.int64))),
                np.concatenate((self._probabilities, np.array(probabilities, dtype=float))),
            )
            self._oids, self._probabilities = merged._oids, merged._probabilities
            self._pending = []

    @property
    def oid_array(self) -> np.ndarray:
        """The ranked object ids (read-only ``int64``)."""
        self.sort()
        return self._oids

    @property
    def probability_array(self) -> np.ndarray:
        """The ranked probabilities (read-only ``float64``), aligned with :attr:`oid_array`."""
        self.sort()
        return self._probabilities

    @property
    def answers(self) -> list[QueryAnswer]:
        """The ranked answers as a fresh list of :class:`QueryAnswer` objects."""
        return self.top(len(self))

    def top(self, count: int = 1) -> list[QueryAnswer]:
        """The ``count`` most probable answers as :class:`QueryAnswer` objects."""
        oids = self.oid_array[:count].tolist()
        probabilities = self._probabilities[:count].tolist()
        return [QueryAnswer(oid, probability) for oid, probability in zip(oids, probabilities)]

    def copy(self) -> "QueryResult":
        """An independent result over the same read-only arrays (no data is copied)."""
        return QueryResult._sharing(self.oid_array, self._probabilities)

    def __len__(self) -> int:
        return len(self.oid_array)

    def __iter__(self) -> Iterator[QueryAnswer]:
        return iter(self.answers)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryResult):
            return NotImplemented
        return np.array_equal(self.oid_array, other.oid_array) and np.array_equal(
            self._probabilities, other.probability_array
        )

    def __repr__(self) -> str:
        return (
            f"QueryResult(oids={self.oid_array.tolist()}, "
            f"probabilities={self._probabilities.tolist()})"
        )

    def probabilities(self) -> dict[int, float]:
        """Return a ``{oid: probability}`` mapping of the answers."""
        return dict(zip(self.oid_array.tolist(), self._probabilities.tolist()))

    def oids(self) -> set[int]:
        """Return the set of object identities in the answer."""
        return set(self.oid_array.tolist())

    def above_threshold(self, threshold: float) -> "QueryResult":
        """Return a new result keeping only answers with probability ≥ threshold."""
        keep = self.probability_array >= threshold
        return QueryResult._sharing(
            _read_only(self._oids[keep]), _read_only(self._probabilities[keep])
        )


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


def _decode_answers(rows) -> QueryResult:
    """The result of an evaluation payload's ``[[oid, probability], ...]`` rows.

    Rows must be exactly what :meth:`Evaluation.to_dict` emits: integer
    (not ``bool``) oids, finite numeric (not ``bool`` or ``str``)
    probabilities, ranked by (−p, oid) with no oid twice.  Anything else is
    a :class:`SchemaError`; the checks are whole-column passes.
    """
    if not isinstance(rows, list) or not set(map(type, rows)) <= {list}:
        raise SchemaError("evaluation answers must be a list of [oid, probability] rows")
    if not set(map(len, rows)) <= {2}:
        raise SchemaError("every evaluation answer row must be [oid, probability]")
    oids, probabilities = zip(*rows) if rows else ((), ())
    if not set(map(type, oids)) <= {int}:
        raise SchemaError("evaluation answer oids must be integers")
    if not set(map(type, probabilities)) <= {float, int}:
        raise SchemaError("evaluation answer probabilities must be numbers")
    try:
        oid_array = np.array(oids, dtype=np.int64)
    except OverflowError as error:
        raise SchemaError(f"evaluation answer oid out of the int64 range: {error}") from None
    probability_array = np.array(probabilities, dtype=np.float64)
    if not np.isfinite(probability_array).all():
        raise SchemaError("evaluation answer probabilities must be finite")
    if not _is_ranked(oid_array, probability_array):
        raise SchemaError("evaluation answers must be ranked by (-probability, oid)")
    by_oid = np.sort(oid_array)
    if (by_oid[1:] == by_oid[:-1]).any():
        raise SchemaError("evaluation answers must not repeat an oid")
    return QueryResult.ranked(oid_array, probability_array)


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
        return self.result.top(count)

    def as_tuple(self) -> tuple[QueryResult, EvaluationStatistics]:
        """The legacy ``(result, statistics)`` shape of the old engine API."""
        return self.result, self.statistics

    def to_dict(self) -> dict:
        """A JSON-safe, versioned description of the full answer envelope.

        Answers are shipped as ``[oid, probability]`` pairs in ranked order;
        JSON preserves float values exactly, so a decoded envelope carries
        bitwise-identical probabilities.
        """
        oids = self.result.oid_array.tolist()
        probabilities = self.result.probability_array.tolist()
        return tagged(
            EVALUATION_SCHEMA,
            {
                "query": self.query.to_dict(),
                "answers": [[oid, p] for oid, p in zip(oids, probabilities)],
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
            result=_decode_answers(require(payload, EVALUATION_SCHEMA, "answers")),
            statistics=EvaluationStatistics.from_dict(
                require(payload, EVALUATION_SCHEMA, "statistics")
            ),
            elapsed_seconds=float(require(payload, EVALUATION_SCHEMA, "elapsed_seconds")),
        )
