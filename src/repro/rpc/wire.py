"""Wire codecs of the shard RPC protocol.

Every RPC message is one binary frame (:mod:`repro.serve.framing`): a JSON
header tagged with :data:`RPC_SCHEMA` plus zero or more raw numpy arrays.
The hot path — ``query`` requests and their ``answers`` replies — carries
plan tokens as JSON and the packed answer arrays (:func:`pack_answers`
layout: ``oid:int64[]``, ``value:float64[]`` and the statistics counter
rows) as raw array bytes; nothing on it is pickled.

The codecs here are module-level functions, not methods: :class:`PlanToken`
and :class:`~repro.core.engine.EngineConfig` are in-process types first and
wire payloads only for this transport, so their dict forms live with the
protocol that defines them.

Request headers (all built by the ``*_header`` helpers):

========== ==========================================================
``load``       ship one shard's objects + engine config to a daemon
``configure``  register an additional config digest with a loaded shard
``query``      routed plan-token batches against one loaded shard
``update``     one-shard mutation ops; the reply returns the new epoch
``shutdown``   stop the daemon's server after replying
========== ==========================================================

Error replies carry ``{"op": "error", "error": error_to_dict(...)}`` and
re-raise client-side as the *same* typed exception classes, exactly like
the serving front-end's envelopes.
"""

from __future__ import annotations

import hashlib
from dataclasses import astuple, fields
from typing import Any, Mapping

import numpy as np

from repro.core.engine import EngineConfig
from repro.core.errors import SchemaError
from repro.core.pipeline import NNPartial, RangePartial
from repro.core.plan import PlanToken
from repro.core.pruning import PruningStrategy
from repro.core.queries import QueryResult
from repro.core.statistics import EvaluationStatistics
from repro.core.wire import check_schema, require, tagged
from repro.index.iostats import IOStatistics
from repro.uncertainty.pdf import pdf_from_dict
from repro.uncertainty.region import (
    POINT_OBJECT_SCHEMA,
    UNCERTAIN_OBJECT_SCHEMA,
    PointObject,
    UncertainObject,
)

RPC_SCHEMA = "repro.rpc"
PLAN_TOKEN_SCHEMA = "repro.plan_token"
ENGINE_CONFIG_SCHEMA = "repro.engine_config"


# --------------------------------------------------------------------------- #
# Plan tokens
# --------------------------------------------------------------------------- #
def token_to_dict(token: PlanToken) -> dict:
    """A JSON-safe, versioned form of one plan token (pdf via its codec)."""
    return tagged(
        PLAN_TOKEN_SCHEMA,
        {
            "kind": token.kind,
            "issuer_oid": token.issuer_oid,
            "issuer_pdf": token.issuer_pdf.to_dict(),
            "issuer_catalog_levels": (
                list(token.issuer_catalog_levels)
                if token.issuer_catalog_levels is not None
                else None
            ),
            "threshold": token.threshold,
            "half_width": token.half_width,
            "half_height": token.half_height,
            "target": token.target,
            "samples": token.samples,
        },
    )


def token_from_dict(payload: Any) -> PlanToken:
    """Decode a :func:`token_to_dict` payload (bitwise: floats round-trip)."""
    payload = check_schema(payload, PLAN_TOKEN_SCHEMA)
    kind = require(payload, PLAN_TOKEN_SCHEMA, "kind")
    if kind not in ("range", "nn"):
        raise SchemaError(f"unknown plan-token kind {kind!r}")
    levels = require(payload, PLAN_TOKEN_SCHEMA, "issuer_catalog_levels")
    half_width = require(payload, PLAN_TOKEN_SCHEMA, "half_width")
    half_height = require(payload, PLAN_TOKEN_SCHEMA, "half_height")
    samples = require(payload, PLAN_TOKEN_SCHEMA, "samples")
    return PlanToken(
        kind=kind,
        issuer_oid=int(require(payload, PLAN_TOKEN_SCHEMA, "issuer_oid")),
        issuer_pdf=pdf_from_dict(require(payload, PLAN_TOKEN_SCHEMA, "issuer_pdf")),
        issuer_catalog_levels=(
            tuple(float(level) for level in levels) if levels is not None else None
        ),
        threshold=float(require(payload, PLAN_TOKEN_SCHEMA, "threshold")),
        half_width=None if half_width is None else float(half_width),
        half_height=None if half_height is None else float(half_height),
        target=require(payload, PLAN_TOKEN_SCHEMA, "target"),
        samples=None if samples is None else int(samples),
    )


# --------------------------------------------------------------------------- #
# Engine configuration
# --------------------------------------------------------------------------- #
def config_to_dict(config: EngineConfig) -> dict:
    """Every fingerprint field of a configuration, JSON-safe.

    The ``cache`` field never crosses the wire (shards compute partial
    answers; caching happens in the parent), and the fingerprint excludes
    it, so the decoded configuration's digest equals the parent's even when
    the parent caches.
    """
    return tagged(
        ENGINE_CONFIG_SCHEMA,
        {
            "probability_method": config.probability_method,
            "monte_carlo_samples": config.monte_carlo_samples,
            "rng_seed": int(config.rng_seed),
            "use_p_expanded_query": config.use_p_expanded_query,
            "ciuq_strategies": [strategy.value for strategy in config.ciuq_strategies],
            "vectorized": config.vectorized,
        },
    )


def _bool_field(payload: Mapping, name: str) -> bool:
    value = require(payload, ENGINE_CONFIG_SCHEMA, name)
    if not isinstance(value, bool):
        raise SchemaError(f"{name} must be a boolean, got {value!r}")
    return value


def _strategies_field(payload: Mapping) -> tuple[PruningStrategy, ...]:
    values = require(payload, ENGINE_CONFIG_SCHEMA, "ciuq_strategies")
    known = {strategy.value: strategy for strategy in PruningStrategy}
    if not isinstance(values, list) or not all(
        isinstance(value, str) and value in known for value in values
    ):
        raise SchemaError(
            f"ciuq_strategies must be a list of {sorted(known)}, got {values!r}"
        )
    return tuple(known[value] for value in values)


def config_from_dict(payload: Any) -> EngineConfig:
    """Decode a :func:`config_to_dict` payload (``cache`` is always ``None``).

    Fields are checked, never coerced: a malformed field (``"false"`` for
    a boolean, ``7.9`` or ``true`` for an integer, strategies that are not
    a list of known names) or a field this build does not have raises
    :class:`SchemaError`, and a value :class:`EngineConfig` rejects (an
    unknown probability method) raises its ``ConfigurationError``.
    """
    payload = check_schema(payload, ENGINE_CONFIG_SCHEMA)
    known = {"schema", "version"} | {f.name for f in fields(EngineConfig) if f.name != "cache"}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise SchemaError(f"{ENGINE_CONFIG_SCHEMA!r} payload has unknown fields {unknown}")
    method = require(payload, ENGINE_CONFIG_SCHEMA, "probability_method")
    if not isinstance(method, str):
        raise SchemaError(f"probability_method must be a string, got {method!r}")
    return EngineConfig(
        probability_method=method,
        monte_carlo_samples=integer_field(
            require(payload, ENGINE_CONFIG_SCHEMA, "monte_carlo_samples"), "monte_carlo_samples"
        ),
        rng_seed=integer_field(require(payload, ENGINE_CONFIG_SCHEMA, "rng_seed"), "rng_seed"),
        use_p_expanded_query=_bool_field(payload, "use_p_expanded_query"),
        ciuq_strategies=_strategies_field(payload),
        vectorized=_bool_field(payload, "vectorized"),
        cache=None,
    )


def config_digest(config: EngineConfig) -> str:
    """A short stable digest of a configuration fingerprint (wire-friendly)."""
    return hashlib.blake2b(
        repr(config.fingerprint()).encode(), digest_size=8
    ).hexdigest()


# --------------------------------------------------------------------------- #
# Objects
# --------------------------------------------------------------------------- #
def object_from_dict(payload: Any) -> PointObject | UncertainObject:
    """Decode a point or uncertain object payload, dispatching on its schema."""
    schema = payload.get("schema") if isinstance(payload, Mapping) else None
    if schema == POINT_OBJECT_SCHEMA:
        return PointObject.from_dict(payload)
    if schema == UNCERTAIN_OBJECT_SCHEMA:
        return UncertainObject.from_dict(payload)
    raise SchemaError(
        f"expected a {POINT_OBJECT_SCHEMA!r} or {UNCERTAIN_OBJECT_SCHEMA!r} "
        f"object, got schema {schema!r}"
    )


# --------------------------------------------------------------------------- #
# Request / reply headers
# --------------------------------------------------------------------------- #
def header(op: str, **fields: Any) -> dict:
    """One tagged RPC header."""
    return tagged(RPC_SCHEMA, {"op": op, **fields})


def check_header(payload: Any) -> tuple[str, Mapping]:
    """Validate one RPC header and return ``(op, header)``."""
    payload = check_schema(payload, RPC_SCHEMA)
    return str(require(payload, RPC_SCHEMA, "op")), payload


def load_header(
    kind: str,
    sid: int,
    index_kind: str,
    catalog_levels: tuple[float, ...] | None,
    config: EngineConfig,
    objects: list,
) -> dict:
    """A ``load`` request: one shard's full object set plus the engine config."""
    return header(
        "load",
        kind=kind,
        sid=int(sid),
        index_kind=index_kind,
        catalog_levels=list(catalog_levels) if catalog_levels is not None else None,
        config=config_to_dict(config),
        objects=[obj.to_dict() for obj in objects],
    )


def configure_header(kind: str, sid: int, config: EngineConfig) -> dict:
    """A ``configure`` request: register another config with a loaded shard."""
    return header("configure", kind=kind, sid=int(sid), config=config_to_dict(config))


def query_header(
    kind: str,
    sid: int,
    config_digest: str,
    range_items: list[tuple[int, PlanToken]],
    nn_items: list[tuple[int, PlanToken]],
) -> dict:
    """A ``query`` request: routed ``[position, token]`` rows for one shard.

    ``position`` is the query's index in the parent's batch, used only to
    match each answer to its query; the query itself is its token.
    """
    return header(
        "query",
        kind=kind,
        sid=int(sid),
        config_digest=config_digest,
        range_items=[[int(position), token_to_dict(token)] for position, token in range_items],
        nn_items=[[int(position), token_to_dict(token)] for position, token in nn_items],
    )


def integer_field(value: Any, name: str) -> int:
    """``value`` as an ``int``, or :class:`SchemaError` (``bool`` is no integer)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{name} must be an integer, got {value!r}")
    return value


def decode_items(raw: Any) -> list[tuple[int, PlanToken]]:
    """Decode one ``query`` header's ``[position, token]`` rows.

    Every malformation — a non-list, a row that is not a pair (including
    a stale three-field ``[position, seq, token]`` row), a non-integer
    position — raises :class:`SchemaError`, so a shard daemon answers it
    in-band instead of dropping the connection.
    """
    if not isinstance(raw, list):
        raise SchemaError(f"query items must be a list of rows, got {raw!r}")
    items = []
    for row in raw:
        if not isinstance(row, list) or len(row) != 2:
            raise SchemaError(f"query item rows are [position, token] pairs, got {row!r}")
        position, token = row
        items.append((integer_field(position, "query item position"), token_from_dict(token)))
    return items


def update_header(kind: str, sid: int, ops: list) -> dict:
    """An ``update`` request: ordered mutation ops for one owning shard."""
    return header("update", kind=kind, sid=int(sid), ops=[op.to_dict() for op in ops])


# --------------------------------------------------------------------------- #
# Answer frames
# --------------------------------------------------------------------------- #
#: Reply-frame code of a partial's kind (the ``meta`` rows' second column).
_NN_CODE = 1


def pack_answers(
    answers: list[tuple[int, RangePartial | NNPartial]],
) -> tuple[dict[str, np.ndarray], tuple[str, ...]]:
    """Flatten one shard's ``(position, partial)`` answers into reply arrays.

    ``meta`` rows are ``(position, kind code, answer count)`` (code 0 for a
    :class:`~repro.core.pipeline.RangePartial`, 1 for an
    :class:`~repro.core.pipeline.NNPartial`); ``timing`` rows
    ``(response_time, elapsed_seconds)``; ``counters`` rows the four scalar
    work counters followed by the five I/O counters; ``pruned`` rows the
    per-strategy pruned counts (−1 marking a strategy absent from that
    partial, since 0 is a recordable count).  ``oids`` / ``values``
    concatenate every partial's ranked answer (or per-draw winners and
    distances) in row order.  The pruning-strategy names ride in the header
    (short strings; everything in the arrays is numeric).
    """
    pruned_names: list[str] = []
    for _, partial in answers:
        for strategy in partial.statistics.pruned:
            if strategy not in pruned_names:
                pruned_names.append(strategy)
    rows = len(answers)
    meta = np.zeros((rows, 3), dtype=np.int64)
    timing = np.zeros((rows, 2), dtype=np.float64)
    counters = np.zeros((rows, 9), dtype=np.int64)
    pruned = np.full((rows, len(pruned_names)), -1, dtype=np.int64)
    oids: list[np.ndarray] = []
    values: list[np.ndarray] = []
    for row, (position, partial) in enumerate(answers):
        nearest = isinstance(partial, NNPartial)
        if nearest:
            oids.append(partial.oids)
            values.append(partial.distances)
        else:
            oids.append(partial.result.oid_array)
            values.append(partial.result.probability_array)
        stats = partial.statistics
        meta[row] = (position, _NN_CODE if nearest else 0, oids[-1].size)
        timing[row] = (stats.response_time, partial.elapsed_seconds)
        counters[row] = (
            stats.candidates_examined,
            stats.probability_computations,
            stats.monte_carlo_samples,
            stats.results_returned,
            *astuple(stats.io),
        )
        for strategy, count in stats.pruned.items():
            pruned[row, pruned_names.index(strategy)] = count
    arrays = {
        "meta": meta,
        "timing": timing,
        "counters": counters,
        "pruned": pruned,
        "oids": np.concatenate(oids) if oids else np.zeros(0, dtype=np.int64),
        "values": np.concatenate(values) if values else np.zeros(0, dtype=np.float64),
    }
    return arrays, tuple(pruned_names)


def unpack_answers(
    arrays: Mapping[str, np.ndarray], pruned_names: tuple[str, ...]
) -> list[tuple[int, RangePartial | NNPartial]]:
    """Rebuild one reply frame's ``(position, partial)`` answers (inverse of
    :func:`pack_answers`); every statistics object is freshly built."""
    answers: list[tuple[int, RangePartial | NNPartial]] = []
    offset = 0
    meta = arrays["meta"]
    for row in range(meta.shape[0]):
        position, kind_code, count = (int(value) for value in meta[row])
        counters = arrays["counters"][row]
        stats = EvaluationStatistics(
            response_time=float(arrays["timing"][row, 0]),
            candidates_examined=int(counters[0]),
            probability_computations=int(counters[1]),
            monte_carlo_samples=int(counters[2]),
            results_returned=int(counters[3]),
            pruned={
                strategy: int(pruned_count)
                for strategy, pruned_count in zip(pruned_names, arrays["pruned"][row])
                if pruned_count >= 0
            },
            io=IOStatistics(*(int(value) for value in counters[4:9])),
        )
        oids = arrays["oids"][offset : offset + count]
        values = arrays["values"][offset : offset + count]
        elapsed = float(arrays["timing"][row, 1])
        offset += count
        if kind_code == _NN_CODE:
            partial: RangePartial | NNPartial = NNPartial(oids, values, stats, elapsed)
        else:
            partial = RangePartial(QueryResult.ranked(oids, values), stats, elapsed)
        answers.append((position, partial))
    return answers
