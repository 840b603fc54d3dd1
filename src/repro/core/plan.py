"""Per-query execution plans for the staged pipeline.

Every query the engines accept is first compiled into a :class:`QueryPlan`
— a small, inspectable record of the decisions that used to be scattered
through the engine monolith:

* the **candidate window** (the C-IPQ filter region, the Qp-expanded-query
  or the Minkowski sum) that the index probe or the columnar window test
  will retrieve candidates from,
* the **index probe** choice — whether PTI node-level threshold pruning is
  engaged, and whether the plain window probe may be replaced by a columnar
  snapshot scan on the batch path,
* the **pruner** (:class:`~repro.core.pruning.CIPQPruner` /
  :class:`~repro.core.pruning.CIUQPruner`) owning the expanded-region
  construction, shared across queries with equal fingerprints, and
* the **draw-plan slot** — the token Monte-Carlo draws are keyed by (the
  query's sequence number under ``draw_plan="per_oid"``, a digest of the
  query's fingerprint under ``draw_plan="query_keyed"``, or ``None`` for
  the historical streaming plan).

A query has one identity, its content: :func:`query_fingerprint` (issuer
oid, pdf wire form and catalog levels, shape, threshold, target).  The
result-cache key, pruner reuse, the in-batch repeat count and the draw
token all derive from it, so a query decoded from the wire, relayed to a
shard daemon or rebuilt by hand is the same query as the original.
Object identity is never a key.

The plan is pure data: building one performs no index I/O and consumes no
randomness.  The stage runner in :mod:`repro.core.pipeline` is the only
consumer.
"""

from __future__ import annotations
from repro.core.errors import InvalidArgumentError

import hashlib
from dataclasses import dataclass
from typing import Literal

from repro.core.expansion import minkowski_expanded_query
from repro.core.pruning import CIPQPruner, CIUQPruner
from repro.core.queries import (
    NearestNeighborQuery,
    Query,
    RangeQuery,
    RangeQuerySpec,
)
from repro.geometry.rect import Rect
from repro.index.pti import ProbabilityThresholdIndex

#: Monte-Carlo sample count used for nearest-neighbour queries that do not
#: specify one (matches :class:`ImpreciseNearestNeighborEngine`'s default).
DEFAULT_NN_SAMPLES = 256

PlanTarget = Literal["points", "uncertain", "nearest"]


def resolved_nn_samples(query: NearestNeighborQuery) -> int:
    """The Monte-Carlo sample count a nearest-neighbour query will run with.

    ``samples=None`` and an explicit ``samples=DEFAULT_NN_SAMPLES`` describe
    the same request, so the fingerprint resolves the default first;
    otherwise the two spellings would be two queries drawing different
    samples.
    """
    return query.samples if query.samples is not None else DEFAULT_NN_SAMPLES


def query_fingerprint(query: Query) -> str | None:
    """The identity of a query: its content, spelled canonically.

    Two queries with equal fingerprints are the same request, wherever
    their objects came from.  The fingerprint holds the kind, the issuer's
    oid, its pdf's wire form (``to_dict()``, which round-trips bit-exactly)
    and its catalog levels (they change the C-IUQ pruner's Qp-expanded
    window, hence the statistics an answer carries); then the
    half-extents, threshold and target of a range query, or the threshold
    and resolved sample count of a nearest-neighbour query.  Extents and
    threshold are spelled as floats, as the wire decodes them.

    ``None`` when the issuer's pdf has no wire form: such a query has no
    content identity, so it is never cached, never shares a pruner and
    draws by position (see :func:`resolve_draw_token`).
    """
    issuer = query.issuer
    try:
        pdf = issuer.pdf.to_dict()
    except NotImplementedError:
        return None
    levels = issuer.catalog.levels if issuer.catalog is not None else None
    if isinstance(query, NearestNeighborQuery):
        shape = ("nn", float(query.threshold), resolved_nn_samples(query))
    else:
        shape = (
            "range",
            float(query.spec.half_width),
            float(query.spec.half_height),
            float(query.threshold),
            query.target,
        )
    return repr((int(issuer.oid), pdf, levels, shape))


#: Kept for the frozen suite (``benchmarks/suite/layers.py`` imports it);
#: drop with the next ``benchmark`` issue.
query_cache_key = query_fingerprint


def relevance_window(query: Query) -> Rect | None:
    """The candidate window outside which no mutation can change the answer.

    For range queries this is the full Minkowski sum ``R ⊕ U0`` (the
    paper's Lemma 1 filter) — the *widest* candidate window any
    configuration uses, since the Qp-expanded-query is always a subset of
    it.  An object whose uncertainty region never intersects the window
    has zero qualification probability under every configuration, so a
    mutation whose before/after MBRs both miss the window provably leaves
    the query's answer bit-for-bit unchanged.  Continuous subscriptions
    use exactly this test to skip re-evaluation.

    Nearest-neighbour queries return ``None`` ("everywhere"): removing the
    current winner or inserting a closer object at *any* distance can
    change the win probabilities, so no finite window is complete.
    """
    if isinstance(query, NearestNeighborQuery):
        return None
    return minkowski_expanded_query(query.issuer.region, query.spec)


def query_draw_token(fingerprint: str) -> int:
    """A stable 63-bit draw-plan token hashed from a query's fingerprint.

    Deterministic across processes and Python hash randomisation (it goes
    through :mod:`hashlib`, not builtin ``hash``), non-negative (a
    ``SeedSequence`` entropy requirement), and equal whenever the
    :func:`query_fingerprint` the caller already holds is equal.  Passed to
    the per-oid draw helpers in place of the query sequence number.
    """
    digest = hashlib.blake2b(fingerprint.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def point_pruner(config, issuer, spec, threshold: float) -> CIPQPruner:
    """The (C-)IPQ pruner for one (issuer, spec, threshold) combination."""
    return CIPQPruner(
        issuer,
        spec,
        threshold,
        use_p_expanded_query=config.use_p_expanded_query,
    )


def uncertain_pruner(config, issuer, spec, threshold: float) -> CIUQPruner:
    """The (C-)IUQ pruner for one (issuer, spec, threshold) combination."""
    return CIUQPruner(
        issuer,
        spec,
        threshold,
        strategies=config.ciuq_strategies,
    )


@dataclass
class QueryPlan:
    """The compiled execution plan of one query (see the module docstring)."""

    query: Query
    #: Position of the query in the global workload sequence.
    query_seq: int
    #: Which evaluation core runs the plan.
    target: PlanTarget
    #: Token the Monte-Carlo draws are keyed by (``None`` = streaming plan).
    draw_token: int | None
    #: Pruner owning the expanded regions (``None`` for nearest-neighbour).
    pruner: CIPQPruner | CIUQPruner | None
    #: Candidate window the probe retrieves from (``None`` for nearest).
    window: Rect | None
    #: Engage PTI node-level threshold pruning during the index probe.
    use_pti: bool
    #: The batch path may satisfy the probe with a columnar window test
    #: instead of an index traversal (PTI probes keep the index — its
    #: node-level pruning is the feature under study).
    prefer_columnar: bool
    #: Monte-Carlo sample count (nearest-neighbour plans only).
    samples: int | None


@dataclass(frozen=True)
class PlanToken:
    """A tiny stand-in for one routed query, sent to shard daemons.

    The remote executor never ships :class:`Query` objects across the wire —
    only this token, a few hundred bytes carrying exactly the fields a
    daemon needs to rebuild an equivalent query against its copy of the
    shard.  Every identity derived from a query — fingerprint, draw
    token, candidate window, pruner filter region — is a pure function of
    these fields, so the rebuilt query plans and draws bit-for-bit like the
    original:

    * the issuer is rebuilt as ``UncertainObject(oid, pdf)`` (pdfs are small
      dataclasses with wire codecs); when the original issuer carried a U-catalog
      its *levels* are shipped and the catalog is rebuilt with
      :meth:`~repro.uncertainty.region.UncertainObject.with_catalog`, which
      derives identical p-bounds from the pdf — preserving the exact filter
      region a catalog-aware pruner would have chosen in the parent;
    * ``samples`` is stored pre-resolved (see :func:`resolved_nn_samples`),
      so the two spellings of the default cannot diverge.
    """

    kind: Literal["range", "nn"]
    issuer_oid: int
    issuer_pdf: object
    issuer_catalog_levels: tuple[float, ...] | None
    threshold: float
    #: Range fields (``None`` for nearest-neighbour tokens).
    half_width: float | None = None
    half_height: float | None = None
    target: str | None = None
    #: Nearest-neighbour field (``None`` for range tokens).
    samples: int | None = None

    @classmethod
    def from_query(cls, query: Query) -> "PlanToken":
        """Compress one query into its wire token."""
        issuer = query.issuer
        levels = issuer.catalog.levels if issuer.catalog is not None else None
        if isinstance(query, NearestNeighborQuery):
            return cls(
                kind="nn",
                issuer_oid=issuer.oid,
                issuer_pdf=issuer.pdf,
                issuer_catalog_levels=levels,
                threshold=query.threshold,
                samples=resolved_nn_samples(query),
            )
        if not isinstance(query, RangeQuery):
            raise InvalidArgumentError(
                f"cannot tokenise {type(query).__name__!r}; expected a "
                "RangeQuery or a NearestNeighborQuery"
            )
        return cls(
            kind="range",
            issuer_oid=issuer.oid,
            issuer_pdf=issuer.pdf,
            issuer_catalog_levels=levels,
            threshold=query.threshold,
            half_width=query.spec.half_width,
            half_height=query.spec.half_height,
            target=query.target,
        )

    def to_query(self) -> Query:
        """Rebuild an equivalent query (equal fingerprint, equal plan)."""
        from repro.uncertainty.region import UncertainObject

        issuer = UncertainObject(oid=self.issuer_oid, pdf=self.issuer_pdf)
        if self.issuer_catalog_levels is not None:
            issuer = issuer.with_catalog(self.issuer_catalog_levels)
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


def resolve_draw_token(config, fingerprint: str | None, query_seq: int) -> int | None:
    """The draw-plan slot for one query: what Monte-Carlo draws are keyed by.

    ``None`` selects the streaming plan (draws consumed from the engine's
    shared advancing generator); the query's sequence number keys the
    position-independent ``per_oid`` plan; the digest of the query's
    fingerprint keys the ``query_keyed`` plan that the result cache relies
    on.  A query without a fingerprint (see :func:`query_fingerprint`) is
    never cached, so under ``query_keyed`` it draws by position instead.
    """
    if config.draw_plan == "per_oid":
        return query_seq
    if config.draw_plan == "query_keyed":
        return query_seq if fingerprint is None else query_draw_token(fingerprint)
    return None


def plan_query(
    query: Query,
    query_seq: int,
    config,
    *,
    uncertain_index=None,
    pruner_cache: dict | None = None,
    fingerprint: str | None = None,
) -> QueryPlan:
    """Compile one query into a :class:`QueryPlan` under ``config``.

    ``uncertain_index`` is consulted only to decide PTI engagement for
    uncertain-target range queries.  ``fingerprint`` is the query's
    :func:`query_fingerprint` when the caller already holds it (it is
    computed here otherwise).  ``pruner_cache``, keyed by fingerprint, lets
    the batch path reuse pruners across equal queries; pass ``None`` to
    always build fresh.
    """
    if not isinstance(query, (RangeQuery, NearestNeighborQuery)):
        raise InvalidArgumentError(
            f"cannot plan {type(query).__name__!r}; expected a RangeQuery "
            "or a NearestNeighborQuery"
        )
    if fingerprint is None:
        fingerprint = query_fingerprint(query)
    draw_token = resolve_draw_token(config, fingerprint, query_seq)
    if isinstance(query, NearestNeighborQuery):
        return QueryPlan(
            query=query,
            query_seq=query_seq,
            target="nearest",
            draw_token=draw_token,
            pruner=None,
            window=None,
            use_pti=False,
            prefer_columnar=False,
            samples=resolved_nn_samples(query),
        )
    issuer, spec, threshold = query.issuer, query.spec, query.threshold
    build = point_pruner if query.target == "points" else uncertain_pruner
    # The fingerprint holds the target, so a shared dict never aliases a
    # CIPQPruner and a CIUQPruner built for the same issuer and shape.
    key = fingerprint if pruner_cache is not None else None
    pruner = pruner_cache.get(key) if key is not None else None
    if pruner is None:
        pruner = build(config, issuer, spec, threshold)
        if key is not None:
            pruner_cache[key] = pruner
    if query.target == "points":
        window = pruner.filter_region
        use_pti = False
        prefer_columnar = bool(config.vectorized)
    else:
        use_pti = (
            isinstance(uncertain_index, ProbabilityThresholdIndex)
            and config.use_pti_pruning
            and threshold > 0.0
        )
        window = (
            pruner.qp_expanded_region
            if config.use_p_expanded_query
            else pruner.minkowski_region
        )
        prefer_columnar = bool(config.vectorized) and not use_pti
    return QueryPlan(
        query=query,
        query_seq=query_seq,
        target=query.target,
        draw_token=draw_token,
        pruner=pruner,
        window=window,
        use_pti=use_pti,
        prefer_columnar=prefer_columnar,
        samples=None,
    )
