"""Per-query execution plans for the staged pipeline.

Every query the engines accept is first compiled into a :class:`QueryPlan`
— a small, inspectable record of the decisions that used to be scattered
through the engine monolith:

* the **candidate window** (the C-IPQ filter region, the Qp-expanded-query
  or the Minkowski sum) that the index probe or the columnar window test
  will retrieve candidates from,
* the **candidate source** — a columnar scan of the window on the
  vectorised backend, an index probe on the scalar reference backend.  A
  C-IUQ (Qp > 0) over a PTI always probes its index: the scalar backend
  runs the PTI's threshold traversal, the vectorised backend a plain probe
  of the window whose candidates it carries as snapshot rows,
* the **pruner** (:class:`~repro.core.pruning.CIPQPruner` /
  :class:`~repro.core.pruning.CIUQPruner`) owning the expanded-region
  construction, shared across queries with equal fingerprints, and
* the **draw token** — the integer every Monte-Carlo draw of the query is
  keyed by: a digest of the query's fingerprint (:func:`query_draw_token`).

A query has one identity, its content: :func:`query_fingerprint` (issuer
oid, pdf wire form and catalog levels, shape, threshold, target).  The
result-cache key, pruner reuse, the in-batch repeat count and the draw
token all derive from it, so a query decoded from the wire, relayed to a
shard daemon or rebuilt by hand is the same query as the original.
Neither object identity nor a query's position in a workload is ever a
key: every pdf has a wire form (``UncertaintyPdf.to_dict`` is abstract),
so every query has a fingerprint.

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


def query_fingerprint(query: Query) -> str:
    """The identity of a query: its content, spelled canonically.

    Two queries with equal fingerprints are the same request, wherever
    their objects came from.  The fingerprint holds the kind, the issuer's
    oid, its pdf's wire form (``to_dict()``, which round-trips bit-exactly)
    and its catalog levels (they change the C-IUQ pruner's Qp-expanded
    window, hence the statistics an answer carries); then the
    half-extents, threshold and target of a range query, or the threshold
    and resolved sample count of a nearest-neighbour query.  Extents and
    threshold are spelled as floats, as the wire decodes them.
    """
    issuer = query.issuer
    pdf = issuer.pdf.to_dict()
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
    """A stable 63-bit draw token hashed from a query's fingerprint.

    Deterministic across processes and Python hash randomisation (it goes
    through :mod:`hashlib`, not builtin ``hash``), and equal whenever the
    :func:`query_fingerprint` the caller already holds is equal.  The
    counter function of :mod:`repro.core.draws` accepts any integer token.
    """
    digest = hashlib.blake2b(fingerprint.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


@dataclass
class QueryPlan:
    """The compiled execution plan of one query (see the module docstring)."""

    query: Query
    #: Which evaluation core runs the plan.
    target: PlanTarget
    #: Token the Monte-Carlo draws are keyed by (see :func:`query_draw_token`).
    draw_token: int
    #: Pruner owning the expanded regions (``None`` for nearest-neighbour).
    pruner: CIPQPruner | CIUQPruner | None
    #: Candidate window the probe retrieves from (``None`` for nearest).
    window: Rect | None
    #: Run the PTI's threshold traversal (node- and entry-level Strategy 1,
    #: plus Strategy 2 with the Qp window on).  Only the scalar reference
    #: backend runs it: with the Qp window on, the traversal returns the
    #: candidates of a plain probe of that window at a multiple of its
    #: cost, and its node accesses are what Fig. 12 reports.
    use_pti: bool
    #: Take candidates from a columnar scan of ``window`` (the vectorised
    #: backend, whenever the batch path holds a snapshot) rather than from
    #: an index probe.  False for a C-IUQ over a PTI: the PTI is the
    #: paper's access path for it, so the vectorised backend probes the
    #: window plainly and maps the candidates to snapshot rows.
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


def compile_plan(
    query: Query,
    config,
    *,
    uncertain_index=None,
    uncertain_pti: bool | None = None,
    pruner_cache: dict | None = None,
    fingerprint: str | None = None,
) -> QueryPlan:
    """Compile one query into a :class:`QueryPlan` under ``config``.

    ``uncertain_pti`` says whether the uncertain database is indexed by a
    PTI, which decides whether a C-IUQ probes it (threshold traversal on
    the scalar backend, plain window probe on the vectorised one); when it
    is ``None`` it is read off ``uncertain_index``, the index itself.  The
    pipeline passes the flag, so planning never builds an index.
    ``fingerprint`` is the query's :func:`query_fingerprint` when the caller
    already holds it (it is computed here otherwise).  ``pruner_cache``, keyed by fingerprint, lets
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
    draw_token = query_draw_token(fingerprint)
    if isinstance(query, NearestNeighborQuery):
        return QueryPlan(
            query=query,
            target="nearest",
            draw_token=draw_token,
            pruner=None,
            window=None,
            use_pti=False,
            prefer_columnar=False,
            samples=resolved_nn_samples(query),
        )
    issuer, spec, threshold = query.issuer, query.spec, query.threshold
    # The fingerprint holds the target, so a shared dict never aliases a
    # CIPQPruner and a CIUQPruner built for the same issuer and shape.
    pruner = pruner_cache.get(fingerprint) if pruner_cache is not None else None
    if pruner is None:
        if query.target == "points":
            pruner = CIPQPruner(
                issuer, spec, threshold, use_p_expanded_query=config.use_p_expanded_query
            )
        else:
            pruner = CIUQPruner(issuer, spec, threshold, strategies=config.ciuq_strategies)
        if pruner_cache is not None:
            pruner_cache[fingerprint] = pruner
    if query.target == "points":
        window = pruner.filter_region
        probes_pti = use_pti = False
    else:
        if uncertain_pti is None:
            uncertain_pti = isinstance(uncertain_index, ProbabilityThresholdIndex)
        probes_pti = uncertain_pti and threshold > 0.0
        use_pti = probes_pti and not config.vectorized
        window = (
            pruner.qp_expanded_region
            if config.use_p_expanded_query
            else pruner.minkowski_region
        )
    return QueryPlan(
        query=query,
        target=query.target,
        draw_token=draw_token,
        pruner=pruner,
        window=window,
        use_pti=use_pti,
        prefer_columnar=bool(config.vectorized) and not probes_pti,
        samples=None,
    )


#: Kept for the frozen suite (``benchmarks/suite/layers.py`` calls it with a
#: workload position, which plays no part in a plan); drop with the next
#: ``benchmark`` issue.
def plan_query(query: Query, position: int, config, **options) -> QueryPlan:
    """:func:`compile_plan` under its old signature; ``position`` is ignored."""
    return compile_plan(query, config, **options)
