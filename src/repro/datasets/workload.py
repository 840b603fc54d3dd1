"""Query workload generation.

The paper's experiments draw 500 queries per data point: "the center point of
``U0`` is uniformly distributed in the data space", both ``U0`` and the range
query are squares, and the issuer's pdf is uniform (a truncated Gaussian in
the non-uniform experiment).  :class:`QueryWorkload` reproduces exactly that
procedure and is deterministic for a given seed.
"""

from __future__ import annotations
from repro.errors import DatasetError

from dataclasses import dataclass
from typing import Iterator, Literal, Sequence

import numpy as np

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.core.queries import RangeQuery, RangeQuerySpec
from repro.datasets.tiger import DATA_SPACE
from repro.uncertainty.catalog import DEFAULT_CATALOG_LEVELS, UCatalog
from repro.uncertainty.pdf import TruncatedGaussianPdf, UniformPdf
from repro.uncertainty.region import UncertainObject

IssuerPdfKind = Literal["uniform", "gaussian"]


@dataclass(frozen=True)
class QueryWorkload:
    """A reproducible stream of imprecise range queries.

    Parameters mirror Table 2 of the paper: ``issuer_half_size`` is ``u`` (the
    half side-length of the issuer's square uncertainty region, default 250),
    ``range_half_size`` is ``w`` (default 500) and ``threshold`` is ``Qp``
    (default 0).
    """

    issuer_half_size: float = 250.0
    range_half_size: float = 500.0
    threshold: float = 0.0
    issuer_pdf: IssuerPdfKind = "uniform"
    bounds: Rect = DATA_SPACE
    catalog_levels: Sequence[float] | None = DEFAULT_CATALOG_LEVELS
    seed: int = 12345

    def __post_init__(self) -> None:
        if self.issuer_half_size <= 0:
            raise DatasetError("issuer_half_size must be positive")
        if self.range_half_size < 0:
            raise DatasetError("range_half_size must be non-negative")
        if not 0.0 <= self.threshold <= 1.0:
            raise DatasetError("threshold must lie in [0, 1]")
        if self.issuer_pdf not in ("uniform", "gaussian"):
            raise DatasetError(f"unknown issuer pdf kind: {self.issuer_pdf!r}")

    @property
    def spec(self) -> RangeQuerySpec:
        """The range-query shape shared by all queries in the workload."""
        return RangeQuerySpec.square(self.range_half_size)

    def _issuer_region(self, center: Point) -> Rect:
        return Rect.from_center(center, self.issuer_half_size, self.issuer_half_size)

    def make_issuer(self, center: Point, oid: int = 0) -> UncertainObject:
        """Build one query issuer centred at ``center``."""
        region = self._issuer_region(center)
        if self.issuer_pdf == "uniform":
            pdf: UniformPdf | TruncatedGaussianPdf = UniformPdf(region)
        else:
            pdf = TruncatedGaussianPdf(region)
        catalog = (
            UCatalog.build(pdf, self.catalog_levels)
            if self.catalog_levels is not None
            else None
        )
        return UncertainObject(oid=oid, pdf=pdf, catalog=catalog)

    def issuers(self, count: int) -> Iterator[UncertainObject]:
        """Yield ``count`` issuers with centres uniform over the data space."""
        if count <= 0:
            raise DatasetError("count must be positive")
        rng = np.random.default_rng(self.seed)
        # Keep the whole uncertainty region inside the data space so that
        # issuer pdfs never have to be clipped.
        margin = self.issuer_half_size
        xs = rng.uniform(self.bounds.xmin + margin, self.bounds.xmax - margin, size=count)
        ys = rng.uniform(self.bounds.ymin + margin, self.bounds.ymax - margin, size=count)
        for oid, (x, y) in enumerate(zip(xs, ys)):
            yield self.make_issuer(Point(float(x), float(y)), oid=oid)

    def queries(self, count: int) -> Iterator[RangeQuery]:
        """Yield ``count`` fully specified (C-)IPQs over point objects.

        ``dataclasses.replace(query, target="uncertain")`` gives the
        (C-)IUQ over the same issuer.
        """
        spec = self.spec
        for issuer in self.issuers(count):
            yield RangeQuery(issuer=issuer, spec=spec, threshold=self.threshold)

    def with_parameters(self, **kwargs) -> "QueryWorkload":
        """Return a copy with some parameters replaced (for sweeps)."""
        from dataclasses import replace

        return replace(self, **kwargs)


@dataclass(frozen=True)
class UpdateWorkload:
    """A reproducible stream of live mutations over a point collection.

    Models the paper's motivating scenario — objects that keep *moving*
    between location reports — as an :class:`~repro.core.updates.UpdateBatch`
    of moves, arrivals (inserts) and departures (deletes) drawn uniformly
    over the data space.  Deterministic for a given seed, so update-parity
    tests and benchmarks replay the identical stream.

    ``move_fraction`` + ``insert_fraction`` must not exceed 1; the remainder
    of the stream is deletions.  The generator never deletes the last live
    object and never reuses an oid, so every generated stream is valid
    against any database seeded with the initial oids.
    """

    bounds: Rect = DATA_SPACE
    move_fraction: float = 0.8
    insert_fraction: float = 0.1
    seed: int = 54321

    def __post_init__(self) -> None:
        if not 0.0 <= self.move_fraction <= 1.0:
            raise DatasetError("move_fraction must lie in [0, 1]")
        if not 0.0 <= self.insert_fraction <= 1.0:
            raise DatasetError("insert_fraction must lie in [0, 1]")
        if self.move_fraction + self.insert_fraction > 1.0:
            raise DatasetError("move_fraction + insert_fraction must not exceed 1")

    def point_updates(self, initial_oids: Sequence[int], count: int):
        """An :class:`UpdateBatch` of ``count`` mutations over point objects.

        ``initial_oids`` are the oids live before the stream starts; fresh
        inserts take oids above the largest seen.
        """
        from repro.core.updates import UpdateBatch
        from repro.uncertainty.region import PointObject

        if count <= 0:
            raise DatasetError("count must be positive")
        live = list(initial_oids)
        if not live:
            raise DatasetError("the update stream needs at least one live oid")
        rng = np.random.default_rng(self.seed)
        next_oid = max(live) + 1
        batch = UpdateBatch()
        for _ in range(count):
            draw = float(rng.uniform())
            x = float(rng.uniform(self.bounds.xmin, self.bounds.xmax))
            y = float(rng.uniform(self.bounds.ymin, self.bounds.ymax))
            if draw < self.move_fraction:
                oid = live[int(rng.integers(0, len(live)))]
                batch.move(oid, x=x, y=y)
            elif draw < self.move_fraction + self.insert_fraction or len(live) == 1:
                batch.insert(PointObject.at(next_oid, x, y))
                live.append(next_oid)
                next_oid += 1
            else:
                position = int(rng.integers(0, len(live)))
                oid = live[position]
                live[position] = live[-1]
                live.pop()
                batch.delete(oid, target="points")
        return batch
