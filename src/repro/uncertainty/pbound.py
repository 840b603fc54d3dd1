"""p-bounds of uncertain objects (Section 5.1 / Figure 4 of the paper).

The p-bound of an uncertain object ``Oi`` is a set of four lines
``li(p), ri(p), ti(p), bi(p)`` such that the probability of the object lying
on the *outer* side of each line is exactly ``p``:

* the mass to the left of ``li(p)`` is ``p``,
* the mass to the right of ``ri(p)`` is ``p``,
* the mass above ``ti(p)`` is ``p``,
* the mass below ``bi(p)`` is ``p``.

The 0-bound coincides with the uncertainty region's boundary.  p-bounds are
pre-computed at a handful of probability levels and stored in a
:class:`~repro.uncertainty.catalog.UCatalog`; :func:`pbound_table` computes
them for a whole collection at once.
"""

from __future__ import annotations
from repro.errors import DistributionError

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.geometry.rect import Rect
from repro.uncertainty.pdf import UncertaintyPdf, marginal_quantiles


@dataclass(frozen=True, slots=True)
class PBound:
    """The four p-bound lines of an uncertain object for a fixed ``p``.

    ``left``/``right`` are x-coordinates of the vertical lines ``l(p)``/``r(p)``;
    ``bottom``/``top`` are y-coordinates of the horizontal lines ``b(p)``/``t(p)``.
    """

    p: float
    left: float
    right: float
    bottom: float
    top: float

    @property
    def rect(self) -> Rect:
        """The rectangle enclosed by the four p-bound lines.

        For ``p < 0.5`` this is the inner box whose "frame" (the part of the
        uncertainty region outside the box) carries at least ``p`` of mass on
        each side.  For ``p`` close to 0.5 the box may degenerate.
        """
        return Rect(self.left, self.bottom, self.right, self.top)

    @property
    def is_degenerate(self) -> bool:
        """True when the bound lines cross (left > right or bottom > top)."""
        return self.left > self.right or self.bottom > self.top


def compute_pbound(pdf: UncertaintyPdf, p: float) -> PBound:
    """Compute the p-bound of an uncertainty pdf.

    ``p`` is clamped to ``[0, 0.5]``: for larger values the defining lines of
    opposite sides would cross, and every pruning rule that consults a
    p-bound only ever needs values up to 0.5 (a larger requested value is
    rounded down by the U-catalog lookup, which keeps pruning conservative).
    """
    if not 0.0 <= p <= 1.0:
        raise DistributionError(f"p must lie in [0, 1], got {p}")
    p_eff = min(p, 0.5)
    left = pdf.marginal_quantile_x(p_eff)
    right = pdf.marginal_quantile_x(1.0 - p_eff)
    bottom = pdf.marginal_quantile_y(p_eff)
    top = pdf.marginal_quantile_y(1.0 - p_eff)
    return PBound(p=p, left=left, right=right, bottom=bottom, top=top)


def pbound_rect(pdf: UncertaintyPdf, p: float) -> Rect:
    """Convenience wrapper returning only the rectangle of the p-bound."""
    return compute_pbound(pdf, p).rect


def pbound_table(pdfs: Sequence[UncertaintyPdf], ps: Sequence[float]) -> np.ndarray:
    """The p-bound rectangles of many pdfs at many levels, as ``(N, P, 4)``.

    Row ``[i, j]`` holds ``(left, bottom, right, top)`` — the layout of
    :meth:`Rect.as_tuple` — and is bitwise ``compute_pbound(pdfs[i], ps[j])``:
    the same clamp, the same quantiles, taken by
    :func:`~repro.uncertainty.pdf.marginal_quantiles` in one pass per pdf
    class.
    """
    clamped = []
    for p in ps:
        p = float(p)
        if not 0.0 <= p <= 1.0:
            raise DistributionError(f"p must lie in [0, 1], got {p}")
        clamped.append(min(p, 0.5))
    qx, qy = marginal_quantiles(pdfs, clamped + [1.0 - p for p in clamped])
    k = len(clamped)
    return np.stack([qx[:, :k], qy[:, :k], qx[:, k:], qy[:, k:]], axis=-1)
