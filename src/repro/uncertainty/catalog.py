"""U-catalogs: pre-computed tables of p-bounds (Section 5.1 of the paper).

Because a p-bound cannot be pre-computed for every possible ``p``, each
uncertain object carries a small *U-catalog* — a table of
``{probability level -> p-bound}`` entries at a fixed set of levels.  Query
pruning then rounds the requested threshold to the nearest stored level in
the conservative direction:

* when an *upper* bound on the pruned mass is needed (Strategies 1 and 2),
  the largest stored level ``M <= Qp`` is used;
* when the Strategy-3 product bound needs the tightest valid level at least
  ``Qp``, the smallest stored level ``>= Qp`` is used.

The paper's experiments store levels ``0, 0.1, ..., 1``; values above 0.5 are
clamped by the p-bound computation, so the effective catalog resolution is
``0 .. 0.5``.

Storage: a catalog holds its level tuple and one tuple of bound rectangles,
one per level, nothing else.  :class:`~repro.uncertainty.pbound.PBound`
views (:meth:`UCatalog.bound_at`, iteration, :attr:`UCatalog.bounds`) are
derived on demand; only the issuer paths of the query core ask for them.

Construction: :meth:`UCatalog.build_many` builds the catalogs of a whole
collection in one pass — the level tuple is validated once, every p-bound
comes from one array kernel per pdf class
(:func:`~repro.uncertainty.pbound.pbound_table`), levels that clamp to the
same ``p`` share one rectangle, and all catalogs of the batch share one
level tuple.  It also returns the ``(N, L, 4)`` table of the rectangles,
which the columnar store adopts as is.  :meth:`UCatalog.build` is a batch of
one, so a catalog is bitwise the same however it was built.
"""

from __future__ import annotations
from repro.errors import DistributionError, MissingItemError

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.geometry.rect import Rect
from repro.uncertainty.pbound import PBound, pbound_table
from repro.uncertainty.pdf import UncertaintyPdf

#: Default catalog levels used throughout the reproduction.  Six levels from
#: 0 to 0.5 match the storage described in Section 5.2 ("we store six
#: probability values and their p-bounds").
DEFAULT_CATALOG_LEVELS: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)

#: The ten-level catalog mentioned in the experimental setup (Section 6.1).
PAPER_CATALOG_LEVELS: tuple[float, ...] = tuple(round(0.1 * i, 1) for i in range(11))


def _check_levels(levels: tuple[float, ...]) -> None:
    if not levels:
        raise DistributionError("a U-catalog needs at least one level")
    if list(levels) != sorted(levels):
        raise DistributionError("catalog levels must be sorted in increasing order")
    if len(set(levels)) != len(levels):
        raise DistributionError("catalog levels must be distinct")
    for level in levels:
        if not 0.0 <= level <= 1.0:
            raise DistributionError(f"catalog level {level} outside [0, 1]")


def catalog_levels(levels: Iterable[float]) -> tuple[float, ...]:
    """The sorted, de-duplicated and validated form of a level set.

    This is the level tuple :meth:`UCatalog.build` stores for ``levels``.
    """
    ordered = tuple(sorted(set(float(level) for level in levels)))
    _check_levels(ordered)
    return ordered


@dataclass(frozen=True, slots=True)
class UCatalog:
    """An immutable, sorted table of ``(level, bound rectangle)`` entries.

    ``rects[i]`` is the rectangle enclosed by the ``levels[i]``-bound lines
    (``left, bottom, right, top`` as ``xmin, ymin, xmax, ymax``).
    """

    levels: tuple[float, ...]
    rects: tuple[Rect, ...] = field(repr=False)

    def __post_init__(self) -> None:
        if len(self.levels) != len(self.rects):
            raise DistributionError("levels and rects must have the same length")
        _check_levels(self.levels)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @staticmethod
    def build(
        pdf: UncertaintyPdf,
        levels: Sequence[float] = DEFAULT_CATALOG_LEVELS,
    ) -> "UCatalog":
        """Pre-compute a catalog for ``pdf`` at the given probability levels."""
        catalogs, _ = UCatalog.build_many([pdf], levels)
        return catalogs[0]

    @staticmethod
    def build_many(
        pdfs: Sequence[UncertaintyPdf],
        levels: Sequence[float] = DEFAULT_CATALOG_LEVELS,
    ) -> "tuple[list[UCatalog], np.ndarray]":
        """Catalogs of many pdfs at one level set, plus their ``(N, L, 4)`` table.

        ``catalogs[i]`` is bitwise the catalog :meth:`build` makes for
        ``pdfs[i]``; ``table[i, j]`` is ``catalogs[i].rects[j].as_tuple()``.
        """
        ordered = catalog_levels(levels)
        # Levels above 0.5 clamp to 0.5: each distinct clamped level is
        # computed (and its rectangle made) once per pdf.
        clamped = [min(level, 0.5) for level in ordered]
        distinct = sorted(set(clamped))
        columns = [distinct.index(p) for p in clamped]
        table = pbound_table(pdfs, distinct)
        rects = Rect.from_rows(table.reshape(-1, 4).tolist())
        width = len(distinct)
        pick = itemgetter(*columns) if len(columns) > 1 else lambda row: (row[columns[0]],)
        catalogs = []
        for start in range(0, len(rects), width):
            catalog = _new_catalog(UCatalog)
            _set_levels(catalog, ordered)
            _set_rects(catalog, pick(rects[start : start + width]))
            catalogs.append(catalog)
        return catalogs, table[:, columns, :]

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.levels)

    def __iter__(self) -> Iterator[tuple[float, PBound]]:
        return iter(zip(self.levels, self.bounds))

    @property
    def bounds(self) -> tuple[PBound, ...]:
        """The stored p-bounds, one per level (derived on each call)."""
        return tuple(_pbound(level, rect) for level, rect in zip(self.levels, self.rects))

    def _position(self, level: float) -> int:
        try:
            return self.levels.index(level)
        except ValueError as exc:
            raise MissingItemError(f"level {level} not stored in catalog") from exc

    def bound_at(self, level: float) -> PBound:
        """Return the stored bound for an exact level (raises if absent)."""
        return _pbound(level, self.rects[self._position(level)])

    def rect_at(self, level: float) -> Rect:
        """Return the bound rectangle for an exact level (raises if absent)."""
        return self.rects[self._position(level)]

    def level_rects(self) -> "tuple[tuple[float, Rect], ...]":
        """All ``(level, bound rectangle)`` pairs in increasing level order.

        Bound rectangles shrink (or stay equal) as the level grows.
        """
        return tuple(zip(self.levels, self.rects))

    def largest_level_at_most(self, p: float) -> float | None:
        """Largest stored level ``M`` with ``M <= p`` (None when none exists)."""
        candidate: float | None = None
        for level in self.levels:
            if level <= p:
                candidate = level
            else:
                break
        return candidate

    def smallest_level_at_least(self, p: float) -> float | None:
        """Smallest stored level ``M`` with ``M >= p`` (None when none exists)."""
        for level in self.levels:
            if level >= p:
                return level
        return None

    def bound_for_threshold(self, p: float) -> PBound | None:
        """Bound usable for threshold-``p`` pruning (rounded down conservatively).

        Returns the bound at the largest stored level not exceeding ``p``.
        Pruning with this rounded bound is still correct: a looser (smaller
        level) bound can only prune *fewer* objects, never a qualifying one.
        """
        level = self.largest_level_at_most(p)
        if level is None:
            return None
        return self.bound_at(level)

    def tightest_bound_at_least(self, p: float) -> PBound | None:
        """Bound at the smallest stored level that is at least ``p``.

        Used by the Strategy-3 product bound, which needs a level that is a
        valid *upper* bound on the mass beyond the line while being as small
        as possible.
        """
        level = self.smallest_level_at_least(p)
        if level is None:
            return None
        return self.bound_at(level)


def _pbound(level: float, rect: Rect) -> PBound:
    return PBound(p=level, left=rect.xmin, right=rect.xmax, bottom=rect.ymin, top=rect.ymax)


# ``build_many`` fills the slots of catalogs whose level tuple it validated
# once for the whole batch, instead of re-validating it per catalog.
_new_catalog = object.__new__
_set_levels = UCatalog.levels.__set__  # type: ignore[attr-defined]
_set_rects = UCatalog.rects.__set__  # type: ignore[attr-defined]
