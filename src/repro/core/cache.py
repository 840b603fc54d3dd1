"""Epoch-keyed LRU result cache shared by all query engines.

Serving workloads repeat themselves: the same queries arrive again and
again (the pipeline's pruner reuse already exploits exactly this repetition
within a batch).  The
:class:`ResultCache` extends that observation across batches and across
mutations: the staged pipeline (:mod:`repro.core.pipeline`) consults it as a
first-class stage before running the candidate → prune → evaluate flow, and
fills it afterwards.

Correctness rests on three key components, combined by
:func:`repro.core.pipeline` / :class:`~repro.core.parallel.ParallelEngine`
into the lookup key:

* an **epoch component** — the owning database's epoch counter for the
  serial engine, or the *per-shard epoch vector* of the routed shards for
  sharded sessions.  Every mutation bumps the owning epoch, so entries
  written against old data can simply never be *found* again (no explicit
  invalidation pass; stale entries age out of the LRU).  Per-shard epochs
  give sharded sessions fine-grained invalidation: a mutation in one shard
  does not evict answers whose routed shards were untouched.
* a **query component** — the query's content,
  :func:`~repro.core.plan.query_fingerprint` (issuer oid, pdf wire form,
  catalog levels, shape, threshold, target / sample count).  Queries equal
  by content share one entry however their objects were built, so a query
  decoded from the wire hits the entry of an equal in-process query.
  Every query has a fingerprint (every pdf defines its wire form).
  Sampled answers are cached like closed-form ones: a query's Monte-Carlo
  draws are keyed by the same content (:mod:`repro.core.draws`), so a hit
  is bitwise the answer a recomputation would give.
* a **config fingerprint** — every :class:`~repro.core.engine.EngineConfig`
  field that can influence an answer, so engines sharing one cache but
  running different configurations can never serve each other's results.

An entry (:class:`CachedAnswer`) holds the answer's ranked, read-only
oid and probability arrays plus a copy of its statistics; a hit hands out
a fresh :class:`~repro.core.queries.QueryResult` over the *same* arrays, so
storing and serving an answer copies no answer data.

The cache itself is a plain ``OrderedDict`` LRU with hit / miss / eviction
counters (surfaced through :meth:`repro.core.session.Session.stats`).  It is
not thread-safe; share it across engines within one process/thread, not
across threads.
"""

from __future__ import annotations
from repro.core.errors import ConfigurationError

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Hashable

from repro.core.queries import QueryResult
from repro.core.statistics import EvaluationStatistics
from repro.index.iostats import IOStatistics


def copy_statistics(stats: EvaluationStatistics) -> EvaluationStatistics:
    """An independent copy of per-query statistics (own dict, own IO counters).

    Cache entries must not share mutable state with the statistics the
    engines hand out: the parallel merger mutates ``results_returned`` and
    merges ``io`` in place, which would silently corrupt a shared entry.
    """
    io = IOStatistics()
    io.merge(stats.io)
    return replace(stats, pruned=dict(stats.pruned), io=io)


@dataclass
class CacheStats:
    """Observability counters for one :class:`ResultCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups served (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 with no lookups)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, float | int]:
        """A plain-dict snapshot for monitoring endpoints."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


@dataclass(frozen=True)
class CachedAnswer:
    """One stored evaluation: the ranked answer arrays plus the work that produced them."""

    #: The answer; its ranked oid and probability arrays are read-only.
    result: QueryResult
    statistics: EvaluationStatistics

    def materialise(self) -> tuple[QueryResult, EvaluationStatistics]:
        """Fresh, caller-owned ``(result, statistics)`` sharing the entry's arrays."""
        return self.result.copy(), copy_statistics(self.statistics)


@dataclass
class ResultCache:
    """A bounded LRU mapping pipeline cache keys to :class:`CachedAnswer` entries.

    ``capacity`` bounds the number of entries; inserting beyond it evicts the
    least-recently-used entry (lookups refresh recency).  Keys embed an epoch
    component, so mutations invalidate by *unreachability* — superseded
    entries linger until the LRU ages them out, which is why a finite
    capacity is required.
    """

    capacity: int = 1024
    stats: CacheStats = field(default_factory=CacheStats, init=False)
    _entries: "OrderedDict[Hashable, CachedAnswer]" = field(
        default_factory=OrderedDict, init=False, repr=False
    )

    def __post_init__(self) -> None:
        if isinstance(self.capacity, bool) or not isinstance(self.capacity, int):
            raise ConfigurationError(
                f"cache capacity must be an integer, got {self.capacity!r}"
            )
        if self.capacity < 1:
            raise ConfigurationError(
                f"cache capacity must be >= 1, got {self.capacity}"
            )

    def __len__(self) -> int:
        return len(self._entries)

    # ``issuer`` is ignored by lookup and store: kept for the frozen suite
    # (``benchmarks/suite/layers.py`` passes it positionally); drop with the
    # next ``benchmark`` issue.
    def lookup(self, key: Hashable, issuer: Any = None) -> CachedAnswer | None:
        """The entry under ``key``, if any.

        Counts a hit or a miss; a hit refreshes the entry's LRU recency.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def store(
        self,
        key: Hashable,
        issuer: Any,
        result: QueryResult,
        statistics: EvaluationStatistics,
    ) -> None:
        """Insert (or refresh) an entry, evicting the LRU tail past capacity.

        The entry shares the result's read-only arrays and copies the
        statistics, so later in-place mutation by the caller cannot corrupt
        it.
        """
        self._entries[key] = CachedAnswer(
            result=result.copy(),
            statistics=copy_statistics(statistics),
        )
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every entry (the counters keep their history)."""
        self._entries.clear()
