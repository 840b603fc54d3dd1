"""Per-query evaluation statistics.

The paper reports a single number per query — the response time ``T`` — but a
Python reproduction on 2026 hardware cannot meaningfully compare absolute
milliseconds against a 2007 SunFire server.  Each evaluation therefore also
records machine-independent work counters (candidates retrieved from the
index, probability computations performed, objects pruned by each strategy,
index node accesses) so that experiments can compare methods on both axes.
"""

from __future__ import annotations
from repro.core.errors import DatasetError

from dataclasses import dataclass, field

from repro.core.wire import check_schema, require, tagged
from repro.index.iostats import IOStatistics

#: Wire schema name of the statistics payload (see :mod:`repro.core.wire`).
STATISTICS_SCHEMA = "repro.statistics"


@dataclass
class EvaluationStatistics:
    """Work performed while answering a single imprecise query."""

    #: Wall-clock time of the evaluation, in seconds.
    response_time: float = 0.0
    #: Objects returned by the index filter step (candidates).
    candidates_examined: int = 0
    #: Exact / sampled qualification-probability computations performed.
    probability_computations: int = 0
    #: Candidates discarded by each pruning mechanism, keyed by strategy name.
    pruned: dict[str, int] = field(default_factory=dict)
    #: Monte-Carlo samples drawn (0 for closed-form evaluations).
    monte_carlo_samples: int = 0
    #: Number of answers returned to the user.
    results_returned: int = 0
    #: Index node accesses attributable to this query.
    io: IOStatistics = field(default_factory=IOStatistics)

    @property
    def response_time_ms(self) -> float:
        """Response time in milliseconds (the unit used by the paper's figures)."""
        return self.response_time * 1000.0

    @property
    def total_pruned(self) -> int:
        """Total number of candidates removed by pruning."""
        return sum(self.pruned.values())

    def record_pruned(self, strategy: str, count: int = 1) -> None:
        """Attribute ``count`` pruned candidates to ``strategy``."""
        self.pruned[strategy] = self.pruned.get(strategy, 0) + count

    def to_dict(self) -> dict:
        """A JSON-safe, versioned description of the work counters."""
        return tagged(
            STATISTICS_SCHEMA,
            {
                "response_time": self.response_time,
                "candidates_examined": self.candidates_examined,
                "probability_computations": self.probability_computations,
                "pruned": dict(self.pruned),
                "monte_carlo_samples": self.monte_carlo_samples,
                "results_returned": self.results_returned,
                "io": [
                    self.io.node_accesses,
                    self.io.leaf_accesses,
                    self.io.internal_accesses,
                    self.io.entries_examined,
                    self.io.objects_returned,
                ],
            },
        )

    @classmethod
    def from_dict(cls, payload) -> "EvaluationStatistics":
        """Decode a :meth:`to_dict` payload."""
        payload = check_schema(payload, STATISTICS_SCHEMA)
        node, leaf, internal, entries, objects = (
            int(v) for v in require(payload, STATISTICS_SCHEMA, "io")
        )
        return cls(
            response_time=float(require(payload, STATISTICS_SCHEMA, "response_time")),
            candidates_examined=int(require(payload, STATISTICS_SCHEMA, "candidates_examined")),
            probability_computations=int(
                require(payload, STATISTICS_SCHEMA, "probability_computations")
            ),
            pruned={
                str(k): int(v)
                for k, v in require(payload, STATISTICS_SCHEMA, "pruned").items()
            },
            monte_carlo_samples=int(require(payload, STATISTICS_SCHEMA, "monte_carlo_samples")),
            results_returned=int(require(payload, STATISTICS_SCHEMA, "results_returned")),
            io=IOStatistics(
                node_accesses=node,
                leaf_accesses=leaf,
                internal_accesses=internal,
                entries_examined=entries,
                objects_returned=objects,
            ),
        )


@dataclass
class AggregatedStatistics:
    """Averages of :class:`EvaluationStatistics` over a batch of queries."""

    queries: int
    mean_response_time: float
    mean_candidates: float
    mean_probability_computations: float
    mean_pruned: float
    mean_node_accesses: float
    mean_results: float

    @property
    def mean_response_time_ms(self) -> float:
        """Average response time in milliseconds."""
        return self.mean_response_time * 1000.0


def aggregate_statistics(stats_list: list[EvaluationStatistics]) -> AggregatedStatistics:
    """Average a batch of per-query statistics (as the paper does over 500 runs)."""
    if not stats_list:
        raise DatasetError("cannot aggregate an empty list of statistics")
    n = len(stats_list)
    return AggregatedStatistics(
        queries=n,
        mean_response_time=sum(s.response_time for s in stats_list) / n,
        mean_candidates=sum(s.candidates_examined for s in stats_list) / n,
        mean_probability_computations=sum(s.probability_computations for s in stats_list) / n,
        mean_pruned=sum(s.total_pruned for s in stats_list) / n,
        mean_node_accesses=sum(s.io.node_accesses for s in stats_list) / n,
        mean_results=sum(s.results_returned for s in stats_list) / n,
    )
