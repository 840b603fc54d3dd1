"""Experiment configuration.

:class:`PaperDefaults` captures Table 2 of the paper (the baseline parameter
values); :class:`ExperimentConfig` adds the knobs a reproduction needs —
dataset scale, number of queries per data point, random seeds — with defaults
small enough that the whole figure suite runs in minutes on a laptop.  Use
``ExperimentConfig.paper_scale()`` for a full-size run.
"""

from __future__ import annotations
from repro.core.errors import ConfigurationError

from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.geometry.rect import Rect
from repro.datasets.tiger import DATA_SPACE
from repro.uncertainty.catalog import PAPER_CATALOG_LEVELS


@dataclass(frozen=True)
class PaperDefaults:
    """Baseline parameter values from Table 2 of the paper."""

    #: Half side-length of the issuer's square uncertainty region (``u``).
    issuer_half_size: float = 250.0
    #: Half side-length of the square range query (``w``).
    range_half_size: float = 500.0
    #: Probability threshold (``Qp``).
    threshold: float = 0.0
    #: Number of queries averaged per data point (the paper uses 500).
    queries_per_point: int = 500
    #: R-tree node (page) size in bytes.
    page_size: int = 4096
    #: The 10,000 × 10,000 data space.
    data_space: Rect = DATA_SPACE
    #: U-catalog levels (ten p-bounds for 0, 0.1, ..., 1).
    catalog_levels: tuple[float, ...] = PAPER_CATALOG_LEVELS
    #: Monte-Carlo samples per C-IPQ probability evaluation (Section 6.2).
    cipq_samples: int = 200
    #: Monte-Carlo samples per C-IUQ probability evaluation (Section 6.2).
    ciuq_samples: int = 250


#: The single shared instance of the paper's defaults.
PAPER_DEFAULTS = PaperDefaults()


@dataclass(frozen=True)
class ExperimentConfig:
    """Controls how faithfully (and how slowly) experiments are run.

    ``dataset_scale`` scales the cardinality of the California / Long Beach
    stand-ins; ``queries_per_point`` is the number of random queries averaged
    per plotted point.  The defaults (5 % of the data, 20 queries) keep a full
    figure-suite run to a few minutes while preserving the qualitative shapes;
    :meth:`paper_scale` restores the paper's full setting.
    """

    dataset_scale: float = 0.05
    queries_per_point: int = 20
    seed: int = 2007
    issuer_half_sizes: tuple[float, ...] = (100.0, 250.0, 500.0, 750.0, 1000.0)
    range_half_sizes: tuple[float, ...] = (500.0, 1000.0, 1500.0)
    thresholds: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8)
    catalog_levels: tuple[float, ...] = PAPER_DEFAULTS.catalog_levels
    basic_issuer_samples: int = 400
    monte_carlo_samples: int = PAPER_DEFAULTS.cipq_samples
    #: Which evaluation backend the experiments run on.  The figures compare
    #: *algorithms* by their relative costs (basic vs enhanced, Minkowski vs
    #: p-expanded-query, R-tree vs PTI), which is exactly the cost model of
    #: the paper's scalar implementation; the vectorized backend compresses
    #: those constants differently per method and would distort the figures'
    #: qualitative shapes.  Set to True to study the vectorized backend's
    #: behaviour instead (``tests/test_vectorized_parity.py`` holds the two
    #: backends to equal answers).
    engine_vectorized: bool = False
    #: Spatial shard count for sharded-execution studies (0 = single-shard;
    #: the paper's figures always run single-shard so that index I/O counters
    #: keep their meaning).  When positive, harness code builds sessions via
    #: ``session.sharded(shards)`` — the shards execute in-process.
    shards: int = 0
    #: Run sharded execution over spawned RPC shard daemons instead of
    #: in-process (only meaningful with ``shards > 0``).  Harness code
    #: then builds sessions via ``session.distributed(shards)`` — one local
    #: ``shardd`` process per shard; results are identical either way.
    shard_remote: bool = False
    #: Re-split a shard in place once live inserts push it past this many
    #: members (``0`` disables hot-shard re-splitting; only meaningful for
    #: update-workload studies on sharded sessions).
    shard_hot_threshold: int = 0
    #: Capacity of the epoch-keyed result cache threaded through the query
    #: pipeline (``0`` disables caching — the paper's figures always run
    #: uncached so that work counters keep their meaning).  When positive,
    #: :meth:`engine_config` attaches a fresh
    #: :class:`~repro.core.cache.ResultCache`; sampled answers are cached
    #: too, since every draw is keyed by the query's content.
    cache_capacity: int = 0
    defaults: PaperDefaults = field(default_factory=PaperDefaults)

    def __post_init__(self) -> None:
        if self.dataset_scale <= 0:
            raise ConfigurationError("dataset_scale must be positive")
        if self.queries_per_point <= 0:
            raise ConfigurationError("queries_per_point must be positive")
        if self.shards < 0:
            raise ConfigurationError("shards must be >= 0 (0 disables sharding)")
        if self.shard_hot_threshold < 0:
            raise ConfigurationError("shard_hot_threshold must be >= 0 (0 disables re-splits)")
        if self.shard_remote and self.shard_hot_threshold > 0:
            raise ConfigurationError(
                "hot-shard re-splitting is not supported over remote shard daemons"
            )
        if self.cache_capacity < 0:
            raise ConfigurationError("cache_capacity must be >= 0 (0 disables result caching)")

    @staticmethod
    def quick() -> "ExperimentConfig":
        """A configuration sized for unit tests and CI smoke runs.

        The Monte-Carlo sample count stays at the paper's value: the sampled
        probability work is what the threshold-aware methods save, so
        shrinking it (unlike the dataset or the query count) changes the
        figures' qualitative shapes, and the batched counter-based draws
        keep even 250-sample runs fast at this scale.
        """
        return ExperimentConfig(
            dataset_scale=0.01,
            queries_per_point=5,
            issuer_half_sizes=(250.0, 1000.0),
            range_half_sizes=(500.0, 1500.0),
            thresholds=(0.0, 0.4, 0.8),
            basic_issuer_samples=100,
            monte_carlo_samples=PAPER_DEFAULTS.ciuq_samples,
        )

    @staticmethod
    def paper_scale() -> "ExperimentConfig":
        """The full-fidelity configuration matching the paper's setup."""
        return ExperimentConfig(
            dataset_scale=1.0,
            queries_per_point=PAPER_DEFAULTS.queries_per_point,
            issuer_half_sizes=(100.0, 250.0, 500.0, 750.0, 1000.0),
            range_half_sizes=(500.0, 1000.0, 1500.0),
            thresholds=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
            basic_issuer_samples=900,
            monte_carlo_samples=PAPER_DEFAULTS.cipq_samples,
        )

    def scaled(self, **kwargs) -> "ExperimentConfig":
        """Return a copy with some fields replaced."""
        return replace(self, **kwargs)

    def workload_seed(self, salt: int) -> int:
        """Derive a per-sweep-point workload seed so runs stay reproducible."""
        return self.seed * 1_000_003 + salt

    def sharded_session(self, session):
        """Apply the configured sharding to ``session`` (no-op when 0 shards).

        Harness code funnels sessions through this before issuing workloads,
        so flipping ``shards``/``shard_remote`` on a config switches the
        whole experiment to sharded execution without touching the
        figure code (results are identical — see
        :mod:`repro.core.parallel`).
        """
        if self.shards <= 0:
            return session
        if self.shard_remote:
            return session.distributed(self.shards)
        return session.sharded(
            self.shards, hot_threshold=self.shard_hot_threshold or None
        )

    def engine_config(self, **overrides):
        """An :class:`~repro.core.engine.EngineConfig` on the experiment's backend.

        ``vectorized`` defaults to :attr:`engine_vectorized`; a positive
        :attr:`cache_capacity` attaches a fresh result cache; every other
        engine field can be overridden per experiment.
        """
        from repro.core.cache import ResultCache
        from repro.core.engine import EngineConfig

        overrides.setdefault("vectorized", self.engine_vectorized)
        if self.cache_capacity > 0:
            overrides.setdefault("cache", ResultCache(capacity=self.cache_capacity))
        return EngineConfig(**overrides)


def default_sweep(values: Sequence[float]) -> tuple[float, ...]:
    """Normalise a sweep value list into a sorted tuple of floats."""
    return tuple(sorted(float(v) for v in values))
