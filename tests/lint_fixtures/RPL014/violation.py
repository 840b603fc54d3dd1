# lint-fixture-path: repro/core/pipeline.py
"""Draws keyed by where a query sits in its batch, not by what it asks."""

from repro.core.draws import row_keys
from repro.core.duality import ipq_probabilities_monte_carlo_per_oid
from repro.core.nearest import nn_query_draws


def run_batch(plans, config, xy, oids):
    answers = []
    for seq, plan in enumerate(plans):
        answers.append(
            ipq_probabilities_monte_carlo_per_oid(
                plan.query.issuer.pdf,
                plan.query.spec,
                xy,
                oids,
                config.monte_carlo_samples,
                config.rng_seed,
                seq,
            )
        )
    return answers


class Engine:
    def __init__(self, seed):
        self._seed = seed
        self._query_seq = 0

    def nearest(self, query, samples):
        self._query_seq += 1
        return nn_query_draws(query.issuer.pdf, samples, self._seed, self._query_seq)


def keys(seed, token, oids):
    token += 1
    return row_keys(seed, token=token, oids=oids)
