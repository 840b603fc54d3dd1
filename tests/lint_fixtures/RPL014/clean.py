# lint-fixture-path: repro/core/pipeline.py
"""Draws keyed by query content: a plan's token, a digest, or a passed-through one."""

from repro.core.draws import row_keys
from repro.core.duality import ipq_probabilities_monte_carlo_per_oid
from repro.core.nearest import nn_query_draws
from repro.core.plan import query_draw_token, query_fingerprint


def run_batch(plans, config, xy, oids):
    return [
        ipq_probabilities_monte_carlo_per_oid(
            plan.query.issuer.pdf,
            plan.query.spec,
            xy,
            oids,
            config.monte_carlo_samples,
            config.rng_seed,
            plan.draw_token,
        )
        for plan in plans
    ]


def nearest(query, samples, seed):
    return nn_query_draws(
        query.issuer.pdf, samples, seed, query_draw_token(query_fingerprint(query))
    )


def keys(seed, draw_token, oids):
    return row_keys(seed, draw_token, oids)
