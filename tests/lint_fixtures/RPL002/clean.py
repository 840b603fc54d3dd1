# lint-fixture-path: repro/core/example.py
"""Keyed draws come from the counter function; streams from seeded generators."""

import numpy as np

from repro.core.draws import row_keys, uniform_blocks


def keyed_means(rng_seed, token, oids, samples):
    keys = row_keys(rng_seed, token, oids)
    means = np.empty(len(keys))
    for rows, u in uniform_blocks(keys, samples):
        means[rows] = u.mean(axis=1)
    return means


def jitter(values, rng_seed):
    rng = np.random.default_rng(rng_seed)
    return values + rng.random(len(values))
