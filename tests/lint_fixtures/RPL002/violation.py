# lint-fixture-path: repro/core/example.py
"""Global RNG state, a per-key SeedSequence and an unseeded generator in core/."""

import random

import numpy as np


def jitter(values, rng_seed, oid):
    np.random.seed(7)
    noise = np.random.rand(len(values))
    rng = np.random.default_rng()
    keyed = np.random.default_rng(np.random.SeedSequence((rng_seed, oid)))
    return values + noise + rng.random() + keyed.random() + random.random()
