"""Deterministic random-stream derivation.

All simulated protocols draw their randomness from streams derived from a
single master seed. Streams are keyed by small integer tags (a protocol
round, a grid index, a player block, ...) through ``numpy``'s
``SeedSequence.spawn_key`` mechanism, so two runs with the same seed produce
identical draws regardless of evaluation order or worker count.
"""

import numpy as np

# Stream tags. Under one seed, each (tag, *indices) pair names one
# independent stream.
TAG_PARTITION = 2    # player partition shuffles
TAG_PUBLIC = 3       # public randomness (shared Laplace draws)
TAG_BITS = 4         # player-side Bernoulli bits
TAG_DATASET = 6      # synthetic dataset generation
TAG_TRIAL = 10       # harness trial streams

# Sub-streams of one harness trial's seed
TAG_TRIAL_DATASET = 1     # the trial's dataset
TAG_TRIAL_MECHANISM = 2   # the mechanism's own randomness


def derived_rng(seed: int, *key: int) -> np.random.Generator:
    """Return a Generator for the stream named by ``key`` under ``seed``."""
    if any(k < 0 for k in key):
        raise ValueError("stream key parts must be non-negative")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def derived_seed(seed: int, *key: int) -> int:
    """Collapse a derived stream to a plain integer seed.

    Useful where an API takes a seed rather than a Generator (shared public
    randomness, partition shuffles). The mapping is the platform-independent
    SeedSequence hash, so it is as reproducible as the streams themselves.
    """
    if any(k < 0 for k in key):
        raise ValueError("stream key parts must be non-negative")
    seq = np.random.SeedSequence(seed, spawn_key=tuple(key))
    return int(seq.generate_state(1, np.uint64)[0])
