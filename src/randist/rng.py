"""Deterministic seeded random streams.

A stream is a numpy PCG64 generator: the same seed yields the same draw
sequence on every platform for a given numpy build. Each independent
part of a run (an ensemble member, a filter round, a K-means restart) draws
from its own stream, seeded by `child_seed(seed, index)`.
"""
from __future__ import annotations

import numpy as np


def stream(seed: int) -> np.random.Generator:
    """Fresh generator for `seed` (a non-negative integer)."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(int(seed))


def child_seed(seed: int, index: int) -> int:
    """Derive a 64-bit child seed, stable in (seed, index)."""
    if seed < 0 or index < 0:
        raise ValueError(f"seed and index must be non-negative, got {seed}, {index}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))
    return int(ss.generate_state(1, np.uint64)[0])
