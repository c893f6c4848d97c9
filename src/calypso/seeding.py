"""Deterministic RNG derivation.

Every random draw in the package flows from one user-facing seed.  Each
module (and each distinct purpose within a module) derives its own stream
through a fixed counter key, so adding a draw in one place never perturbs
the streams used elsewhere.
"""

from __future__ import annotations

import numpy as np

from .core import check_option

# Fixed per-module counters; never reorder or reuse values.
SYNTH = 1
CALIB = 2
ADAPTER = 3
EAKF = 4
ANALYSIS = 5


def spawn_rng(seed: int, *key: int) -> np.random.Generator:
    """Return a Generator derived from ``seed`` (>= 0) and a counter key path."""
    check_option("seed", seed, 0)
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key)))
