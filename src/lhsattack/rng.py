"""Deterministic substream derivation.

Every random draw in the package flows from an integer seed through
``numpy.random.SeedSequence``, so any (iteration, attempt, run) gets an
addressable, collision-resistant substream. Namespaces keep the derivation
paths of unrelated consumers disjoint.
"""
from __future__ import annotations

import numpy as np

# First path element of every derived stream. Keeps e.g. the init-draw
# stream of seed 7 distinct from iteration streams of the same seed.
NS_INIT = 0
NS_GRADIENT = 1
NS_RUN = 2
NS_POINTS = 3


def substream_seed(base_seed: int, *path: int) -> int:
    """Derive a 64-bit child seed from ``base_seed`` along an integer path."""
    ss = np.random.SeedSequence(int(base_seed), spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, np.uint64)[0])
