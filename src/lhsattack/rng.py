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
NS_CLI = 4


def substream_seed(base_seed: int, *path: int) -> int:
    """Derive a 64-bit child seed from ``base_seed`` along an integer path."""
    ss = np.random.SeedSequence(int(base_seed), spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, np.uint64)[0])


def open_unit(rng: np.random.Generator, shape, out=None) -> np.ndarray:
    """Uniform draws strictly inside (0, 1), into ``out`` if given.

    ``Generator.random`` covers [0, 1); exact zeros (probability 2^-53 per
    cell) are re-drawn so downstream quantile transforms stay finite.
    ``out`` is a C-contiguous float64 array of ``shape``; it receives the
    same bits a new array would.
    """
    return redraw_zeros(rng, rng.random(shape, out=out))


def redraw_zeros(rng: np.random.Generator, u: np.ndarray) -> np.ndarray:
    """Re-draw the exact zeros of ``u`` in place, in C order, and return it.

    Each round draws one value per zero left from ``rng``, as
    :func:`open_unit` does after its first draw.
    """
    # ``random`` returns no negative value or NaN, so this is ``u.all()``.
    while u.size and not u.min() > 0.0:
        mask = u == 0.0
        u[mask] = rng.random(int(mask.sum()))
    return u
