"""Check the engine's request encoder against ``%.17g`` on a seeded sweep.

    python3 tools/check_wire_encoder.py --values 10000000 --seed 1

Draws at least ``--values`` doubles (see :func:`sweep_values`), encodes
them as an external oracle sends them, in chunks of ``_CHUNK_ROWS`` rows of
64 values, and compares every chunk with its per-row ``format_floats``
lines. Exits 0 when every byte matches. At the first mismatch it prints
the ``repr`` of the value that was encoded wrongly and exits 1.
"""
import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from lhsattack.oracles import _CHUNK_ROWS, _encode_rows, format_floats

WIDTH = 64


def sweep_values(count: int, seed: int) -> np.ndarray:
    """At least ``count`` doubles, mostly in the encoder's fixed-notation range.

    The mix: uniforms in [0, 1]; probes around a point clipped into
    [0, 1], so with many exact 0s and 1s; exact ties at the 17th digit,
    odd ``c / 2**(17 - x)`` in [10**x, 10**(x + 1)); log-uniform magnitudes
    over [1e-4, 1e15) of either sign; random bit patterns, which are mostly
    outside that range or nan; and every ``nextafter`` neighbour of 10**k
    for k in [-5, 16]. The values are shuffled and their count is rounded
    up to whole rows of 64.
    """
    rng = np.random.default_rng(seed)
    n = -(-max(count, 1) // WIDTH) * WIDTH
    tens = 10.0 ** np.arange(-5, 17)
    edges = np.concatenate([np.nextafter(tens, 0.0), tens, np.nextafter(tens, np.inf)])
    edges = np.concatenate([edges, -edges, [0.0, -0.0, 1.0, 5e-324, 3e-5, 1e300,
                                            np.nan, np.inf, -np.inf]])
    share = (n - len(edges)) // 5
    x = rng.integers(-4, 15, share)                  # exponent of each tie
    j = 17 - x                                       # 18 digits, the last a 5
    c = rng.uniform(10.0 ** x, 10.0 ** (x + 1)) * 2.0 ** j
    ties = (np.floor(c / 2) * 2 + 1) / 2.0 ** j
    point = rng.uniform(0.0, 1.0, (share // WIDTH + 1, WIDTH))
    probes = np.clip(point + rng.normal(0.0, 0.3, point.shape), 0.0, 1.0).ravel()[:share]
    magnitudes = np.exp(rng.uniform(np.log(1e-4), np.log(1e15), share))
    signed = magnitudes * rng.choice([-1.0, 1.0], share)
    bits = rng.integers(0, 2**64, share, dtype=np.uint64, endpoint=False).view(np.float64)
    rest = n - len(edges) - 4 * share
    values = np.concatenate([rng.uniform(0.0, 1.0, rest), probes, ties, signed, bits,
                             edges])
    rng.shuffle(values)
    return values


def first_mismatch(values: np.ndarray):
    """The first value whose request bytes differ from ``format_floats``, or None."""
    X = values.reshape(-1, WIDTH)
    for i in range(0, len(X), _CHUNK_ROWS):
        chunk = X[i:i + _CHUNK_ROWS]
        lines = [format_floats(x) + "\n" for x in chunk]
        got = _encode_rows(chunk)
        if got == "".join(lines).encode("ascii"):
            continue
        got_tokens = got.split()
        for k, token in enumerate(" ".join(lines).split()):
            if k >= len(got_tokens) or got_tokens[k] != token.encode("ascii"):
                return float(chunk.ravel()[k])
        return float(chunk.ravel()[-1])     # the tokens match but not the separators
    return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--values", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    values = sweep_values(args.values, args.seed)
    bad = first_mismatch(values)
    if bad is not None:
        print(f"mismatch at {bad!r}")
        return 1
    print(f"{len(values)} values encoded as %.17g writes them")
    return 0


if __name__ == "__main__":
    sys.exit(main())
