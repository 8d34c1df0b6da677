"""Check the LHS column ranks against double argsort on a seeded sweep.

    python3 tools/check_column_ranks.py --columns 1000000 --seed 1

Ranks at least ``--columns`` columns with ``samplers._column_ranks`` and
compares every rank with ``argsort(argsort(base, axis=0), axis=0)``. The
batches (see :func:`batch`) cycle through uniform columns at every n from
1 to 300, the 130 x 252 column chunk of a d = 3072 batch, and columns with
a planted near-tie on the truncation boundary of the row field. Each batch
is ranked twice: into a new array, and over a copy of itself read as int64,
as ``lhs_normal`` ranks (see :func:`ranks_over_copy`). Exits 0 when every
rank matches. At the first mismatch it prints the column's n, the seed,
the batch, the column and the form, and exits 1.
"""
import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from lhsattack.samplers import _column_ranks

MAX_ROWS = 300
WIDTH = 16
CHUNK = (130, 252)


def plant_near_tie(rng, column) -> None:
    """Overwrite two rows of ``column`` with values 1, ``2**b - 1``,
    ``2**b`` or ``2**b + 1`` units in the last place apart, the lower one at
    a random offset from a multiple of ``2**b``, where ``b`` is the width of
    the row field, ``(n - 1).bit_length()``."""
    n = len(column)
    b = (n - 1).bit_length()
    gap = int(rng.choice([1, (1 << b) - 1, 1 << b, (1 << b) + 1]))
    i, j = rng.choice(n, 2, replace=False)
    low = (int(column.view(np.uint64)[i]) >> b << b) + int(rng.integers(1 << b))
    column.view(np.uint64)[[i, j]] = [low, low + gap]


def batch(k: int, seed: int) -> np.ndarray:
    """Batch ``k`` of the sweep: uniform columns of n = k // 3 % 300 + 1 rows
    when k % 3 == 0, a 130 x 252 chunk when k % 3 == 1, else uniform columns
    of n = k // 3 % 299 + 2 rows with a near-tie planted in each."""
    rng = np.random.default_rng([seed, k])
    if k % 3 == 1:
        return rng.random(CHUNK)
    n = k // 3 % MAX_ROWS + 1 if k % 3 == 0 else k // 3 % (MAX_ROWS - 1) + 2
    base = rng.random((n, WIDTH))
    if k % 3 == 2:
        for column in base.T:
            plant_near_tie(rng, column)
    return base


def ranks_over_copy(base: np.ndarray, k: int) -> np.ndarray:
    """``_column_ranks(c, out=c.view(np.int64))`` for a copy ``c`` of
    ``base``: the whole of a new array when ``k`` is even, else a column
    chunk of one twice as wide, whose rows are strided."""
    n, d = base.shape
    wide = np.zeros((n, d * (1 + k % 2)))
    copy = wide[:, wide.shape[1] - d:]
    copy[...] = base
    return _column_ranks(copy, out=copy.view(np.int64))


def first_mismatch(columns: int, seed: int):
    """``(n, batch, column, form)`` of the first column ranked unlike double
    argsort within the first ``columns`` columns of the sweep, or None.
    ``form`` is ``"new"`` or ``"over base"``."""
    k = done = 0
    while done < columns:
        base = batch(k, seed)
        want = np.argsort(np.argsort(base, axis=0), axis=0)
        for form, got in (("new", _column_ranks(base)),
                          ("over base", ranks_over_copy(base, k))):
            wrong = np.flatnonzero((got != want).any(axis=0))
            if wrong.size:
                return base.shape[0], k, int(wrong[0]), form
        k, done = k + 1, done + base.shape[1]
    return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--columns", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    bad = first_mismatch(args.columns, args.seed)
    if bad is not None:
        n, k, j, form = bad
        print(f"mismatch: n={n} seed={args.seed} batch={k} column={j} ({form})")
        return 1
    print(f"at least {args.columns} columns ranked as double argsort ranks them")
    return 0


if __name__ == "__main__":
    sys.exit(main())
