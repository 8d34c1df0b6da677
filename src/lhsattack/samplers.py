"""Noise-vector samplers: Latin hypercube and simple random sampling.

Both samplers draw from the standard normal distribution through the same
quantile transform (scipy's ``ndtri``), so a fixed seed produces a *coupled*
pair of batches: the simple-random batch maps the base uniforms directly,
while the Latin hypercube batch re-stratifies the same uniforms (one sample
per equal-mass stratum and dimension). Paired LHS/SRS experiments therefore
differ only by the stratification, which is what makes the ablations in this
package sharp.

The LHS strata are the ranks of the base uniforms within each column, equal
to ``argsort(argsort(base, axis=0), axis=0)`` ties included. They come from
one sort per column (:func:`_column_ranks`): non-negative finite doubles
order like their bit patterns, so each value's low ``b`` mantissa bits are
overwritten with its row index and the keys are sorted. A column where two
values may tie once truncated (about ``n**2 * 2**(b - 53)`` for uniforms),
or where a value is not finite or not above the tiniest subnormals, is
ranked by argsort instead. The base uniforms lie in (0, 1), so only such
near-ties take that path.

A batch of ``_SPLIT_ELEMENTS`` or more elements, when two CPUs are usable,
is worked by the calling thread and a module-level worker thread together:
- the uniforms are drawn in contiguous row blocks, each from a copy of the
  batch's PCG64 stream advanced to the block's offset, and the exact zeros
  are then re-drawn from the stream's end in :func:`open_unit`'s order;
- the LHS ranks, the ``(stratum + jitter) / n`` step and the LHS quantile
  run over chunks of contiguous columns;
- the SRS quantile runs over the row blocks, and so does the probe pass,
  :func:`unit_probes`, which normalizes the rows and builds the probes.
Every value is computed by the same elementwise, per-row or per-column
operation whichever thread does it, and written in place into an array the
caller allocated, so the batch is bit-identical to a one-thread draw.
Smaller batches, such as every probe batch at d = 64, run on the calling
thread alone, in one call per step.

Every batch of an attack run reuses two arrays: ``run_attack`` and
``run_experiment`` enter a per-thread scope (:func:`_buffer_scope`) holding
buffers for the run's largest batch, and a batch or its probes made inside
it are views of them, overwritten by the next batch. So the batches of a
run at d = 3072 map no fresh pages for their multi-megabyte arrays, and
their bits are those of new arrays. The LHS ranks overwrite the spent
base uniforms, which :func:`unit_probes` then overwrites with the probes.
Outside a run, or for a batch the scope does not hold, they return new
arrays.

``scipy.special`` is imported by the first call that needs ``ndtri`` or
``ndtr``, on the calling thread, so importing the package (and serving an
oracle over the line protocol, which never samples) does not load scipy.
"""
from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError

__all__ = [
    "LHS",
    "SRS",
    "SampleBatch",
    "inverse_normal_cdf",
    "normal_cdf",
    "lhs_normal",
    "srs_normal",
    "normalize_rows",
    "unit_probes",
    "batch_discrepancy",
]

LHS = "lhs"
SRS = "srs"

_BELOW_ONE = np.nextafter(1.0, 0.0)

# scipy.special's ndtr and ndtri, set by _load_special on first use.
_ndtr = _ndtri = None


def _load_special() -> None:
    """Import ``scipy.special`` once, before any chunk reaches a worker."""
    global _ndtr, _ndtri
    if _ndtri is None:
        from scipy.special import ndtr, ndtri
        # _ndtri is bound last, so a thread that sees it set sees both; two
        # first callers at once just import twice.
        _ndtr, _ndtri = ndtr, ndtri


@dataclass
class SampleBatch:
    """A batch of noise vectors with sampler provenance.

    Attributes
    ----------
    rows : ndarray, shape (n_samples, dim)
        The noise vectors, one per row.
    sampler_kind : str
        ``"lhs"`` or ``"srs"``.
    seed : int
        Seed the batch was drawn from; identical seeds reproduce the batch
        bit for bit.
    stratum_index : ndarray of int or None
        For LHS batches, ``stratum_index[i, j]`` is the equal-mass stratum
        (0 .. n_samples-1) that sample i occupies in dimension j; each
        stratum appears exactly once per dimension. ``None`` for SRS.
        In a run's buffer scope, :func:`unit_probes` overwrites it.
    """

    rows: np.ndarray
    sampler_kind: str
    seed: int
    stratum_index: np.ndarray | None = None

    @property
    def n_samples(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


def normal_cdf(z):
    """Standard normal CDF (scipy's ``ndtr``). Accepts scalars or arrays."""
    _load_special()
    out = _ndtr(np.asarray(z, dtype=np.float64))
    return out if out.ndim else float(out)


def inverse_normal_cdf(p):
    """Standard normal quantile function (scipy's ``ndtri``).

    Accepts scalars or arrays.

    Parameters
    ----------
    p : float or ndarray
        Probabilities, strictly inside (0, 1).

    Returns
    -------
    float or ndarray
        z with Phi(z) = p to well within 1e-9.

    Raises
    ------
    ValueError
        If any p is not finite or lies outside the open interval (0, 1).
    """
    arr = np.asarray(p, dtype=np.float64)
    _check_open_unit(arr)
    _load_special()
    out = _ndtri(arr)
    return out if out.ndim else float(out)


def _check_open_unit(p) -> None:
    # NaN fails both comparisons, so two reductions cover every bad value.
    if p.size and not (p.min() > 0.0 and p.max() < 1.0):
        raise ValueError("quantile argument must lie strictly inside (0, 1)")


def _quantile_in_place(p) -> None:
    """``p[...] = inverse_normal_cdf(p)``: the same check and bits, no copy.

    The caller has run :func:`_load_special`.
    """
    _check_open_unit(p)
    _ndtri(p, out=p)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# Threads that share the work of a large batch: one per usable CPU, at most
# 2 (the count that was measured).
_THREADS = min(_usable_cpus(), 2)
# Batches of fewer elements run on the calling thread alone: on a 2-core
# box, handing work to a worker thread cost more than it saved below
# about 40k elements for lhs and 60k for srs. Every probe batch of a d = 64
# attack (at most 229 x 64) stays below it.
_SPLIT_ELEMENTS = 1 << 16
# The columns are worked in chunks of about this many elements, so the
# ranking temporaries stay small and in cache.
_CHUNK_ELEMENTS = 1 << 15

_pool_lock = threading.Lock()
_pool_executor = None


def _pool() -> ThreadPoolExecutor:
    global _pool_executor
    with _pool_lock:
        if _pool_executor is None:
            _pool_executor = ThreadPoolExecutor(
                _THREADS - 1, thread_name_prefix="lhsattack-sampler")
        return _pool_executor


def _drop_pool() -> None:
    # A forked child has none of the parent's worker threads; it makes
    # its own pool on first use.
    global _pool_executor, _pool_lock
    _pool_executor = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _splits(n_samples: int, dim: int) -> bool:
    """Whether a batch is shared between threads: it is large, and two
    CPUs are usable."""
    return _THREADS > 1 and n_samples * dim >= _SPLIT_ELEMENTS


def _by_columns(work, n_samples: int, dim: int) -> None:
    """Call ``work(a, b)`` on column ranges ``a:b`` that cover ``dim``: chunks
    of about ``_CHUNK_ELEMENTS`` elements for a batch that :func:`_splits`,
    else all the columns at once."""
    _share(work, dim, max(1, _CHUNK_ELEMENTS // n_samples)
           if _splits(n_samples, dim) else dim)


def _by_rows(work, n_samples: int, dim: int) -> None:
    """Call ``work(a, b)`` on row ranges ``a:b`` that cover ``n_samples``: one
    contiguous block per thread for a batch that :func:`_splits`, else all
    the rows at once."""
    _share(work, n_samples, -(-n_samples // _THREADS)
           if _splits(n_samples, dim) else n_samples)


def _share(work, length: int, step: int) -> None:
    """Call ``work(a, b)`` on the ranges of ``step`` indices that cover
    ``range(length)``.

    One range is worked on the calling thread. More are shared: the calling
    thread and ``_THREADS - 1`` pool threads take ranges from one list until
    it is empty, so a thread that is slowed down takes fewer. Every range
    has finished before this returns or raises a range's exception.
    """
    if step >= length:
        work(0, length)
        return
    chunks = iter([(a, min(a + step, length)) for a in range(0, length, step)])
    lock = threading.Lock()

    def drain():
        while True:
            with lock:
                chunk = next(chunks, None)
            if chunk is None:
                return
            work(*chunk)

    futures = [_pool().submit(drain) for _ in range(_THREADS - 1)]
    try:
        drain()
    finally:
        wait(futures)
        for future in futures:
            future.result()


def _generator_at(state: dict, offset: int) -> np.random.Generator:
    """A new generator at the PCG64 ``state`` moved on by ``offset`` draws."""
    bits = np.random.PCG64(0)   # seeded: no OS entropy for a spent state
    bits.state = state
    return np.random.Generator(bits.advance(offset))


def open_unit(rng: np.random.Generator, shape, out=None) -> np.ndarray:
    """Uniform draws strictly inside (0, 1) of shape ``(n_samples, dim)``,
    into ``out`` (a C-contiguous float64 array of ``shape``) if given.

    ``Generator.random`` covers [0, 1); exact zeros (probability 2^-53 per
    cell) are re-drawn by :func:`redraw_zeros`, so the quantile transform
    stays finite. ``out`` receives the same bits a new array would.

    For a batch that :func:`_splits`, each row block is drawn from a copy
    of ``rng``'s PCG64 stream advanced by the block's offset, and looked
    over for exact zeros. ``rng`` is then advanced past the whole array,
    where the one stream's draws for the zeros start, so the bits are
    those of one ``rng.random`` call.
    """
    n_samples, dim = shape
    if not _splits(n_samples, dim):
        return redraw_zeros(rng, rng.random(shape, out=out))
    u = np.empty(shape) if out is None else out
    bits = rng.bit_generator
    state = bits.state
    zeros = []

    def work(a, b):
        block = u[a:b]
        _generator_at(state, a * dim).random(out=block)
        if not block.min() > 0.0:
            zeros.append(a)

    _by_rows(work, n_samples, dim)
    bits.advance(n_samples * dim)
    return redraw_zeros(rng, u) if zeros else u


def redraw_zeros(rng: np.random.Generator, u: np.ndarray) -> np.ndarray:
    """Re-draw the exact zeros of ``u`` in place, in C order, and return it.

    Each round draws one value per zero left from ``rng``.
    """
    # ``random`` returns no negative value or NaN, so this is ``u.all()``.
    while u.size and not u.min() > 0.0:
        mask = u == 0.0
        u[mask] = rng.random(int(mask.sum()))
    return u


class _Buffers:
    """Flat float64 arrays of ``rows * dim`` elements for every batch of a
    scope: ``values`` for the rows, and ``scratch`` for the LHS base, whose
    ranks then overwrite it (read as int64) and which :func:`unit_probes`
    overwrites with the probes."""

    def __init__(self, rows: int, dim: int):
        self.rows, self.dim = rows, dim
        self.values = np.empty(rows * dim)
        self.scratch = np.empty(rows * dim)

    def fits(self, n_samples: int, dim: int) -> bool:
        return n_samples <= self.rows and dim == self.dim


_local = threading.local()


@contextmanager
def _buffer_scope(rows: int, dim: int):
    """Let every batch of at most ``rows`` x ``dim`` drawn on this thread in
    the block use views of one set of buffers.

    An enclosing scope that holds such a batch is reused; otherwise new
    buffers serve the block, and the enclosing scope, if any, returns when
    it ends. Other threads are not affected.
    """
    outer = getattr(_local, "buffers", None)
    if outer is not None and outer.fits(rows, dim):
        yield
        return
    _local.buffers = _Buffers(rows, dim)
    try:
        yield
    finally:
        _local.buffers = outer


def _scoped(name: str, n_samples: int, dim: int):
    """Buffer ``name`` of the thread's scope shaped as an ``(n_samples, dim)``
    batch, or None when no scope is entered or the batch does not fit it."""
    buffers = getattr(_local, "buffers", None)
    if buffers is None or not buffers.fits(n_samples, dim):
        return None
    return getattr(buffers, name)[:n_samples * dim].reshape(n_samples, dim)


def lhs_normal(n_samples: int, dim: int, seed: int) -> SampleBatch:
    """Draw a Latin hypercube sample of standard normal vectors.

    Each dimension's probability range is split into ``n_samples`` equal
    strata; a uniform random permutation (the ranks of the base uniforms)
    assigns every sample to a distinct stratum per dimension, and the value
    is placed uniformly at random inside its stratum's probability mass.
    ``stratum_index`` is written over the base uniforms (read as int64).
    Inside a run's buffer scope both are views of the scope's buffers, and
    the batch's own :func:`unit_probes` overwrites ``stratum_index``.

    Parameters
    ----------
    n_samples, dim : int
        Batch size and vector dimension, both >= 1.
    seed : int
        Stream seed; the batch is a deterministic function of
        (seed, n_samples, dim).
    """
    if n_samples < 1 or dim < 1:
        raise ValueError("n_samples and dim must be positive")
    _load_special()
    rng = np.random.default_rng(seed)
    base = open_unit(rng, (n_samples, dim), _scoped("scratch", n_samples, dim))
    q = open_unit(rng, (n_samples, dim), _scoped("values", n_samples, dim))
    strata = base.view(np.int64)

    def work(a, b):
        _column_ranks(base[:, a:b], out=strata[:, a:b])
        # (strata + jitter) / n, formed in the jitter's buffer.
        qc = q[:, a:b]
        qc += strata[:, a:b]
        qc /= n_samples
        # A top-stratum jitter within 2^-47 of 1 rounds the quotient to
        # 1.0, whose quantile is infinite.
        np.minimum(qc, _BELOW_ONE, out=qc)
        _quantile_in_place(qc)

    _by_columns(work, n_samples, dim)
    return SampleBatch(rows=q, sampler_kind=LHS, seed=int(seed),
                       stratum_index=strata)


def _column_ranks(base, out=None):
    """Rank of every entry within its column, equal to
    ``argsort(argsort(base, axis=0), axis=0)`` ties included, into ``out``
    if given. ``out`` may alias ``base``: every read of ``base`` is done
    before ``out`` is written.

    One sort ranks the columns. Non-negative finite doubles order like
    their bit patterns, so the keys are the contiguous transpose of
    ``base`` with the low ``b = (n - 1).bit_length()`` mantissa bits of
    each value overwritten by its row index. Sorted as doubles, each
    column's keys give its order in their low bits, and ``arange(n)``
    scattered through that order inverts it.

    A column is ranked by one argsort of its values instead when two of
    its sorted keys lie less than ``2**b`` apart (two values may tie once
    truncated: about ``n**2 * 2**(b - 53)`` for a column of uniforms), or
    when a value is not finite or is below ``2**b`` times the smallest
    subnormal (zeros, negatives, nan and inf); both are read off the sorted
    keys. So every rank is the double argsort's on any CPU, whatever order
    its argsort gives ties.
    """
    n, d = base.shape
    b = (n - 1).bit_length()
    low = np.uint64((1 << b) - 1)
    keys = base.T.copy()
    bits = keys.view(np.uint64)
    bits &= ~low
    bits |= np.arange(n, dtype=np.uint64)
    keys.sort(axis=1)
    smallest = np.array(1 << b, dtype=np.uint64).view(np.float64)
    slow = ~((keys[:, 0] >= smallest) & (keys[:, -1] < np.inf))
    # One contiguous pass finds any close pair, also across two columns;
    # the per-column pass runs only then.
    flat, apart = bits.reshape(-1), low + np.uint64(1)
    if np.subtract(flat[1:], flat[:-1]).min(initial=apart) <= low:
        slow |= np.subtract(bits[:, 1:], bits[:, :-1]).min(axis=1, initial=apart) <= low
    # The flat index of each key's entry in the column-major ranks.
    bits &= low
    bits += np.arange(0, d * n, n, dtype=np.uint64)[:, None]
    index = bits.view(np.int64)
    cols = np.flatnonzero(slow)
    if cols.size:
        index[cols] = np.argsort(base.T[cols], axis=1) + n * cols[:, None]
    ranks = np.empty((d, n), dtype=np.int64)
    ranks.reshape(-1)[index.reshape(-1)] = np.tile(np.arange(n), d)
    if out is None:
        return ranks.T
    out[...] = ranks.T
    return out


def srs_normal(n_samples: int, dim: int, seed: int) -> SampleBatch:
    """Draw independent standard normal vectors (the unstratified baseline).

    Uses the same quantile transform as :func:`lhs_normal` on the same base
    uniforms, so batches with equal seeds form a common-random-number pair.
    Inside a run's buffer scope, ``rows`` is a view of the scope's buffer.
    """
    if n_samples < 1 or dim < 1:
        raise ValueError("n_samples and dim must be positive")
    _load_special()
    rows = open_unit(np.random.default_rng(seed), (n_samples, dim),
                     _scoped("values", n_samples, dim))

    _by_rows(lambda a, b: _quantile_in_place(rows[a:b]), n_samples, dim)
    return SampleBatch(rows=rows, sampler_kind=SRS, seed=int(seed))


def _normalize_in_place(rows, squares) -> None:
    """Scale the rows to unit length in place, or raise DegenerateSampleError
    on a zero row. ``squares`` takes the squares, whose ``add.reduce`` and
    ``sqrt`` give a row's length with the bits of ``np.linalg.norm``."""
    np.multiply(rows, rows, out=squares)
    norms = np.sqrt(np.add.reduce(squares, axis=1, keepdims=True))
    if (norms == 0.0).any():
        raise DegenerateSampleError("zero row cannot be normalized")
    rows /= norms


def normalize_rows(batch: SampleBatch) -> SampleBatch:
    """Scale every row to unit Euclidean length, in a new array.

    Stratum bookkeeping is preserved. Idempotent to within 1e-12.

    Raises
    ------
    DegenerateSampleError
        If any row is the zero vector (measure zero for continuous draws;
        the caller re-draws the batch).
    """
    rows = np.array(batch.rows, dtype=np.float64)
    _normalize_in_place(rows, np.empty_like(rows))
    return SampleBatch(rows=rows, sampler_kind=batch.sampler_kind,
                       seed=batch.seed, stratum_index=batch.stratum_index)


def unit_probes(rows, x, probe_step: float, lo: float, hi: float) -> np.ndarray:
    """Scale ``rows`` to unit length in place, with the bits of
    :func:`normalize_rows`; return clip(probe_step * row + x) into [lo, hi].

    It runs on one row block at a time (all the rows for a batch below the
    split), the block's probes holding the squares. The probes go to the
    scratch buffer of the thread's buffer scope when the batch fits, else
    to a new array. Raises ``ValueError`` unless ``lo < hi``, and
    :class:`DegenerateSampleError` on a zero row.
    """
    if not lo < hi:
        raise ValueError("clip range must satisfy lo < hi")
    probes = _scoped("scratch", *rows.shape)
    if probes is None:
        probes = np.empty_like(rows)

    def work(a, b):
        block, out = rows[a:b], probes[a:b]
        _normalize_in_place(block, out)
        np.multiply(block, probe_step, out=out)
        out += x
        out.clip(lo, hi, out=out)

    _by_rows(work, *rows.shape)
    return probes


def batch_discrepancy(batch: SampleBatch) -> float:
    """Worst per-dimension Kolmogorov-Smirnov distance to the standard normal.

    For every dimension the empirical CDF of the batch's marginal is
    compared against Phi; the statistic returned is the maximum over
    dimensions. Lower is more uniform. Requires at least two samples.
    """
    n = batch.n_samples
    if n < 2:
        raise ValueError("discrepancy needs at least 2 samples")
    v = np.sort(batch.rows, axis=0)
    cdf = normal_cdf(v)
    grid = np.arange(n, dtype=np.float64)[:, None]
    upper = np.abs((grid + 1.0) / n - cdf)
    lower = np.abs(cdf - grid / n)
    return float(np.maximum(upper, lower).max())
