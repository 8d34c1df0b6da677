"""Noise-vector samplers: Latin hypercube and simple random sampling.

Both samplers draw from the standard normal distribution through the same
quantile transform (scipy's ``ndtri``), so a fixed seed produces a *coupled*
pair of batches: the simple-random batch maps the base uniforms directly,
while the Latin hypercube batch re-stratifies the same uniforms (one sample
per equal-mass stratum and dimension). Paired LHS/SRS experiments therefore
differ only by the stratification, which is what makes the ablations in this
package sharp.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import DegenerateSampleError
from .rng import open_unit

__all__ = [
    "LHS",
    "SRS",
    "SampleBatch",
    "inverse_normal_cdf",
    "normal_cdf",
    "lhs_normal",
    "srs_normal",
    "normalize_rows",
    "batch_discrepancy",
]

LHS = "lhs"
SRS = "srs"

_BELOW_ONE = np.nextafter(1.0, 0.0)


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
    out = ndtr(np.asarray(z, dtype=np.float64))
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
    # NaN fails both comparisons, so two reductions cover every bad value.
    if arr.size and not (arr.min() > 0.0 and arr.max() < 1.0):
        raise ValueError("quantile argument must lie strictly inside (0, 1)")
    out = ndtri(arr)
    return out if out.ndim else float(out)


def _base_uniforms(n_samples, dim, seed):
    rng = np.random.default_rng(seed)
    return rng, open_unit(rng, (n_samples, dim))


def lhs_normal(n_samples: int, dim: int, seed: int) -> SampleBatch:
    """Draw a Latin hypercube sample of standard normal vectors.

    Each dimension's probability range is split into ``n_samples`` equal
    strata; a uniform random permutation (the ranks of the base uniforms)
    assigns every sample to a distinct stratum per dimension, and the value
    is placed uniformly at random inside its stratum's probability mass.

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
    rng, base = _base_uniforms(n_samples, dim, seed)
    strata = _column_ranks(base)
    del base
    # (strata + jitter) / n, formed in the jitter's buffer.
    q = open_unit(rng, (n_samples, dim))
    q += strata
    q /= n_samples
    # A top-stratum jitter within 2^-47 of 1 rounds the quotient to 1.0,
    # whose quantile is infinite.
    np.minimum(q, _BELOW_ONE, out=q)
    rows = inverse_normal_cdf(q)
    return SampleBatch(rows=rows, sampler_kind=LHS, seed=int(seed),
                       stratum_index=strata)


def _column_ranks(base):
    """Rank of every entry within its column, equal to
    ``argsort(argsort(base, axis=0), axis=0)`` ties included.

    One argsort of the contiguous transpose orders each column; scattering
    ``arange`` through that order inverts it.
    """
    order = np.ascontiguousarray(base.T).argsort(axis=1)
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(base.shape[0]), axis=1)
    return ranks.T


def srs_normal(n_samples: int, dim: int, seed: int) -> SampleBatch:
    """Draw independent standard normal vectors (the unstratified baseline).

    Uses the same quantile transform as :func:`lhs_normal` on the same base
    uniforms, so batches with equal seeds form a common-random-number pair.
    """
    if n_samples < 1 or dim < 1:
        raise ValueError("n_samples and dim must be positive")
    _, base = _base_uniforms(n_samples, dim, seed)
    rows = inverse_normal_cdf(base)
    return SampleBatch(rows=rows, sampler_kind=SRS, seed=int(seed))


def normalize_rows(batch: SampleBatch) -> SampleBatch:
    """Scale every row to unit Euclidean length.

    Stratum bookkeeping is preserved. Idempotent to within 1e-12.

    Raises
    ------
    DegenerateSampleError
        If any row is the zero vector (measure zero for continuous draws;
        the caller re-draws the batch).
    """
    norms = np.linalg.norm(batch.rows, axis=1, keepdims=True)
    if (norms == 0.0).any():
        raise DegenerateSampleError("zero row cannot be normalized")
    return SampleBatch(rows=batch.rows / norms, sampler_kind=batch.sampler_kind,
                       seed=batch.seed, stratum_index=batch.stratum_index)


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
