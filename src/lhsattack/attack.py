"""Decision-based boundary attack with stratified gradient sampling.

The attack walks the decision boundary of a sign-only oracle toward the
original point: start from any adversarial point, bisect the segment to
the original to land on the boundary, then repeat {estimate the boundary
normal from signed probes, step outward along it, re-project}. All
randomness flows from the run seed through addressable substreams, so a
run is a pure function of (oracle, original, config).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateSampleError,
    EstimateDegenerateError,
    InitFailedError,
    OracleFailedError,
    QueryBudgetExceededError,
    StepFailedError,
)
from .oracles import (
    PHASE_BINSEARCH,
    PHASE_GRADIENT,
    PHASE_INIT,
    PHASE_STEP,
    MeteredOracle,
    QueryLedger,
)
from .rng import NS_GRADIENT, NS_INIT, substream_seed
# normalize_rows is not called here (samplers.unit_probes normalizes), but
# perfbench's tracer wraps attack.normalize_rows by name.
from .samplers import LHS, SRS, _buffer_scope, lhs_normal, normalize_rows, srs_normal, unit_probes

__all__ = [
    "COMPLETED",
    "BUDGET_EXHAUSTED",
    "INIT_FAILED",
    "ORACLE_FAILED",
    "STATUSES",
    "AttackConfig",
    "GradientEstimate",
    "BoundaryPoint",
    "TraceRow",
    "AttackTrace",
    "clip",
    "schedule_samples",
    "schedule_probe_step",
    "schedule_step_size",
    "initialize_adversarial",
    "bin_search",
    "estimate_gradient",
    "step_forward",
    "run_attack",
]

COMPLETED = "completed"
BUDGET_EXHAUSTED = "budget_exhausted"
INIT_FAILED = "init_failed"
ORACLE_FAILED = "oracle_failed"
STATUSES = (COMPLETED, BUDGET_EXHAUSTED, INIT_FAILED, ORACLE_FAILED)

_SAMPLERS = {LHS: lhs_normal, SRS: srs_normal}

# Uniform draws in the clip box before initialization gives up.
_MAX_INIT_TRIES = 1000
# Halvings of the outward step after a rejected candidate.
_MAX_STEP_RETRIES = 30


@dataclass
class AttackConfig:
    """Tunables for one attack run.

    Attributes
    ----------
    initial_samples : int
        Probe count for the first gradient estimate; later iterations
        scale it up via :func:`schedule_samples`.
    iterations : int
        Number of boundary-walk iterations after the initial projection.
    bisect_tol : float or None
        Stopping width for the bisection bracket, in the [0, 1] blend
        parameter; at least 2**-53. ``None`` selects dim ** -1.5 at run time,
        which 1-D inputs cannot use (see :meth:`check_dim`).
    max_queries : int or None
        Hard cap on total oracle queries; ``None`` means unlimited.
    sampler_kind : str
        ``"lhs"`` (stratified) or ``"srs"`` (independent) probe noise.
    seed : int
        Run seed; every random choice derives from it deterministically.
    init_target_image : ndarray or None
        Starting adversarial point: a 1-D array of finite values the
        oracle already answers +1 on, e.g. an image of the target class.
        When given, the run starts from it instead of uniform draws.
    clip_low, clip_high : float
        Coordinate box; every queried point is clipped into it first.

    The search caps are fixed: :data:`_MAX_INIT_TRIES` (1000) uniform start
    draws and :data:`_MAX_STEP_RETRIES` (30) halvings of a rejected step.
    """

    initial_samples: int = 100
    iterations: int = 64
    bisect_tol: float | None = None
    max_queries: int | None = None
    sampler_kind: str = LHS
    seed: int = 0
    init_target_image: np.ndarray | None = None
    clip_low: float = 0.0
    clip_high: float = 1.0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.initial_samples < 1:
            raise ValueError("initial_samples must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.bisect_tol is not None:
            _check_bisect_tol(self.bisect_tol)
        if self.max_queries is not None and self.max_queries < 1:
            raise ValueError("max_queries must be >= 1")
        if self.sampler_kind not in _SAMPLERS:
            raise ValueError(f"unknown sampler_kind {self.sampler_kind!r}")
        if self.init_target_image is not None:
            image = np.asarray(self.init_target_image, dtype=np.float64)
            if image.ndim != 1 or not np.isfinite(image).all():
                raise ValueError("init_target_image must be a 1-D array of finite values")
        # Not finite when either bound is not, or when the width overflows.
        if not math.isfinite(float(self.clip_high) - float(self.clip_low)):
            raise ValueError("clip_low, clip_high and clip_high - clip_low must be finite")
        if not self.clip_low < self.clip_high:
            raise ValueError("clip_low must be < clip_high")

    def check_dim(self, dim: int) -> None:
        """Reject a start image of another width than ``dim``, a default
        ``bisect_tol`` (dim ** -1.5) that is not below 1, and a clip box too
        wide for ``dim``: distances between points of the box are square
        roots of sums of squares, which overflow once the width times
        sqrt(dim) passes about 1.3e154; a squared diagonal of at most
        2**1023 leaves room for rounding in the sum.
        """
        width = float(self.clip_high) - float(self.clip_low)
        if not width * width * dim <= 2.0 ** 1023:
            raise ValueError(
                f"clip box width {width:g} is too wide for dimension {dim}: "
                f"distances would overflow; width * sqrt(dim) must be at most "
                f"{2.0 ** 511.5:.4g}")
        if self.bisect_tol is None and dim < 2:
            raise ValueError("bisection tolerance must lie in (0, 1); "
                             "set bisect_tol explicitly for 1-dimensional inputs")
        if self.init_target_image is not None and np.shape(self.init_target_image) != (dim,):
            raise ValueError("init_target_image has the wrong dimension")


def _check_bisect_tol(tol: float) -> None:
    """Reject a bisection tolerance the bracket cannot reach.

    Near alpha = 1 the midpoint stops moving once the bracket is 2**-53
    wide, so a smaller ``tol`` would spend queries and still end wider.
    """
    if not 2.0 ** -53 <= tol < 1.0:
        raise ValueError("bisect_tol must lie in (0, 1) and be at least 2**-53 "
                         "(about 1.1e-16), the narrowest bracket bisection reaches")


@dataclass
class GradientEstimate:
    """Signed-probe average and its normalized direction.

    ``raw_mean`` is (1/M) * sum of decision_i * noise_i over the probe
    batch; ``direction`` is the same vector scaled to unit length;
    ``agree_count`` is how many probes answered +1.
    """

    direction: np.ndarray
    raw_mean: np.ndarray
    agree_count: int


@dataclass
class BoundaryPoint:
    """An adversarial point within bisection tolerance of the boundary.

    ``alpha`` is the fraction of the way from the adversarial input
    toward the original at which the point sits; ``alpha_gap`` is the
    final bracket width (<= the stopping tolerance); ``steps`` is the
    number of bisection iterations, each costing one query.
    """

    point: np.ndarray
    alpha: float
    alpha_gap: float
    steps: int


@dataclass
class TraceRow:
    """Per-iteration record of an attack run."""

    t: int
    n_samples: int
    probe_step: float
    step_size: float
    queries: int
    distortion: float
    agree_count: int
    step_retries: int
    bisect_steps: int


@dataclass
class AttackTrace:
    """Full run record: one row per iteration plus the terminal status.

    ``error`` is the cause of a failed run (``init_failed`` or
    ``oracle_failed``) and ``None`` for a run that did not fail.
    """

    rows: list
    status: str
    ledger: QueryLedger
    error: str | None = None

    @property
    def queries_total(self) -> int:
        return self.ledger.total_queries

    @property
    def final_distortion(self) -> float | None:
        return self.rows[-1].distortion if self.rows else None


def clip(x, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    """Coordinatewise clamp of ``x`` into [lo, hi], in a new array. Idempotent."""
    if not lo < hi:
        raise ValueError("clip range must satisfy lo < hi")
    # The method skips np.clip's dispatch; np.minimum/np.maximum would not
    # do, as they turn -0.0 into +0.0 and np.clip keeps it.
    return np.asarray(x, dtype=np.float64).clip(lo, hi)


def _norm(v) -> float:
    """Euclidean length of a 1-D float64 vector, as np.linalg.norm computes it."""
    return math.sqrt(v @ v)


def schedule_samples(t: int, base_count: int) -> int:
    """Probe count floor(base_count * (t+1)**(1/5)) for iteration offset t.

    Offset 0 is the first estimate (returns ``base_count`` exactly); the
    count grows sublinearly so later, finer iterations get more probes. A
    1e-9 guard inside the floor absorbs one-ulp libm undershoot when
    (t+1)**(1/5) lands on an exact integer.
    """
    if t < 0:
        raise ValueError("iteration offset must be >= 0")
    if base_count < 1:
        raise ValueError("base_count must be >= 1")
    return int(math.floor(base_count * (t + 1.0) ** 0.2 + 1e-9))


def schedule_probe_step(x_prev, original, dim: int) -> float:
    """Probe radius: distance-to-original divided by the dimension."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    dist = _norm(np.asarray(x_prev, dtype=np.float64)
                 - np.asarray(original, dtype=np.float64))
    if dist == 0.0:
        raise ValueError("previous iterate coincides with the original")
    return dist / dim


def schedule_step_size(t: int, x_prev, original) -> float:
    """Outward step: distance-to-original divided by sqrt(t), t >= 1."""
    if t < 1:
        raise ValueError("iteration index must be >= 1")
    dist = _norm(np.asarray(x_prev, dtype=np.float64)
                 - np.asarray(original, dtype=np.float64))
    if dist == 0.0:
        raise ValueError("previous iterate coincides with the original")
    return dist / math.sqrt(t)


def initialize_adversarial(oracle: MeteredOracle, original, config: AttackConfig,
                           rng: np.random.Generator) -> np.ndarray:
    """Find a starting point the oracle answers +1 on.

    With ``config.init_target_image``: verify it with a single query and
    return it. Otherwise draw uniform points in the clip box until one is
    adversarial, up to :data:`_MAX_INIT_TRIES` (1000; one query each).

    The caller is responsible for the original being non-adversarial
    (decide(original) = -1); no query is spent re-checking it here.

    Raises
    ------
    InitFailedError
        When the try budget is exhausted or the start image is not
        adversarial.
    """
    original = np.asarray(original, dtype=np.float64)
    if original.shape != (oracle.dim,):
        raise ValueError("original point has the wrong dimension")
    if config.init_target_image is not None:
        cand = clip(config.init_target_image, config.clip_low, config.clip_high)
        if oracle.decide(cand, PHASE_INIT) == 1:
            return cand
        raise InitFailedError("init_target_image is not adversarial for this oracle")
    span = config.clip_high - config.clip_low
    for _ in range(_MAX_INIT_TRIES):
        cand = config.clip_low + span * rng.random(oracle.dim)
        if oracle.decide(cand, PHASE_INIT) == 1:
            return cand
    raise InitFailedError(
        f"no adversarial point among {_MAX_INIT_TRIES} uniform draws")


def bin_search(x_adv, original, oracle: MeteredOracle, tol: float,
               clip_low: float = 0.0, clip_high: float = 1.0) -> BoundaryPoint:
    """Bisect the segment from an adversarial point toward the original.

    The blend parameter alpha runs from 0 (the adversarial input) to 1
    (the original); the bracket keeps its low end adversarial and shrinks
    by half per query until its width is <= ``tol``, which costs exactly
    ceil(log2(1/tol)) queries, at most 53; ``tol`` lies in [2**-53, 1).
    The returned point is the adversarial low end of the final bracket,
    blended and clipped.

    Callers guarantee decide(x_adv) = +1 and decide(original) = -1; the
    preconditions are not re-queried here, keeping the cost exact.
    """
    x_adv = np.asarray(x_adv, dtype=np.float64)
    original = np.asarray(original, dtype=np.float64)
    if x_adv.shape != original.shape or x_adv.shape != (oracle.dim,):
        raise ValueError("endpoint dimensions do not match the oracle")
    _check_bisect_tol(tol)
    steps = math.ceil(math.log2(1.0 / tol))
    lo, hi = 0.0, 1.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        probe = clip(mid * original + (1.0 - mid) * x_adv, clip_low, clip_high)
        if oracle.decide(probe, PHASE_BINSEARCH) == 1:
            lo = mid
        else:
            hi = mid
    point = clip(lo * original + (1.0 - lo) * x_adv, clip_low, clip_high)
    return BoundaryPoint(point=point, alpha=lo, alpha_gap=hi - lo, steps=steps)


def estimate_gradient(oracle: MeteredOracle, x, n_samples: int, probe_step: float,
                      sampler_kind: str, seed: int,
                      clip_low: float = 0.0, clip_high: float = 1.0) -> GradientEstimate:
    """Estimate the boundary normal from signed probes around ``x``.

    Draws ``n_samples`` unit noise vectors with the requested sampler,
    queries the oracle at clip(x + probe_step * noise_i) in sample order,
    as one metered batch (exactly ``n_samples`` queries), and averages
    decision_i * noise_i.
    When every decision agrees the average is simply +/- the mean noise
    vector, which still points off the boundary on the correct side.

    ``x`` may be a bare point or a :class:`BoundaryPoint`.

    If the average is numerically zero (or a noise row degenerates to
    zero), the batch is re-drawn once from a child stream of ``seed``;
    a second failure raises :class:`EstimateDegenerateError`.

    :func:`~lhsattack.samplers.unit_probes` normalizes the rows in place
    and builds the probes. Inside :func:`run_attack` (or a
    ``run_experiment`` grid) the rows and the probes are views of the run's
    buffers, which the run's next batch overwrites; called outside a run,
    every batch gets new arrays.
    """
    x = np.asarray(getattr(x, "point", x), dtype=np.float64)
    if x.shape != (oracle.dim,):
        raise ValueError("point has the wrong dimension")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not probe_step > 0.0:
        raise ValueError("probe_step must be positive")
    try:
        sampler = _SAMPLERS[sampler_kind]
    except KeyError:
        raise ValueError(f"unknown sampler_kind {sampler_kind!r}") from None

    for attempt in (0, 1):
        batch = sampler(n_samples, oracle.dim, substream_seed(seed, attempt))
        try:
            probes = unit_probes(batch.rows, x, probe_step, clip_low, clip_high)
        except DegenerateSampleError:
            continue
        decisions = oracle.decide_batch(probes, PHASE_GRADIENT).astype(np.float64)
        raw_mean = (decisions @ batch.rows) / n_samples
        norm = _norm(raw_mean)
        if norm == 0.0:
            continue
        return GradientEstimate(direction=raw_mean / norm, raw_mean=raw_mean,
                                agree_count=int((decisions > 0.0).sum()))
    raise EstimateDegenerateError(
        "signed-probe average vanished twice; boundary locally symmetric")


def step_forward(x, estimate: GradientEstimate, step_size: float,
                 oracle: MeteredOracle, config: AttackConfig):
    """Move outward along the estimated normal to an adversarial candidate.

    Tries clip(x + step * direction) with the full step, halving the step
    after every -1 answer, for at most :data:`_MAX_STEP_RETRIES` (30)
    halvings. ``x`` may be a bare point or a :class:`BoundaryPoint`.

    Returns
    -------
    (ndarray, int)
        The first adversarial candidate and the number of halvings that
        preceded it (0 = full step accepted).

    Raises
    ------
    StepFailedError
        When every candidate, including the most-halved one, answers -1.
    """
    x = np.asarray(getattr(x, "point", x), dtype=np.float64)
    if not step_size > 0.0:
        raise ValueError("step_size must be positive")
    step = float(step_size)
    for retries in range(_MAX_STEP_RETRIES + 1):
        cand = clip(x + step * estimate.direction, config.clip_low, config.clip_high)
        if oracle.decide(cand, PHASE_STEP) == 1:
            return cand, retries
        step *= 0.5
    raise StepFailedError(
        f"candidate stayed non-adversarial through {_MAX_STEP_RETRIES} halvings")


def _run_buffers(config: AttackConfig, dim: int):
    """A buffer scope (:func:`~lhsattack.samplers._buffer_scope`) that holds
    every probe batch of a run of ``config`` at ``dim``: the last
    iteration's is the largest."""
    return _buffer_scope(schedule_samples(config.iterations - 1, config.initial_samples), dim)


def run_attack(oracle, original, config: AttackConfig):
    """Run the full boundary walk against one oracle.

    Initializes an adversarial point, projects it onto the boundary, then
    iterates {schedule, estimate, step, re-project} for
    ``config.iterations`` rounds, recording one trace row per iteration
    (row 0 is the initial projection). Terminates early when the query
    budget runs out — returning the best adversarial point seen — or
    after two consecutive failed step searches.

    A run's outcome is never raised: every run returns its trace, whose
    ``status`` says how it ended and whose ``error`` gives the cause of a
    failure. No start point (or the budget spent before one) is
    ``init_failed``; an oracle that stops answering, or a gradient
    estimate that vanishes twice, is ``oracle_failed``.

    ``oracle`` is a bare :class:`DecisionOracle`; the attack queries it
    through a fresh :class:`MeteredOracle` capped at
    ``config.max_queries``, whose ledger rides along on the returned
    trace.

    The original must answer -1; this is the caller's obligation and is
    not re-queried (so budget accounting stays exact).

    Every probe batch is drawn into one set of buffers sized for the run's
    largest, or into an enclosing scope's that fits (``run_experiment``
    enters one for its grid).

    Returns
    -------
    (ndarray or None, AttackTrace)
        The least-distorted adversarial point (boundary-projected unless
        the run stopped early), ``None`` when no start was found, and the
        run trace.
    """
    metered = MeteredOracle(oracle, config.max_queries)
    original = np.asarray(original, dtype=np.float64)
    if original.shape != (metered.dim,):
        raise ValueError("original point has the wrong dimension")
    dim = metered.dim
    config.check_dim(dim)
    tol = config.bisect_tol if config.bisect_tol is not None else float(dim) ** -1.5
    ledger = metered.ledger
    rows: list[TraceRow] = []
    best_dist = math.inf
    best_point = None

    def dist_to(p) -> float:
        return _norm(p - original)

    status, error = COMPLETED, None
    try:
        init_rng = np.random.default_rng(substream_seed(config.seed, NS_INIT))
        init_point = initialize_adversarial(metered, original, config, init_rng)
        best_dist, best_point = dist_to(init_point), init_point

        current = bin_search(init_point, original, metered, tol,
                             config.clip_low, config.clip_high)
        d = dist_to(current.point)
        rows.append(TraceRow(t=0, n_samples=0, probe_step=0.0, step_size=0.0,
                             queries=ledger.total_queries, distortion=d,
                             agree_count=0, step_retries=0,
                             bisect_steps=current.steps))
        best_proj_dist, best_proj = d, current
        if d < best_dist:
            best_dist, best_point = d, current.point

        with _run_buffers(config, dim):
            consecutive_failures = 0
            for t in range(1, config.iterations + 1):
                prev = current.point
                if dist_to(prev) == 0.0:
                    break
                n_t = schedule_samples(t - 1, config.initial_samples)
                probe_step = schedule_probe_step(prev, original, dim)
                step_size = schedule_step_size(t, prev, original)
                est = estimate_gradient(
                    metered, prev, n_t, probe_step, config.sampler_kind,
                    substream_seed(config.seed, NS_GRADIENT, t),
                    config.clip_low, config.clip_high)
                try:
                    cand, retries = step_forward(prev, est, step_size, metered, config)
                except StepFailedError:
                    consecutive_failures += 1
                    rows.append(TraceRow(
                        t=t, n_samples=n_t, probe_step=probe_step,
                        step_size=step_size, queries=ledger.total_queries,
                        distortion=dist_to(prev), agree_count=est.agree_count,
                        step_retries=_MAX_STEP_RETRIES, bisect_steps=0))
                    if consecutive_failures >= 2:
                        break
                    continue
                consecutive_failures = 0
                cd = dist_to(cand)
                if cd < best_dist:
                    best_dist, best_point = cd, cand
                current = bin_search(cand, original, metered, tol,
                                     config.clip_low, config.clip_high)
                d = dist_to(current.point)
                rows.append(TraceRow(
                    t=t, n_samples=n_t, probe_step=probe_step,
                    step_size=step_size, queries=ledger.total_queries,
                    distortion=d, agree_count=est.agree_count,
                    step_retries=retries, bisect_steps=current.steps))
                if d < best_dist:
                    best_dist, best_point = d, current.point
                if d < best_proj_dist:
                    best_proj_dist, best_proj = d, current
        best_point = best_proj.point
    except InitFailedError as exc:
        status, error = INIT_FAILED, str(exc)
    except QueryBudgetExceededError:
        if best_point is None:
            status = INIT_FAILED
            error = "query budget exhausted before an adversarial point was found"
        else:
            status = BUDGET_EXHAUSTED
            rows.append(TraceRow(
                t=rows[-1].t + 1 if rows else 0, n_samples=0, probe_step=0.0,
                step_size=0.0, queries=ledger.total_queries,
                distortion=best_dist, agree_count=0, step_retries=0,
                bisect_steps=0))
    except (OracleFailedError, EstimateDegenerateError) as exc:
        status, error = ORACLE_FAILED, str(exc)
    return best_point, AttackTrace(rows=rows, status=status, ledger=ledger, error=error)
