"""Independent reference implementations used to derive expected test values.

Everything here is deliberately written from first principles — power
series, bisection, fsum accumulation, hand matrix arithmetic — and never
imports the package under test, so that agreement between the two code
paths is meaningful evidence rather than a tautology.
"""

import math

import numpy as np
from scipy.special import ndtri

SQRT2 = math.sqrt(2.0)


def ref_erf(x):
    """Error function via its Maclaurin series.

    erf(x) = (2/sqrt(pi)) * sum_{n>=0} (-1)^n x^(2n+1) / (n! (2n+1))

    Accurate to ~1e-13 absolute for |x| <= 3.5, which covers every value
    the tests evaluate (probability grids stay within +-4 sigma).
    """
    x = np.asarray(x, dtype=np.float64)
    total = np.zeros_like(x)
    term = np.array(x, dtype=np.float64)  # n = 0 term before the 1/(2n+1)
    for n in range(0, 120):
        total = total + term / (2 * n + 1)
        term = term * (-(x * x)) / (n + 1)
    return total * (2.0 / math.sqrt(math.pi))


def ref_normal_cdf(z):
    """Standard normal CDF built on the series erf above."""
    z = np.asarray(z, dtype=np.float64)
    return 0.5 * (1.0 + ref_erf(z / SQRT2))


def ref_inverse_normal_cdf(p):
    """Standard normal quantile by plain bisection against ref_normal_cdf.

    Accepts a scalar or an array; bisection runs elementwise to interval
    width 18 / 2^80, far below double precision.
    """
    arr = np.asarray(p, dtype=np.float64)
    if arr.size and ((arr <= 0.0) | (arr >= 1.0)).any():
        raise ValueError("p must lie strictly inside (0, 1)")
    lo = np.full(arr.shape, -9.0)
    hi = np.full(arr.shape, 9.0)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = ref_normal_cdf(mid) < arr
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    out = 0.5 * (lo + hi)
    return float(out) if arr.ndim == 0 else out


def ref_open_unit(rng, shape):
    """Uniforms strictly inside (0, 1): ``rng.random`` with exact zeros re-drawn."""
    u = rng.random(shape)
    while (u == 0.0).any():
        u[u == 0.0] = rng.random(int((u == 0.0).sum()))
    return u


def ref_lhs_normal(n_samples, dim, seed):
    """Latin hypercube normal batch by the plain double-argsort formula.

    Returns ``(rows, stratum_index)``: the ranks of the base uniforms in
    each column are the strata, a second draw jitters inside them, and
    scipy's ``ndtri`` maps ``(stratum + jitter) / n`` to a normal value.
    """
    rng = np.random.default_rng(seed)
    base = ref_open_unit(rng, (n_samples, dim))
    strata = np.argsort(np.argsort(base, axis=0), axis=0)
    jitter = ref_open_unit(rng, (n_samples, dim))
    return ndtri((strata + jitter) / n_samples), strata


def ref_substream_seed(base_seed, *path):
    """64-bit seed of the SeedSequence child of ``base_seed`` at ``path``."""
    ss = np.random.SeedSequence(int(base_seed), spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, np.uint64)[0])


# Search caps of the walk: uniform start draws, and halvings of a rejected step.
REF_INIT_TRIES = 1000
REF_STEP_RETRIES = 30


class _BudgetSpent(Exception):
    pass


class _RunFailed(Exception):
    def __init__(self, status, error):
        super().__init__(error)
        self.status, self.error = status, error


def ref_run_attack(oracle, original, config):
    """The whole boundary walk, one oracle query at a time, on new arrays.

    Reads ``config``'s fields (``init_target_image`` aside) and calls only
    ``oracle.dim`` and ``oracle._decide``, charging each query to its phase
    after checking the cap. Probe batches are drawn by
    :func:`ref_lhs_normal` or as ``ndtri`` of :func:`ref_open_unit`, from
    the gradient stream (namespace 1) of iteration ``t`` and its child
    ``attempt``; init draws come from namespace 0. Returns
    ``(best_point, rows, status, error, ledger)``: the rows are tuples in
    trace-row field order (t, probe count, probe radius, step size,
    cumulative queries, distortion, +1 answers, step halvings, bisection
    steps), and the ledger maps each phase to its query count.
    """
    dim = oracle.dim
    original = np.asarray(original, dtype=np.float64)
    lo, hi = config.clip_low, config.clip_high
    tol = config.bisect_tol if config.bisect_tol is not None else float(dim) ** -1.5
    ledger = {"init": 0, "binsearch": 0, "gradient": 0, "step": 0}

    def decide(x, phase):
        if config.max_queries is not None and sum(ledger.values()) >= config.max_queries:
            raise _BudgetSpent
        ledger[phase] += 1
        return oracle._decide(x)

    def dist(x):
        return float(np.linalg.norm(x - original))

    def project(x_adv):
        # The bracket [a, b] of the blend weight keeps ``a`` adversarial;
        # every halving costs one query, until it is no wider than tol.
        a, b, steps = 0.0, 1.0, 0
        while b - a > tol:
            mid = (a + b) / 2.0
            if decide(np.clip(mid * original + (1.0 - mid) * x_adv, lo, hi),
                      "binsearch") == 1:
                a = mid
            else:
                b = mid
            steps += 1
        return np.clip(a * original + (1.0 - a) * x_adv, lo, hi), steps

    def estimate(x, n, radius, t):
        for attempt in (0, 1):
            seed = ref_substream_seed(ref_substream_seed(config.seed, 1, t), attempt)
            if config.sampler_kind == "lhs":
                noise = ref_lhs_normal(n, dim, seed)[0]
            else:
                noise = ndtri(ref_open_unit(np.random.default_rng(seed), (n, dim)))
            norms = np.linalg.norm(noise, axis=1, keepdims=True)
            if (norms == 0.0).any():
                continue
            unit = noise / norms
            probes = np.clip(radius * unit + x, lo, hi)
            answers = np.array([decide(p, "gradient") for p in probes], dtype=np.float64)
            mean = (answers @ unit) / n
            length = np.linalg.norm(mean)
            if length == 0.0:
                continue
            return mean / length, int((answers > 0.0).sum())
        raise _RunFailed("oracle_failed",
                         "signed-probe average vanished twice; boundary locally symmetric")

    rows, best = [], None
    status, error = "completed", None
    try:
        rng = np.random.default_rng(ref_substream_seed(config.seed, 0))
        for _ in range(REF_INIT_TRIES):
            start = lo + (hi - lo) * rng.random(dim)
            if decide(start, "init") == 1:
                break
        else:
            raise _RunFailed("init_failed",
                             f"no adversarial point among {REF_INIT_TRIES} uniform draws")
        best = (dist(start), start)
        point, steps = project(start)
        rows.append((0, 0, 0.0, 0.0, sum(ledger.values()), dist(point), 0, 0, steps))
        best = min(best, (dist(point), point), key=lambda b: b[0])
        best_projected = (dist(point), point)
        failures = 0
        for t in range(1, config.iterations + 1):
            d = dist(point)
            if d == 0.0:
                break
            n = int(math.floor(config.initial_samples * float(t) ** 0.2 + 1e-9))
            radius, size = d / dim, d / math.sqrt(t)
            direction, agree = estimate(point, n, radius, t)
            step = size
            for halvings in range(REF_STEP_RETRIES + 1):
                cand = np.clip(point + step * direction, lo, hi)
                if decide(cand, "step") == 1:
                    break
                step /= 2.0
            else:
                failures += 1
                rows.append((t, n, radius, size, sum(ledger.values()), d, agree,
                             REF_STEP_RETRIES, 0))
                if failures == 2:
                    break
                continue
            failures = 0
            best = min(best, (dist(cand), cand), key=lambda b: b[0])
            point, steps = project(cand)
            rows.append((t, n, radius, size, sum(ledger.values()), dist(point), agree,
                         halvings, steps))
            best = min(best, (dist(point), point), key=lambda b: b[0])
            best_projected = min(best_projected, (dist(point), point), key=lambda b: b[0])
        best = best_projected
    except _RunFailed as exc:
        status, error = exc.status, exc.error
    except _BudgetSpent:
        if best is None:
            status = "init_failed"
            error = "query budget exhausted before an adversarial point was found"
        else:
            status = "budget_exhausted"
            rows.append((rows[-1][0] + 1 if rows else 0, 0, 0.0, 0.0,
                         sum(ledger.values()), best[0], 0, 0, 0))
    return (None if best is None else best[1]), rows, status, error, ledger


def ref_ks_statistic(values) -> float:
    """Two-sided Kolmogorov-Smirnov distance to the standard normal."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    n = v.size
    cdf = ref_normal_cdf(v)
    i = np.arange(n, dtype=np.float64)
    above = np.max((i + 1.0) / n - cdf)
    below = np.max(cdf - i / n)
    return float(max(above, below))


def ref_distance(x, y) -> float:
    """Euclidean distance with fsum accumulation (independent of np.linalg)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return math.sqrt(math.fsum(float(a - b) ** 2 for a, b in zip(x, y)))


def ref_crossing_alpha(normal, offset, x_adv, x_star) -> float:
    """Blend weight at which the segment toward x_star crosses a plane.

    The blend point(alpha) = alpha * x_star + (1 - alpha) * x_adv has
    signed value (1 - alpha) * s0 + alpha * s1 where s0, s1 are the plane
    values at the endpoints; the crossing solves that linear form for zero:
    alpha* = s0 / (s0 - s1).  Requires s0 > 0 > s1.
    """
    w = np.asarray(normal, dtype=np.float64)
    s0 = math.fsum(float(a * b) for a, b in zip(w, np.asarray(x_adv))) + offset
    s1 = math.fsum(float(a * b) for a, b in zip(w, np.asarray(x_star))) + offset
    if not (s0 > 0.0 > s1):
        raise ValueError("segment endpoints must straddle the plane")
    return s0 / (s0 - s1)


# Hand-evaluated two-layer network: weights chosen small enough to multiply
# out by hand; the expected scores below were worked out with pencil
# arithmetic, shown step by step.
#
#   hidden pre-activation for x = (0.25, 0.75):
#     row 1: 1.0*0.25 + 2.0*0.75 + 0.1  =  0.25 + 1.50 + 0.1  =  1.85
#     row 2: 3.0*0.25 + 4.0*0.75 - 0.2  =  0.75 + 3.00 - 0.2  =  3.55
#     row 3: 0.5*0.25 - 1.0*0.75 + 0.3  =  0.125 - 0.75 + 0.3 = -0.325
#   ReLU: (1.85, 3.55, 0.0)
#   output (identity):
#     score 0: 1.0*1.85 - 1.0*3.55 + 2.0*0.0 + 0.0   = -1.70
#     score 1: 0.5*1.85 + 1.0*3.55 - 0.5*0.0 + 0.25  =  4.725
HAND_NET_W1 = [[1.0, 2.0], [3.0, 4.0], [0.5, -1.0]]
HAND_NET_B1 = [0.1, -0.2, 0.3]
HAND_NET_W2 = [[1.0, -1.0, 2.0], [0.5, 1.0, -0.5]]
HAND_NET_B2 = [0.0, 0.25]
HAND_NET_INPUT = [0.25, 0.75]
HAND_NET_SCORES = [-1.70, 4.725]


TRACE_HEADER_LITERAL = (
    "t,M_t,delta_t,epsilon_t,queries,distortion,"
    "agree_count,step_retries,binsearch_steps"
)


def parse_trace_csv(path):
    """Independent parser for trace CSVs.

    Returns (rows, status) where each row is a dict with typed fields.
    Raises AssertionError on any structural deviation so round-trip tests
    fail loudly rather than silently coercing.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines, "empty trace file"
    assert lines[0] == TRACE_HEADER_LITERAL, f"bad header: {lines[0]!r}"
    assert lines[-1].startswith("# status="), f"missing status: {lines[-1]!r}"
    status = lines[-1][len("# status="):]
    rows = []
    for line in lines[1:-1]:
        parts = line.split(",")
        assert len(parts) == 9, f"bad column count in {line!r}"
        rows.append({
            "t": int(parts[0]),
            "n_samples": int(parts[1]),
            "probe_step": float(parts[2]),
            "step_size": float(parts[3]),
            "queries": int(parts[4]),
            "distortion": float(parts[5]),
            "agree_count": int(parts[6]),
            "step_retries": int(parts[7]),
            "bisect_steps": int(parts[8]),
        })
    return rows, status


def parse_summary_csv(path):
    """Independent parser for summary CSVs -> (rows, failure_comments)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines and lines[0] == "oracle,sampler,budget,statistic,distortion,repetitions"
    rows, comments = [], []
    for line in lines[1:]:
        if line.startswith("#"):
            comments.append(line)
            continue
        parts = line.split(",")
        assert len(parts) == 6, f"bad column count in {line!r}"
        rows.append({
            "oracle": parts[0],
            "sampler": parts[1],
            "budget": int(parts[2]),
            "statistic": parts[3],
            "distortion": float(parts[4]),
            "repetitions": int(parts[5]),
        })
    return rows, comments
