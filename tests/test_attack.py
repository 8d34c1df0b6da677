"""Tests for schedules, projection, gradient estimation, and the full walk."""

import dataclasses
import math
import os
import threading
import time

import numpy as np
import pytest

from lhsattack.attack import (
    _norm,
    BUDGET_EXHAUSTED,
    COMPLETED,
    INIT_FAILED,
    ORACLE_FAILED,
    AttackConfig,
    BoundaryPoint,
    bin_search,
    clip,
    estimate_gradient,
    initialize_adversarial,
    run_attack,
    schedule_probe_step,
    schedule_samples,
    schedule_step_size,
    step_forward,
)
from lhsattack import attack, samplers
from lhsattack.errors import (
    InitFailedError,
    OracleFailedError,
    StepFailedError,
)
from lhsattack.harness import emit_trace_csv
from lhsattack.oracles import (
    PHASE_INIT,
    DecisionOracle,
    HalfspaceOracle,
    HypersphereOracle,
    MeteredOracle,
    MlpOracle,
    QueryLedger,
    load_mlp,
    true_gradient,
)
from lhsattack.rng import substream_seed
from lhsattack.samplers import LHS, SRS, lhs_normal, normalize_rows, srs_normal

from reference import ref_crossing_alpha, ref_distance


class ScriptedOracle(DecisionOracle):
    """Answers from a fixed list; raises a planted error when it runs out."""

    kind = "scripted"

    def __init__(self, dim, answers, exhausted_error=None):
        super().__init__(dim)
        self.answers = list(answers)
        self.exhausted_error = exhausted_error

    def _decide(self, x):
        if not self.answers:
            if self.exhausted_error is not None:
                raise self.exhausted_error
            raise AssertionError("scripted oracle queried more than planned")
        return self.answers.pop(0)


# ---------------------------------------------------------------------------
# clip


def test_clip_examples():
    out = clip(np.array([-0.2, 0.5, 1.7]))
    assert out.tolist() == [0.0, 0.5, 1.0]
    assert np.array_equal(clip(out), out)


def test_clip_custom_box():
    out = clip(np.array([-3.0, 0.0, 3.0]), lo=-1.0, hi=2.0)
    assert out.tolist() == [-1.0, 0.0, 2.0]


def test_clip_bad_range():
    with pytest.raises(ValueError):
        clip(np.zeros(2), lo=1.0, hi=1.0)


def test_clip_equals_np_clip_bit_for_bit_signed_zeros_included():
    x = np.array([-0.0, 0.0, -1e-300, 1e-300, 0.5, -2.0, 3.0, 1.0, -1.0,
                  np.inf, -np.inf, np.nan])
    for lo, hi in [(0.0, 1.0), (-1.0, 1.0), (-0.0, 0.5), (-2.5, 0.0)]:
        assert clip(x, lo, hi).tobytes() == np.clip(x, lo, hi).tobytes()
    rows = np.random.default_rng(4).normal(size=(30, 7))
    want = np.clip(rows, 0.0, 1.0).tobytes()
    assert clip(rows).tobytes() == want


def test_norm_equals_linalg_norm_bit_for_bit():
    rng = np.random.default_rng(12)
    for n in (1, 2, 7, 64, 3072):
        for scale in (1e-150, 1e-3, 1.0, 1e3):
            v = rng.normal(size=n) * scale
            assert _norm(v) == float(np.linalg.norm(v))


# ---------------------------------------------------------------------------
# schedules


def test_schedule_samples_values():
    assert schedule_samples(0, 100) == 100
    assert schedule_samples(1, 100) == 114  # floor(100 * 2**0.2)
    assert schedule_samples(2, 100) == 124  # floor(100 * 3**0.2)
    assert schedule_samples(31, 100) == 200  # 32**0.2 == 2 exactly
    assert schedule_samples(1023, 100) == 400  # 1024**0.2 == 4 exactly


def test_schedule_samples_monotone():
    counts = [schedule_samples(t, 100) for t in range(64)]
    assert counts == sorted(counts)
    assert counts[-1] == 229


def test_schedule_samples_domain():
    with pytest.raises(ValueError):
        schedule_samples(-1, 100)
    with pytest.raises(ValueError):
        schedule_samples(0, 0)


def test_schedule_probe_step_values():
    x = np.zeros(2)
    y = np.array([3.0, 4.0])
    assert schedule_probe_step(y, x, 2) == 2.5
    assert schedule_probe_step(y, x, 100) == 0.05
    unit_apart = np.zeros(100)
    unit_apart[0] = 1.0
    assert schedule_probe_step(unit_apart, np.zeros(100), 100) == 0.01


def test_schedule_probe_step_domain():
    with pytest.raises(ValueError):
        schedule_probe_step(np.ones(3), np.ones(3), 3)
    with pytest.raises(ValueError):
        schedule_probe_step(np.ones(3), np.zeros(3), 0)


def test_schedule_step_size_values():
    x = np.zeros(1)
    y = np.array([2.0])
    assert schedule_step_size(1, y, x) == 2.0
    assert schedule_step_size(4, y, x) == 1.0
    eight = np.zeros(5)
    eight[0] = 8.0
    assert schedule_step_size(64, eight, np.zeros(5)) == 1.0


def test_schedule_step_size_domain():
    with pytest.raises(ValueError):
        schedule_step_size(0, np.ones(2), np.zeros(2))
    with pytest.raises(ValueError):
        schedule_step_size(3, np.ones(2), np.ones(2))


# ---------------------------------------------------------------------------
# initialize_adversarial


def default_config(**kwargs):
    return AttackConfig(**kwargs)


def test_init_uniform_draw_succeeds_fast_for_small_ball():
    # a radius-0.1 ball occupies a vanishing fraction of [0,1]^10, so the
    # first uniform draw lands outside it
    oracle = MeteredOracle(HypersphereOracle(np.full(10, 0.5), radius=0.1))
    rng = np.random.default_rng(0)
    point = initialize_adversarial(oracle, np.full(10, 0.5), default_config(), rng)
    assert np.linalg.norm(point - 0.5) > 0.1
    assert oracle.ledger.snapshot()["init"] == 1


def test_init_always_negative_exhausts_exactly_max_tries():
    w = np.zeros(4)
    w[0] = 1.0
    oracle = MeteredOracle(HalfspaceOracle(w, offset=-10.0))  # never satisfied
    rng = np.random.default_rng(1)
    with pytest.raises(InitFailedError, match="no adversarial point among 1000 uniform"):
        initialize_adversarial(oracle, np.full(4, 0.5), default_config(), rng)
    assert oracle.ledger.snapshot()["init"] == attack._MAX_INIT_TRIES == 1000


def test_init_targeted_uses_one_query():
    w = np.zeros(3)
    w[0] = 1.0
    oracle = MeteredOracle(HalfspaceOracle(w, offset=-0.5))
    image = np.array([0.9, 0.1, 0.1])
    cfg = default_config(init_target_image=image)
    point = initialize_adversarial(oracle, np.full(3, 0.2), cfg,
                                   np.random.default_rng(0))
    assert np.array_equal(point, image)
    assert oracle.ledger.total_queries == 1


def test_init_targeted_rejects_non_adversarial_image():
    w = np.zeros(3)
    w[0] = 1.0
    oracle = MeteredOracle(HalfspaceOracle(w, offset=-0.5))
    cfg = default_config(init_target_image=np.array([0.2, 0.1, 0.1]))
    with pytest.raises(InitFailedError):
        initialize_adversarial(oracle, np.full(3, 0.2), cfg,
                               np.random.default_rng(0))
    assert oracle.ledger.total_queries == 1


@pytest.mark.parametrize("image", [np.full(64, np.nan), np.array([0.9, np.inf, 0.1]),
                                   np.full((2, 3), 0.9), np.float64(0.9)],
                         ids=["nan", "inf", "2-d", "scalar"])
def test_config_rejects_a_start_image_that_is_not_a_finite_vector(image):
    with pytest.raises(ValueError, match=r"init_target_image must be a 1-D array of finite"):
        AttackConfig(init_target_image=image)


# ---------------------------------------------------------------------------
# bin_search


def straddling_halfspace(dim=6, seed=0):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=dim)
    x_adv = rng.uniform(size=dim)
    x_star = rng.uniform(size=dim)
    s0 = float(w @ x_adv)
    s1 = float(w @ x_star)
    # flip w if needed so x_adv sits on the positive side
    if s0 < s1:
        w, s0, s1 = -w, -s0, -s1
    # place the crossing at a generic (non-dyadic) blend so it never
    # coincides with a bisection probe point
    alpha_cross = 0.2 + 0.6 * rng.random()
    b = -(alpha_cross * s1 + (1.0 - alpha_cross) * s0)
    return w, b, x_adv, x_star


def test_bin_search_symmetric_crossing():
    w = np.zeros(4)
    w[0] = 1.0
    oracle = MeteredOracle(HalfspaceOracle(w, offset=-0.5))
    x_adv = np.array([0.9, 0.3, 0.3, 0.3])
    x_star = np.array([0.1, 0.3, 0.3, 0.3])
    result = bin_search(x_adv, x_star, oracle, tol=2.0 ** -10)
    assert abs(result.alpha - 0.5) <= 2.0 ** -10
    assert result.alpha_gap == 2.0 ** -10
    assert result.steps == 10
    assert oracle.ledger.snapshot()["binsearch"] == 10
    # the low end of the bracket stays adversarial
    assert float(w @ result.point) - 0.5 > 0.0


def test_bin_search_returns_low_end_blend_exactly():
    w, b, x_adv, x_star = straddling_halfspace(seed=5)
    oracle = MeteredOracle(HalfspaceOracle(w, b))
    result = bin_search(x_adv, x_star, oracle, tol=2.0 ** -12)
    expected = clip(result.alpha * x_star + (1.0 - result.alpha) * x_adv)
    assert np.array_equal(result.point, expected)


def test_bin_search_single_step_for_half_tolerance():
    w = np.zeros(2)
    w[0] = 1.0
    oracle = MeteredOracle(HalfspaceOracle(w, offset=-0.5))
    result = bin_search(np.array([0.9, 0.5]), np.array([0.1, 0.5]), oracle,
                        tol=0.5)
    assert result.steps == 1
    assert oracle.ledger.total_queries == 1
    assert result.alpha in (0.0, 0.5)


def test_bin_search_cost_is_ceil_log2():
    w = np.zeros(2)
    w[0] = 1.0
    for tol, expected in ((0.5, 1), (0.3, 2), (0.25, 2), (2.0 ** -7, 7),
                          (1e-3, 10), (2.0 ** -20, 20)):
        oracle = MeteredOracle(HalfspaceOracle(w, offset=-0.5))
        result = bin_search(np.array([0.9, 0.5]), np.array([0.1, 0.5]),
                            oracle, tol=tol)
        assert result.steps == expected == oracle.ledger.total_queries
        assert result.alpha_gap <= tol


@pytest.mark.parametrize("tol", [5.5e-309, 1e-320, 5e-324])
def test_bin_search_rejects_tolerance_whose_inverse_overflows(tol):
    oracle = MeteredOracle(HalfspaceOracle(np.array([1.0, 0.0]), offset=-0.5))
    with pytest.raises(ValueError, match=r"bisect_tol"):
        bin_search(np.array([0.9, 0.5]), np.array([0.1, 0.5]), oracle, tol=tol)
    assert oracle.ledger.total_queries == 0


def test_bin_search_smallest_tolerance_keeps_the_step_formula():
    oracle = MeteredOracle(HalfspaceOracle(np.array([1.0, 0.0]), offset=-0.5))
    tol = 2.0 ** -53
    result = bin_search(np.array([0.9, 0.5]), np.array([0.1, 0.5]), oracle, tol=tol)
    assert result.steps == math.ceil(math.log2(1.0 / tol)) == 53
    assert oracle.ledger.total_queries == 53


@pytest.mark.parametrize("eps", [0.0, 1e-17, 1e-15])
def test_bin_search_smallest_tolerance_is_reached_near_alpha_one(eps):
    # The boundary x = 0.1 + eps sits a hair from the original (alpha ~ 1),
    # where the float spacing of alpha is 2**-53: the bracket still ends <= tol.
    oracle = MeteredOracle(HalfspaceOracle(np.array([1.0, 0.0]), offset=-(0.1 + eps)))
    tol = 2.0 ** -53
    result = bin_search(np.array([0.9, 0.5]), np.array([0.1, 0.5]), oracle, tol=tol)
    assert result.steps == oracle.ledger.total_queries == 53
    assert 0.0 < result.alpha_gap <= tol
    assert result.alpha > 1.0 - 2.0 ** -40


def test_bin_search_rejects_tolerance_below_the_float_spacing_at_one():
    oracle = MeteredOracle(HalfspaceOracle(np.array([1.0, 0.0]), offset=-0.1))
    with pytest.raises(ValueError, match=r"bisect_tol must lie in \(0, 1\) and be at least"):
        bin_search(np.array([0.9, 0.5]), np.array([0.1, 0.5]), oracle, tol=1e-20)
    assert oracle.ledger.total_queries == 0


def test_bin_search_random_geometries_hit_analytic_crossing():
    for seed in range(30):
        w, b, x_adv, x_star = straddling_halfspace(seed=seed)
        alpha_true = ref_crossing_alpha(w, b, x_adv, x_star)
        oracle = MeteredOracle(HalfspaceOracle(w, b))
        result = bin_search(x_adv, x_star, oracle, tol=2.0 ** -20)
        assert abs(result.alpha - alpha_true) <= 2.0 ** -20
        assert oracle.ledger.total_queries == 20


def test_bin_search_barely_adversarial_endpoint():
    # the crossing sits a hair away from alpha = 0: the bracket still
    # shrinks the full ceil(log2(1/tol)) times and ends adversarial
    w = np.zeros(3)
    w[0] = 1.0
    oracle = MeteredOracle(HalfspaceOracle(w, offset=-0.5))
    x_adv = np.array([0.5 + 1e-12, 0.5, 0.5])
    x_star = np.array([0.1, 0.5, 0.5])
    result = bin_search(x_adv, x_star, oracle, tol=2.0 ** -20)
    assert oracle.ledger.total_queries == 20
    assert result.alpha <= 2.0 ** -20
    assert float(w @ result.point) - 0.5 > 0.0


def test_bin_search_domain_errors():
    oracle = MeteredOracle(HalfspaceOracle(np.ones(2), -0.5))
    good = np.array([0.9, 0.9])
    with pytest.raises(ValueError):
        bin_search(good, np.zeros(3), oracle, tol=0.01)
    for bad_tol in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            bin_search(good, np.zeros(2), oracle, tol=bad_tol)


# ---------------------------------------------------------------------------
# estimate_gradient


def test_estimate_two_probe_cancellation_identity():
    # with two Latin strata per dimension one probe falls on each side of
    # the plane, so the signed average is exactly (n_plus - n_minus) / 2
    w = np.zeros(4)
    w[0] = 1.0
    oracle = MeteredOracle(HalfspaceOracle(w, offset=-0.5))
    x = np.full(4, 0.5)  # exactly on the boundary
    for seed in (0, 1, 2, 3):
        est = estimate_gradient(oracle, x, n_samples=2, probe_step=0.01,
                                sampler_kind=LHS, seed=seed)
        batch = normalize_rows(lhs_normal(2, 4, substream_seed(seed, 0)))
        decisions = np.where(batch.rows[:, 0] > 0.0, 1.0, -1.0)
        expected = (decisions @ batch.rows) / 2.0
        assert np.array_equal(est.raw_mean, expected)
        assert est.agree_count == 1
        norm = np.linalg.norm(est.direction)
        assert abs(norm - 1.0) <= 1e-12


def test_estimate_all_positive_gives_plain_mean():
    oracle = MeteredOracle(HalfspaceOracle(np.ones(3), offset=10.0))  # always +1
    x = np.full(3, 0.5)
    est = estimate_gradient(oracle, x, n_samples=16, probe_step=0.01,
                            sampler_kind=SRS, seed=5)
    batch = normalize_rows(srs_normal(16, 3, substream_seed(5, 0)))
    expected = (np.ones(16) @ batch.rows) / 16.0
    assert np.array_equal(est.raw_mean, expected)
    assert est.agree_count == 16


def test_estimate_all_negative_gives_negated_mean():
    oracle = MeteredOracle(HalfspaceOracle(np.ones(3), offset=-10.0))  # always -1
    x = np.full(3, 0.5)
    est = estimate_gradient(oracle, x, n_samples=16, probe_step=0.01,
                            sampler_kind=SRS, seed=5)
    batch = normalize_rows(srs_normal(16, 3, substream_seed(5, 0)))
    expected = (-np.ones(16) @ batch.rows) / 16.0
    assert np.array_equal(est.raw_mean, expected)
    assert est.agree_count == 0


def test_estimate_queries_exactly_n_samples():
    oracle = MeteredOracle(HalfspaceOracle(np.ones(5), offset=-2.4))
    estimate_gradient(oracle, np.full(5, 0.48), n_samples=33, probe_step=1e-3,
                      sampler_kind=LHS, seed=0)
    assert oracle.ledger.snapshot() == {"init": 0, "binsearch": 0,
                                        "gradient": 33, "step": 0}


def test_estimate_accepts_boundary_point_wrapper():
    oracle = MeteredOracle(HalfspaceOracle(np.ones(4), offset=-2.0))
    x = np.full(4, 0.5)
    wrapped = BoundaryPoint(point=x, alpha=0.25, alpha_gap=0.01, steps=7)
    a = estimate_gradient(oracle, x, 8, 1e-3, LHS, seed=3)
    b = estimate_gradient(oracle, wrapped, 8, 1e-3, LHS, seed=3)
    assert np.array_equal(a.direction, b.direction)


def test_estimate_deterministic():
    oracle = MeteredOracle(HalfspaceOracle(np.ones(6), offset=-3.0))
    x = np.full(6, 0.5)
    a = estimate_gradient(oracle, x, 50, 1e-3, LHS, seed=11)
    b = estimate_gradient(oracle, x, 50, 1e-3, LHS, seed=11)
    assert np.array_equal(a.raw_mean, b.raw_mean)


def test_estimate_cosine_improves_with_sample_count():
    # probe averages align with the true normal as the batch grows
    rng = np.random.default_rng(42)
    dim = 50
    means = []
    for n in (10, 100, 1000):
        cosines = []
        for seed in range(50):
            w = rng.normal(size=dim)
            w /= np.linalg.norm(w)
            x = np.full(dim, 0.5)
            b = -float(w @ x)  # boundary through x
            oracle = MeteredOracle(HalfspaceOracle(w, b))
            est = estimate_gradient(oracle, x, n, 1e-3, LHS,
                                    seed=1000 * n + seed)
            cosines.append(float(est.direction @ true_gradient(oracle.oracle, x)))
        means.append(np.mean(cosines))
    assert means[0] < means[1] < means[2]
    assert means[2] > 0.9


def test_estimate_domain_errors():
    oracle = MeteredOracle(HalfspaceOracle(np.ones(3), -0.5))
    x = np.full(3, 0.5)
    with pytest.raises(ValueError):
        estimate_gradient(oracle, x, 0, 1e-3, LHS, seed=0)
    with pytest.raises(ValueError):
        estimate_gradient(oracle, x, 4, 0.0, LHS, seed=0)
    with pytest.raises(ValueError):
        estimate_gradient(oracle, x, 4, 1e-3, "sobol", seed=0)
    with pytest.raises(ValueError):
        estimate_gradient(oracle, np.ones(4), 4, 1e-3, LHS, seed=0)


# ---------------------------------------------------------------------------
# estimate_gradient's in-place normalize-and-probe pass, over row blocks for
# batches of samplers._SPLIT_ELEMENTS or more elements

BOUND = samplers._SPLIT_ELEMENTS
# Just below and at or above the bound; an odd column count; two columns.
SPLIT_SHAPES = [(256, BOUND // 256 - 1), (256, BOUND // 256), (150, BOUND // 150 + 1),
                (samplers._CHUNK_ELEMENTS + 7, 2)]
SAMPLER_FUNCTIONS = {LHS: lhs_normal, SRS: srs_normal}


class RecordingHalfspace(HalfspaceOracle):
    """A halfspace that keeps a copy of every probe batch it answers."""

    def __init__(self, normal, offset):
        super().__init__(normal, offset)
        self.batches = []

    def _decide_batch(self, X):
        self.batches.append(X.copy())
        return super()._decide_batch(X)


def large_batch_setup(dim, seed=0):
    """A point with coordinates on and near the box's faces, and a recording
    halfspace through it, so the probes straddle the plane and get clipped."""
    rng = np.random.default_rng(seed)
    x = rng.random(dim)
    x[::7] = 0.0
    x[3::7] = 1.0
    normal = rng.normal(size=dim)
    return x, RecordingHalfspace(normal, -float(normal @ x))


def reference_probes(kind, shape, x, probe_step, seed, attempt=0):
    """Rows divided by their np.linalg.norm, then clip(probe_step * rows + x)."""
    rows = SAMPLER_FUNCTIONS[kind](*shape, substream_seed(seed, attempt)).rows
    unit = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    return unit, np.clip(probe_step * unit + x, 0.0, 1.0)


# Below the split the same pass runs once, over all the rows.
@pytest.mark.parametrize("shape", [(16, 5), (150, 64), (229, 64)] + SPLIT_SHAPES)
@pytest.mark.parametrize("kind", [LHS, SRS])
def test_estimate_matches_normalize_then_probe_reference(shape, kind):
    n, dim = shape
    x, halfspace = large_batch_setup(dim)
    est = estimate_gradient(MeteredOracle(halfspace), x, n, 0.05, kind, seed=4)
    rows, probes = reference_probes(kind, shape, x, 0.05, seed=4)
    assert len(halfspace.batches) == 1
    assert halfspace.batches[0].tobytes() == probes.tobytes()
    decisions = HalfspaceOracle._decide_batch(halfspace, probes).astype(np.float64)
    assert 0 < est.agree_count < n
    assert est.raw_mean.tobytes() == ((decisions @ rows) / n).tobytes()


@pytest.mark.parametrize("shape", SPLIT_SHAPES)
def test_large_estimate_on_one_thread_is_the_same_and_starts_no_pool(monkeypatch, shape):
    n, dim = shape
    x, halfspace = large_batch_setup(dim, seed=1)
    want = estimate_gradient(MeteredOracle(halfspace), x, n, 0.05, LHS, seed=6)
    monkeypatch.setattr(samplers, "_THREADS", 1)
    monkeypatch.setattr(samplers, "_pool", lambda: pytest.fail("pool requested"))
    got = estimate_gradient(MeteredOracle(halfspace), x, n, 0.05, LHS, seed=6)
    assert halfspace.batches[1].tobytes() == halfspace.batches[0].tobytes()
    assert got.raw_mean.tobytes() == want.raw_mean.tobytes()


@pytest.mark.parametrize("kind", [LHS, SRS])
@pytest.mark.parametrize("row", [0, -1])
def test_large_estimate_redraws_a_batch_with_a_zero_row(monkeypatch, kind, row):
    # Row 0 falls in the first row block and row -1 in the last.
    shape = SPLIT_SHAPES[2]
    n, dim = shape
    sampler = SAMPLER_FUNCTIONS[kind]

    def zero_row_on_first_draw(n_samples, d, seed):
        batch = sampler(n_samples, d, seed)
        if seed == substream_seed(9, 0):
            batch.rows[row] = 0.0
        return batch

    monkeypatch.setitem(attack._SAMPLERS, kind, zero_row_on_first_draw)
    x, halfspace = large_batch_setup(dim, seed=2)
    oracle = MeteredOracle(halfspace)
    est = estimate_gradient(oracle, x, n, 0.05, kind, seed=9)
    rows, probes = reference_probes(kind, shape, x, 0.05, seed=9, attempt=1)
    assert oracle.ledger.snapshot()["gradient"] == n
    assert len(halfspace.batches) == 1
    assert halfspace.batches[0].tobytes() == probes.tobytes()
    decisions = HalfspaceOracle._decide_batch(halfspace, probes).astype(np.float64)
    assert est.raw_mean.tobytes() == ((decisions @ rows) / n).tobytes()


def test_large_estimate_worker_error_reaches_caller(monkeypatch):
    n, dim = SPLIT_SHAPES[2]
    real_normalize = samplers._normalize_in_place

    def fails_off_main_thread(*args):
        if threading.current_thread() is threading.main_thread():
            time.sleep(0.01)   # leave the other row block for the worker
        else:
            raise ValueError("raised on a worker thread")
        return real_normalize(*args)

    monkeypatch.setattr(samplers, "_normalize_in_place", fails_off_main_thread)
    monkeypatch.setattr(samplers, "_THREADS", 2)   # a worker even on one CPU
    x, halfspace = large_batch_setup(dim)
    with pytest.raises(ValueError, match="raised on a worker thread"):
        estimate_gradient(MeteredOracle(halfspace), x, n, 0.05, SRS, seed=0)
    assert halfspace.batches == []


@pytest.mark.parametrize("shape", [(16, 5), SPLIT_SHAPES[2]])
def test_estimate_rejects_an_empty_clip_range_before_querying(shape):
    n, dim = shape
    x, halfspace = large_batch_setup(dim)
    with pytest.raises(ValueError, match="lo < hi"):
        estimate_gradient(MeteredOracle(halfspace), x, n, 0.05, SRS, seed=0,
                          clip_low=0.5, clip_high=0.5)
    assert halfspace.batches == []


@pytest.mark.parametrize("shape", [(16, 5), (229, 64)] + SPLIT_SHAPES)
@pytest.mark.parametrize("kind", [LHS, SRS])
def test_estimate_in_a_buffer_scope_equals_one_without(monkeypatch, shape, kind):
    n, dim = shape
    x, halfspace = large_batch_setup(dim, seed=3)
    want = estimate_gradient(MeteredOracle(halfspace), x, n, 0.05, kind, seed=4)
    decide_batch, in_scratch = halfspace._decide_batch, []
    with samplers._buffer_scope(n, dim):
        scratch = samplers._local.buffers.scratch
        monkeypatch.setattr(halfspace, "_decide_batch", lambda X: (
            in_scratch.append(np.shares_memory(X, scratch)), decide_batch(X))[1])
        got = estimate_gradient(MeteredOracle(halfspace), x, n, 0.05, kind, seed=4)
    assert in_scratch == [True]
    assert halfspace.batches[1].tobytes() == halfspace.batches[0].tobytes()
    assert got.raw_mean.tobytes() == want.raw_mean.tobytes()
    assert got.direction.tobytes() == want.direction.tobytes()
    assert got.agree_count == want.agree_count


# ---------------------------------------------------------------------------
# step_forward


def fixed_direction(direction):
    direction = np.asarray(direction, dtype=np.float64)
    return type("E", (), {"direction": direction, "raw_mean": direction,
                          "agree_count": 1})()


def test_step_forward_full_step_accepted():
    w = np.zeros(3)
    w[0] = 1.0
    oracle = MeteredOracle(HalfspaceOracle(w, offset=-0.5))
    x = np.array([0.5, 0.4, 0.4])  # on the plane
    cand, retries = step_forward(x, fixed_direction([1.0, 0.0, 0.0]), 0.1,
                                 oracle, default_config())
    assert retries == 0
    assert cand.tolist() == [0.6, 0.4, 0.4]
    assert oracle.ledger.snapshot()["step"] == 1


def test_step_forward_halves_through_a_ball():
    # walking toward a ball's far side: long steps land inside (-1) and
    # halvings retreat until the candidate is back outside near x
    oracle = MeteredOracle(HypersphereOracle(np.array([0.5, 0.5]), radius=0.2))
    x = np.array([0.29, 0.5])  # outside, 0.21 from the center
    cand, retries = step_forward(x, fixed_direction([1.0, 0.0]), 0.32,
                                 oracle, default_config())
    assert retries == 6  # 0.32 halved to 0.005 before leaving the ball
    assert cand.tolist() == [0.295, 0.5]
    assert oracle.ledger.snapshot()["step"] == 7


def test_step_forward_exhausts_retries():
    # from the ball's center every halved step stays inside it
    oracle = MeteredOracle(HypersphereOracle(np.array([0.5, 0.5]), radius=0.2))
    x = np.array([0.5, 0.5])
    with pytest.raises(StepFailedError, match="through 30 halvings"):
        step_forward(x, fixed_direction([1.0, 0.0]), 0.1, oracle, default_config())
    # first try + 30 halvings
    assert oracle.ledger.snapshot()["step"] == attack._MAX_STEP_RETRIES + 1 == 31


def test_step_forward_clips_to_box_corner():
    w = np.zeros(2)
    w[0] = 1.0
    oracle = MeteredOracle(HalfspaceOracle(w, offset=-0.5))
    x = np.array([0.5, 0.5])
    cand, retries = step_forward(x, fixed_direction([1.0, 0.0]), 100.0,
                                 oracle, default_config())
    assert retries == 0
    assert cand.tolist() == [1.0, 0.5]


def test_step_forward_rejects_bad_step():
    oracle = MeteredOracle(HalfspaceOracle(np.ones(2), -0.5))
    with pytest.raises(ValueError):
        step_forward(np.zeros(2), fixed_direction([1.0, 0.0]), 0.0, oracle,
                     default_config())


# ---------------------------------------------------------------------------
# run_attack


def sphere_setup(dim=20, radius=0.5, seed=0):
    rng = np.random.default_rng(seed)
    center = 0.25 + 0.5 * rng.random(dim)
    return HypersphereOracle(center, radius=radius), center


def test_run_attack_converges_on_hypersphere():
    oracle, center = sphere_setup()
    cfg = AttackConfig(iterations=30, seed=3)
    point, trace = run_attack(oracle, center, cfg)
    assert trace.status == COMPLETED
    assert len(trace.rows) == 31  # initial projection + 30 iterations
    assert trace.final_distortion <= 0.55
    # returned point is adversarial and matches the best projected row
    probe = MeteredOracle(oracle)
    assert probe.decide(point, PHASE_INIT) == 1
    assert math.isclose(float(np.linalg.norm(point - center)),
                        min(r.distortion for r in trace.rows), rel_tol=0,
                        abs_tol=0.0)


def test_run_attack_trace_row_schema():
    oracle, center = sphere_setup(seed=4)
    cfg = AttackConfig(iterations=5, initial_samples=20, seed=1)
    _, trace = run_attack(oracle, center, cfg)
    row0 = trace.rows[0]
    assert (row0.t, row0.n_samples, row0.probe_step, row0.step_size) == (0, 0, 0.0, 0.0)
    assert row0.bisect_steps == math.ceil(math.log2(20.0 ** 1.5))
    for t, row in enumerate(trace.rows[1:], start=1):
        assert row.t == t
        assert row.n_samples == schedule_samples(t - 1, 20)
        assert row.probe_step > 0.0 and row.step_size > 0.0
        assert 0 <= row.agree_count <= row.n_samples


def test_run_attack_query_conservation():
    oracle, center = sphere_setup(seed=5)
    cfg = AttackConfig(iterations=8, initial_samples=25, seed=2)
    _, trace = run_attack(oracle, center, cfg)
    ledger = trace.ledger
    assert trace.rows[-1].queries == ledger.total_queries
    snap = ledger.snapshot()
    assert trace.rows[0].queries == snap["init"] + trace.rows[0].bisect_steps
    for prev, row in zip(trace.rows, trace.rows[1:]):
        spent = row.queries - prev.queries
        assert spent == row.n_samples + row.step_retries + 1 + row.bisect_steps


def test_run_attack_deterministic_bit_for_bit(tmp_path):
    oracle, center = sphere_setup(seed=6)
    cfg = AttackConfig(iterations=6, initial_samples=15, seed=9)
    point_a, trace_a = run_attack(oracle, center, cfg)
    point_b, trace_b = run_attack(oracle, center, cfg)
    assert np.array_equal(point_a, point_b)
    assert trace_a.rows == trace_b.rows
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_trace_csv(trace_a, path_a)
    emit_trace_csv(trace_b, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_run_attack_seed_changes_trajectory():
    oracle, center = sphere_setup(seed=7)
    _, trace_a = run_attack(oracle, center, AttackConfig(iterations=4, seed=0))
    _, trace_b = run_attack(oracle, center, AttackConfig(iterations=4, seed=1))
    assert trace_a.rows != trace_b.rows


def test_run_attack_budget_of_one_returns_raw_initialization():
    oracle, center = sphere_setup(seed=8)
    cfg = AttackConfig(iterations=30, max_queries=1, seed=4)
    point, trace = run_attack(oracle, center, cfg)
    assert trace.status == BUDGET_EXHAUSTED
    assert trace.ledger.total_queries == 1
    assert len(trace.rows) == 1
    assert trace.rows[0].queries == 1
    # the only point seen is the raw uniform draw, not boundary-projected
    probe = MeteredOracle(oracle)
    assert probe.decide(point, PHASE_INIT) == 1
    assert math.isclose(trace.rows[0].distortion,
                        float(np.linalg.norm(point - center)), abs_tol=0.0)


def test_run_attack_mid_run_budget_reports_best_distortion():
    oracle, center = sphere_setup(seed=9)
    cfg = AttackConfig(iterations=64, max_queries=500, seed=5)
    point, trace = run_attack(oracle, center, cfg)
    assert trace.status == BUDGET_EXHAUSTED
    assert trace.ledger.total_queries <= 500
    probe = MeteredOracle(oracle)
    assert probe.decide(point, PHASE_INIT) == 1
    returned_dist = float(np.linalg.norm(point - center))
    recorded = [r.distortion for r in trace.rows[:-1]]
    if recorded:
        assert returned_dist <= min(recorded) + 1e-12
    assert trace.rows[-1].queries == trace.ledger.total_queries


def test_run_attack_init_failure_carries_partial_trace():
    w = np.zeros(6)
    w[0] = 1.0
    oracle = HalfspaceOracle(w, offset=-10.0)  # nothing in the box satisfies it
    best, trace = run_attack(oracle, np.full(6, 0.5), AttackConfig(seed=0))
    assert best is None
    assert trace.status == INIT_FAILED
    assert trace.error == "no adversarial point among 1000 uniform draws"
    assert trace.rows == []
    assert trace.ledger.snapshot()["init"] == 1000


def test_run_attack_budget_exhausted_during_init_is_init_failure():
    w = np.zeros(6)
    w[0] = 1.0
    oracle = HalfspaceOracle(w, offset=-10.0)
    cfg = AttackConfig(max_queries=5, seed=0)
    best, trace = run_attack(oracle, np.full(6, 0.5), cfg)
    assert best is None
    assert trace.status == INIT_FAILED
    assert trace.error == "query budget exhausted before an adversarial point was found"
    assert trace.rows == []
    assert trace.ledger.total_queries == 5


def test_run_attack_returns_no_error_unless_the_run_failed():
    oracle, center = sphere_setup(seed=8)
    for max_queries, status in ((None, COMPLETED), (40, BUDGET_EXHAUSTED)):
        cfg = AttackConfig(iterations=3, initial_samples=10, max_queries=max_queries,
                           seed=1)
        _, trace = run_attack(oracle, center, cfg)
        assert trace.status == status
        assert trace.error is None


def test_run_attack_starts_from_target_image():
    oracle, center = sphere_setup(seed=10)
    start = np.clip(center + 0.9, 0.0, 1.0)  # far corner, outside the ball
    cfg = AttackConfig(iterations=10, init_target_image=start, seed=0)
    point, trace = run_attack(oracle, center, cfg)
    assert trace.status == COMPLETED
    assert trace.ledger.snapshot()["init"] == 1
    assert trace.final_distortion <= 0.6


def test_run_attack_two_consecutive_step_failures_end_the_walk():
    # scripted answers: init succeeds, the projection stays put, then two
    # iterations of (2 gradient probes, 31 step candidates all negative)
    failed_step = [-1] * 31    # the full step and 30 halvings
    answers = [1,              # init draw
               -1,             # single bisection probe (tol 0.5)
               1, -1,          # gradient batch, t=1
               *failed_step,   # t=1 -> failure
               1, -1,          # gradient batch, t=2
               *failed_step]   # t=2 -> second failure
    oracle = ScriptedOracle(3, answers)
    cfg = AttackConfig(initial_samples=2, iterations=5, bisect_tol=0.5, seed=0)
    point, trace = run_attack(oracle, np.full(3, 0.5), cfg)
    assert trace.status == COMPLETED
    assert [r.t for r in trace.rows] == [0, 1, 2]
    for row in trace.rows[1:]:
        assert row.step_retries == 30
        assert row.bisect_steps == 0
        assert row.distortion == trace.rows[0].distortion
    assert trace.ledger.total_queries == len(answers)
    assert trace.rows[-1].queries == len(answers)


def test_run_attack_oracle_failure_attaches_partial_trace():
    planted = OracleFailedError("pipe snapped")
    oracle = ScriptedOracle(3, [1], exhausted_error=planted)
    best, trace = run_attack(oracle, np.full(3, 0.5), AttackConfig(seed=0))
    assert trace.status == ORACLE_FAILED
    assert trace.error == "pipe snapped"
    assert trace.rows == []
    # the start point was found before the oracle failed
    assert best is not None
    # the garbled/failed call itself was spent before the error surfaced
    assert trace.ledger.snapshot() == {"init": 1, "binsearch": 1,
                                       "gradient": 0, "step": 0}


def test_run_attack_degenerate_estimate_is_oracle_failure():
    # In one dimension two LHS probes are -1 and +1; two +1 answers cancel,
    # so the estimate vanishes on its draw and again on its redraw.
    oracle = ScriptedOracle(1, [1, -1, 1, 1, 1, 1])
    cfg = AttackConfig(initial_samples=2, bisect_tol=0.5, seed=0)
    best, trace = run_attack(oracle, np.array([0.5]), cfg)
    assert trace.status == ORACLE_FAILED
    assert trace.error == "signed-probe average vanished twice; boundary locally symmetric"
    assert [r.t for r in trace.rows] == [0]
    assert trace.ledger.snapshot() == {"init": 1, "binsearch": 1,
                                       "gradient": 4, "step": 0}
    assert best is not None


def test_run_attack_one_dimensional_needs_explicit_tolerance():
    oracle = HalfspaceOracle(np.array([1.0]), offset=-0.5)
    with pytest.raises(ValueError, match="1-dimensional"):
        run_attack(oracle, np.array([0.2]), AttackConfig(seed=0))
    point, trace = run_attack(oracle, np.array([0.2]),
                              AttackConfig(seed=0, bisect_tol=1e-3,
                                           iterations=3))
    assert trace.status == COMPLETED


def test_run_attack_projection_distortion_bound():
    # after every re-projection the distortion can exceed the previous one
    # by at most the bracket tolerance times the stepped-out distance
    for seed in range(10):
        oracle, center = sphere_setup(seed=100 + seed)
        cfg = AttackConfig(iterations=30, seed=seed)
        _, trace = run_attack(oracle, center, cfg)
        tol = 20.0 ** -1.5
        for prev, row in zip(trace.rows, trace.rows[1:]):
            bound = prev.distortion + tol * (prev.distortion + row.step_size)
            assert row.distortion <= bound + 1e-9


def test_run_attack_strictly_descends_while_off_optimum():
    # a sphere centered away from the original forces a genuine boundary
    # walk; while the walk is still above its noise floor nearly every
    # iteration strictly shrinks the distortion
    total = strict = 0
    for seed in range(10):
        center = np.full(20, 0.5)
        center[0] = 0.8
        x_star = np.full(20, 0.5)
        oracle = HypersphereOracle(center, radius=0.45)
        _, trace = run_attack(oracle, x_star,
                              AttackConfig(iterations=10, seed=seed))
        assert trace.status == COMPLETED
        for prev, row in zip(trace.rows, trace.rows[1:]):
            total += 1
            strict += row.distortion < prev.distortion
    assert strict >= 0.9 * total


def test_run_attack_paired_sampler_comparison_on_halfspace():
    rng = np.random.default_rng(12345)
    dim = 50
    w = rng.normal(size=dim)
    w /= np.linalg.norm(w)
    x_star = np.clip(0.5 + 0.1 * rng.normal(size=dim), 0.0, 1.0)
    b = -float(w @ x_star) - 0.3  # true minimal distortion is 0.3
    finals = {LHS: [], SRS: []}
    for pair in range(50):
        for kind in (LHS, SRS):
            cfg = AttackConfig(initial_samples=30, iterations=20,
                               sampler_kind=kind, seed=pair)
            oracle = HalfspaceOracle(w, b)
            _, trace = run_attack(oracle, x_star, cfg)
            assert trace.status == COMPLETED
            finals[kind].append(trace.final_distortion)
    assert np.median(finals[LHS]) <= np.median(finals[SRS])
    # both walks actually approach the analytic optimum
    assert np.median(finals[LHS]) < 0.33


def looped_decide_batch(self, X, phase):
    """The reference for batched probes: one metered query per row."""
    return np.array([self.decide(x, phase) for x in X], dtype=np.int64)


def batch_reference_oracle(kind, mlp_fixture_path):
    rng = np.random.default_rng(11)
    if kind == "mlp":
        original = rng.random(64)
        return MlpOracle(load_mlp(mlp_fixture_path), original), original
    if kind == "hypersphere":
        return sphere_setup(dim=48, seed=12)
    normal = rng.normal(size=32)
    original = rng.random(32)
    return HalfspaceOracle(normal, -float(normal @ original) - 0.2), original


@pytest.mark.parametrize("kind", ["mlp", "hypersphere", "halfspace"])
def test_run_attack_batched_probes_match_one_query_at_a_time(
        kind, mlp_fixture_path, monkeypatch):
    oracle, original = batch_reference_oracle(kind, mlp_fixture_path)

    def run(cfg, looped):
        with monkeypatch.context() as patch:
            if looped:
                patch.setattr(MeteredOracle, "decide_batch", looped_decide_batch)
            return run_attack(oracle, original, cfg)

    for seed in (0, 1, 2):
        for sampler in (LHS, SRS):
            cfg = AttackConfig(iterations=8, initial_samples=40, seed=seed,
                               sampler_kind=sampler)
            _, full = run(cfg, looped=True)
            assert full.status == COMPLETED
            # a cap that falls inside iteration 4's probe batch
            cap = full.rows[3].queries + full.rows[4].n_samples // 2
            for run_cfg in (cfg, dataclasses.replace(cfg, max_queries=cap)):
                point_ref, ref = run(run_cfg, looped=True)
                point, got = run(run_cfg, looped=False)
                assert got.rows == ref.rows
                assert got.status == ref.status
                assert got.ledger.snapshot() == ref.ledger.snapshot()
                assert np.array_equal(point, point_ref)
            assert got.status == BUDGET_EXHAUSTED
            assert got.ledger.total_queries == cap


def test_attack_config_validation():
    with pytest.raises(ValueError):
        AttackConfig(initial_samples=0)
    with pytest.raises(ValueError):
        AttackConfig(iterations=0)
    with pytest.raises(ValueError):
        AttackConfig(bisect_tol=1.5)
    with pytest.raises(ValueError):
        AttackConfig(max_queries=0)
    with pytest.raises(ValueError):
        AttackConfig(sampler_kind="sobol")
    with pytest.raises(ValueError):
        AttackConfig(clip_low=1.0, clip_high=0.0)


@pytest.mark.parametrize("box", [
    {"clip_low": -math.inf, "clip_high": math.inf},
    {"clip_high": math.inf},
    {"clip_low": math.nan},
    {"clip_low": -1e308, "clip_high": 1e308},
    {"clip_low": np.float64(-1e308), "clip_high": np.float64(1e308)},
])
def test_attack_config_rejects_non_finite_or_overflowing_box(box):
    with pytest.raises(ValueError, match=r"clip_low, clip_high and clip_high - clip_low must be finite"):
        AttackConfig(**box)


def test_clip_box_limit_depends_on_the_dimension():
    # The squared diagonal dim * width**2 may reach 2**1023 and no further.
    config = AttackConfig(clip_low=0.0, clip_high=2.0 ** 511)
    config.check_dim(2)
    for dim in (3, 64):
        with pytest.raises(ValueError, match=r"too wide for dimension %d" % dim):
            config.check_dim(dim)
    AttackConfig(clip_high=1e150).check_dim(3072)


def test_run_attack_rejects_a_box_too_wide_before_any_query():
    class Unasked(DecisionOracle):
        def _decide(self, x):
            raise AssertionError("the oracle was queried")

    config = AttackConfig(clip_low=0.0, clip_high=1e160, max_queries=500)
    with pytest.raises(ValueError, match=r"clip box width 1e\+160 is too wide for dimension 3"):
        run_attack(Unasked(3), np.zeros(3), config)


def test_attack_config_bisect_tol_limit():
    assert AttackConfig(bisect_tol=2.0 ** -53).bisect_tol == 2.0 ** -53
    for tol in (math.nextafter(2.0 ** -53, 0.0), 1e-20, 5.6e-309, 1e-320, 0.0, 1.0, math.nan):
        with pytest.raises(ValueError, match=r"bisect_tol must lie in \(0, 1\)"):
            AttackConfig(bisect_tol=tol)


def test_attack_config_rejects_negative_seed():
    with pytest.raises(ValueError, match=r"seed must be >= 0"):
        AttackConfig(seed=-4)


def test_distance_helper_agrees_with_reference():
    rng = np.random.default_rng(0)
    x = rng.uniform(size=30)
    y = rng.uniform(size=30)
    d = schedule_probe_step(x, y, 30) * 30  # recovers the raw distance
    assert abs(d - ref_distance(x, y)) <= 1e-12 * max(1.0, d)


# ---------------------------------------------------------------------------
# run_attack's buffer scope


def test_run_attack_enters_one_scope_and_leaves_none(monkeypatch):
    oracle, center = sphere_setup(seed=4)
    cfg = AttackConfig(iterations=3, initial_samples=10, seed=1)
    real, seen = attack.estimate_gradient, []

    def spy(*args, **kwargs):
        seen.append(samplers._local.buffers)
        return real(*args, **kwargs)

    monkeypatch.setattr(attack, "estimate_gradient", spy)
    _, trace = run_attack(oracle, center, cfg)
    assert trace.status == COMPLETED and len(seen) == 3
    assert all(buffers is seen[0] for buffers in seen)
    assert (seen[0].rows, seen[0].dim) == (schedule_samples(2, 10), 20)
    assert getattr(samplers._local, "buffers", None) is None

    def fails(*args, **kwargs):
        raise RuntimeError("estimate failed")

    monkeypatch.setattr(attack, "estimate_gradient", fails)
    with pytest.raises(RuntimeError, match="estimate failed"):
        run_attack(oracle, center, cfg)
    assert getattr(samplers._local, "buffers", None) is None


@pytest.mark.parametrize("kind", [LHS, SRS])
def test_every_batch_of_a_run_at_d3072_shares_one_buffer(monkeypatch, kind):
    oracle, center = sphere_setup(dim=3072, seed=7)
    sampler, rows = SAMPLER_FUNCTIONS[kind], []

    def recorded(n_samples, dim, seed):
        batch = sampler(n_samples, dim, seed)
        rows.append(batch.rows)
        return batch

    monkeypatch.setitem(attack._SAMPLERS, kind, recorded)
    cfg = AttackConfig(iterations=4, initial_samples=30, sampler_kind=kind, seed=1)
    _, trace = run_attack(oracle, center, cfg)
    assert trace.status == COMPLETED and len(rows) == 4
    assert [len(r) for r in rows] == [schedule_samples(t, 30) for t in range(4)]
    assert all(np.shares_memory(r, rows[0]) for r in rows[1:])
