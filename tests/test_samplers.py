"""Tests for the noise-vector samplers and the normal quantile transform."""

import os
import select
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from scipy.special import ndtri

from lhsattack import samplers
from lhsattack.errors import DegenerateSampleError
from lhsattack.samplers import (
    LHS,
    SRS,
    SampleBatch,
    batch_discrepancy,
    inverse_normal_cdf,
    lhs_normal,
    normal_cdf,
    normalize_rows,
    open_unit,
    srs_normal,
)

from reference import (
    ref_inverse_normal_cdf,
    ref_ks_statistic,
    ref_lhs_normal,
    ref_normal_cdf,
    ref_open_unit,
)


# ---------------------------------------------------------------------------
# inverse_normal_cdf


def test_icdf_median_is_zero():
    assert inverse_normal_cdf(0.5) == 0.0


def test_icdf_matches_independent_bisection_at_0975():
    expected = ref_inverse_normal_cdf(0.975)
    assert abs(inverse_normal_cdf(0.975) - expected) <= 1e-9
    # magnitude guard against both implementations drifting together
    assert abs(expected - 1.9599639845400545) < 1e-12


def test_icdf_matches_independent_bisection_on_spread_grid():
    # Direct z-space comparison is meaningful only where the reference
    # CDF's ~1e-14 absolute error is not amplified by a tiny density;
    # beyond +-3.7 sigma the tails are covered in probability space below.
    grid = np.array([1e-4, 0.02, 0.2, 0.5, 0.8, 0.98, 1 - 1e-4])
    for p in grid:
        assert abs(inverse_normal_cdf(float(p)) - ref_inverse_normal_cdf(float(p))) <= 1e-9


def test_icdf_far_tails_roundtrip_in_probability_space():
    ps = np.array([1e-6, 1e-5, 1 - 1e-5, 1 - 1e-6])
    zs = inverse_normal_cdf(ps)
    assert np.max(np.abs(ref_normal_cdf(zs) - ps)) <= 1e-12


def test_icdf_antisymmetry():
    ps = np.linspace(0.01, 0.99, 99)
    left = inverse_normal_cdf(ps)
    right = inverse_normal_cdf(1.0 - ps)
    assert np.max(np.abs(left + right)) <= 1e-9


def test_icdf_roundtrip_through_cdf():
    ps = np.linspace(0.001, 0.999, 1997)
    zs = inverse_normal_cdf(ps)
    assert np.max(np.abs(normal_cdf(zs) - ps)) <= 1e-9
    assert np.max(np.abs(ref_normal_cdf(zs) - ps)) <= 1e-9


def test_icdf_vectorized_matches_scalar():
    ps = np.array([0.01, 0.3, 0.5, 0.77, 0.999])
    vec = inverse_normal_cdf(ps)
    for i, p in enumerate(ps):
        assert vec[i] == inverse_normal_cdf(float(p))


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.25, 1.25, float("nan"), float("inf"),
                                 float("-inf")])
def test_icdf_domain_errors(bad):
    with pytest.raises(ValueError):
        inverse_normal_cdf(bad)
    with pytest.raises(ValueError):
        inverse_normal_cdf(np.array([0.5, bad]))


def test_cdf_known_values():
    assert normal_cdf(0.0) == 0.5
    assert abs(normal_cdf(1.9599639845400545) - 0.975) <= 1e-12
    assert abs(normal_cdf(-1.0) + normal_cdf(1.0) - 1.0) <= 1e-15


# ---------------------------------------------------------------------------
# lhs_normal


def assert_latin(batch: SampleBatch) -> None:
    """Latin property: each stratum occupied exactly once per dimension."""
    n = batch.n_samples
    assert batch.stratum_index is not None
    assert batch.stratum_index.shape == batch.rows.shape
    for j in range(batch.dim):
        assert sorted(batch.stratum_index[:, j].tolist()) == list(range(n))


def assert_within_strata(batch: SampleBatch) -> None:
    """Each value lies strictly inside its stratum's quantile interval."""
    n = batch.n_samples
    edges = np.concatenate(
        [[-np.inf], inverse_normal_cdf(np.arange(1, n) / n) if n > 1 else [],
         [np.inf]])
    lower = edges[batch.stratum_index]
    upper = edges[batch.stratum_index + 1]
    assert np.all(batch.rows > lower)
    assert np.all(batch.rows < upper)


def test_lhs_single_sample():
    batch = lhs_normal(1, 1, seed=7)
    assert batch.rows.shape == (1, 1)
    assert np.isfinite(batch.rows).all()
    assert batch.stratum_index.tolist() == [[0]]
    assert batch.sampler_kind == LHS


def test_lhs_every_stratum_once_m4_d2():
    batch = lhs_normal(4, 2, seed=3)
    for j in range(2):
        assert set(batch.stratum_index[:, j].tolist()) == {0, 1, 2, 3}


def test_lhs_latin_and_containment_small_grid():
    for seed, (n, d) in enumerate([(1, 1), (2, 2), (4, 2), (8, 3), (100, 5)]):
        batch = lhs_normal(n, d, seed=seed)
        assert_latin(batch)
        assert_within_strata(batch)


def test_lhs_deterministic():
    a = lhs_normal(50, 7, seed=123)
    b = lhs_normal(50, 7, seed=123)
    assert np.array_equal(a.rows, b.rows)
    assert np.array_equal(a.stratum_index, b.stratum_index)
    c = lhs_normal(50, 7, seed=124)
    assert not np.array_equal(a.rows, c.rows)


def test_lhs_domain_errors():
    with pytest.raises(ValueError):
        lhs_normal(0, 3, seed=0)
    with pytest.raises(ValueError):
        lhs_normal(3, 0, seed=0)


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (7, 1), (2, 3), (229, 64),
                                   (150, 3072)])
def test_lhs_matches_double_argsort_reference_bit_for_bit(shape):
    for seed in (0, 1, 17, 4242):
        batch = lhs_normal(*shape, seed=seed)
        rows, strata = ref_lhs_normal(*shape, seed)
        assert batch.rows.dtype == rows.dtype
        assert batch.rows.tobytes() == rows.tobytes()
        assert batch.stratum_index.dtype == strata.dtype
        assert np.array_equal(batch.stratum_index, strata)


def test_lhs_column_ranks_break_ties_like_double_argsort():
    rng = np.random.default_rng(5)
    for n, d in [(2, 3), (9, 4), (150, 40)]:
        base = rng.integers(0, 3, size=(n, d)) / 4.0 + 0.125   # many ties
        want = np.argsort(np.argsort(base, axis=0), axis=0)
        assert np.array_equal(samplers._column_ranks(base), want)


@pytest.mark.parametrize("n", [2, 100, 150, 229])
def test_lhs_top_stratum_jitter_next_to_one_stays_finite(monkeypatch, n):
    # (n - 1 + jitter) / n rounds to exactly 1.0 once the jitter is within
    # 2^-47 of 1, where the quantile is infinite.
    monkeypatch.setattr(samplers, "open_unit",
                        lambda rng, shape, out=None: np.full(shape, 1.0 - 2.0 ** -53))
    assert (n - 1 + (1.0 - 2.0 ** -53)) / n == 1.0
    batch = lhs_normal(n, 3, seed=0)
    assert np.isfinite(batch.rows).all()
    assert_latin(batch)
    top = batch.rows[batch.stratum_index == n - 1]
    assert (top == inverse_normal_cdf(np.nextafter(1.0, 0.0))).all()


def test_lhs_beats_srs_on_mean_magnitude():
    # Column means of an LHS batch concentrate much harder around zero
    # than the independent baseline; compare coupled pairs seed by seed.
    wins = 0
    trials = 100
    for seed in range(trials):
        lhs = lhs_normal(100, 50, seed=seed)
        srs = srs_normal(100, 50, seed=seed)
        lhs_stat = np.abs(lhs.rows.mean(axis=0)).mean()
        srs_stat = np.abs(srs.rows.mean(axis=0)).mean()
        wins += lhs_stat < srs_stat
    assert wins >= 95


# ---------------------------------------------------------------------------
# srs_normal


def test_srs_shape_and_determinism():
    a = srs_normal(20, 3, seed=5)
    assert a.rows.shape == (20, 3)
    assert a.stratum_index is None
    assert a.sampler_kind == SRS
    b = srs_normal(20, 3, seed=5)
    assert np.array_equal(a.rows, b.rows)


def test_srs_moments_m10000():
    batch = srs_normal(10000, 1, seed=11)
    assert abs(batch.rows.mean()) < 0.05
    assert abs(batch.rows.var() - 1.0) < 0.05


class ZeroingGenerator:
    """``random`` of a real generator, with exact zeros in its first three
    draws: a third of the first array, then every re-drawn value twice."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = 0

    def random(self, shape, out=None):
        u = self._rng.random(shape, out=out)
        self.calls += 1
        if self.calls == 1:
            u.flat[::3] = 0.0
        elif self.calls <= 3:
            u[:] = 0.0
        return u


def test_open_unit_redraws_exact_zeros_like_reference():
    rng = ZeroingGenerator(3)
    got = open_unit(rng, (7, 5))
    want = ref_open_unit(ZeroingGenerator(3), (7, 5))
    assert rng.calls == 4
    assert got.tobytes() == want.tobytes()
    assert (got > 0.0).all()


def test_open_unit_of_an_empty_shape_is_empty():
    u = open_unit(np.random.default_rng(0), (0, 3))
    assert u.shape == (0, 3)
    assert u.dtype == np.float64


def test_srs_domain_errors():
    with pytest.raises(ValueError):
        srs_normal(0, 1, seed=0)
    with pytest.raises(ValueError):
        srs_normal(1, 0, seed=0)


# ---------------------------------------------------------------------------
# Batches of _SPLIT_ELEMENTS or more: row blocks and column chunks on threads

BOUND = samplers._SPLIT_ELEMENTS
# Just below and at or above the bound; an odd column count; more rows than
# one chunk holds.
SPLIT_SHAPES = [(256, BOUND // 256 - 1), (256, BOUND // 256), (150, BOUND // 150 + 1),
                (samplers._CHUNK_ELEMENTS + 7, 2)]


@pytest.mark.parametrize("shape", SPLIT_SHAPES)
def test_split_lhs_matches_reference_bit_for_bit(shape):
    for seed in (0, 4242):
        batch = lhs_normal(*shape, seed=seed)
        rows, strata = ref_lhs_normal(*shape, seed)
        assert batch.rows.tobytes() == rows.tobytes()
        assert batch.stratum_index.dtype == strata.dtype
        assert np.array_equal(batch.stratum_index, strata)


@pytest.mark.parametrize("shape", SPLIT_SHAPES)
def test_split_srs_matches_reference_bit_for_bit(shape):
    for seed in (0, 4242):
        base = ref_open_unit(np.random.default_rng(seed), shape)
        assert srs_normal(*shape, seed=seed).rows.tobytes() == ndtri(base).tobytes()


@pytest.mark.parametrize("shape", SPLIT_SHAPES)
def test_one_thread_works_the_whole_batch_in_one_call(monkeypatch, shape):
    monkeypatch.setattr(samplers, "_THREADS", 1)
    monkeypatch.setattr(samplers, "_pool", lambda: pytest.fail("pool requested"))
    calls = []

    def counted(axis, runner):
        def run(work, n_samples, dim):
            def once(a, b):
                on_main = threading.current_thread() is threading.main_thread()
                calls.append((axis, a, b, on_main))
                work(a, b)
            runner(once, n_samples, dim)
        return run

    monkeypatch.setattr(samplers, "_by_columns", counted("columns", samplers._by_columns))
    monkeypatch.setattr(samplers, "_by_rows", counted("rows", samplers._by_rows))
    rows, strata = ref_lhs_normal(*shape, 3)
    batch = lhs_normal(*shape, seed=3)
    assert batch.rows.tobytes() == rows.tobytes()
    assert np.array_equal(batch.stratum_index, strata)
    assert calls == [("columns", 0, shape[1], True)]
    calls.clear()
    base = ref_open_unit(np.random.default_rng(3), shape)
    assert srs_normal(*shape, seed=3).rows.tobytes() == ndtri(base).tobytes()
    assert calls == [("rows", 0, shape[0], True)]


def planted_zero_bits(k, seed=0):
    """A PCG64 whose draw number ``k`` (from 0) is exactly 0.0.

    The generator outputs the xor of the high and low halves of its
    128-bit state, rotated, so a state with equal halves outputs 0. Set
    that state and step back ``k + 1`` draws; the stream's increment stays
    the seed's.
    """
    bits = np.random.PCG64(seed)
    state = bits.state
    half = state["state"]["state"] & ((1 << 64) - 1)
    state["state"]["state"] = (half << 64) | half
    bits.state = state
    bits.advance(2 ** 128 - k - 1)
    return bits


def planted_default_rng(k):
    return lambda seed: np.random.Generator(planted_zero_bits(k, seed))


def zero_positions(shape):
    """A cell in the first row block and one in the second, in C order."""
    n, d = shape
    return [d // 3, (n - 1) * d + d // 2]


def test_planted_zero_bits_draws_one_exact_zero():
    for k in (0, 5, 4321):
        u = np.random.Generator(planted_zero_bits(k, 7)).random(5000)
        assert np.flatnonzero(u == 0.0).tolist() == [k]


@pytest.mark.parametrize("shape", SPLIT_SHAPES)
def test_split_draw_matches_reference_with_a_planted_zero(shape):
    for k in zero_positions(shape):
        rng = np.random.Generator(planted_zero_bits(k, 11))
        want_rng = np.random.Generator(planted_zero_bits(k, 11))
        got = samplers.open_unit(rng, shape)
        want = ref_open_unit(want_rng, shape)
        assert got.tobytes() == want.tobytes()
        assert (got > 0.0).all()
        # The re-draw came from the end of the stream, and the caller's
        # generator is left where the reference's is.
        assert rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("shape", SPLIT_SHAPES)
def test_split_lhs_with_a_zero_in_its_base_moves_the_jitter_start(monkeypatch, shape):
    # The zero's re-draw takes one value, so the jitter starts one draw on.
    for k in zero_positions(shape):
        monkeypatch.setattr(np.random, "default_rng", planted_default_rng(k))
        rows, strata = ref_lhs_normal(*shape, 5)
        batch = lhs_normal(*shape, seed=5)
        assert batch.rows.tobytes() == rows.tobytes()
        assert np.array_equal(batch.stratum_index, strata)


@pytest.mark.parametrize("shape", SPLIT_SHAPES)
def test_split_srs_with_a_planted_zero_matches_reference(monkeypatch, shape):
    for k in zero_positions(shape):
        monkeypatch.setattr(np.random, "default_rng", planted_default_rng(k))
        base = ref_open_unit(np.random.default_rng(5), shape)
        assert srs_normal(*shape, seed=5).rows.tobytes() == ndtri(base).tobytes()


def test_split_lhs_breaks_ties_like_double_argsort(monkeypatch):
    n, d = 150, BOUND // 150 + 1
    rng = np.random.default_rng(5)
    base = rng.integers(0, 3, size=(n, d)) / 4.0 + 0.125   # many ties
    jitter = ref_open_unit(rng, (n, d))
    draws = iter([base.copy(), jitter.copy()])
    monkeypatch.setattr(samplers, "open_unit", lambda rng, shape, out=None: next(draws))
    batch = lhs_normal(n, d, seed=0)
    want = np.argsort(np.argsort(base, axis=0), axis=0)
    assert np.array_equal(batch.stratum_index, want)
    assert batch.rows.tobytes() == ndtri((want + jitter) / n).tobytes()


def test_small_batches_start_no_thread(monkeypatch):
    monkeypatch.setattr(samplers, "_pool", lambda: pytest.fail("pool requested"))
    before = threading.active_count()
    for n in (100, 229):
        lhs_normal(n, 64, seed=1)
        srs_normal(n, 64, seed=1)
    assert threading.active_count() == before


@pytest.mark.parametrize("sampler", [lhs_normal, srs_normal])
@pytest.mark.parametrize("column", [0, -1])
def test_split_chunk_error_reaches_caller(monkeypatch, sampler, column):
    # A zero uniform in one column fails the quantile's domain check in
    # the chunk holding that column.
    def zeroed(rng, shape, out=None):
        u = open_unit(rng, shape, out)
        u[:, column] = 0.0
        return u

    monkeypatch.setattr(samplers, "open_unit", zeroed)
    with pytest.raises(ValueError, match=r"strictly inside \(0, 1\)"):
        sampler(150, BOUND // 150 + 1, seed=3)


@pytest.mark.parametrize("sampler", [lhs_normal, srs_normal])
def test_worker_thread_error_in_the_row_block_draw_reaches_caller(monkeypatch, sampler):
    generator_at = samplers._generator_at

    def fails_off_main_thread(state, offset):
        if threading.current_thread() is threading.main_thread():
            time.sleep(0.01)   # leave the other block for the worker
        else:
            raise ValueError("raised on a worker thread")
        return generator_at(state, offset)

    monkeypatch.setattr(samplers, "_generator_at", fails_off_main_thread)
    monkeypatch.setattr(samplers, "_THREADS", 2)   # a worker even on one CPU
    with pytest.raises(ValueError, match="raised on a worker thread"):
        sampler(150, BOUND // 150 + 1, seed=3)


@pytest.mark.parametrize("sampler", [lhs_normal, srs_normal])
def test_worker_thread_error_reaches_caller(monkeypatch, sampler):
    quantile = samplers._quantile_in_place

    def fails_off_main_thread(p):
        if threading.current_thread() is threading.main_thread():
            time.sleep(0.01)   # leave chunks for the worker
        else:
            raise ValueError("raised on a worker thread")
        quantile(p)

    monkeypatch.setattr(samplers, "_quantile_in_place", fails_off_main_thread)
    monkeypatch.setattr(samplers, "_THREADS", 2)   # a worker even on one CPU
    with pytest.raises(ValueError, match="raised on a worker thread"):
        sampler(150, BOUND // 150 + 1, seed=3)


def test_concurrent_callers_share_the_pool():
    # More calling threads than cores, switching as often as possible:
    # every batch must still equal its one-caller draw.
    shape = (150, BOUND // 150 + 1)
    want = {seed: lhs_normal(*shape, seed=seed).rows.tobytes() for seed in range(6)}
    got = {}

    def draw(seed):
        got[seed] = lhs_normal(*shape, seed=seed).rows.tobytes()

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(seed,)) for seed in want]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert got == want


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_draws_the_same_large_batch():
    shape = (150, BOUND // 150 + 1)
    want = lhs_normal(*shape, seed=9).rows.tobytes()   # starts the pool
    read_end, write_end = os.pipe()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            data = lhs_normal(*shape, seed=9).rows.tobytes()
            with os.fdopen(write_end, "wb") as fh:
                fh.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    got = bytearray()
    try:
        while select.select([read_end], [], [], 60.0)[0]:
            chunk = os.read(read_end, 1 << 16)
            if not chunk:
                break
            got += chunk
        else:
            os.kill(pid, 9)
    finally:
        os.close(read_end)
        _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert bytes(got) == want


# ---------------------------------------------------------------------------
# normalize_rows


def test_normalize_three_four_five():
    batch = SampleBatch(rows=np.array([[3.0, 4.0]]), sampler_kind=SRS, seed=0)
    unit = normalize_rows(batch)
    assert unit.rows[0, 0] == 0.6
    assert unit.rows[0, 1] == 0.8


def test_normalize_unit_norms_and_idempotence():
    batch = lhs_normal(64, 9, seed=2)
    unit = normalize_rows(batch)
    norms = np.linalg.norm(unit.rows, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12
    twice = normalize_rows(unit)
    assert np.max(np.abs(twice.rows - unit.rows)) <= 1e-12
    assert np.array_equal(unit.stratum_index, batch.stratum_index)
    assert unit.sampler_kind == batch.sampler_kind and unit.seed == batch.seed


def test_normalize_zero_row_rejected():
    rows = np.array([[1.0, 2.0], [0.0, 0.0]])
    batch = SampleBatch(rows=rows, sampler_kind=SRS, seed=0)
    with pytest.raises(DegenerateSampleError):
        normalize_rows(batch)


# ---------------------------------------------------------------------------
# batch_discrepancy


def test_discrepancy_stratum_midpoints():
    for n in (2, 5, 40):
        ps = (np.arange(n) + 0.5) / n
        rows = inverse_normal_cdf(ps)[:, None]
        batch = SampleBatch(rows=rows, sampler_kind=LHS, seed=0)
        assert abs(batch_discrepancy(batch) - 0.5 / n) <= 1e-12


def test_discrepancy_two_point_quartiles():
    rows = inverse_normal_cdf(np.array([0.25, 0.75]))[:, None]
    batch = SampleBatch(rows=rows, sampler_kind=SRS, seed=0)
    assert abs(batch_discrepancy(batch) - 0.25) <= 1e-12


def test_discrepancy_matches_independent_ks():
    batch = srs_normal(500, 4, seed=9)
    per_dim = [ref_ks_statistic(batch.rows[:, j]) for j in range(4)]
    assert abs(batch_discrepancy(batch) - max(per_dim)) <= 1e-12


def test_discrepancy_needs_two_samples():
    batch = SampleBatch(rows=np.zeros((1, 3)) + 0.5, sampler_kind=SRS, seed=0)
    with pytest.raises(ValueError):
        batch_discrepancy(batch)


def test_discrepancy_paired_dominance():
    wins = 0
    trials = 100
    for seed in range(trials):
        lhs = lhs_normal(100, 20, seed=seed)
        srs = srs_normal(100, 20, seed=seed)
        wins += batch_discrepancy(lhs) < batch_discrepancy(srs)
    assert wins >= 95


# ---------------------------------------------------------------------------
# Buffer scopes: the batches of a run reuse one set of arrays


def scope_buffers():
    """The buffers of this thread's innermost scope, or None."""
    return getattr(samplers._local, "buffers", None)


def shares_any(arr, buffers):
    return any(np.shares_memory(arr, buf)
               for buf in (buffers.values, buffers.strata, buffers.scratch))


@pytest.mark.parametrize("shape", [(16, 5), (229, 64)] + SPLIT_SHAPES)
@pytest.mark.parametrize("sampler", [lhs_normal, srs_normal])
def test_batches_in_a_scope_equal_new_ones_bit_for_bit(shape, sampler):
    n, d = shape
    for rows in (n, n + 3):   # a scope that fits exactly, and a larger one
        for seed in (0, 4242):
            want = sampler(n, d, seed)
            with samplers._buffer_scope(rows, d):
                buffers = scope_buffers()
                got = sampler(n, d, seed)
                assert np.shares_memory(got.rows, buffers.values)
                assert got.rows.tobytes() == want.rows.tobytes()
                if want.stratum_index is None:
                    assert got.stratum_index is None
                else:
                    assert np.shares_memory(got.stratum_index, buffers.strata)
                    assert got.stratum_index.strides == want.stratum_index.strides
                    assert np.array_equal(got.stratum_index, want.stratum_index)


def test_the_next_batch_in_a_scope_overwrites_the_last():
    with samplers._buffer_scope(100, 8):
        first = lhs_normal(100, 8, seed=1)
        kept = first.rows.copy()
        lhs_normal(100, 8, seed=2)
        assert not np.array_equal(first.rows, kept)


@pytest.mark.parametrize("sampler", [lhs_normal, srs_normal])
def test_a_batch_the_scope_cannot_hold_gets_new_arrays(sampler):
    with samplers._buffer_scope(100, 8):
        buffers = scope_buffers()
        for n, d in [(101, 8), (50, 9), (50, 7)]:
            batch = sampler(n, d, seed=3)
            assert batch.rows.tobytes() == sampler(n, d, seed=3).rows.tobytes()
            assert not shares_any(batch.rows, buffers)
            if batch.stratum_index is not None:
                assert not shares_any(batch.stratum_index, buffers)


def test_nested_scopes_reuse_an_outer_one_that_fits():
    assert scope_buffers() is None
    with samplers._buffer_scope(100, 8):
        outer = scope_buffers()
        with samplers._buffer_scope(90, 8):
            assert scope_buffers() is outer
        for rows, dim in [(101, 8), (50, 9)]:
            with samplers._buffer_scope(rows, dim):
                inner = scope_buffers()
                assert inner is not outer and (inner.rows, inner.dim) == (rows, dim)
                assert not shares_any(lhs_normal(rows, dim, seed=0).rows, outer)
            assert scope_buffers() is outer
    assert scope_buffers() is None


def test_a_scope_is_left_when_its_block_raises():
    with pytest.raises(RuntimeError):
        with samplers._buffer_scope(10, 3):
            raise RuntimeError("inside")
    assert scope_buffers() is None


def test_a_draw_on_another_thread_ignores_this_threads_scope():
    shape = SPLIT_SHAPES[2]
    want = lhs_normal(*shape, seed=7)
    got = {}

    def draw():
        got["scope"] = scope_buffers()
        got["batch"] = lhs_normal(*shape, seed=7)

    with samplers._buffer_scope(*shape):
        buffers = scope_buffers()
        mine = lhs_normal(*shape, seed=8)
        kept = mine.rows.copy()
        worker = threading.Thread(target=draw)
        worker.start()
        worker.join()
        assert got["scope"] is None
        assert not shares_any(got["batch"].rows, buffers)
        assert got["batch"].rows.tobytes() == want.rows.tobytes()
        assert mine.rows.tobytes() == kept.tobytes()
