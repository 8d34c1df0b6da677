"""Whole attack runs against ``reference.ref_run_attack``, bit for bit.

The reference draws every batch into new arrays, normalizes with
``np.linalg.norm`` and asks the oracle one row at a time, so a run that
matches it shows that the row-block draws, the buffer scopes, the in-place
probe pass and the batched, metered queries change no bit of a trace.
"""

import dataclasses
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lhsattack import samplers
from lhsattack.attack import AttackConfig, run_attack, schedule_samples
from lhsattack.harness import ExperimentConfig, OracleSpecConfig, PointsConfig, run_experiment
from lhsattack.oracles import HalfspaceOracle, HypersphereOracle, MlpOracle, load_mlp
from lhsattack.rng import NS_RUN, substream_seed

from reference import ref_run_attack


def offset_sphere(dim):
    """The ball of radius 0.45 around 0.5 + 0.3 e1; the original, at 0.5,
    lies inside it."""
    center = np.full(dim, 0.5)
    center[0] += 0.3
    return HypersphereOracle(center, radius=0.45), np.full(dim, 0.5)


def halfspace3():
    original = np.array([0.2, 0.5, 0.4])
    return HalfspaceOracle(np.array([1.0, -2.0, 0.5]), offset=-0.25), original


def mlp(path):
    original = np.random.default_rng(11).random(64)
    return MlpOracle(load_mlp(path), original), original


# name -> (oracle maker, initial_samples, iterations). At d = 700 every
# batch (100 to 124 rows) has at least samplers._SPLIT_ELEMENTS elements.
CASES = {
    "halfspace3": (lambda path: halfspace3(), 20, 10),
    "sphere64": (lambda path: offset_sphere(64), 30, 6),
    "sphere700": (lambda path: offset_sphere(700), 100, 3),
    "mlp64": (mlp, 30, 6),
    "sphere3072": (lambda path: offset_sphere(3072), 100, 2),
}


def as_bits(rows):
    """Trace rows as tuples, each float by its exact hex form."""
    return [tuple(v.hex() if isinstance(v, float) else v for v in row) for row in rows]


@pytest.mark.parametrize("sampler", ["lhs", "srs"])
@pytest.mark.parametrize("case", list(CASES))
def test_run_attack_matches_the_whole_run_reference(
        case, sampler, mlp_fixture_path, monkeypatch):
    make, initial_samples, iterations = CASES[case]
    oracle, original = make(mlp_fixture_path)
    assert oracle._decide(original) == -1
    config = AttackConfig(initial_samples=initial_samples, iterations=iterations,
                          sampler_kind=sampler, seed=3)
    want = ref_run_attack(oracle, original, config)
    assert want[2] == "completed" and len(want[1]) >= 3
    # A cap halfway through iteration 2's probe batch.
    capped = dataclasses.replace(config, max_queries=want[1][1][4] + want[1][2][1] // 2)
    runs = [(config, want), (capped, ref_run_attack(oracle, original, capped))]
    assert runs[1][1][2] == "budget_exhausted"
    assert runs[1][1][4]["gradient"] == want[1][1][1] + want[1][2][1] // 2

    largest = schedule_samples(iterations - 1, initial_samples)
    for threads in (1, 2):
        monkeypatch.setattr(samplers, "_THREADS", threads)
        for enclosed in (False, True):
            for cfg, (point, rows, status, error, ledger) in runs:
                if enclosed:
                    # The second run in a scope with more rows than the run
                    # needs, whose buffers hold the first run's batches.
                    with samplers._buffer_scope(largest + 5, oracle.dim):
                        run_attack(oracle, original, dataclasses.replace(cfg, seed=4))
                        got_point, trace = run_attack(oracle, original, cfg)
                else:
                    got_point, trace = run_attack(oracle, original, cfg)
                where = (threads, enclosed, cfg.max_queries)
                assert as_bits(dataclasses.astuple(r) for r in trace.rows) == as_bits(rows), where
                assert (trace.status, trace.error) == (status, error), where
                assert trace.ledger.snapshot() == ledger, where
                assert got_point.tobytes() == point.tobytes(), where


@pytest.mark.parametrize("sampler", ["lhs", "srs"])
def test_a_run_in_a_scope_for_narrower_batches_matches_the_reference(sampler):
    # A scope holds batches of its own width only. This one has rows to
    # spare but one column, so the run must draw into buffers of its own.
    oracle, original = halfspace3()
    config = AttackConfig(initial_samples=20, iterations=10, sampler_kind=sampler, seed=3)
    point, rows, status, error, ledger = ref_run_attack(oracle, original, config)
    with samplers._buffer_scope(schedule_samples(9, 20) + 5, 1):
        got_point, trace = run_attack(oracle, original, config)
    assert as_bits(dataclasses.astuple(r) for r in trace.rows) == as_bits(rows)
    assert (trace.status, trace.error) == (status, error)
    assert trace.ledger.snapshot() == ledger
    assert got_point.tobytes() == point.tobytes()


@pytest.mark.parametrize("threads", [1, 2])
def test_run_experiment_grid_matches_the_whole_run_reference(tmp_path, monkeypatch, threads):
    # Four runs (two repetitions x both samplers) share the grid's buffer
    # scope, and at d = 700 every batch is split when two threads are used.
    monkeypatch.setattr(samplers, "_THREADS", threads)
    oracle, original = offset_sphere(700)
    attack = AttackConfig(initial_samples=100, iterations=3)
    first = ref_run_attack(oracle, original, dataclasses.replace(
        attack, seed=substream_seed(7, NS_RUN, 0, 0, 0)))[1]
    budget = first[1][4] + first[2][1] // 2
    config = ExperimentConfig(
        oracles=[OracleSpecConfig(name="ball", kind="hypersphere", radius=0.45,
                                  center=oracle.original)],
        points=PointsConfig(source="inline", values=[original]),
        attack=attack, budgets=[budget], repetitions=2, base_seed=7)
    result = run_experiment(config, output_dir=str(tmp_path))
    assert len(result.traces) == 4
    for (_, sampler, pi, rep), trace in result.traces.items():
        seed = substream_seed(7, NS_RUN, 0, pi, rep)
        _, rows, status, error, ledger = ref_run_attack(oracle, original, dataclasses.replace(
            attack, sampler_kind=sampler, seed=seed, max_queries=budget))
        # The cap falls inside iteration 2's probe batch.
        assert status == "budget_exhausted"
        assert 100 < ledger["gradient"] < 100 + schedule_samples(1, 100)
        where = (sampler, rep)
        assert as_bits(dataclasses.astuple(r) for r in trace.rows) == as_bits(rows), where
        assert (trace.status, trace.error) == (status, error), where
        assert trace.ledger.snapshot() == ledger, where


# (case, width): the halfspace at d = 3, the offset sphere at widths whose
# batches all stay below samplers._SPLIT_ELEMENTS (2 to 40) or all reach it
# (700), and the fixture MLP.
DRAWN_ORACLES = st.one_of(
    st.just(("halfspace3", 3)),
    st.tuples(st.just("sphere"), st.one_of(st.integers(2, 40), st.just(700))),
    st.just(("mlp64", 64)))


def drawn_case(case, dim, path):
    """The oracle, the original, the grid's spec of the oracle, initial_samples
    and iterations of a drawn case."""
    if case == "sphere":
        oracle, original = offset_sphere(dim)
        spec = OracleSpecConfig(name="o", kind="hypersphere", radius=0.45,
                                center=oracle.original)
        return (oracle, original, spec) + CASES["sphere700" if dim == 700 else "sphere64"][1:]
    oracle, original = CASES[case][0](path)
    spec = (OracleSpecConfig(name="o", kind="mlp", weights=path) if case == "mlp64" else
            OracleSpecConfig(name="o", kind="halfspace", normal=oracle.normal,
                             offset=oracle.offset))
    return (oracle, original, spec) + CASES[case][1:]


@settings(max_examples=50, deadline=None)
@given(oracle_case=DRAWN_ORACLES, sampler=st.sampled_from(["lhs", "srs"]),
       capped=st.booleans(), threads=st.sampled_from([1, 2]), in_grid=st.booleans(),
       data=st.data())
def test_drawn_whole_runs_match_the_reference(
        mlp_fixture_path, oracle_case, sampler, capped, threads, in_grid, data):
    oracle, original, spec, initial_samples, iterations = drawn_case(
        *oracle_case, mlp_fixture_path)
    # The seed of the second run of a two-repetition grid, alone or not.
    config = AttackConfig(initial_samples=initial_samples, iterations=iterations,
                          sampler_kind=sampler, seed=substream_seed(7, NS_RUN, 0, 0, 1))
    want = ref_run_attack(oracle, original, config)
    if capped:
        # A cap inside iteration 2's probe batch.
        rows = want[1]
        assume(len(rows) >= 3)
        config = dataclasses.replace(
            config, max_queries=rows[1][4] + data.draw(st.integers(1, rows[2][1] - 1)))
        want = ref_run_attack(oracle, original, config)
        assert want[2] == "budget_exhausted"
    want_point, want_rows, status, error, ledger = want

    # hypothesis takes no function-scoped fixture such as monkeypatch.
    threads_before = samplers._THREADS
    samplers._THREADS = threads
    try:
        if in_grid:
            grid = ExperimentConfig(
                oracles=[spec], points=PointsConfig(source="inline", values=[original]),
                attack=config, budgets=[config.max_queries or 10 ** 9], samplers=[sampler],
                repetitions=2, base_seed=7)
            with tempfile.TemporaryDirectory() as out:
                trace = run_experiment(grid, output_dir=out).traces[("o", sampler, 0, 1)]
        else:
            point, trace = run_attack(oracle, original, config)
            assert point.tobytes() == want_point.tobytes()
    finally:
        samplers._THREADS = threads_before
    assert as_bits(dataclasses.astuple(r) for r in trace.rows) == as_bits(want_rows)
    assert (trace.status, trace.error) == (status, error)
    assert trace.ledger.snapshot() == ledger
