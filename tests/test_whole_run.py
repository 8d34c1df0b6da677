"""Whole attack runs against ``reference.ref_run_attack``, bit for bit.

The reference draws every batch into new arrays, normalizes with
``np.linalg.norm`` and asks the oracle one row at a time, so a run that
matches it shows that the row-block draws, the buffer scopes, the in-place
probe pass and the batched, metered queries change no bit of a trace.
"""

import dataclasses

import numpy as np
import pytest

from lhsattack import samplers
from lhsattack.attack import AttackConfig, run_attack, schedule_samples
from lhsattack.oracles import HalfspaceOracle, HypersphereOracle, MlpOracle, load_mlp

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
