"""Tests of the benchmark itself: tracing must not change what it measures.

Run from the root of the repository::

    python3 -m pytest perfbench
"""
import dataclasses
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import tracer as T  # noqa: E402
import workloads as W  # noqa: E402

PHASES = ("init", "binsearch", "gradient", "step")


def tiny(oracle: str) -> W.Workload:
    return W.Workload(f"tiny_{oracle}", oracle, 64, points=2, iterations=3,
                      budgets=(200, 2000), min_passes=1)


@pytest.fixture
def in_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("PYTHONPATH", SRC)


def run(prep, out_dir, traced: bool):
    tracer = T.Tracer()
    if traced:
        tracer.install()
    try:
        _, result = W.run_pass(prep, str(out_dir))
    finally:
        tracer.uninstall()
    return tracer, result


@pytest.mark.parametrize("oracle", ["mlp", "external"])
def test_traced_query_counts_equal_ledger_totals(in_root, tmp_path, oracle):
    prep = W.set_up(tiny(oracle), 3, str(tmp_path))
    try:
        tracer, result = run(prep, tmp_path / "out", traced=True)
    finally:
        if prep.served is not None:
            prep.served.shutdown()
    assert result.traces and all(r.status == "completed" for r in result.runs)
    for phase in PHASES:
        ledger = sum(t.ledger.snapshot()[phase] for t in result.traces.values())
        assert tracer.counts["oracles.queries." + phase] == ledger, phase
    assert tracer.calls[T.ATTACK] == len(result.runs)
    assert (tracer.counts["oracles.request_bytes"] > 0) == (oracle == "external")


@pytest.mark.parametrize("oracle", ["mlp", "hypersphere"])
def test_traced_trace_csvs_are_byte_identical_to_untraced(in_root, tmp_path, oracle):
    prep = W.set_up(tiny(oracle), 5, str(tmp_path))
    _, plain = run(prep, tmp_path / "plain", traced=False)
    tracer, traced = run(prep, tmp_path / "traced", traced=True)
    assert tracer.calls[T.DECIDE] > 0
    plain_bytes, traced_bytes = W.read_outputs(plain), W.read_outputs(traced)
    assert len(plain_bytes) == len(plain.runs) + 1
    assert W.differing(plain_bytes, traced_bytes) == []


def test_uninstall_restores_every_patched_function():
    from lhsattack import attack, harness, oracles, samplers
    before = (dict(attack._SAMPLERS), attack.estimate_gradient, harness.run_attack,
              oracles.MeteredOracle.decide, samplers.inverse_normal_cdf)
    tracer = T.Tracer()
    tracer.install()
    assert attack.estimate_gradient is not before[1]
    tracer.uninstall()
    after = (dict(attack._SAMPLERS), attack.estimate_gradient, harness.run_attack,
             oracles.MeteredOracle.decide, samplers.inverse_normal_cdf)
    assert after == before


def test_checks_catch_broken_outputs(in_root, tmp_path):
    wl = tiny("hypersphere")
    prep = W.set_up(wl, 7, str(tmp_path))
    _, result = run(prep, tmp_path / "out", traced=False)
    outputs = W.read_outputs(result)
    assert W.failures(result, wl, outputs, outputs) == {}

    trace = next(iter(result.traces.values()))
    rows = trace.rows
    rows[1] = dataclasses.replace(rows[1], queries=rows[1].queries + 1)
    assert any("law" in p for p in W.trace_problems(trace, wl))
    rows[1] = dataclasses.replace(rows[1], queries=rows[1].queries - 1,
                                  distortion=W.RADIUS / 2)
    assert W.trace_problems(trace, wl) == ["distortion below the sphere radius"]

    changed = dict(outputs)
    name = sorted(changed)[0]
    changed[name] = changed[name] + b"\n"
    assert W.differing(outputs, changed) == [name]


def test_white_box_distance_matches_a_linear_model_in_closed_form():
    from lhsattack.oracles import MlpLayer, MlpModel
    rng = np.random.default_rng(4)
    weight, x0 = rng.normal(size=(2, 8)), rng.random(8)
    bias = np.array([0.3 - (weight[0] - weight[1]) @ x0, 0.0])   # class 0 wins by 0.3
    model = MlpModel([MlpLayer(weight, bias, "identity")], class_count=2)
    exact = 0.3 / np.linalg.norm(weight[0] - weight[1])
    assert abs(W.white_box_distance(model, x0, 0) - exact) < 1e-9


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mlp64_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
