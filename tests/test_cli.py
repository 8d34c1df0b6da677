"""Tests for the command-line interface: spec grammar, subcommands, exit codes."""

import dataclasses
import io
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from lhsattack.attack import AttackConfig, run_attack
from lhsattack.cli import main, parse_oracle_spec
from lhsattack.errors import ConfigError, OracleFailedError
from lhsattack.oracles import (
    PHASE_INIT,
    HalfspaceOracle,
    MeteredOracle,
    load_mlp,
    mlp_forward,
)
from lhsattack.samplers import lhs_normal, normalize_rows

from reference import parse_trace_csv

MLP_FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "mlp_8x8_2class.txt")

DIES_AFTER_HANDSHAKE = """\
import sys
sys.stdin.readline()
print("OK", flush=True)
"""


def run_cli(args, input_text=None, timeout=60):
    return subprocess.run(
        [sys.executable, "-m", "lhsattack", *args],
        input=input_text, capture_output=True, text=True, timeout=timeout)


# ---------------------------------------------------------------------------
# Oracle spec grammar


def test_spec_hypersphere_with_dim():
    spec = parse_oracle_spec("hypersphere:r=0.5,m=20")
    assert spec.kind == "hypersphere"
    assert spec.radius == 0.5 and spec.dim == 20


def test_spec_hypersphere_center_vector():
    spec = parse_oracle_spec("hypersphere:r=0.5,center=0.1;0.2;0.3")
    assert np.array_equal(spec.center, [0.1, 0.2, 0.3])


def test_spec_halfspace_vector_and_offset():
    spec = parse_oracle_spec("halfspace:w=1;0;0,b=-0.5")
    assert np.array_equal(spec.normal, [1.0, 0.0, 0.0])
    assert spec.offset == -0.5


def test_spec_vector_from_file(tmp_path):
    vec = tmp_path / "w.txt"
    vec.write_text("1 -2 0.5\n")
    spec = parse_oracle_spec(f"halfspace:w=@{vec},b=0.25")
    assert np.array_equal(spec.normal, [1.0, -2.0, 0.5])


def test_spec_mlp_class_keys():
    spec = parse_oracle_spec("mlp:weights=model.txt,class=0,target=1")
    assert spec.weights == "model.txt"
    assert spec.original_class == 0 and spec.target_class == 1


def test_spec_external_cmd_consumes_rest_verbatim():
    spec = parse_oracle_spec("external:m=20,cmd=python serve.py --flag a,b")
    assert spec.dim == 20
    assert spec.cmd == "python serve.py --flag a,b"


@pytest.mark.parametrize("text,match", [
    ("external:cmd=   ", r"empty cmd"),
    ("hypersphere:r=0.5,colour=red", r"unknown or malformed token"),
    (":r=1", r"missing kind"),
    ("hypersphere:r=abc", r"bad value for 'r'"),
    ("halfspace:w=1;;x,b=0", r"bad vector"),
    ("torus:r=1", r"unknown oracle kind"),
    ("hypersphere:r=-1", r"radius must be positive"),
    ("hypersphere:r=inf", r"radius must be positive and finite"),
    ("external:m=2,timeout=0,cmd=run-me", r"timeout must be positive"),
    ("external:m=2,timeout=-1,cmd=run-me", r"timeout must be positive"),
    ("external:m=2,timeout=nan,cmd=run-me", r"timeout must be positive and finite"),
    ("external:m=2,timeout=1e300,cmd=run-me", r"timeout must be .* at most 9223372036 s"),
    ("halfspace:w=1;0,b=nan", r"offset must be finite"),
    ("hypersphere:r=0.5,center=0.5;nan", r"center must be .*finite"),
    ("hypersphere:r=0.5,radius=0.7", r"radius given more than once"),
    ("hypersphere:r=0.5,r=0.9", r"radius given more than once"),
    ("hypersphere:r=0.5,m=4,center=0.5;0.5;0.5", r"conflicting input dimensions \[3, 4\]"),
    ("halfspace:w=1;0,b=0,m=3", r"conflicting input dimensions \[2, 3\]"),
    ("halfspace:w=1e308;1e308;-1e308;-1e308,b=-1", r"sum\(\|normal\|\) \+ \|offset\| must be finite"),
    ("halfspace:w=1e308;0,b=1e308", r"sum\(\|normal\|\) \+ \|offset\| must be finite"),
    ("halfspace:w=0;-0,b=1", r"normal must be a nonzero vector"),
    ("hypersphere:r=0.5,m=-3", r"dim must be an integer >= 1"),
    ("hypersphere:r=0.5,m=0", r"dim must be an integer >= 1"),
    ("mlp:weights=w.txt,class=-1", r"original_class must be an integer >= 0"),
    ("mlp:weights=w.txt,target=-2", r"target_class must be an integer >= 0"),
    ("hypersphere:r=0.5,m=3,weights=nofile.txt,timeout=3,cmd=run-me",
     r"kind 'hypersphere' does not read 'weights'; its keys are dim, radius, center"),
    ("mlp:weights=tests/fixtures/mlp_8x8_2class.txt,class=0,timeout=3",
     r"kind 'mlp' does not read 'timeout'"),
    ("halfspace:w=1;0,b=0,center=0.5;0.5", r"kind 'halfspace' does not read 'center'"),
    ("external:m=2,r=0.5,cmd=run-me", r"kind 'external' does not read 'r'"),
])
def test_spec_rejections(text, match):
    with pytest.raises(ConfigError, match=match):
        parse_oracle_spec(text)


# ---------------------------------------------------------------------------
# attack subcommand (in-process)


def test_attack_hypersphere_smoke(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    rc = main(["attack", "--oracle", "hypersphere:r=0.4,m=12",
               "--budget", "400", "--iterations", "6",
               "--initial-samples", "8", "--seed", "3", "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "status=completed" in stdout
    assert f"trace={out}" in stdout
    rows, status = parse_trace_csv(str(out))
    assert status == "completed"
    assert rows and rows[-1]["queries"] <= 400


def test_attack_explicit_point(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    rc = main(["attack", "--oracle", "halfspace:w=1;0;0,b=-0.7",
               "--point", "0.5 0.5 0.5", "--budget", "300",
               "--iterations", "5", "--initial-samples", "6",
               "--out", str(out)])
    assert rc == 0
    rows, status = parse_trace_csv(str(out))
    assert status == "completed"
    # the plane x0 = 0.7 sits 0.2 from the original, and the attack's
    # final recorded distortion must not beat that geometric floor
    assert min(r["distortion"] for r in rows) >= 0.2 - 1e-9


def test_attack_point_file_uses_first_line(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("0.5 0.5 0.5\n0.9 0.9 0.9\n")
    out = tmp_path / "trace.csv"
    rc = main(["attack", "--oracle", "halfspace:w=1;0;0,b=-0.7",
               "--point-file", str(pts), "--budget", "300",
               "--iterations", "5", "--initial-samples", "6",
               "--out", str(out)])
    assert rc == 0
    capsys.readouterr()


@pytest.mark.parametrize("cmd", ['python3 "serve.py', "python3 serve.py \\", "run\0me"])
def test_attack_rejects_an_external_cmd_that_cannot_run(tmp_path, capsys, cmd):
    rc = main(["attack", "--oracle", f"external:m=3,cmd={cmd}", "--point", "0.5 0.5 0.5",
               "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert "oracle 'external': cmd must be a command line" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_attack_rejects_adversarial_original(tmp_path, capsys):
    rc = main(["attack", "--oracle", "halfspace:w=1;0;0,b=-0.4",
               "--point", "0.5 0.5 0.5", "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert "already adversarial" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_attack_rejects_non_finite_point(tmp_path, capsys, value):
    rc = main(["attack", "--oracle", "hypersphere:r=0.5", "--point", f"{value} 0.5",
               "--budget", "50", "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert "--point: coordinates must be finite" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_attack_rejects_an_empty_point(tmp_path, capsys):
    rc = main(["attack", "--oracle", "hypersphere:r=0.5", "--point", "",
               "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert capsys.readouterr().err == "lhsattack: --point: no values\n"
    assert not (tmp_path / "t.csv").exists()


def test_attack_point_and_point_file_are_exclusive(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("0.5 0.5 0.5\n")
    rc = main(["attack", "--oracle", "halfspace:w=1;0;0,b=-0.7", "--point", "0.5 0.5 0.5",
               "--point-file", str(pts), "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert "not allowed with argument --point" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("flag", ["--point-file", "--target-image"])
def test_attack_rejects_non_finite_point_files(tmp_path, capsys, flag):
    pts = tmp_path / "pts.txt"
    pts.write_text("0.5 0.5\n0.5 nan\n")
    point = [] if flag == "--point-file" else ["--point", "0.5 0.5"]
    rc = main(["attack", "--oracle", "hypersphere:r=0.5", *point, flag, str(pts),
               "--budget", "50", "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert f"{pts}:2: coordinates must be finite" in capsys.readouterr().err


BAD_BOX = r"clip_low, clip_high and clip_high - clip_low must be finite"


@pytest.mark.parametrize("flags,match", [
    (["--clip-low=-inf", "--clip-high=inf"], BAD_BOX),
    (["--clip-high=inf"], BAD_BOX),
    (["--clip-low=nan"], BAD_BOX),
    (["--clip-low=-1e308", "--clip-high=1e308"], BAD_BOX),
    (["--bisect-tol", "1e-320"], r"bisect_tol must lie in \(0, 1\) and be at least"),
    (["--clip-low=0", "--clip-high=1e160"],
     r"clip box width 1e\+160 is too wide for dimension 3: distances would overflow"),
    # The last --dim wins; the default tolerance dim ** -1.5 is 1 at one coordinate.
    (["--dim", "1"], r"set bisect_tol explicitly for 1-dimensional inputs"),
])
def test_attack_rejects_bad_box_or_tolerance_before_any_query(
        tmp_path, capsys, monkeypatch, flags, match):
    def no_draws(*args, **kwargs):
        raise AssertionError("a point was drawn")

    monkeypatch.setattr("lhsattack.harness.generate_points", no_draws)
    rc = main(["attack", "--oracle", "hypersphere:r=0.5", "--dim", "3", *flags,
               "--budget", "50", "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("lhsattack: ")
    assert re.search(match, err[0])
    assert not (tmp_path / "t.csv").exists()


def test_attack_conflicting_dims(tmp_path, capsys):
    rc = main(["attack", "--oracle", "hypersphere:r=0.5,m=20",
               "--point", "0.5 0.5", "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert ("oracle 'hypersphere': dim=20 conflicts with points dimension 2"
            in capsys.readouterr().err)


def test_attack_mlp_width_clash_reads_as_in_bench(tmp_path, capsys, mlp_fixture_path):
    rc = main(["attack", "--oracle", f"mlp:weights={mlp_fixture_path}",
               "--point", "0.5 0.5 0.5", "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert (f"oracle 'mlp': weights {mlp_fixture_path!r} take 64 inputs but points "
            f"have dimension 3" in capsys.readouterr().err)


def test_attack_unknown_dim(tmp_path, capsys):
    rc = main(["attack", "--oracle", "hypersphere:r=0.5",
               "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert "input dimension unknown" in capsys.readouterr().err


def test_attack_center_implies_dimension(tmp_path, capsys):
    out = tmp_path / "t.csv"
    rc = main(["attack", "--oracle", "hypersphere:r=0.2,center=0.5;0.5;0.5",
               "--budget", "200", "--iterations", "3", "--initial-samples", "6",
               "--out", str(out)])
    assert rc == 0
    assert "status=completed" in capsys.readouterr().out


def test_attack_center_conflicts_with_dim_flag(tmp_path, capsys):
    rc = main(["attack", "--oracle", "hypersphere:r=0.2,center=0.5;0.5;0.5",
               "--dim", "4", "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert ("oracle 'hypersphere': center has 3 coordinates but points have dimension 4"
            in capsys.readouterr().err)


def test_attack_center_conflicts_with_spec_dim(tmp_path, capsys):
    rc = main(["attack", "--oracle", "hypersphere:r=0.2,m=4,center=0.5;0.5;0.5",
               "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert "conflicting input dimensions [3, 4]" in capsys.readouterr().err


@pytest.mark.parametrize("seed", range(5))
def test_attack_generated_original_is_not_adversarial(tmp_path, capsys, monkeypatch, seed):
    # A ball that does not contain most of the clip box: most uniform
    # candidates are already adversarial and must be drawn again.
    seen = []

    def capture(oracle, original, config):
        seen.append((oracle, original))
        return run_attack(oracle, original, config)

    monkeypatch.setattr("lhsattack.cli.run_attack", capture)
    rc = main(["attack", "--oracle", "hypersphere:r=0.2,center=0.9;0.9;0.9",
               "--dim", "3", "--budget", "200", "--iterations", "3",
               "--initial-samples", "6", "--seed", str(seed),
               "--out", str(tmp_path / "t.csv")])
    assert rc == 0
    capsys.readouterr()
    [(oracle, original)] = seen
    assert MeteredOracle(oracle).decide(original, PHASE_INIT) == -1


TUNING_FLAGS = [("--initial-samples", "7", "initial_samples", 7),
                ("--iterations", "3", "iterations", 3),
                ("--bisect-tol", "0.01", "bisect_tol", 0.01),
                ("--clip-low", "-0.5", "clip_low", -0.5),
                ("--clip-high", "2", "clip_high", 2.0)]


@pytest.mark.parametrize("flag", [None, *TUNING_FLAGS], ids=lambda f: f and f[0])
def test_attack_flags_set_attack_config_fields(tmp_path, capsys, monkeypatch, flag):
    # Without tuning flags every field keeps AttackConfig's default; each
    # flag sets its own field and no other.
    seen = []

    def capture(oracle, original, config):
        seen.append(config)
        raise OracleFailedError("captured")

    monkeypatch.setattr("lhsattack.cli.run_attack", capture)
    args = [] if flag is None else [f"{flag[0]}={flag[1]}"]
    target = tmp_path / "start.txt"
    target.write_text("0.9 0.9 0.9\n")
    rc = main(["attack", "--oracle", "hypersphere:r=0.2,m=3", "--point", "0.5 0.5 0.5",
               "--budget", "77", "--sampler", "srs", "--seed", "9",
               "--target-image", str(target), *args, "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    capsys.readouterr()
    [config] = seen
    expected = AttackConfig(max_queries=77, sampler_kind="srs", seed=9,
                            init_target_image=np.array([0.9, 0.9, 0.9]))
    if flag is not None:
        expected = dataclasses.replace(expected, **{flag[2]: flag[3]})
    for f in dataclasses.fields(AttackConfig):
        assert np.array_equal(getattr(config, f.name), getattr(expected, f.name)), f.name


def test_attack_starts_from_the_target_image(tmp_path, capsys):
    # Uniform draws land in x0 > 0.99 one time in a hundred; the image is
    # adversarial and starts the run in one query.
    start = tmp_path / "start.txt"
    start.write_text("1 0.5 0.5\n")
    out = tmp_path / "t.csv"
    rc = main(["attack", "--oracle", "halfspace:w=1;0;0,b=-0.99", "--point", "0.5 0.5 0.5",
               "--target-image", str(start), "--seed", "1",
               "--budget", "300", "--iterations", "3", "--initial-samples", "6",
               "--out", str(out)])
    assert rc == 0
    assert "status=completed" in capsys.readouterr().out
    rows, status = parse_trace_csv(out)
    assert status == "completed"
    assert rows[0]["queries"] == 1 + rows[0]["bisect_steps"]


@pytest.mark.parametrize("flags", [["--mode", "targeted"], ["--target-class", "1"]],
                         ids=["mode", "target-class"])
def test_attack_has_no_targeting_flags(tmp_path, capsys, flags):
    # The spec's target= is the one targeting value; the image is the start.
    start = tmp_path / "start.txt"
    start.write_text("0.9 0.9 0.9\n")
    rc = main(["attack", "--oracle", "hypersphere:r=0.2,m=3", "--point", "0.5 0.5 0.5",
               "--target-image", str(start), *flags, "--budget", "200",
               "--iterations", "3", "--initial-samples", "6",
               "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("flag", ["--max-init-tries", "--max-step-retries"])
def test_attack_has_no_search_cap_flags(tmp_path, capsys, flag):
    rc = main(["attack", "--oracle", "hypersphere:r=0.2,m=3", "--point", "0.5 0.5 0.5",
               flag, "5", "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_attack_rejects_a_start_image_of_the_wrong_width_before_any_query(
        tmp_path, capsys, monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("a point was drawn")

    monkeypatch.setattr("lhsattack.harness.generate_points", no_draws)
    start = tmp_path / "start.txt"
    start.write_text("0.9 0.9\n")
    rc = main(["attack", "--oracle", "hypersphere:r=0.2,m=3", "--target-image", str(start),
               "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert "init_target_image has the wrong dimension" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_attack_bad_weights_file_is_config_failure(tmp_path, capsys):
    weights = tmp_path / "w.txt"
    weights.write_text("not a weights file\n")
    rc = main(["attack", "--oracle", f"mlp:weights={weights}",
               "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    capsys.readouterr()


def test_attack_deterministic_per_seed(tmp_path, capsys):
    args = ["attack", "--oracle", "hypersphere:r=0.4,m=10",
            "--budget", "300", "--iterations", "5", "--initial-samples", "8"]
    outs = [tmp_path / f"t{i}.csv" for i in range(3)]
    assert main([*args, "--seed", "11", "--out", str(outs[0])]) == 0
    assert main([*args, "--seed", "11", "--out", str(outs[1])]) == 0
    assert main([*args, "--seed", "12", "--out", str(outs[2])]) == 0
    capsys.readouterr()
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert outs[0].read_bytes() != outs[2].read_bytes()


def test_attack_targeted_mlp(tmp_path, capsys, mlp_fixture_path):
    model = load_mlp(mlp_fixture_path)
    original = np.full(64, 0.5)
    original_class = int(np.argmax(mlp_forward(model, original)))
    target = 1 - original_class
    rng = np.random.default_rng(7)
    while True:
        cand = rng.random(64)
        if int(np.argmax(mlp_forward(model, cand))) == target:
            break
    start = tmp_path / "start.txt"
    start.write_text(" ".join(f"{v:.17g}" for v in cand) + "\n")
    out = tmp_path / "trace.csv"
    rc = main(["attack", "--oracle", f"mlp:weights={mlp_fixture_path},target={target}",
               "--target-image", str(start),
               "--point", " ".join("0.5" for _ in range(64)),
               "--budget", "2000", "--iterations", "8",
               "--initial-samples", "10", "--out", str(out)])
    assert rc == 0
    assert "status=completed" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# bench subcommand (in-process)


def test_bench_runs_and_reports(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("""\
[experiment]
budgets = 200
statistics = median

[oracle sph]
kind = hypersphere
radius = 0.25

[points]
source = inline
values = 0.5 0.5 0.5

[attack]
initial_samples = 6
iterations = 4
""")
    out_dir = tmp_path / "artifacts"
    rc = main(["bench", str(cfg), "--output-dir", str(out_dir)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "sph lhs budget=200 median=" in stdout
    assert "sph srs budget=200 median=" in stdout
    assert f"summary written to {out_dir}" in stdout
    assert (out_dir / "summary.csv").exists()


def test_bench_empty_output_dir_writes_to_out(tmp_path, capsys, monkeypatch):
    (tmp_path / "exp.cfg").write_text("""\
[experiment]
budgets = 200
output_dir =

[oracle sph]
kind = hypersphere
radius = 0.25

[points]
source = inline
values = 0.5 0.5 0.5

[attack]
initial_samples = 6
iterations = 4
""")
    monkeypatch.chdir(tmp_path)
    rc = main(["bench", "exp.cfg"])
    assert rc == 0
    assert f"summary written to {os.path.join('out', 'summary.csv')}" in capsys.readouterr().out
    assert (tmp_path / "out" / "summary.csv").exists()


def test_bench_rejected_config_leaves_no_output_dir(tmp_path, capsys, mlp_fixture_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"""\
[oracle ball]
kind = hypersphere
radius = 0.45

[oracle net]
kind = mlp
weights = {mlp_fixture_path}

[points]
source = inline
values = 0.5 0.5 0.5
""")
    out_dir = tmp_path / "artifacts"
    rc = main(["bench", str(cfg), "--output-dir", str(out_dir)])
    assert rc == 1
    assert "take 64 inputs but points have dimension 3" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("points, attack, match", [
    ("0.5 0.5 0.5\n", "clip_high = 1e160\n",
     r"^lhsattack: clip box width 1e\+160 is too wide for dimension 3: "),
    ("0.5\n0.2\n", "", r"^lhsattack: .*set bisect_tol explicitly for 1-dimensional inputs$"),
])
def test_bench_checks_file_points_width_before_making_the_output_dir(
        tmp_path, capsys, points, attack, match):
    pts = tmp_path / "pts.txt"
    pts.write_text(points)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"""\
[oracle ball]
kind = hypersphere
radius = 0.25

[points]
source = file
file = {pts}

[attack]
{attack}""")
    out_dir = tmp_path / "artifacts"
    rc = main(["bench", str(cfg), "--output-dir", str(out_dir)])
    assert rc == 1
    assert re.search(match, capsys.readouterr().err.strip())
    assert not out_dir.exists()


BALL_AND_DEAD_CHILD = """\
[experiment]
budgets = 200

[oracle dead]
kind = external
cmd = {python} {stub}
dim = 3
{ball}
[points]
source = inline
values = 0.5 0.5 0.5

[attack]
initial_samples = 6
iterations = 4
"""
BALL = """
[oracle ball]
kind = hypersphere
radius = 0.25
"""


def test_bench_exits_2_when_every_run_failed(tmp_path, capsys):
    stub = tmp_path / "stub.py"
    stub.write_text(DIES_AFTER_HANDSHAKE)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(BALL_AND_DEAD_CHILD.format(python=sys.executable, stub=stub, ball=""))
    rc = main(["bench", str(cfg), "--output-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert "2 of 2 runs failed; see summary comments" in captured.err
    assert rc == 2
    assert (tmp_path / "out" / "summary.csv").exists()


def test_bench_exits_0_when_some_run_did_not_fail(tmp_path, capsys):
    stub = tmp_path / "stub.py"
    stub.write_text(DIES_AFTER_HANDSHAKE)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(BALL_AND_DEAD_CHILD.format(python=sys.executable, stub=stub, ball=BALL))
    rc = main(["bench", str(cfg), "--output-dir", str(tmp_path / "out")])
    assert "2 of 4 runs failed; see summary comments" in capsys.readouterr().err
    assert rc == 0


def test_bench_missing_config(tmp_path, capsys):
    rc = main(["bench", str(tmp_path / "missing.cfg")])
    assert rc == 1
    assert "cannot read config" in capsys.readouterr().err


def test_bench_bad_config(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[points]\nsource = inline\nvalues = 0.5\n")
    rc = main(["bench", str(cfg)])
    assert rc == 1
    assert "oracle" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sample subcommand (in-process)


def test_sample_lhs_diagnostics(capsys):
    rc = main(["sample", "--count", "8", "--dim", "4", "--seed", "0"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "sampler=lhs n=8 dim=4 seed=0" in stdout
    assert "worst_coordinate_mean=" in stdout
    assert "ks_discrepancy=" in stdout
    assert "one_sample_per_stratum=yes" in stdout


@pytest.mark.parametrize("command", [
    ["attack", "--oracle", "hypersphere:r=0.5,m=3", "--budget", "50"],
    ["sample", "--count", "4", "--dim", "2"],
])
@pytest.mark.parametrize("seed", ["-5", "-1", "x"])
def test_negative_seed_is_rejected_naming_the_flag(capsys, command, seed):
    assert main([*command, "--seed", seed]) == 1
    assert "argument --seed: expected a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("dim", ["0", "-3", "x"])
def test_dim_below_one_is_rejected_naming_the_flag(tmp_path, capsys, dim):
    rc = main(["attack", "--oracle", "hypersphere:r=0.5", "--dim", dim,
               "--budget", "50", "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert "argument --dim: expected a positive integer" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_sample_srs_has_no_stratum_line(capsys):
    rc = main(["sample", "--sampler", "srs", "--count", "8", "--dim", "4"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "sampler=srs" in stdout
    assert "one_sample_per_stratum" not in stdout


def test_sample_out_rows_match_library_exactly(tmp_path, capsys):
    out = tmp_path / "rows.txt"
    rc = main(["sample", "--count", "6", "--dim", "5", "--seed", "9",
               "--normalize", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    got = np.array([[float(t) for t in line.split()]
                    for line in out.read_text().splitlines()])
    expected = normalize_rows(lhs_normal(6, 5, 9)).rows
    assert np.array_equal(got, expected)


# ---------------------------------------------------------------------------
# argparse edges


def test_missing_subcommand_returns_one(capsys):
    assert main([]) == 1
    capsys.readouterr()


def test_missing_required_flag_returns_one(capsys):
    assert main(["attack"]) == 1
    capsys.readouterr()


def test_help_returns_zero(capsys):
    assert main(["--help"]) == 0
    assert "attack" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# subprocess round trips


def test_module_entry_point_smoke():
    proc = run_cli(["sample", "--count", "4", "--dim", "3"])
    assert proc.returncode == 0
    assert "sampler=lhs n=4 dim=3" in proc.stdout


def test_oracle_serve_halfspace_session():
    proc = run_cli(["oracle-serve", "halfspace:w=1;0,b=-0.5"],
                   input_text="HELLO m=2\n0.9 0\n0.1 0\n")
    assert proc.returncode == 0
    assert proc.stdout == "OK\n+1\n-1\n"
    assert "served 2 decisions" in proc.stderr


def test_oracle_serve_matches_builtin_decisions():
    oracle = HalfspaceOracle(np.array([1.0, -2.0, 0.5]), 0.25)
    rng = np.random.default_rng(3)
    points = rng.random((20, 3)) * 2.0 - 0.5
    request = "HELLO m=3\n" + "".join(
        " ".join(f"{v:.17g}" for v in p) + "\n" for p in points)
    proc = run_cli(["oracle-serve", "halfspace:w=1;-2;0.5,b=0.25"],
                   input_text=request)
    assert proc.returncode == 0
    replies = proc.stdout.splitlines()
    assert replies[0] == "OK"
    expected = ["+1" if oracle._decide(p) > 0 else "-1" for p in points]
    assert replies[1:] == expected


def test_oracle_serve_bad_handshake_is_runtime_failure():
    proc = run_cli(["oracle-serve", "halfspace:w=1;0,b=-0.5"],
                   input_text="HI\n")
    assert proc.returncode == 2
    assert "bad handshake" in proc.stderr


def test_oracle_serve_hypersphere_needs_center():
    proc = run_cli(["oracle-serve", "hypersphere:r=0.5,m=3"], input_text="")
    assert proc.returncode == 1
    assert "center" in proc.stderr


def test_oracle_serve_rejects_conflicting_dims(capsys):
    rc = main(["oracle-serve", "hypersphere:r=0.5,m=4,center=0.5;0.5;0.5"])
    assert rc == 1
    assert "conflicting input dimensions [3, 4]" in capsys.readouterr().err


def test_oracle_serve_rejects_mlp_width_clash_before_reading_stdin():
    # The fixture's weights take 64 inputs; m=3 clashes with them.
    proc = run_cli(["oracle-serve", f"mlp:weights={MLP_FIXTURE},m=3,class=0"],
                   input_text="HELLO m=64\n")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (f"lhsattack: oracle 'mlp': weights {MLP_FIXTURE!r} take 64 "
                           f"inputs but points have dimension 3\n")


def test_oracle_serve_reads_mlp_weights_once(monkeypatch, capsys):
    from lhsattack import harness

    reads = []

    def counted(path):
        reads.append(path)
        return load_mlp(path)

    monkeypatch.setattr(harness, "load_mlp", counted)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"HELLO m=64\n")))
    assert main(["oracle-serve", f"mlp:weights={MLP_FIXTURE},m=64,class=0"]) == 0
    assert reads == [MLP_FIXTURE]
    assert capsys.readouterr().out == "OK\n"


@pytest.mark.parametrize("flags, error", [
    ([], "no adversarial point among 1000 uniform draws"),
    (["--budget", "3"], "query budget exhausted before an adversarial point was found"),
])
def test_attack_failed_run_still_writes_its_trace(tmp_path, capsys, flags, error):
    out = tmp_path / "t.csv"
    rc = main(["attack", "--oracle", "halfspace:w=1;0;0,b=-10", "--point", "0.5 0.5 0.5",
               "--out", str(out), *flags])
    assert rc == 2
    assert capsys.readouterr().err == f"lhsattack: attack failed: {error}\n"
    assert out.read_text().splitlines()[-1] == "# status=init_failed"


def test_attack_external_oracle_death_is_runtime_failure(tmp_path, capsys):
    stub = tmp_path / "stub.py"
    stub.write_text(DIES_AFTER_HANDSHAKE)
    rc = main(["attack", "--oracle",
               f"external:m=3,cmd={sys.executable} {stub}",
               "--point", "0.1 0.1 0.1", "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    assert "lhsattack:" in capsys.readouterr().err
