"""Tests for the experiment harness: config grammar, oracle realization,
point loading, CSV artifacts, and batch execution."""

import dataclasses
import os
import re
import shlex
import sys

import numpy as np
import pytest

import lhsattack
from lhsattack import harness
from lhsattack.attack import COMPLETED, AttackConfig, AttackTrace, TraceRow, schedule_samples
from lhsattack.errors import ConfigError
from lhsattack.harness import (
    ATTACK_KEYS,
    EXPERIMENT_KEYS,
    ORACLE_KEYS,
    POINTS_KEYS,
    SPEC_KEYS,
    ExperimentConfig,
    OracleSpecConfig,
    PointsConfig,
    RunRecord,
    SummaryRow,
    build_oracle,
    distortion_at_budget,
    emit_summary_csv,
    emit_trace_csv,
    generate_points,
    load_points_file,
    parse_config,
    run_experiment,
    serialize_config,
)
from lhsattack.oracles import (
    HalfspaceOracle,
    HypersphereOracle,
    MlpOracle,
    QueryLedger,
    mlp_forward,
)

from reference import parse_summary_csv, parse_trace_csv


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# Config parsing: round trips


FULL_CONFIG = """\
[experiment]
name = full
repetitions = 2
base_seed = 11
output_dir = artifacts
budgets = 500 2000
samplers = lhs srs
statistics = median mean

[oracle plane]
kind = halfspace
normal = 1 -2 0.5
offset = -0.25

[oracle ball]
kind = hypersphere
radius = 0.75
center = 0.9 0.1 0.4

[oracle net]
kind = mlp
weights = model.txt
target_class = 1

[oracle probe]
kind = external
cmd = python3 stub.py --flag value
timeout = 3.5
dim = 3

[points]
source = inline
values =
    0.2 0.3 0.4
    0.6 0.5 0.1

[attack]
initial_samples = 24
iterations = 12
bisect_tol = 0.001
max_queries = 4000
clip_low = -1
clip_high = 2
"""


def test_parse_full_config_fields(tmp_path):
    config = parse_config(write_config(tmp_path, FULL_CONFIG))
    assert config.name == "full"
    assert config.repetitions == 2
    assert config.base_seed == 11
    assert config.output_dir == "artifacts"
    assert config.budgets == [500, 2000]
    assert config.samplers == ["lhs", "srs"]
    assert config.statistics == ["median", "mean"]
    assert [o.name for o in config.oracles] == ["plane", "ball", "net", "probe"]
    plane, ball, net, probe = config.oracles
    assert np.array_equal(plane.normal, [1.0, -2.0, 0.5]) and plane.offset == -0.25
    assert ball.radius == 0.75 and np.array_equal(ball.center, [0.9, 0.1, 0.4])
    assert net.weights == "model.txt" and net.target_class == 1
    assert probe.cmd == "python3 stub.py --flag value"
    assert probe.timeout == 3.5 and probe.dim == 3
    assert config.points.source == "inline"
    assert config.points.values.shape == (2, 3)
    assert config.points.count == 2 and config.points.dim == 3
    assert np.array_equal(config.points.values[1], [0.6, 0.5, 0.1])
    a = config.attack
    assert (a.initial_samples, a.iterations) == (24, 12)
    assert a.bisect_tol == 0.001 and a.max_queries == 4000
    assert (a.clip_low, a.clip_high) == (-1.0, 2.0)


def test_serialize_parse_roundtrip_all_oracle_kinds(tmp_path):
    config = parse_config(write_config(tmp_path, FULL_CONFIG))
    text = serialize_config(config)
    config2 = parse_config(write_config(tmp_path, text, "round.cfg"))
    assert config2 == config
    # serialization is a fixpoint after one round
    assert serialize_config(config2) == text


def test_roundtrip_generate_points(tmp_path):
    text = """\
[oracle ball]
kind = hypersphere
radius = 0.5

[points]
source = generate
count = 4
dim = 6
seed = 9
"""
    config = parse_config(write_config(tmp_path, text))
    assert (config.points.count, config.points.dim, config.points.seed) == (4, 6, 9)
    config2 = parse_config(write_config(tmp_path, serialize_config(config), "r.cfg"))
    assert config2 == config


def test_roundtrip_file_points(tmp_path):
    text = """\
[oracle ball]
kind = hypersphere
radius = 0.5

[points]
source = file
file = pts.txt
dim = 3
seed = 3
"""
    config = parse_config(write_config(tmp_path, text))
    assert config.points.file == "pts.txt" and config.points.dim == 3
    config2 = parse_config(write_config(tmp_path, serialize_config(config), "r.cfg"))
    assert config2 == config


def test_serialize_leaves_out_keys_at_their_defaults(tmp_path):
    text = """\
[experiment]
repetitions = 1
base_seed = 4

[oracle probe]
kind = external
cmd = python3 stub.py
timeout = 10

[points]
source = generate
count = 2
dim = 3
seed = 0
"""
    config = parse_config(write_config(tmp_path, text))
    written = serialize_config(config)
    lines = written.splitlines()
    for default in ("repetitions = 1", "timeout = 10", "seed = 0", "source = generate"):
        assert default not in lines
    assert {"base_seed = 4", "cmd = python3 stub.py", "count = 2", "dim = 3"} <= set(lines)
    assert parse_config(write_config(tmp_path, written, "w.cfg")) == config


def test_parse_defaults_without_experiment_section(tmp_path):
    text = """\
[oracle ball]
kind = hypersphere
radius = 0.5

[points]
source = inline
values = 0.5 0.5
"""
    config = parse_config(write_config(tmp_path, text))
    assert config.name == "experiment"
    assert config.repetitions == 1 and config.base_seed == 0
    assert config.output_dir == "out"
    assert config.budgets == [1000, 5000, 20000]
    assert config.samplers == ["lhs", "srs"]
    assert config.statistics == ["mean", "median"]
    assert config.attack.initial_samples == 100
    assert config.attack.iterations == 64
    # single-line inline values still become one 2-d row
    assert config.points.values.shape == (1, 2)


def test_parse_key_aliases_match_canonical_spellings(tmp_path):
    aliased = """\
[oracle plane]
kind = halfspace
w = 1 0
b = -0.5

[oracle ball]
kind = hypersphere
r = 0.75

[oracle net]
kind = mlp
weights = model.txt
target = 1
class = 0

[oracle probe]
kind = external
cmd = run-me
m = 2

[points]
source = inline
values = 0.2 0.2
"""
    canonical = """\
[oracle plane]
kind = halfspace
normal = 1 0
offset = -0.5

[oracle ball]
kind = hypersphere
radius = 0.75

[oracle net]
kind = mlp
weights = model.txt
target_class = 1
original_class = 0

[oracle probe]
kind = external
cmd = run-me
dim = 2

[points]
source = inline
values = 0.2 0.2
"""
    a = parse_config(write_config(tmp_path, aliased, "a.cfg"))
    b = parse_config(write_config(tmp_path, canonical, "b.cfg"))
    assert a.oracles == b.oracles


def test_parse_list_keys_accept_commas_and_whitespace(tmp_path):
    commas = """\
[experiment]
budgets = 1000, 5000,20000
samplers = lhs,srs
statistics = median, mean

[oracle ball]
kind = hypersphere
radius = 0.5

[points]
source = inline
values = 0.5 0.5
"""
    spaces = commas.replace(",", " ")
    a = parse_config(write_config(tmp_path, commas, "a.cfg"))
    b = parse_config(write_config(tmp_path, spaces, "b.cfg"))
    assert a.budgets == b.budgets == [1000, 5000, 20000]
    assert a.samplers == b.samplers == ["lhs", "srs"]
    assert a.statistics == b.statistics == ["median", "mean"]


def test_key_tables_name_the_dataclass_fields():
    def names(cls, *left_out):
        return {f.name for f in dataclasses.fields(cls)} - set(left_out)

    assert set(ATTACK_KEYS) == names(AttackConfig, "sampler_kind", "seed", "init_target_image")
    assert set(EXPERIMENT_KEYS) == names(ExperimentConfig, "oracles", "points", "attack")
    assert set(POINTS_KEYS) == names(PointsConfig)
    # Every OracleSpecConfig field after kind, in field order; the aliases
    # name those fields.
    assert list(ORACLE_KEYS) == [f.name for f in dataclasses.fields(OracleSpecConfig)][2:]
    assert set(SPEC_KEYS.values()) == set(ORACLE_KEYS)


EMPTY_BASE = """\
[experiment]
[oracle ball]
kind = hypersphere
radius = 0.5
[points]
count = 2
dim = 2
[attack]
"""


@pytest.mark.parametrize("section,key", [
    *(("experiment", key) for key in EXPERIMENT_KEYS),
    *(("points", key) for key in ("source", "seed", "file", "values")),
    *(("attack", key) for key in ATTACK_KEYS),
])
def test_empty_value_means_the_default(tmp_path, section, key):
    text = EMPTY_BASE.replace(f"[{section}]\n", f"[{section}]\n{key} =\n")
    config = parse_config(write_config(tmp_path, text, "empty.cfg"))
    assert config == parse_config(write_config(tmp_path, EMPTY_BASE))


# ---------------------------------------------------------------------------
# Config parsing: rejection surface


MINIMAL_TAIL = """
[oracle ball]
kind = hypersphere
radius = 0.5

[points]
source = inline
values = 0.5 0.5
"""


def _expect_config_error(tmp_path, text, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(write_config(tmp_path, text, "bad.cfg"))


def test_parse_rejects_negative_base_seed(tmp_path):
    _expect_config_error(tmp_path, "[experiment]\nbase_seed = -3\n" + MINIMAL_TAIL,
                         r"base_seed must be >= 0")


@pytest.mark.parametrize("source", ["generate", "inline"])
def test_parse_rejects_negative_points_seed(tmp_path, source):
    points = ("source = generate\ncount = 2\ndim = 2\n" if source == "generate"
              else "source = inline\nvalues = 0.5 0.5\n")
    text = MINIMAL_TAIL.split("[points]")[0] + "[points]\n" + points + "seed = -1\n"
    _expect_config_error(tmp_path, text, r"\[points\] points: seed must be >= 0")


def test_parse_rejects_unknown_section(tmp_path):
    _expect_config_error(tmp_path, "[frobnicator]\nx = 1\n" + MINIMAL_TAIL,
                         r"unknown section")


def test_parse_rejects_unknown_experiment_key(tmp_path):
    _expect_config_error(tmp_path, "[experiment]\nbogus = 1\n" + MINIMAL_TAIL,
                         r"unknown key 'bogus'")


def test_parse_rejects_unknown_oracle_key(tmp_path):
    text = MINIMAL_TAIL.replace("radius = 0.5", "radius = 0.5\nshape = round")
    _expect_config_error(tmp_path, text, r"unknown key 'shape'")


def test_parse_rejects_unknown_points_key(tmp_path):
    text = MINIMAL_TAIL.replace("source = inline", "source = inline\nstyle = x")
    _expect_config_error(tmp_path, text, r"unknown key 'style'")


def test_parse_rejects_unknown_attack_key(tmp_path):
    _expect_config_error(tmp_path, MINIMAL_TAIL + "\n[attack]\nspeed = 9\n",
                         r"unknown key 'speed'")


BAD_BOX = r"clip_low, clip_high and clip_high - clip_low must be finite"


@pytest.mark.parametrize("attack_section,match", [
    ("clip_high = inf\n", BAD_BOX),
    ("clip_low = -inf\nclip_high = inf\n", BAD_BOX),
    ("clip_low = -1e308\nclip_high = 1e308\n", BAD_BOX),
    ("bisect_tol = 1e-320\n", r"bisect_tol must lie in \(0, 1\) and be at least"),
    ("clip_low = 0\nclip_high = 1e160\n",
     r"clip box width 1e\+160 is too wide for dimension 2: distances would overflow"),
])
def test_parse_rejects_bad_box_or_tolerance(tmp_path, attack_section, match):
    _expect_config_error(tmp_path, MINIMAL_TAIL + "\n[attack]\n" + attack_section,
                         r"\[attack\] " + match)


def test_parse_rejects_one_dimensional_points_without_a_tolerance(tmp_path):
    text = MINIMAL_TAIL.replace("source = inline\nvalues = 0.5 0.5",
                                "source = generate\ncount = 2\ndim = 1")
    _expect_config_error(tmp_path, text, r"\[attack\] .*set bisect_tol explicitly "
                                         r"for 1-dimensional inputs")
    config = parse_config(write_config(tmp_path, text + "\n[attack]\nbisect_tol = 0.01\n"))
    assert config.points.dim == 1


def test_parse_accepts_the_widest_box_the_points_dimension_allows(tmp_path):
    # Two coordinates of width w give a squared diagonal of 2 * w**2 = 2**1023.
    text = MINIMAL_TAIL + f"\n[attack]\nclip_low = 0\nclip_high = {2.0 ** 511!r}\n"
    assert parse_config(write_config(tmp_path, text)).attack.clip_high == 2.0 ** 511


@pytest.mark.parametrize("default_section", ["dim = 3\n", "seed = 3\n"])
def test_parse_rejects_a_default_section(tmp_path, default_section):
    # configparser would copy these keys into every section.
    _expect_config_error(tmp_path, "[DEFAULT]\n" + default_section + MINIMAL_TAIL,
                         r"\[DEFAULT\] section is not supported")


def test_parse_accepts_an_empty_default_section(tmp_path):
    config = parse_config(write_config(tmp_path, "[DEFAULT]\n" + MINIMAL_TAIL))
    assert config.points.dim == 2


def test_parse_requires_points_section(tmp_path):
    _expect_config_error(
        tmp_path, "[oracle ball]\nkind = hypersphere\nradius = 0.5\n",
        r"\[points\] section is required")


def test_parse_requires_an_oracle_section(tmp_path):
    _expect_config_error(tmp_path, "[points]\nsource = inline\nvalues = 0.5\n",
                         r"at least one \[oracle")


def test_parse_rejects_zero_repetitions(tmp_path):
    _expect_config_error(tmp_path,
                         "[experiment]\nrepetitions = 0\n" + MINIMAL_TAIL,
                         r"repetitions must be >= 1")


def test_parse_rejects_nonpositive_budget(tmp_path):
    _expect_config_error(tmp_path, "[experiment]\nbudgets = 0 100\n" + MINIMAL_TAIL,
                         r"budgets must be positive")


def test_parse_rejects_non_integer_budget(tmp_path):
    _expect_config_error(tmp_path, "[experiment]\nbudgets = ten\n" + MINIMAL_TAIL,
                         r"budgets")


def test_parse_rejects_unknown_sampler_name(tmp_path):
    _expect_config_error(tmp_path, "[experiment]\nsamplers = lhs qmc\n" + MINIMAL_TAIL,
                         r"samplers must be drawn")


def test_parse_rejects_unknown_statistic(tmp_path):
    _expect_config_error(tmp_path, "[experiment]\nstatistics = mode\n" + MINIMAL_TAIL,
                         r"statistics must be drawn")


@pytest.mark.parametrize("line,key", [("budgets = 100, 500, 100", "budgets"),
                                      ("samplers = lhs lhs", "samplers"),
                                      ("statistics = median,median", "statistics")])
def test_parse_rejects_repeated_list_entries(tmp_path, line, key):
    _expect_config_error(tmp_path, f"[experiment]\n{line}\n" + MINIMAL_TAIL,
                         rf"{key} must not repeat an entry")


@pytest.mark.parametrize("value", ["untargeted", "targeted"])
def test_parse_rejects_an_attack_mode(tmp_path, value):
    # Targeting is the mlp spec's target=; [attack] has no mode key.
    _expect_config_error(tmp_path, MINIMAL_TAIL + f"\n[attack]\nmode = {value}\n",
                         r"\[attack\] unknown key 'mode'")


@pytest.mark.parametrize("key", ["max_init_tries", "max_step_retries"])
def test_parse_rejects_a_search_cap(tmp_path, key):
    # The caps are fixed in attack.py; [attack] has no key for them.
    _expect_config_error(tmp_path, MINIMAL_TAIL + f"\n[attack]\n{key} = 5\n",
                         rf"\[attack\] unknown key '{key}'")


def test_parse_rejects_duplicate_oracle_names(tmp_path):
    text = "[oracle a]\nkind = hypersphere\nradius = 0.5\n" \
           "[oracle a ]\nkind = hypersphere\nradius = 0.25\n" \
           "[points]\nsource = inline\nvalues = 0.5 0.5\n"
    _expect_config_error(tmp_path, text, r"unique")


@pytest.mark.parametrize("oracle_section,match", [
    ("kind = hologram\n", r"unknown oracle kind"),
    ("kind = hypersphere\nradius = 0\n", r"radius must be positive"),
    ("kind = halfspace\nnormal = 1 0\n", r"needs normal and offset"),
    ("kind = halfspace\nnormal = 0 0\noffset = 1\n", r"nonzero"),
    ("kind = halfspace\nnormal = 1e308 1e308\noffset = -1\n",
     r"sum\(\|normal\|\) \+ \|offset\| must be finite"),
    ("kind = halfspace\nnormal = 1e308 -1\noffset = -1e308\n",
     r"sum\(\|normal\|\) \+ \|offset\| must be finite"),
    ("kind = mlp\n", r"needs a weights path"),
    ("kind = external\n", r"needs a command"),
    ("kind = hypersphere\nradius = inf\n", r"radius must be positive and finite"),
    ("kind = halfspace\nnormal = 1 0\noffset = nan\n", r"offset must be finite"),
    ("kind = external\ncmd = python3 \"serve.py\n", r"oracle 'x': cmd must be a command line"),
    ("kind = external\ncmd = run-me \\\n", r"oracle 'x': cmd must be a command line"),
    ("kind = external\ncmd = run\0me\n", r"oracle 'x': cmd must be .* no NUL byte"),
    ("kind = external\ncmd = run-me\ntimeout = 0\n", r"timeout must be positive"),
    ("kind = external\ncmd = run-me\ntimeout = -1\n", r"timeout must be positive"),
    ("kind = external\ncmd = run-me\ntimeout = nan\n", r"timeout must be positive and finite"),
    ("kind = external\ncmd = run-me\ntimeout = 1e300\n", r"timeout must be .* at most 9223372036 s"),
    ("kind = hypersphere\nr = 0.5\nradius = 0.7\n", r"radius given more than once"),
    ("kind = halfspace\nw = 1 0\nnormal = 1 0\nb = 0\n", r"normal given more than once"),
    ("kind = hypersphere\nradius = abc\n", r"bad value for 'radius'"),
    ("kind = hypersphere\nradius = 0.5\ndim = 0\n", r"dim must be an integer >= 1"),
    ("kind = hypersphere\nradius = 0.5\nm = -3\n", r"dim must be an integer >= 1"),
    ("kind = mlp\nweights = w.txt\nclass = -1\n", r"original_class must be an integer >= 0"),
    ("kind = mlp\nweights = w.txt\ntarget = -1\n", r"target_class must be an integer >= 0"),
])
def test_parse_rejects_bad_oracle_sections(tmp_path, oracle_section, match):
    text = "[oracle x]\n" + oracle_section + \
           "[points]\nsource = inline\nvalues = 0.5 0.5\n"
    _expect_config_error(tmp_path, text, match)


@pytest.mark.parametrize("points_section,match", [
    ("source = telepathy\n", r"unknown points source"),
    ("source = inline\n", r"needs values"),
    ("source = generate\ndim = 3\n", r"generate needs count"),
    ("source = file\n", r"needs a file path"),
    ("source = inline\nvalues = 0.5 0.5\n  0.5 nan\n", r"values must be finite"),
    ("source = inline\nvalues = inf 0.5\n", r"values must be finite"),
])
def test_parse_rejects_bad_points_sections(tmp_path, points_section, match):
    text = "[oracle ball]\nkind = hypersphere\nradius = 0.5\n" \
           "[points]\n" + points_section
    _expect_config_error(tmp_path, text, match)


def test_parse_rejects_halfspace_dimension_mismatch(tmp_path):
    text = "[oracle plane]\nkind = halfspace\nnormal = 1 0\noffset = -0.5\n" \
           "[points]\nsource = inline\nvalues = 0.5 0.5 0.5\n"
    _expect_config_error(tmp_path, text, r"coordinates but points have dimension 3")


def test_parse_rejects_center_dimension_mismatch(tmp_path):
    text = "[oracle ball]\nkind = hypersphere\nradius = 0.5\ncenter = 0.5 0.5\n" \
           "[points]\nsource = inline\nvalues = 0.5 0.5 0.5\n"
    _expect_config_error(tmp_path, text, r"center has 2 coordinates but points have dimension 3")


def test_parse_rejects_oracle_dim_conflict(tmp_path):
    text = "[oracle probe]\nkind = external\ncmd = run-me\ndim = 5\n" \
           "[points]\nsource = inline\nvalues = 0.5 0.5 0.5\n"
    _expect_config_error(tmp_path, text, r"dim=5 conflicts with points dimension 3")


def test_parse_rejects_spec_with_conflicting_dims(tmp_path):
    text = "[oracle ball]\nkind = hypersphere\nradius = 0.5\ndim = 4\n" \
           "center = 0.5 0.5 0.5\n[points]\nsource = file\nfile = pts.txt\n"
    _expect_config_error(tmp_path, text, r"conflicting input dimensions \[3, 4\]")


def test_parse_rejects_non_utf8_config(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_bytes(MINIMAL_TAIL.encode("ascii").replace(b"ball", b"b\xffll"))
    with pytest.raises(ConfigError, match=r"not UTF-8"):
        parse_config(str(path))


def test_parse_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match=r"cannot read config"):
        parse_config(str(tmp_path / "nope.cfg"))


def test_parse_malformed_ini_is_config_error(tmp_path):
    _expect_config_error(tmp_path, "orphan = 1\n", r"malformed config")


# ---------------------------------------------------------------------------
# Oracle realization


def test_build_oracle_hypersphere_centers_on_original():
    spec = OracleSpecConfig(name="ball", kind="hypersphere", radius=0.5)
    x = np.array([0.2, 0.4, 0.6])
    oracle = build_oracle(spec, x)
    assert isinstance(oracle, HypersphereOracle)
    assert np.array_equal(oracle.original, x)
    assert oracle.radius == 0.5


def test_build_oracle_hypersphere_honors_explicit_center():
    center = np.array([0.9, 0.1, 0.4])
    spec = OracleSpecConfig(name="ball", kind="hypersphere", radius=0.5,
                            center=center)
    oracle = build_oracle(spec, np.array([0.2, 0.4, 0.6]))
    assert np.array_equal(oracle.original, center)


def test_build_oracle_center_dimension_mismatch():
    spec = OracleSpecConfig(name="ball", kind="hypersphere", radius=0.5,
                            center=np.array([0.9, 0.1]))
    with pytest.raises(ConfigError, match=r"center/point dimension"):
        build_oracle(spec, np.array([0.2, 0.4, 0.6]))


def test_build_oracle_halfspace():
    spec = OracleSpecConfig(name="plane", kind="halfspace",
                            normal=np.array([3.0, 4.0]), offset=-2.0)
    x = np.array([0.1, 0.1])
    oracle = build_oracle(spec, x)
    assert isinstance(oracle, HalfspaceOracle)
    assert oracle.offset == -2.0
    assert np.array_equal(oracle.normal, [3.0, 4.0])


def test_build_oracle_halfspace_dimension_mismatch():
    spec = OracleSpecConfig(name="plane", kind="halfspace",
                            normal=np.array([1.0, 0.0]), offset=0.0)
    with pytest.raises(ConfigError, match=r"normal/point dimension"):
        build_oracle(spec, np.array([0.2, 0.4, 0.6]))


def test_build_oracle_mlp_uses_model_cache(mlp_fixture_path):
    spec = OracleSpecConfig(name="net", kind="mlp", weights=mlp_fixture_path)
    x = np.full(64, 0.5)
    cache = {}
    o1 = build_oracle(spec, x, cache)
    o2 = build_oracle(spec, x, cache)
    assert isinstance(o1, MlpOracle)
    assert o1.model is o2.model
    # a fresh cache (or none) loads an independent copy
    o3 = build_oracle(spec, x)
    assert o3.model is not o1.model
    assert o1.original_class in (0, 1)


def test_build_oracle_mlp_targeted_when_target_class_given(mlp_fixture_path):
    spec = OracleSpecConfig(name="net", kind="mlp", weights=mlp_fixture_path,
                            target_class=1)
    oracle = build_oracle(spec, np.full(64, 0.5))
    assert oracle.target_class == 1
    X = np.random.default_rng(5).random((50, 64))
    top = [int(np.argmax(mlp_forward(oracle.model, x))) for x in X]
    assert [oracle._decide(x) for x in X] == [1 if t == 1 else -1 for t in top]


def test_build_oracle_external_dim_mismatch_before_launch():
    spec = OracleSpecConfig(name="probe", kind="external", cmd="run-me", dim=5)
    with pytest.raises(ConfigError, match=r"dim=5"):
        build_oracle(spec, np.array([0.2, 0.4, 0.6]))


def test_build_oracle_without_original_uses_the_spec_alone(mlp_fixture_path):
    ball = build_oracle(OracleSpecConfig(name="ball", kind="hypersphere", radius=0.5,
                                         center=np.array([0.1, 0.2])))
    assert np.array_equal(ball.original, [0.1, 0.2])
    net = build_oracle(OracleSpecConfig(name="net", kind="mlp",
                                        weights=mlp_fixture_path, original_class=1))
    assert net.original is None and net.original_class == 1
    probe = build_oracle(OracleSpecConfig(name="probe", kind="external",
                                          cmd="run-me", dim=4))
    assert probe.dim == 4 and probe.cmd == ["run-me"]


@pytest.mark.parametrize("spec,match", [
    (OracleSpecConfig(name="ball", kind="hypersphere", radius=0.5), r"needs center"),
    (OracleSpecConfig(name="probe", kind="external", cmd="run-me"), r"dimension unknown"),
])
def test_build_oracle_without_original_rejects_incomplete_specs(spec, match):
    with pytest.raises(ConfigError, match=match):
        build_oracle(spec)


# ---------------------------------------------------------------------------
# Point loading and generation


def test_load_points_file_skips_blank_lines(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("0.5 0.25\n\n1 2\n")
    points = load_points_file(str(path))
    assert points.shape == (2, 2)
    assert np.array_equal(points, [[0.5, 0.25], [1.0, 2.0]])


def test_load_points_file_reports_line_number(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("0.5 0.25\n\n1 2\n0.1 nope\n")
    with pytest.raises(ConfigError, match=r"pts\.txt:4:"):
        load_points_file(str(path))


def test_load_points_file_rejects_non_ascii(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_bytes(b"0.5 0.25\n0.5 0.2\xb5\n")
    with pytest.raises(ConfigError, match=r"not ASCII"):
        load_points_file(str(path))


def test_load_points_file_rejects_empty(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("\n\n")
    with pytest.raises(ConfigError, match=r"is empty"):
        load_points_file(str(path))


def test_generate_points_shape_bounds_and_determinism():
    a = generate_points(5, 7, seed=3, lo=0.2, hi=0.8)
    b = generate_points(5, 7, seed=3, lo=0.2, hi=0.8)
    c = generate_points(5, 7, seed=4, lo=0.2, hi=0.8)
    assert a.shape == (5, 7)
    assert np.all(a >= 0.2) and np.all(a <= 0.8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_generate_points_rejection_sampling_honors_predicate():
    points = generate_points(8, 3, seed=0, accept=lambda p: p[0] > 0.7)
    assert np.all(points[:, 0] > 0.7)


def test_generate_points_gives_up_on_impossible_predicate():
    calls = []
    with pytest.raises(ConfigError, match=r"could not generate .* in 1000 tries"):
        generate_points(1, 3, seed=0, accept=lambda p: calls.append(p) and False)
    assert len(calls) == 1000


# ---------------------------------------------------------------------------
# CSV emission


def _trace_row(queries, distortion, **kw):
    base = dict(t=0, n_samples=0, probe_step=0.0, step_size=0.0,
                queries=queries, distortion=distortion, agree_count=0,
                step_retries=0, bisect_steps=0)
    base.update(kw)
    return TraceRow(**base)


def test_emit_trace_csv_empty_trace(tmp_path):
    path = tmp_path / "trace.csv"
    emit_trace_csv(AttackTrace(rows=[], status=COMPLETED, ledger=QueryLedger()),
                   str(path))
    expected_header = ("t,M_t,delta_t,epsilon_t,queries,distortion,"
                       "agree_count,step_retries,binsearch_steps")
    assert path.read_text() == expected_header + "\n# status=completed\n"
    rows, status = parse_trace_csv(str(path))
    assert rows == [] and status == "completed"


def test_emit_trace_csv_roundtrips_awkward_floats(tmp_path):
    rows = [
        _trace_row(123, 5e-324, t=0, n_samples=100, probe_step=0.1,
                   step_size=2.0 / 3.0, agree_count=60, bisect_steps=9),
        _trace_row(456, 1.0 / 3.0, t=1, n_samples=114, probe_step=1e308,
                   step_size=0.0, agree_count=57, step_retries=2,
                   bisect_steps=9),
    ]
    path = tmp_path / "trace.csv"
    emit_trace_csv(AttackTrace(rows=rows, status="budget_exhausted",
                               ledger=QueryLedger()), str(path))
    parsed, status = parse_trace_csv(str(path))
    assert status == "budget_exhausted"
    assert len(parsed) == 2
    for row, expect in zip(parsed, rows):
        for name in ("t", "n_samples", "probe_step", "step_size", "queries",
                     "distortion", "agree_count", "step_retries",
                     "bisect_steps"):
            assert row[name] == getattr(expect, name)


def test_emit_summary_csv_rows_and_failure_comments(tmp_path):
    rows = [SummaryRow(oracle="ball", sampler="lhs", budget=1000,
                       statistic="median", distortion=0.125, repetitions=50)]
    failures = [RunRecord(oracle="ball", sampler="srs", point_index=3, rep=7,
                          seed=0, trace_path="", status="init_failed",
                          error="boom")]
    path = tmp_path / "summary.csv"
    emit_summary_csv(rows, str(path), failures)
    text = path.read_text().splitlines()
    assert text[0] == "oracle,sampler,budget,statistic,distortion,repetitions"
    assert text[1] == "ball,lhs,1000,median,0.125,50"
    assert text[2] == "# failed oracle=ball sampler=srs point=3 rep=7 status=init_failed"
    parsed, comments = parse_summary_csv(str(path))
    assert parsed == [{"oracle": "ball", "sampler": "lhs", "budget": 1000,
                       "statistic": "median", "distortion": 0.125,
                       "repetitions": 50}]
    assert len(comments) == 1


def test_distortion_at_budget_takes_best_within_prefix():
    trace = AttackTrace(rows=[_trace_row(120, 0.9), _trace_row(300, 0.4),
                              _trace_row(800, 0.6)],
                        status=COMPLETED, ledger=QueryLedger())
    assert distortion_at_budget(trace, 1000) == 0.4
    assert distortion_at_budget(trace, 800) == 0.4
    assert distortion_at_budget(trace, 500) == 0.4
    assert distortion_at_budget(trace, 299) == 0.9
    assert distortion_at_budget(trace, 119) is None


# ---------------------------------------------------------------------------
# Experiment execution


GRID_CONFIG = """\
[experiment]
name = grid
repetitions = 2
base_seed = 5
budgets = 300 800
samplers = lhs srs
statistics = mean median

[oracle sph]
kind = hypersphere
radius = 0.25

[points]
source = inline
values =
    0.5 0.5 0.5 0.5 0.5
    0.4 0.6 0.5 0.45 0.55

[attack]
initial_samples = 10
iterations = 8
"""


@pytest.fixture(scope="module")
def grid_result(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("grid")
    config = parse_config(write_config(tmp, GRID_CONFIG))
    out = tmp / "out"
    return config, run_experiment(config, output_dir=str(out)), out


def test_run_experiment_writes_one_trace_per_cell(grid_result):
    _, result, out = grid_result
    assert len(result.runs) == 8
    assert all(r.status == COMPLETED and r.error is None for r in result.runs)
    assert len(result.traces) == 8
    for sampler in ("lhs", "srs"):
        for pi in (0, 1):
            for rep in (0, 1):
                name = f"trace_sph_{sampler}_pt{pi:03d}_rep{rep:03d}.csv"
                assert (out / name).exists()
                assert ("sph", sampler, pi, rep) in result.traces
                rows, status = parse_trace_csv(str(out / name))
                assert status == "completed"
                assert rows and rows[-1]["queries"] <= 800


def test_run_experiment_pairs_sampler_seeds(grid_result):
    _, result, _ = grid_result
    seeds = {}
    for rec in result.runs:
        seeds.setdefault((rec.point_index, rec.rep), set()).add(rec.seed)
    # same (point, rep) cell -> identical seed across samplers ...
    assert all(len(s) == 1 for s in seeds.values())
    # ... and distinct cells draw distinct seeds
    assert len({s.pop() for s in seeds.values()}) == 4


def test_run_experiment_summary_cardinality_and_counts(grid_result):
    _, result, _ = grid_result
    rows = result.summary_rows
    assert len(rows) == 8  # 2 samplers x 2 budgets x 2 statistics
    assert {(r.sampler, r.budget, r.statistic) for r in rows} == {
        (s, b, st) for s in ("lhs", "srs") for b in (300, 800)
        for st in ("mean", "median")}
    assert all(r.oracle == "sph" for r in rows)
    assert all(r.repetitions == 4 for r in rows)  # 2 points x 2 reps


def test_run_experiment_distortion_never_worsens_with_budget(grid_result):
    _, result, _ = grid_result
    by = {(r.sampler, r.statistic, r.budget): r.distortion
          for r in result.summary_rows}
    for sampler in ("lhs", "srs"):
        for stat in ("mean", "median"):
            assert by[(sampler, stat, 800)] <= by[(sampler, stat, 300)]


def test_run_experiment_summary_recomputes_from_traces(grid_result):
    _, result, _ = grid_result
    for row in result.summary_rows:
        values = []
        for (oname, sampler, _pi, _rep), trace in result.traces.items():
            if oname == row.oracle and sampler == row.sampler:
                d = distortion_at_budget(trace, row.budget)
                if d is not None:
                    values.append(d)
        expected = float(np.mean(values)) if row.statistic == "mean" \
            else float(np.median(values))
        assert row.distortion == expected
        assert row.repetitions == len(values)


def test_run_experiment_summary_file_matches_rows(grid_result):
    _, result, _ = grid_result
    parsed, comments = parse_summary_csv(result.summary_path)
    assert comments == []
    assert len(parsed) == len(result.summary_rows)
    for got, row in zip(parsed, result.summary_rows):
        assert got["oracle"] == row.oracle
        assert got["sampler"] == row.sampler
        assert got["budget"] == row.budget
        assert got["statistic"] == row.statistic
        assert got["distortion"] == row.distortion
        assert got["repetitions"] == row.repetitions


def test_run_experiment_is_deterministic(grid_result, tmp_path):
    config, _, out = grid_result
    rerun = run_experiment(config, output_dir=str(tmp_path / "out2"))
    with open(result_path := os.path.join(str(out), "summary.csv"), "rb") as fh:
        first = fh.read()
    with open(rerun.summary_path, "rb") as fh:
        assert fh.read() == first, result_path
    name = "trace_sph_lhs_pt001_rep001.csv"
    assert (tmp_path / "out2" / name).read_bytes() == (out / name).read_bytes()


def test_run_experiment_records_failures_and_continues(tmp_path):
    text = """\
[experiment]
repetitions = 2
budgets = 400
samplers = lhs srs
statistics = median

[oracle ball]
kind = hypersphere
radius = 0.2
center = 0.5 0.5 0.5

[points]
source = inline
values =
    0.5 0.5 0.5
    0.95 0.95 0.95

[attack]
initial_samples = 8
iterations = 6
"""
    config = parse_config(write_config(tmp_path, text))
    result = run_experiment(config, output_dir=str(tmp_path / "out"))
    assert len(result.runs) == 8
    bad = [r for r in result.runs if r.point_index == 1]
    good = [r for r in result.runs if r.point_index == 0]
    assert len(bad) == 4
    assert all(r.status == "init_failed" for r in bad)
    assert all(r.error == "original point is already adversarial" for r in bad)
    assert all(r.trace_path == "" for r in bad)
    assert all(r.status == COMPLETED and r.error is None for r in good)
    # the failed point contributes no traces and no statistics
    assert len(result.traces) == 4
    assert all(key[2] == 0 for key in result.traces)
    assert all(r.repetitions == 2 for r in result.summary_rows)
    parsed, comments = parse_summary_csv(result.summary_path)
    assert len(parsed) == 2  # 2 samplers x 1 budget x 1 statistic
    assert len(comments) == 4
    assert all("point=1" in c and "status=init_failed" in c for c in comments)


def test_run_experiment_skips_budgets_below_first_record(tmp_path):
    text = """\
[experiment]
budgets = 1 400
statistics = median

[oracle ball]
kind = hypersphere
radius = 0.25

[points]
source = inline
values = 0.5 0.5 0.5

[attack]
initial_samples = 8
iterations = 6
"""
    config = parse_config(write_config(tmp_path, text))
    result = run_experiment(config, output_dir=str(tmp_path / "out"))
    # no run records a point within one query, so budget 1 yields no row
    assert {r.budget for r in result.summary_rows} == {400}
    assert len(result.summary_rows) == 2  # 2 samplers x 1 budget x 1 stat


def test_run_experiment_generate_source_filters_originals(tmp_path):
    text = """\
[experiment]
budgets = 200
statistics = median

[oracle plane]
kind = halfspace
normal = 1 1 1 1
offset = -2

[points]
source = generate
count = 3
dim = 4
seed = 17

[attack]
initial_samples = 6
iterations = 4
"""
    config = parse_config(write_config(tmp_path, text))
    result = run_experiment(config, output_dir=str(tmp_path / "out"))
    # rejection sampling only keeps originals the oracle answers -1 on,
    # so every run must get past initialization
    assert len(result.runs) == 6
    assert all(r.status == COMPLETED for r in result.runs)
    assert len(result.traces) == 6


def test_run_experiment_generate_source_screens_external_oracles(tmp_path, mlp_fixture_path):
    # Unscreened, 4 of the 10 points drawn at this seed are ones the served
    # MLP already calls adversarial; the child itself must screen them out.
    src = os.path.dirname(os.path.dirname(lhsattack.__file__))
    cmd = shlex.join([sys.executable, "-c",
                      "import sys; sys.path.insert(0, sys.argv.pop(1)); "
                      "from lhsattack.cli import main; sys.exit(main())",
                      src, "oracle-serve", f"mlp:weights={mlp_fixture_path},class=0"])
    config = ExperimentConfig(
        oracles=[OracleSpecConfig(name="net", kind="external", cmd=cmd)],
        points=PointsConfig(source="generate", count=10, dim=64, seed=8),
        attack=AttackConfig(iterations=1), budgets=[300])
    result = run_experiment(config, output_dir=str(tmp_path / "out"))
    assert len(result.runs) == 20
    assert not [r for r in result.runs if r.status == "init_failed"]


def test_run_experiment_file_source(tmp_path):
    pts = tmp_path / "pts.txt"
    pts.write_text("0.5 0.5 0.5\n")
    text = f"""\
[experiment]
budgets = 200
statistics = median

[oracle ball]
kind = hypersphere
radius = 0.3

[points]
source = file
file = {pts}

[attack]
initial_samples = 6
iterations = 4
"""
    config = parse_config(write_config(tmp_path, text))
    result = run_experiment(config, output_dir=str(tmp_path / "out"))
    assert len(result.runs) == 2
    assert all(r.status == COMPLETED for r in result.runs)


def test_run_experiment_shares_one_buffer_scope_and_leaves_none(tmp_path, monkeypatch):
    from lhsattack import attack, samplers

    config = parse_config(write_config(tmp_path, GRID_CONFIG))
    real, seen = attack.estimate_gradient, []

    def spy(*args, **kwargs):
        seen.append(samplers._local.buffers)
        return real(*args, **kwargs)

    # Every estimate of the grid's 8 runs of 8 iterations draws into one scope.
    monkeypatch.setattr(attack, "estimate_gradient", spy)
    result = run_experiment(config, output_dir=str(tmp_path / "out"))
    assert all(r.status == COMPLETED for r in result.runs)
    assert len(seen) == 64 and all(buffers is seen[0] for buffers in seen)
    assert (seen[0].rows, seen[0].dim) == (schedule_samples(7, 10), 5)
    assert getattr(samplers._local, "buffers", None) is None

    def fails(oracle, point, cfg):
        raise RuntimeError("run failed")

    monkeypatch.setattr(harness, "run_attack", fails)
    with pytest.raises(RuntimeError, match="run failed"):
        run_experiment(config, output_dir=str(tmp_path / "out2"))
    assert getattr(samplers._local, "buffers", None) is None


def test_run_experiment_rejects_non_finite_file_points(tmp_path):
    pts = tmp_path / "pts.txt"
    pts.write_text("0.5 0.5 0.5\n0.5 -inf 0.5\n")
    text = f"""\
[oracle ball]
kind = hypersphere
radius = 0.3

[points]
source = file
file = {pts}
"""
    config = parse_config(write_config(tmp_path, text))
    with pytest.raises(ConfigError, match=r"pts.txt:2: coordinates must be finite"):
        run_experiment(config, output_dir=str(tmp_path / "out"))


def test_run_experiment_rejects_file_points_of_another_dimension(tmp_path, monkeypatch):
    # Without [points] dim the file's width is known only once it is read;
    # it is checked then, like inline points at parse, before any oracle.
    pts = tmp_path / "pts.txt"
    pts.write_text("0.5 0.5\n0.4 0.6\n")
    text = f"""\
[oracle ball]
kind = hypersphere
radius = 0.3
dim = 3

[points]
source = file
file = {pts}
"""
    config = parse_config(write_config(tmp_path, text))
    monkeypatch.setattr(harness, "build_oracle", lambda *a: pytest.fail("oracle built"))
    with pytest.raises(ConfigError, match="'ball': dim=3 conflicts with points dimension 2"):
        run_experiment(config, output_dir=str(tmp_path / "out"))


@pytest.mark.parametrize("source", ["inline", "generate"])
def test_run_experiment_rejects_mlp_weights_of_another_width(
        tmp_path, monkeypatch, mlp_fixture_path, source):
    # The weights' input width is checked against the points before any
    # oracle is built, so the ball's runs do not go first and the net's then
    # stop the grid with a bare shape error and no summary.
    points = ("source = inline\nvalues = 0.5 0.5 0.5\n    0.4 0.6 0.5\n"
              if source == "inline" else "count = 2\ndim = 3\n")
    text = f"""\
[experiment]
budgets = 100

[oracle ball]
kind = hypersphere
radius = 0.45

[oracle net]
kind = mlp
weights = {mlp_fixture_path}

[points]
{points}"""
    config = parse_config(write_config(tmp_path, text))
    monkeypatch.setattr(harness, "build_oracle", lambda *a: pytest.fail("oracle built"))
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match=rf"oracle 'net': weights '{re.escape(mlp_fixture_path)}' "
                                          r"take 64 inputs but points have dimension 3"):
        run_experiment(config, output_dir=str(out))
    assert not out.exists()


def test_run_experiment_builds_each_oracle_once_per_point(tmp_path, monkeypatch):
    built = []

    def counted(spec, point, *rest):
        built.append((spec.name, tuple(point)))
        return build_oracle(spec, point, *rest)

    monkeypatch.setattr(harness, "build_oracle", counted)
    text = GRID_CONFIG.replace("repetitions = 2", "repetitions = 3").replace(
        "[points]", "[oracle plane]\nkind = halfspace\nw = 1 0 0 0 0\nb = -0.9\n\n[points]")
    config = parse_config(write_config(tmp_path, text))
    result = run_experiment(config, output_dir=str(tmp_path / "out"))
    assert len(result.runs) == 2 * 2 * 3 * 2
    assert all(r.status == COMPLETED for r in result.runs)
    assert len(built) == len(set(built)) == 2 * 2     # (spec, point) pairs


# ---------------------------------------------------------------------------
# Paired benchmark: stratified vs plain sampling on an offset boundary

# The ball's center is displaced from the attacked point, so the nearest
# adversarial point (distortion 0.15 = radius - offset) must be found by
# walking the boundary rather than by the initial bisection alone.


def test_paired_benchmark_offset_sphere_median_dominance(tmp_path):
    center = " ".join(["0.8"] + ["0.5"] * 19)
    origin = " ".join(["0.5"] * 20)
    text = f"""\
[experiment]
name = paired
repetitions = 50
base_seed = 0
budgets = 1000 5000 20000
samplers = lhs srs
statistics = median

[oracle sphere]
kind = hypersphere
radius = 0.45
center = {center}

[points]
source = inline
values = {origin}

[attack]
initial_samples = 100
iterations = 64
"""
    config = parse_config(write_config(tmp_path, text))
    result = run_experiment(config, output_dir=str(tmp_path / "out"))
    assert all(r.status == COMPLETED for r in result.runs)
    by = {(r.sampler, r.budget): r.distortion for r in result.summary_rows}
    for budget in (1000, 5000, 20000):
        lhs_med, srs_med = by[("lhs", budget)], by[("srs", budget)]
        # no adversarial point sits closer than radius minus center offset
        assert lhs_med >= 0.15 - 1e-9
        assert srs_med >= 0.15 - 1e-9
        # stratified probes track plain probes' seed, then do no worse
        assert lhs_med <= srs_med
    for sampler in ("lhs", "srs"):
        assert by[(sampler, 20000)] <= by[(sampler, 5000)] <= by[(sampler, 1000)]
        assert by[(sampler, 20000)] < 0.16
