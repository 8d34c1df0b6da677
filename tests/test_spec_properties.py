"""Property tests for the two oracle-spec grammars and the config round trip."""

import os
import tempfile

from hypothesis import given, settings, strategies as st

from lhsattack.cli import parse_oracle_spec
from lhsattack.errors import ConfigError
from lhsattack.harness import (
    ATTACK_KEYS, ORACLE_KINDS, SPEC_KEYS, parse_config, serialize_config)
from lhsattack.oracles import MAX_TIMEOUT_S

finite = st.floats(allow_nan=False, allow_infinity=False)
# Halfspace values: a normal and offset whose |.| sum overflows are invalid.
bounded = st.floats(min_value=-1e300, max_value=1e300)
positive = st.floats(min_value=1e-300, max_value=1e300)
# External timeouts: select() takes none longer than MAX_TIMEOUT_S.
timeout = st.floats(min_value=1e-300, max_value=MAX_TIMEOUT_S)
word = st.from_regex(r"[A-Za-z0-9_./-]{1,12}", fullmatch=True)


def spelling(canonical, alias):
    return st.sampled_from((canonical, alias))


def vector(dim, values=finite):
    return st.lists(values, min_size=dim, max_size=dim)


def floats_text(values):
    return " ".join(repr(float(v)) for v in values)


@st.composite
def oracle_section(draw, name, dim):
    """The lines of one ``[oracle <name>]`` section, keys under any spelling."""
    kind = draw(st.sampled_from(ORACLE_KINDS))
    lines = [f"[oracle {name}]", f"kind = {kind}"]
    if kind == "hypersphere":
        lines.append(f"{draw(spelling('radius', 'r'))} = {draw(positive)!r}")
        if draw(st.booleans()):
            lines.append(f"center = {floats_text(draw(vector(dim)))}")
    elif kind == "halfspace":
        normal = draw(vector(dim, bounded).filter(any))
        lines.append(f"{draw(spelling('normal', 'w'))} = {floats_text(normal)}")
        lines.append(f"{draw(spelling('offset', 'b'))} = {draw(bounded)!r}")
    elif kind == "mlp":
        lines.append(f"weights = {draw(word)}")
        for canonical, alias in (("original_class", "class"), ("target_class", "target")):
            if draw(st.booleans()):
                lines.append(f"{draw(spelling(canonical, alias))} = {draw(st.integers(0, 9))}")
    else:
        lines.append(f"cmd = {draw(word)} {draw(word)}")
        if draw(st.booleans()):
            lines.append(f"timeout = {draw(timeout)!r}")
    if draw(st.booleans()):
        lines.append(f"{draw(spelling('dim', 'm'))} = {dim}")
    return lines


# Every [attack] key; clip_low <= 0 < clip_high keeps any drawn box valid.
ATTACK_VALUES = {
    "initial_samples": st.integers(1, 500),
    "iterations": st.integers(1, 100),
    "bisect_tol": st.floats(min_value=2.0 ** -53, max_value=1.0, exclude_max=True),
    "max_queries": st.integers(1, 10**9),
    "clip_low": st.floats(-10, 0),
    "clip_high": st.floats(1e-6, 10),
}


def optional_line(key, values):
    """No line, an empty ``key =`` (the default), or ``key = <drawn value>``."""
    return st.one_of(st.just([]), st.just([f"{key} ="]),
                     values.map(lambda v: [f"{key} = {v}"]))


@st.composite
def config_text(draw):
    dim = draw(st.integers(1, 5))
    names = draw(st.lists(st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True),
                          min_size=1, max_size=4, unique=True))
    lines = ["[experiment]",
             *draw(optional_line("name", word)),
             f"repetitions = {draw(st.integers(1, 3))}",
             f"base_seed = {draw(st.integers(0, 2**32))}",
             *draw(optional_line("output_dir", word)),
             "budgets = " + " ".join(str(b) for b in draw(
                 st.lists(st.integers(1, 10**6), min_size=1, max_size=3, unique=True))),
             "samplers = " + " ".join(draw(st.permutations(("lhs", "srs")))),
             *draw(optional_line("statistics", st.lists(
                 st.sampled_from(("mean", "median")), min_size=1, max_size=2,
                 unique=True).map(" ".join))),
             ""]
    for name in names:
        lines += draw(oracle_section(name, dim)) + [""]
    source = draw(st.sampled_from(("generate", "inline", "file")))
    lines += ["[points]", f"source = {source}"]
    if source == "generate":
        lines += [f"count = {draw(st.integers(1, 50))}", f"dim = {dim}",
                  f"seed = {draw(st.integers(0, 99))}"]
    elif source == "file":
        lines.append(f"file = {draw(word)}")
        if draw(st.booleans()):
            lines.append(f"dim = {dim}")
        if draw(st.booleans()):
            lines.append(f"seed = {draw(st.integers(1, 99))}")
    else:
        lines.append("values =")
        for row in draw(st.lists(vector(dim), min_size=1, max_size=3)):
            lines.append("    " + floats_text(row))
    lines += ["", "[attack]"]
    for key, values in ATTACK_VALUES.items():
        if key == "bisect_tol" and dim == 1:
            # The default tolerance, dim ** -1.5, is 1 at one coordinate.
            lines.append(f"{key} = {draw(values)}")
        else:
            lines += draw(optional_line(key, values))
    return "\n".join(lines) + "\n"


def test_attack_values_cover_every_attack_key():
    assert set(ATTACK_VALUES) == set(ATTACK_KEYS)


def parse_text(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "exp.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return parse_config(path)


@settings(max_examples=150, deadline=None)
@given(config_text())
def test_serialize_then_parse_is_the_identity(text):
    config = parse_text(text)
    serialized = serialize_config(config)
    again = parse_text(serialized)
    assert again == config
    assert serialize_config(again) == serialized


token = st.one_of(
    st.sampled_from(sorted(SPEC_KEYS)).flatmap(lambda key: st.one_of(
        st.just(key + "="),
        st.tuples(st.just(key), st.one_of(
            st.text(max_size=8), finite.map(repr),
            st.sampled_from(("nan", "inf", "-1", "0", "1e999", "1;2;3", ";;", "3.5")),
            st.lists(finite.map(repr), max_size=4).map(";".join),
        )).map(lambda kv: f"{kv[0]}={kv[1]}"))),
    st.text(max_size=10),
)
spec_text = st.one_of(
    st.text(),
    st.tuples(st.one_of(st.sampled_from(ORACLE_KINDS), st.text(max_size=6)),
              st.lists(token, max_size=6).map(",".join),
              st.one_of(st.just(""), st.text(max_size=10).map(lambda t: ",cmd=" + t)))
    .map(lambda p: f"{p[0]}:{p[1]}{p[2]}"),
).filter(lambda t: "@" not in t)


@settings(max_examples=1500, deadline=None)
@given(spec_text)
def test_parse_oracle_spec_raises_only_config_error(text):
    try:
        parse_oracle_spec(text)
    except ConfigError:
        pass
