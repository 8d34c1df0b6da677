"""Property tests for the float-line and weights-file parsers."""

import os
import tempfile

from hypothesis import given, settings, strategies as st

from lhsattack.errors import ProtocolError, WeightsFormatError
from lhsattack.oracles import load_mlp, parse_floats

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "fixtures", "mlp_8x8_2class.txt")
with open(FIXTURE, "rb") as _fh:
    FIXTURE_LINES = _fh.read().splitlines()

number_text = st.one_of(
    st.floats().map(repr), st.integers(-3, 10**12).map(str),
    st.sampled_from(("nan", "-inf", "1e999", "0x10", "1_0", "--1", ".", "e5")))
line_text = st.one_of(st.text(max_size=40),
                      st.lists(number_text, max_size=6).map(" ".join))


@settings(max_examples=1000, deadline=None)
@given(line_text, st.integers(0, 6))
def test_parse_floats_raises_only_protocol_error(text, expected):
    try:
        values = parse_floats(text, expected)
    except ProtocolError:
        return
    assert values.shape == (expected,)


def load_bytes(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "weights.txt")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            load_mlp(path)
        except WeightsFormatError:
            pass


weights_token = st.one_of(
    number_text, st.text(max_size=6),
    st.sampled_from(("mlp", "layer", "relu", "identity", "k=2", "k=1", "layers=1",
                     "layers=2", "layers=-1", "k=x")))
small_weights = st.lists(st.lists(weights_token, max_size=5).map(" ".join),
                         max_size=8).map(lambda lines: "\n".join(lines).encode("utf-8"))


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.binary(max_size=200), small_weights))
def test_load_mlp_raises_only_weights_format_error_on_arbitrary_bytes(data):
    load_bytes(data)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, len(FIXTURE_LINES) - 1),
       st.one_of(st.binary(max_size=60), line_text.map(lambda t: t.encode("utf-8")),
                 st.none()))
def test_load_mlp_raises_only_weights_format_error_on_fixture_mutations(index, line):
    """Replace one fixture line with arbitrary bytes, or delete it (None)."""
    lines = list(FIXTURE_LINES)
    if line is None:
        del lines[index]
    else:
        lines[index] = line
    load_bytes(b"\n".join(lines) + b"\n")
