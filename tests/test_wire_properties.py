"""Property tests: both ends of the line protocol against line-by-line references.

The engine encodes each request chunk at once, with numpy or with one
%-format call, and the server parses each read with one numpy conversion;
both must give the bytes and errors of handling one line at a time.
"""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lhsattack.errors import ProtocolError
from lhsattack.oracles import (
    _CHUNK_ROWS,
    _ENCODE_MIN_ROWS,
    ExternalOracle,
    HalfspaceOracle,
    _encode_rows,
    format_floats,
    serve_oracle,
)

DIM = 3
RULE = HalfspaceOracle(np.array([1.0, -2.0, 0.5]), 0.25)


class Reads:
    """A binary stream whose ``read1`` returns the given pieces in turn."""

    def __init__(self, pieces):
        self.pieces = [p for p in pieces if p]      # an empty read means EOF

    def read1(self, size=-1):
        return self.pieces.pop(0) if self.pieces else b""


def ref_serve(requests: bytes):
    """Answer ``requests`` (after the handshake) one line at a time.

    Returns the reply bytes and the error message, or None. A line is split
    and parsed as text, as the protocol defines it; non-ASCII bytes are
    never digits or separators.
    """
    lines = requests.split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    out = b"OK\n"
    for line in lines:
        tokens = line.decode("ascii", errors="replace").split()
        if len(tokens) != DIM:
            return out, f"expected {DIM} values on the line, found {len(tokens)}"
        values = []
        for token in tokens:
            try:
                values.append(float(token))
            except ValueError as exc:
                return out, f"unparseable float in request line: {exc}"
        if not all(math.isfinite(v) for v in values):
            return out, "non-finite value in request line"
        out += b"+1\n" if RULE._decide(np.array(values)) > 0 else b"-1\n"
    return out, None


# Bounded so that the halfspace rule's dot product cannot overflow.
bounded = st.floats(min_value=-1e300, max_value=1e300)
good_token = st.one_of(
    bounded.map(lambda v: "%.17g" % v),
    bounded.map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["-0", "1_0", "+.5", "5.", "1e-320", "1E5"]))
bad_token = st.sampled_from(
    ["nan", "-inf", "Infinity", "1e400", "0x10", "1.5f", "1__0", "_1", "1e", "",
     "\x00", "1\x00", "\x1c1", "1\x1f", "１", "1\xa0", "oops"])
token = st.one_of(good_token, good_token, good_token, bad_token).map(
    lambda t: t.encode("utf-8"))
separator = st.sampled_from([b" ", b" ", b" ", b"  ", b"\t", b"\r", b"\x0b", b"\x0c",
                             b"\x1c", b"\x1d", b"\x1e", b"\x1f", b"\xc2\xa0"])


@st.composite
def request_line(draw):
    count = draw(st.sampled_from([DIM] * 6 + [0, DIM - 1, DIM + 1]))
    tokens = draw(st.lists(token, min_size=count, max_size=count))
    seps = draw(st.lists(separator, min_size=count + 1, max_size=count + 1))
    body = b"".join(s + t for s, t in zip(seps, tokens))
    if draw(st.booleans()):
        body = body[len(seps[0]):] if tokens else body
    return body + (seps[-1] if draw(st.booleans()) else b"")


@st.composite
def split_session(draw):
    lines = draw(st.lists(request_line(), max_size=24))
    requests = b"".join(line + b"\n" for line in lines)
    if lines and draw(st.booleans()):
        requests = requests[:-1]                   # an unterminated last line
    session = b"HELLO m=%d\n" % DIM + requests
    cuts = sorted(draw(st.lists(st.integers(0, len(session)), max_size=6)))
    pieces = [session[a:b] for a, b in zip([0, *cuts], [*cuts, len(session)])]
    return requests, pieces


@settings(max_examples=1000, deadline=None)
@given(split_session())
def test_serve_answers_like_the_line_by_line_reference(case):
    requests, pieces = case
    want_out, want_error = ref_serve(requests)
    out = io.BytesIO()
    error = None
    try:
        served = serve_oracle(RULE, infile=Reads(pieces), outfile=out)
    except ProtocolError as exc:
        error = str(exc)
    assert out.getvalue() == want_out
    assert error == want_error
    if error is None:
        assert served == want_out.count(b"\n") - 1


def test_serve_takes_separators_only_text_splitting_knows():
    # bytes.split() does not split on \x1c-\x1f; the text rule does.
    requests = b"0.75\x1c0.25\x1f1\n0.25 0.75 1\n"
    want_out, want_error = ref_serve(requests)
    assert want_error is None and want_out == b"OK\n+1\n-1\n"
    out = io.BytesIO()
    assert serve_oracle(RULE, infile=Reads([b"HELLO m=3\n" + requests]), outfile=out) == 2
    assert out.getvalue() == want_out


def recorded_requests(X, one_row=False):
    """The chunks an ExternalOracle sends for the rows of ``X``, and its answer."""
    oracle = ExternalOracle(["unused"], dim=X.shape[1])
    chunks = []

    def exchange(requests, count):
        chunks.extend(requests)
        return ["+1"] * count

    oracle.start = lambda: None
    oracle._exchange = exchange
    answer = oracle._decide(X[0]) if one_row else oracle._decide_batch(X)
    return chunks, answer


wire_value = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 1.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
                     1e300, -1e300, 1.0 / 3.0]))


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda dim: st.lists(st.lists(wire_value, min_size=dim, max_size=dim),
                         min_size=1, max_size=3 * _CHUNK_ROWS + 2)))
def test_requests_are_the_per_row_format_floats_lines(rows):
    X = np.array(rows, dtype=np.float64)
    chunks, answer = recorded_requests(X)
    assert b"".join(chunks) == "".join(format_floats(x) + "\n" for x in X).encode("ascii")
    assert [c.count(b"\n") for c in chunks] == [
        min(_CHUNK_ROWS, len(X) - i) for i in range(0, len(X), _CHUNK_ROWS)]
    assert answer.tolist() == [1] * len(X)


@pytest.mark.parametrize("dim", [1, 64])
def test_one_row_request_is_the_format_floats_line(dim):
    x = np.random.default_rng(dim).uniform(-1e300, 1e300, size=(1, dim))
    x[0, 0] = -0.0
    chunks, answer = recorded_requests(x, one_row=True)
    assert chunks == [(format_floats(x[0]) + "\n").encode("ascii")]
    assert answer == 1


def tie(x, c):
    """An exact tie at the 17th digit: an odd ``c / 2**(17 - x)`` near 10**x."""
    return (2 * (c // 2) + 1) / 2.0 ** (17 - x)


# Weighted to the values the encoder writes with numpy, 1e-4 <= |v| < 1e15
# and +-0, and to its edges: ties, where rounding half to even decides the
# 17th digit, and the neighbours of each power of ten, where the exponent
# from log10 can be one off.
fast_value = st.one_of(
    st.floats(0.0, 1.0),
    st.tuples(st.floats(0.0, 1.0), st.floats(-0.2, 0.2)).map(
        lambda p: min(max(p[0] + p[1], 0.0), 1.0)),
    st.integers(13107, 131071).map(lambda c: (2 * c + 1) / 2**18),
    st.integers(-4, 14).flatmap(lambda x: st.integers(
        math.ceil(10.0**x * 2.0**(17 - x)), math.floor(10.0**(x + 1) * 2.0**(17 - x)) - 1)
        .map(lambda c: tie(x, c))),
    st.integers(-4, 15).flatmap(lambda k: st.sampled_from(
        [float(np.nextafter(10.0**k, 0.0)), 10.0**k, float(np.nextafter(10.0**k, np.inf))])),
    st.floats(1e-4, 1e15, exclude_max=True),
    st.sampled_from([0.0, -0.0, 1.0]))
encoder_value = st.one_of(
    fast_value, fast_value, fast_value, fast_value.map(lambda v: -v),
    st.sampled_from([5e-324, 3e-5, 1e300, math.nan, math.inf, -math.inf]),
    st.floats())


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12),
       st.sampled_from([1, _ENCODE_MIN_ROWS - 1, _ENCODE_MIN_ROWS, _CHUNK_ROWS]),
       st.data())
def test_encoder_writes_each_row_as_format_floats(dim, rows, data):
    values = data.draw(st.lists(encoder_value, min_size=rows * dim, max_size=rows * dim))
    X = np.array(values, dtype=np.float64).reshape(rows, dim)
    assert _encode_rows(X) == "".join(format_floats(x) + "\n" for x in X).encode("ascii")


def test_encoder_matches_format_floats_on_a_seeded_sweep(load_tool):
    tool = load_tool("check_wire_encoder")
    values = tool.sweep_values(10**6, seed=23)
    assert len(values) >= 10**6
    assert tool.first_mismatch(values) is None
