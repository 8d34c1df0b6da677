"""Tests for the external oracle line protocol, client and server sides.

The child-process stubs below implement the protocol from scratch (plain
stdio, no package imports), so client/stub agreement exercises the wire
format itself rather than shared code.
"""

import io
import os
import shlex
import sys
import time

import numpy as np
import pytest

import lhsattack
from lhsattack.attack import AttackConfig
from lhsattack.errors import OracleFailedError, ProtocolError, QueryBudgetExceededError
from lhsattack.harness import (
    ExperimentConfig,
    OracleSpecConfig,
    PointsConfig,
    run_experiment,
)
from lhsattack.oracles import (
    PHASE_GRADIENT,
    PHASE_INIT,
    PHASE_STEP,
    PHASES,
    ExternalOracle,
    HalfspaceOracle,
    HypersphereOracle,
    MeteredOracle,
    MlpOracle,
    format_floats,
    load_mlp,
    parse_floats,
    serve_oracle,
)

ALWAYS_PLUS = """\
import sys
line = sys.stdin.readline()
assert line.startswith("HELLO m=")
print("OK", flush=True)
while True:
    line = sys.stdin.readline()
    if not line:
        break
    print("+1", flush=True)
"""

# argv[1] is a comma-separated normal vector, argv[2] the offset
HALFSPACE_RULE = """\
import sys
w = [float(t) for t in sys.argv[1].split(",")]
b = float(sys.argv[2])
line = sys.stdin.readline()
assert line.startswith("HELLO m=")
assert int(line.strip()[8:]) == len(w)
print("OK", flush=True)
while True:
    line = sys.stdin.readline()
    if not line:
        break
    x = [float(t) for t in line.split()]
    s = sum(wi * xi for wi, xi in zip(w, x)) + b
    print("+1" if s > 0 else "-1", flush=True)
"""

GARBLED = """\
import sys
sys.stdin.readline()
print("OK", flush=True)
sys.stdin.readline()
print("banana", flush=True)
"""

SLOW = """\
import sys, time
sys.stdin.readline()
print("OK", flush=True)
sys.stdin.readline()
time.sleep(30)
print("+1", flush=True)
"""

DIES_AFTER_HANDSHAKE = """\
import sys
sys.stdin.readline()
print("OK", flush=True)
"""

BAD_HANDSHAKE = """\
import sys
sys.stdin.readline()
print("YO", flush=True)
"""

SILENT = """\
import sys, time
time.sleep(30)
"""

# argv[1] is a file that receives every request line verbatim
RECORDER = """\
import sys
sys.stdin.readline()
print("OK", flush=True)
with open(sys.argv[1], "w") as log:
    for line in iter(sys.stdin.readline, ""):
        log.write(line)
        log.flush()
        print("+1", flush=True)
"""

# A halfspace oracle that fails once: the first child started (the one
# that finds no marker file) misbehaves on its k-th query; every later
# child answers with the package's own rule, bit for bit.
# argv: src dir, marker file, fault (late|exit|garbage), k, normal, offset
FLAKY_HALFSPACE = """\
import os, sys, time
src, marker, fault, k, normal, offset = sys.argv[1:7]
sys.path.insert(0, src)
import numpy as np
from lhsattack.oracles import HalfspaceOracle, parse_floats
oracle = HalfspaceOracle(np.array([float(t) for t in normal.split(",")]), float(offset))
faulty = not os.path.exists(marker)
open(marker, "a").close()
sys.stdin.readline()
print("OK", flush=True)
for served, line in enumerate(iter(sys.stdin.readline, ""), start=1):
    if faulty and served == int(k):
        if fault == "exit":
            sys.exit(3)
        if fault == "late":
            time.sleep(30)
        if fault == "garbage":
            print("banana", flush=True)
            continue
    x = parse_floats(line, oracle.dim)
    print("+1" if oracle._decide(x) > 0 else "-1", flush=True)
"""


def stub(tmp_path, body, *args):
    path = tmp_path / "stub.py"
    path.write_text(body)
    return [sys.executable, str(path), *args]


def test_always_plus_stub(tmp_path):
    with ExternalOracle(stub(tmp_path, ALWAYS_PLUS), dim=3) as oracle:
        m = MeteredOracle(oracle)
        assert m.decide(np.array([0.1, 0.2, 0.3]), PHASE_INIT) == 1
        assert m.decide(np.zeros(3), PHASE_GRADIENT) == 1
        assert m.ledger.total_queries == 2


def test_lazy_start_on_first_query(tmp_path):
    oracle = ExternalOracle(stub(tmp_path, ALWAYS_PLUS), dim=2)
    try:
        assert oracle._proc is None
        assert MeteredOracle(oracle).decide(np.array([0.5, 0.5]), PHASE_INIT) == 1
        assert oracle._proc is not None
    finally:
        oracle.close()


def test_halfspace_stub_matches_in_process_on_1000_points(tmp_path):
    rng = np.random.default_rng(21)
    w = np.round(rng.normal(size=8), 6)
    b = -0.35
    builtin = HalfspaceOracle(w, b)
    cmd = stub(tmp_path, HALFSPACE_RULE, ",".join(repr(float(v)) for v in w),
               repr(b))
    with ExternalOracle(cmd, dim=8) as external:
        wire, local = MeteredOracle(external), MeteredOracle(builtin)
        for _ in range(1000):
            x = rng.uniform(size=8)
            assert wire.decide(x, PHASE_GRADIENT) == local.decide(x, PHASE_GRADIENT)
    assert wire.ledger.total_queries == local.ledger.total_queries == 1000


def test_batch_sends_the_same_bytes_as_single_queries(tmp_path):
    X = np.random.default_rng(22).uniform(size=(40, 5))
    batched, single = tmp_path / "batched.log", tmp_path / "single.log"
    with ExternalOracle(stub(tmp_path, RECORDER, str(batched)), dim=5) as oracle:
        m = MeteredOracle(oracle)
        assert m.decide_batch(X, PHASE_GRADIENT).tolist() == [1] * 40
        assert m.ledger.total_queries == 40
    with ExternalOracle(stub(tmp_path, RECORDER, str(single)), dim=5) as oracle:
        m = MeteredOracle(oracle)
        for x in X:
            m.decide(x, PHASE_GRADIENT)
    expected = "".join(format_floats(x) + "\n" for x in X).encode("ascii")
    assert batched.read_bytes() == single.read_bytes() == expected


def test_batch_matches_in_process_oracle(tmp_path):
    rng = np.random.default_rng(23)
    w = np.round(rng.normal(size=8), 6)
    b = -0.35
    cmd = stub(tmp_path, HALFSPACE_RULE, ",".join(repr(float(v)) for v in w), repr(b))
    X = rng.uniform(size=(500, 8))
    with ExternalOracle(cmd, dim=8) as external:
        got = MeteredOracle(external).decide_batch(X, PHASE_GRADIENT)
    local = MeteredOracle(HalfspaceOracle(w, b))
    assert got.tolist() == [local.decide(x, PHASE_GRADIENT) for x in X]


def test_batch_larger_than_the_pipe_buffers(tmp_path):
    # 40,000 replies are 120 kB, more than a pipe holds: the child blocks on
    # its replies unless they are read while the requests are still written.
    with ExternalOracle(stub(tmp_path, ALWAYS_PLUS), dim=1, timeout=20.0) as oracle:
        got = MeteredOracle(oracle).decide_batch(np.full((40000, 1), 0.5), PHASE_GRADIENT)
    assert got.shape == (40000,) and (got == 1).all()


def test_exited_child_is_respawned(tmp_path):
    with ExternalOracle(stub(tmp_path, ALWAYS_PLUS), dim=2) as oracle:
        first = oracle._proc
        first.kill()
        first.wait()
        assert MeteredOracle(oracle).decide(np.zeros(2), PHASE_INIT) == 1
        assert oracle._proc is not first and oracle._proc.poll() is None


def test_garbled_reply_raises_protocol_error(tmp_path):
    with ExternalOracle(stub(tmp_path, GARBLED), dim=2) as oracle:
        with pytest.raises(ProtocolError, match="banana"):
            MeteredOracle(oracle).decide(np.zeros(2), PHASE_INIT)


def test_protocol_error_is_an_oracle_failure():
    # a garbled peer aborts a run exactly like a dead peer does
    assert issubclass(ProtocolError, OracleFailedError)


def test_slow_reply_times_out(tmp_path):
    started = time.monotonic()
    with ExternalOracle(stub(tmp_path, SLOW), dim=2, timeout=0.3) as oracle:
        with pytest.raises(OracleFailedError, match="within"):
            MeteredOracle(oracle).decide(np.zeros(2), PHASE_INIT)
    assert time.monotonic() - started < 5.0


def test_dead_process_raises_oracle_failure(tmp_path):
    with ExternalOracle(stub(tmp_path, DIES_AFTER_HANDSHAKE), dim=2) as oracle:
        with pytest.raises(OracleFailedError, match="exited with status 0"):
            MeteredOracle(oracle).decide(np.zeros(2), PHASE_INIT)


def test_bad_handshake_reply(tmp_path):
    oracle = ExternalOracle(stub(tmp_path, BAD_HANDSHAKE), dim=2)
    try:
        with pytest.raises(ProtocolError, match="handshake"):
            oracle.start()
    finally:
        oracle.close()


def test_handshake_timeout(tmp_path):
    oracle = ExternalOracle(stub(tmp_path, SILENT), dim=2, timeout=0.3)
    try:
        with pytest.raises(OracleFailedError):
            oracle.start()
    finally:
        oracle.close()


def test_unlaunchable_command():
    oracle = ExternalOracle(["/nonexistent/oracle-binary"], dim=2)
    with pytest.raises(OracleFailedError, match="launch"):
        oracle.start()


def test_command_as_shell_string(tmp_path):
    path = tmp_path / "stub.py"
    path.write_text(ALWAYS_PLUS)
    cmd = f"{sys.executable} {path}"
    with ExternalOracle(cmd, dim=1) as oracle:
        assert MeteredOracle(oracle).decide(np.array([0.5]), PHASE_INIT) == 1


def test_empty_command_rejected():
    with pytest.raises(ValueError):
        ExternalOracle([], dim=2)


# ---------------------------------------------------------------------------
# A failed external oracle must not answer for later queries


HALFSPACE_NORMAL = np.array([0.9, -0.4, 0.3, 0.8, -0.2, 0.5, 0.7, -0.6])
HALFSPACE_OFFSET = -0.6


def halfspace_grid(tmp_path, spec):
    rng = np.random.default_rng(24)
    points = rng.uniform(size=(40, 8))
    points = points[points @ HALFSPACE_NORMAL + HALFSPACE_OFFSET < 0.0][:3]
    return ExperimentConfig(
        oracles=[spec], points=PointsConfig(source="inline", values=points),
        attack=AttackConfig(initial_samples=20, iterations=6),
        budgets=[2000], base_seed=5, output_dir=str(tmp_path / spec.kind))


@pytest.mark.parametrize("fault", ["late", "exit", "garbage"])
def test_oracle_failure_does_not_leak_into_later_runs(tmp_path, fault):
    src = os.path.dirname(os.path.dirname(lhsattack.__file__))
    path = tmp_path / "flaky.py"
    path.write_text(FLAKY_HALFSPACE)
    cmd = shlex.join([sys.executable, str(path), src, str(tmp_path / "marker"), fault,
                      "30", ",".join(repr(float(v)) for v in HALFSPACE_NORMAL),
                      repr(HALFSPACE_OFFSET)])
    external = run_experiment(halfspace_grid(tmp_path, OracleSpecConfig(
        name="net", kind="external", cmd=cmd, dim=8, timeout=3.0)))
    in_process = run_experiment(halfspace_grid(tmp_path, OracleSpecConfig(
        name="net", kind="halfspace", normal=HALFSPACE_NORMAL, offset=HALFSPACE_OFFSET)))

    # query 30 falls inside the first attack, which fails; every later run
    # gets a fresh child and exactly the in-process answers
    first, *later = external.runs
    assert first.status == "oracle_failed"
    assert len(later) == len(in_process.runs) - 1 == 5
    for got, want in zip(later, in_process.runs[1:]):
        assert got.status == want.status == "completed"
        key = (got.oracle, got.sampler, got.point_index, got.rep)
        assert external.traces[key].rows == in_process.traces[key].rows


def test_child_exit_inside_a_later_chunk_fails_the_whole_batch(tmp_path):
    # The stub exits on its 20th request, inside the batch's second chunk:
    # the batch fails, is charged in full, and the next query gets a fresh
    # child that answers like the in-process oracle.
    src = os.path.dirname(os.path.dirname(lhsattack.__file__))
    path = tmp_path / "flaky.py"
    path.write_text(FLAKY_HALFSPACE)
    cmd = [sys.executable, str(path), src, str(tmp_path / "marker"), "exit", "20",
           ",".join(repr(float(v)) for v in HALFSPACE_NORMAL), repr(HALFSPACE_OFFSET)]
    X = np.random.default_rng(26).uniform(size=(40, 8))
    builtin = HalfspaceOracle(HALFSPACE_NORMAL, HALFSPACE_OFFSET)
    with ExternalOracle(cmd, dim=8) as oracle:
        m = MeteredOracle(oracle)
        first = oracle._proc
        with pytest.raises(OracleFailedError, match="exited with status 3"):
            m.decide_batch(X, PHASE_GRADIENT)
        assert m.ledger.per_phase[PHASE_GRADIENT] == 40
        assert oracle._proc is None
        assert m.decide_batch(X, PHASE_GRADIENT).tolist() == builtin._decide_batch(X).tolist()
        assert oracle._proc is not first
        assert m.decide(X[0], PHASE_INIT) == builtin._decide(X[0])
        assert m.ledger.total_queries == 81


@pytest.mark.parametrize("kind", ["halfspace", "hypersphere", "mlp", "external"])
def test_decide_is_the_one_row_batch(tmp_path, mlp_fixture_path, kind):
    # A single query and a 1-row batch answer and charge alike, and refuse
    # alike: shape before budget, and a refusal charges nothing.
    if kind == "halfspace":
        oracle = HalfspaceOracle(HALFSPACE_NORMAL, HALFSPACE_OFFSET)
    elif kind == "hypersphere":
        oracle = HypersphereOracle(np.full(8, 0.5), radius=0.8)
    elif kind == "mlp":
        oracle = MlpOracle(load_mlp(mlp_fixture_path), original_class=0)
    else:
        oracle = ExternalOracle(stub(tmp_path, HALFSPACE_RULE, ",".join(
            repr(float(v)) for v in HALFSPACE_NORMAL), repr(HALFSPACE_OFFSET)), dim=8)
    X = np.random.default_rng(27).uniform(size=(24, oracle.dim))
    single, batch = MeteredOracle(oracle, len(X)), MeteredOracle(oracle, len(X))
    try:
        answers = []
        for i, x in enumerate(X):
            phase = PHASES[i % len(PHASES)]
            answers.append(single.decide(x, phase))
            assert answers[-1] == batch.decide_batch(x[None], phase)[0]
            assert single.ledger.snapshot() == batch.ledger.snapshot()
        assert set(answers) == {-1, 1}
        with pytest.raises(QueryBudgetExceededError):
            single.decide(X[0], PHASE_STEP)
        with pytest.raises(QueryBudgetExceededError):
            batch.decide_batch(X[:1], PHASE_STEP)
        bad = np.zeros(oracle.dim + 1)
        with pytest.raises(ValueError):
            single.decide(bad, PHASE_STEP)
        with pytest.raises(ValueError):
            batch.decide_batch(bad[None], PHASE_STEP)
        assert single.ledger.snapshot() == batch.ledger.snapshot() == {p: 6 for p in PHASES}
    finally:
        if kind == "external":
            oracle.close()


# ---------------------------------------------------------------------------
# serve_oracle (the peer side)


# Answers +1 where x[0] > 0.5, -1 elsewhere.
SERVE_RULE = HalfspaceOracle(np.array([1.0, 0.0]), -0.5)


class Reads:
    """A binary input stream that hands out the given pieces, one per read."""

    def __init__(self, *pieces):
        self.pieces = [p for p in pieces if p]      # an empty read means EOF

    def read1(self, size=-1):
        return self.pieces.pop(0) if self.pieces else b""


class Writes(io.BytesIO):
    """A binary stream that logs each write and each flush."""

    def __init__(self):
        super().__init__()
        self.log = []

    def write(self, data):
        self.log.append(bytes(data))
        return super().write(data)

    def flush(self):
        self.log.append("flush")


def run_serve(request, oracle=SERVE_RULE):
    """Serve ``request`` (bytes, or a :class:`Reads`); return (served, output)."""
    infile = request if isinstance(request, Reads) else io.BytesIO(request)
    out = io.BytesIO()
    served = serve_oracle(oracle, infile=infile, outfile=out)
    return served, out.getvalue()


def test_serve_round_trip():
    served, out = run_serve(b"HELLO m=2\n0.75 0.25\n0.25 0.75\n")
    assert served == 2
    assert out == b"OK\n+1\n-1\n"


def test_serve_zero_queries():
    served, out = run_serve(b"HELLO m=2\n")
    assert served == 0
    assert out == b"OK\n"


def test_serve_rejects_missing_handshake():
    with pytest.raises(ProtocolError):
        run_serve(b"")
    with pytest.raises(ProtocolError, match="handshake"):
        run_serve(b"0.5 0.5\n")


def test_serve_rejects_dimension_mismatch():
    with pytest.raises(ProtocolError, match="dimension"):
        run_serve(b"HELLO m=3\n")


def test_serve_rejects_malformed_request():
    with pytest.raises(ProtocolError):
        run_serve(b"HELLO m=2\n0.5 oops\n")
    with pytest.raises(ProtocolError):
        run_serve(b"HELLO m=2\n0.5\n")
    with pytest.raises(ProtocolError):      # fullwidth "1": the protocol is ASCII
        run_serve(b"HELLO m=2\n\xef\xbc\x91 0.5\n")


SESSION = b"HELLO m=2\n0.75 0.25\n0.25 0.75\n0.5 0.5\n0.875 1\n0 0\n"
SESSION_REPLIES = b"OK\n+1\n-1\n-1\n+1\n-1\n"


def test_serve_answers_the_same_bytes_however_the_input_is_split():
    # Every split into two reads, and one read per byte, give the replies
    # of answering line by line; the handshake may share a read with requests.
    for cut in range(len(SESSION) + 1):
        served, out = run_serve(Reads(SESSION[:cut], SESSION[cut:]))
        assert (served, out) == (5, SESSION_REPLIES), cut
    served, out = run_serve(Reads(*(SESSION[i:i + 1] for i in range(len(SESSION)))))
    assert (served, out) == (5, SESSION_REPLIES)


def test_serve_answers_each_read_with_one_write_and_one_flush():
    out = Writes()
    served = serve_oracle(SERVE_RULE, infile=Reads(SESSION[:25], SESSION[25:]), outfile=out)
    assert served == 5
    assert out.log == [b"OK\n+1\n", "flush", b"-1\n-1\n+1\n-1\n", "flush"]


def test_serve_answers_an_unterminated_last_line():
    served, out = run_serve(b"HELLO m=2\n0.75 0.25\n0.25 0.75")
    assert (served, out) == (2, b"OK\n+1\n-1\n")
    served, out = run_serve(Reads(b"HELLO m=2\n0.75 0.", b"25"))
    assert (served, out) == (1, b"OK\n+1\n")
    served, out = run_serve(b"HELLO m=2")
    assert (served, out) == (0, b"OK\n")


def test_serve_writes_the_good_replies_before_a_malformed_line():
    out = Writes()
    request = Reads(b"HELLO m=2\n0.75 0.25\n0.25 0.75\n0.5 oops\n0.75 0.75\n")
    with pytest.raises(ProtocolError, match="oops"):
        serve_oracle(SERVE_RULE, infile=request, outfile=out)
    assert out.log == [b"OK\n+1\n-1\n", "flush"]


def test_serve_counts_every_decision_across_reads():
    rng = np.random.default_rng(25)
    X = rng.uniform(size=(300, 3))
    oracle = HalfspaceOracle(np.array([1.0, -2.0, 0.5]), 0.25)
    data = b"HELLO m=3\n" + "".join(format_floats(x) + "\n" for x in X).encode("ascii")
    served, out = run_serve(Reads(*(data[i:i + 1000] for i in range(0, len(data), 1000))),
                            oracle=oracle)
    assert served == 300
    local = MeteredOracle(oracle)
    want = [local.decide(x, PHASE_INIT) for x in X]
    assert out == b"OK\n" + "".join("%+d\n" % d for d in want).encode("ascii")


# ---------------------------------------------------------------------------
# wire float formatting


def test_format_parse_round_trip_exact():
    tricky = np.array([1.0 / 3.0, -2.0 / 7.0, 1e-300, 1e300, 0.1 + 0.2,
                       5e-324, -0.0, 123456789.123456789])
    line = format_floats(tricky)
    assert line == " ".join(f"{float(v):.17g}" for v in tricky)
    assert format_floats(list(tricky)) == line
    back = parse_floats(line, tricky.size)
    assert all(a == b for a, b in zip(tricky, back))


def test_parse_floats_errors():
    with pytest.raises(ProtocolError):
        parse_floats("1.0 2.0", 3)
    with pytest.raises(ProtocolError):
        parse_floats("1.0 x", 2)
