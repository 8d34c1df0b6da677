"""Tests for decision oracles, query accounting, and the weights format."""

import threading

import numpy as np
import pytest

from lhsattack.errors import (
    CapabilityError,
    QueryBudgetExceededError,
    WeightsFormatError,
)
from lhsattack.oracles import (
    IDENTITY,
    DecisionOracle,
    PHASE_BINSEARCH,
    PHASE_GRADIENT,
    PHASE_INIT,
    PHASE_STEP,
    RELU,
    TARGETED,
    UNTARGETED,
    HalfspaceOracle,
    HypersphereOracle,
    MeteredOracle,
    MlpLayer,
    MlpModel,
    MlpOracle,
    QueryLedger,
    load_mlp,
    mlp_forward,
    save_mlp,
    true_gradient,
)

from reference import (
    HAND_NET_B1,
    HAND_NET_B2,
    HAND_NET_INPUT,
    HAND_NET_SCORES,
    HAND_NET_W1,
    HAND_NET_W2,
)


def metered(oracle, **kwargs):
    return MeteredOracle(oracle, **kwargs)


# ---------------------------------------------------------------------------
# QueryLedger


def test_ledger_counts_per_phase():
    ledger = QueryLedger()
    for phase, times in ((PHASE_INIT, 2), (PHASE_BINSEARCH, 3),
                         (PHASE_GRADIENT, 5), (PHASE_STEP, 1)):
        for _ in range(times):
            ledger.record(phase)
    snap = ledger.snapshot()
    assert snap == {"init": 2, "binsearch": 3, "gradient": 5, "step": 1}
    assert ledger.total_queries == 11 == sum(snap.values())


def test_ledger_records_a_count():
    ledger = QueryLedger()
    ledger.record(PHASE_GRADIENT, 150)
    ledger.record(PHASE_STEP)
    assert ledger.snapshot()["gradient"] == 150
    assert ledger.total_queries == 151


def test_ledger_rejects_unknown_phase():
    ledger = QueryLedger()
    with pytest.raises(ValueError):
        ledger.record("warmup")
    assert ledger.total_queries == 0


def test_ledger_concurrent_increments_exact():
    ledger = QueryLedger()

    def worker():
        for _ in range(1000):
            ledger.record(PHASE_GRADIENT)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert ledger.total_queries == 4000
    assert ledger.snapshot()["gradient"] == 4000


# ---------------------------------------------------------------------------
# MeteredOracle.decide + built-in oracles


def test_halfspace_positive_side():
    w = np.zeros(8)
    w[0] = 1.0
    m = metered(HalfspaceOracle(w, offset=-0.5))
    x = np.full(8, 0.1)
    x[0] = 0.9
    assert m.decide(x, PHASE_INIT) == 1
    x[0] = 0.1
    assert m.decide(x, PHASE_INIT) == -1
    assert m.ledger.total_queries == 2


def test_halfspace_boundary_tie_is_negative():
    m = metered(HalfspaceOracle(np.array([2.0, 0.0]), offset=-1.0))
    on_plane = np.array([0.5, 0.3])
    assert m.decide(on_plane, PHASE_STEP) == -1


def test_halfspace_agrees_with_closed_form_exactly():
    rng = np.random.default_rng(17)
    w = rng.normal(size=12)
    b = -0.3
    m = metered(HalfspaceOracle(w, b))
    for _ in range(500):
        x = rng.uniform(size=12)
        expected = 1 if float(w @ x) + b > 0.0 else -1
        assert m.decide(x, PHASE_GRADIENT) == expected
    assert m.ledger.total_queries == 500


def test_hypersphere_center_inside():
    center = np.full(5, 0.4)
    m = metered(HypersphereOracle(center, radius=0.3))
    assert m.decide(center, PHASE_INIT) == -1
    outside = center.copy()
    outside[0] += 0.31
    assert m.decide(outside, PHASE_INIT) == 1


def test_hypersphere_agrees_with_closed_form_exactly():
    rng = np.random.default_rng(23)
    center = rng.uniform(size=6)
    m = metered(HypersphereOracle(center, radius=0.25))
    for _ in range(500):
        x = rng.uniform(size=6)
        d = x - center
        expected = 1 if float(np.sqrt(d @ d)) > 0.25 else -1
        assert m.decide(x, PHASE_BINSEARCH) == expected


def test_decide_shape_mismatch():
    m = metered(HalfspaceOracle(np.ones(4), 0.0))
    with pytest.raises(ValueError):
        m.decide(np.ones(5), PHASE_INIT)
    # a rejected call must not be charged
    assert m.ledger.total_queries == 0


def test_constructor_validation():
    with pytest.raises(ValueError):
        HalfspaceOracle(np.zeros(3), 0.5)
    with pytest.raises(ValueError):
        HalfspaceOracle(np.array([np.inf, 0.0]), 0.5)
    # a normal whose 2-norm overflows is still a valid normal
    assert HalfspaceOracle(np.array([1e200, 1.0]), 0.5).dim == 2
    with pytest.raises(ValueError):
        HypersphereOracle(np.ones(3), radius=0.0)
    with pytest.raises(ValueError):
        HypersphereOracle(np.ones(3), radius=-1.0)


# ---------------------------------------------------------------------------
# MeteredOracle


def test_metered_budget_checked_before_spending():
    oracle = HalfspaceOracle(np.ones(2), -0.5)
    m = metered(oracle, max_queries=3)
    x = np.array([0.9, 0.9])
    for _ in range(3):
        m.decide(x, PHASE_GRADIENT)
    with pytest.raises(QueryBudgetExceededError):
        m.decide(x, PHASE_GRADIENT)
    assert m.ledger.total_queries == 3


class CountingOracle(DecisionOracle):
    """Defines only ``_decide``, so batches take the base-class loop."""

    kind = "counting"

    def __init__(self, dim):
        super().__init__(dim)
        self.evaluated = 0

    def _decide(self, x):
        self.evaluated += 1
        return 1 if x.sum() > 1.0 else -1


def test_decide_batch_charges_one_query_per_row():
    m = metered(CountingOracle(3))
    X = np.random.default_rng(2).uniform(size=(7, 3))
    got = m.decide_batch(X, PHASE_GRADIENT)
    assert got.tolist() == [m.oracle._decide(x) for x in X]
    assert m.ledger.snapshot() == {"init": 0, "binsearch": 0, "gradient": 7, "step": 0}
    assert m.decide_batch(np.empty((0, 3)), PHASE_GRADIENT).shape == (0,)
    assert m.ledger.total_queries == 7


def test_decide_batch_budget_evaluates_and_charges_only_the_prefix():
    oracle = CountingOracle(2)
    m = metered(oracle, max_queries=5)
    m.decide(np.zeros(2), PHASE_INIT)
    m.decide(np.zeros(2), PHASE_INIT)
    with pytest.raises(QueryBudgetExceededError):
        m.decide_batch(np.zeros((6, 2)), PHASE_GRADIENT)
    assert oracle.evaluated == 5
    assert m.ledger.snapshot()["gradient"] == 3
    with pytest.raises(QueryBudgetExceededError):
        m.decide_batch(np.zeros((1, 2)), PHASE_GRADIENT)
    assert (oracle.evaluated, m.ledger.total_queries) == (5, 5)


def test_decide_batch_that_fits_exactly_does_not_raise():
    m = metered(CountingOracle(2), max_queries=4)
    assert m.decide_batch(np.ones((4, 2)), PHASE_GRADIENT).tolist() == [1] * 4
    assert m.ledger.total_queries == 4


def test_decide_batch_shape_mismatch():
    m = metered(CountingOracle(3))
    for bad in (np.zeros(3), np.zeros((2, 4)), np.zeros((1, 2, 3))):
        with pytest.raises(ValueError):
            m.decide_batch(bad, PHASE_GRADIENT)
    assert m.ledger.total_queries == 0


# ---------------------------------------------------------------------------
# MLP forward pass and oracle


def two_class_line_model():
    # scores (x0, 1 - x0) over a one-dimensional input
    return MlpModel(layers=[MlpLayer(weight=np.array([[1.0], [-1.0]]),
                                     bias=np.array([0.0, 1.0]),
                                     activation=IDENTITY)],
                    class_count=2)


def test_mlp_forward_identity_line_model():
    model = two_class_line_model()
    out = mlp_forward(model, np.array([0.4]))
    assert out.tolist() == [0.4, 0.6]


def test_mlp_forward_relu_clips():
    model = MlpModel(layers=[MlpLayer(weight=np.array([[-1.0], [1.0]]),
                                      bias=np.array([0.0, 0.0]),
                                      activation=RELU)],
                     class_count=2)
    out = mlp_forward(model, np.array([0.7]))
    assert out.tolist() == [0.0, 0.7]


def test_mlp_forward_hand_computed_two_layer_net():
    model = MlpModel(
        layers=[
            MlpLayer(weight=np.array(HAND_NET_W1), bias=np.array(HAND_NET_B1),
                     activation=RELU),
            MlpLayer(weight=np.array(HAND_NET_W2), bias=np.array(HAND_NET_B2),
                     activation=IDENTITY),
        ],
        class_count=2)
    out = mlp_forward(model, np.array(HAND_NET_INPUT))
    assert np.max(np.abs(out - np.array(HAND_NET_SCORES))) <= 1e-12


def test_mlp_forward_shape_mismatch():
    with pytest.raises(ValueError):
        mlp_forward(two_class_line_model(), np.array([0.1, 0.2]))


def test_mlp_forward_deterministic_bit_for_bit():
    rng = np.random.default_rng(3)
    model = MlpModel(
        layers=[MlpLayer(weight=rng.normal(size=(7, 5)), bias=rng.normal(size=7),
                         activation=RELU),
                MlpLayer(weight=rng.normal(size=(3, 7)), bias=rng.normal(size=3),
                         activation=IDENTITY)],
        class_count=3)
    x = rng.uniform(size=5)
    a = mlp_forward(model, x)
    b = mlp_forward(model, x)
    assert np.array_equal(a, b)


def test_mlp_model_invariant_validation():
    good = MlpLayer(weight=np.ones((2, 3)), bias=np.zeros(2), activation=IDENTITY)
    with pytest.raises(ValueError):
        MlpLayer(weight=np.ones((2, 3)), bias=np.zeros(3), activation=IDENTITY)
    with pytest.raises(ValueError):
        MlpLayer(weight=np.ones((2, 3)), bias=np.zeros(2), activation="tanh")
    with pytest.raises(ValueError):
        MlpModel(layers=[good], class_count=1)
    with pytest.raises(ValueError):
        # 3-wide output feeding a 2-input layer
        MlpModel(layers=[
            MlpLayer(weight=np.ones((3, 2)), bias=np.zeros(3), activation=RELU),
            MlpLayer(weight=np.ones((2, 4)), bias=np.zeros(2), activation=IDENTITY),
        ], class_count=2)
    with pytest.raises(ValueError):
        MlpModel(layers=[good], class_count=3)  # final width 2 != 3


def test_mlp_oracle_untargeted_line_model():
    m = metered(MlpOracle(two_class_line_model(), mode=UNTARGETED, original_class=0))
    # argmax is class 1 for x0 < 0.5, which differs from class 0
    assert m.decide(np.array([0.4]), PHASE_INIT) == 1
    assert m.decide(np.array([0.9]), PHASE_INIT) == -1


def test_mlp_oracle_tie_resolves_to_lowest_index():
    m = metered(MlpOracle(two_class_line_model(), mode=UNTARGETED, original_class=0))
    # scores (0.5, 0.5): argmax tie -> class 0 == original class -> not adversarial
    assert m.decide(np.array([0.5]), PHASE_INIT) == -1


def test_mlp_oracle_infers_original_class_from_point():
    oracle = MlpOracle(two_class_line_model(), original=np.array([0.8]),
                       mode=UNTARGETED)
    assert oracle.original_class == 0
    oracle2 = MlpOracle(two_class_line_model(), original=np.array([0.2]),
                        mode=UNTARGETED)
    assert oracle2.original_class == 1


def test_mlp_oracle_untargeted_requires_class_or_point():
    with pytest.raises(ValueError):
        MlpOracle(two_class_line_model(), mode=UNTARGETED)


def test_mlp_oracle_targeted_requires_target():
    with pytest.raises(ValueError):
        MlpOracle(two_class_line_model(), mode=TARGETED)
    with pytest.raises(ValueError):
        MlpOracle(two_class_line_model(), mode=TARGETED, target_class=5)


def test_untargeted_targeted_duality_two_class():
    model = two_class_line_model()
    untargeted = MlpOracle(model, mode=UNTARGETED, original_class=0)
    targeted = MlpOracle(model, mode=TARGETED, target_class=1,
                         original_class=0)
    untargeted, targeted = metered(untargeted), metered(targeted)
    rng = np.random.default_rng(4)
    for _ in range(100):
        x = rng.uniform(size=1)
        assert untargeted.decide(x, PHASE_INIT) == targeted.decide(x, PHASE_INIT)


# ---------------------------------------------------------------------------
# true_gradient


def test_true_gradient_halfspace():
    oracle = HalfspaceOracle(np.array([3.0, 4.0]), offset=0.0)
    g = true_gradient(oracle, np.zeros(2))
    assert g.tolist() == [0.6, 0.8]


def test_true_gradient_hypersphere_outward():
    oracle = HypersphereOracle(np.zeros(2), radius=1.0)
    g = true_gradient(oracle, np.array([0.0, 2.0]))
    assert g.tolist() == [0.0, 1.0]


def test_true_gradient_hypersphere_center_undefined():
    oracle = HypersphereOracle(np.zeros(2), radius=1.0)
    with pytest.raises(ValueError):
        true_gradient(oracle, np.zeros(2))


def test_true_gradient_unsupported_kind():
    oracle = MlpOracle(two_class_line_model(), mode=UNTARGETED, original_class=0)
    with pytest.raises(CapabilityError):
        true_gradient(oracle, np.array([0.5]))


def test_halfspace_decision_flips_across_plane_along_gradient():
    rng = np.random.default_rng(6)
    w = rng.normal(size=9)
    b = -0.4
    oracle = HalfspaceOracle(w, b)
    g = true_gradient(oracle, None)
    m = metered(oracle)
    # construct a point exactly on the plane, then probe +-1e-6 along g
    x = rng.uniform(size=9)
    x_on = x - ((float(w @ x) + b) / float(w @ g)) * g
    assert abs(float(w @ x_on) + b) < 1e-9
    assert m.decide(x_on + 1e-6 * g, PHASE_STEP) == 1
    assert m.decide(x_on - 1e-6 * g, PHASE_STEP) == -1


# ---------------------------------------------------------------------------
# weights file format


def random_model(seed=0):
    rng = np.random.default_rng(seed)
    return MlpModel(
        layers=[MlpLayer(weight=rng.normal(size=(6, 4)), bias=rng.normal(size=6),
                         activation=RELU),
                MlpLayer(weight=rng.normal(size=(3, 6)), bias=rng.normal(size=3),
                         activation=IDENTITY)],
        class_count=3)


def test_weights_round_trip_bit_exact(tmp_path):
    model = random_model(1)
    path = tmp_path / "net.txt"
    save_mlp(model, path)
    back = load_mlp(path)
    assert back.class_count == model.class_count
    assert len(back.layers) == len(model.layers)
    for mine, theirs in zip(model.layers, back.layers):
        assert np.array_equal(mine.weight, theirs.weight)
        assert np.array_equal(mine.bias, theirs.bias)
        assert mine.activation == theirs.activation


def test_weights_round_trip_preserves_decisions(tmp_path):
    model = random_model(2)
    path = tmp_path / "net.txt"
    save_mlp(model, path)
    back = load_mlp(path)
    a = metered(MlpOracle(model, mode=UNTARGETED, original_class=0))
    b = metered(MlpOracle(back, mode=UNTARGETED, original_class=0))
    rng = np.random.default_rng(8)
    for _ in range(100):
        x = rng.uniform(size=4)
        assert a.decide(x, PHASE_INIT) == b.decide(x, PHASE_INIT)


def write_weights(tmp_path, text):
    path = tmp_path / "broken.txt"
    path.write_text(text)
    return path


def test_weights_bad_header(tmp_path):
    path = write_weights(tmp_path, "multilayer k=2 layers=1\n")
    with pytest.raises(WeightsFormatError, match=":1:"):
        load_mlp(path)


def test_weights_wrong_value_count_carries_line_number(tmp_path):
    path = write_weights(tmp_path, "\n".join([
        "mlp k=2 layers=1",
        "layer 2 2 identity",
        "1.0 2.0",
        "3.0",  # one value missing on line 4
        "0.0 0.0",
    ]) + "\n")
    with pytest.raises(WeightsFormatError, match=":4:"):
        load_mlp(path)


def test_weights_mismatched_bias_length(tmp_path):
    path = write_weights(tmp_path, "\n".join([
        "mlp k=2 layers=1",
        "layer 2 2 identity",
        "1.0 2.0",
        "3.0 4.0",
        "0.0 0.0 0.0",  # bias of length 3 for 2 rows, line 5
    ]) + "\n")
    with pytest.raises(WeightsFormatError, match=":5:"):
        load_mlp(path)


def test_weights_unknown_activation(tmp_path):
    path = write_weights(tmp_path, "\n".join([
        "mlp k=2 layers=1",
        "layer 2 2 tanh",
        "1.0 2.0",
        "3.0 4.0",
        "0.0 0.0",
    ]) + "\n")
    with pytest.raises(WeightsFormatError, match="tanh"):
        load_mlp(path)


def test_weights_truncated_file(tmp_path):
    path = write_weights(tmp_path, "\n".join([
        "mlp k=2 layers=1",
        "layer 2 2 identity",
        "1.0 2.0",
    ]) + "\n")
    with pytest.raises(WeightsFormatError):
        load_mlp(path)


def test_weights_trailing_garbage(tmp_path):
    path = write_weights(tmp_path, "\n".join([
        "mlp k=2 layers=1",
        "layer 2 2 identity",
        "1.0 2.0",
        "3.0 4.0",
        "0.0 0.0",
        "surprise",
    ]) + "\n")
    with pytest.raises(WeightsFormatError, match="trailing"):
        load_mlp(path)


def test_weights_unparseable_float(tmp_path):
    path = write_weights(tmp_path, "\n".join([
        "mlp k=2 layers=1",
        "layer 2 2 identity",
        "1.0 two",
        "3.0 4.0",
        "0.0 0.0",
    ]) + "\n")
    with pytest.raises(WeightsFormatError, match=":3:"):
        load_mlp(path)


TWO_BY_TWO = b"mlp k=2 layers=1\nlayer 2 2 identity\n1.0 2.0\n3.0 4.0\n0.0 0.0\n"


@pytest.mark.parametrize("old,new,match", [
    (b"3.0 4.0", b"3.0 4.\xc30", r":4: non-ASCII byte 0xc3"),
    (b"1.0 2.0", b"1.0 nan", r":3: values must be finite"),
    (b"0.0 0.0", b"0.0 -inf", r":5: values must be finite"),
    (b"layer 2 2", b"layer 100000000000 100000000000", r":3: expected 100000000000 values"),
])
def test_weights_rejections(tmp_path, old, new, match):
    path = tmp_path / "broken.txt"
    path.write_bytes(TWO_BY_TWO.replace(old, new))
    with pytest.raises(WeightsFormatError, match=match):
        load_mlp(path)


def test_committed_fixture_loads(mlp_fixture_path):
    model = load_mlp(mlp_fixture_path)
    assert model.class_count == 2
    assert model.input_dim == 64
    assert len(model.layers) == 3  # two hidden layers plus the output layer


# ---------------------------------------------------------------------------
# Batch kernels: _decide_batch must equal _decide row by row, also where a
# GEMM and a GEMV round differently (on the boundary).


def batch_vs_rows(oracle, X):
    """The batch answers, the row-by-row answers, and how many rows the
    batch handed back to ``_decide``."""
    want = [oracle._decide(x) for x in X]
    single = oracle._decide
    redecided = []

    def counted(x):
        redecided.append(1)
        return single(x)

    oracle._decide = counted
    try:
        got = oracle._decide_batch(X)
    finally:
        del oracle._decide
    return got.tolist(), want, len(redecided)


def test_default_batch_loops_over_decide():
    oracle = CountingOracle(4)
    X = np.random.default_rng(3).uniform(size=(50, 4))
    got, want, redecided = batch_vs_rows(oracle, X)
    assert got == want
    assert redecided == 50


def random_mlp(rng, widths, class_count):
    layers = [MlpLayer(rng.normal(size=(w_out, w_in)) / np.sqrt(w_in),
                       rng.normal(size=w_out) * 0.1, RELU)
              for w_in, w_out in zip(widths, widths[1:])]
    layers.append(MlpLayer(rng.normal(size=(class_count, widths[-1])),
                           rng.normal(size=class_count) * 0.1, IDENTITY))
    return MlpModel(layers, class_count)


def near_boundary_rows(model, X, per_segment=8):
    """Rows within roundoff of an argmax change, found by bisecting to
    float precision along segments between inputs of different classes."""
    labels = [int(np.argmax(mlp_forward(model, x))) for x in X]
    rows = []
    for i in range(len(X)):
        j = next((j for j in range(i + 1, len(X)) if labels[j] != labels[i]), None)
        if j is None:
            continue
        a, b = X[i], X[j]
        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if int(np.argmax(mlp_forward(model, a + mid * (b - a)))) == labels[i]:
                lo = mid
            else:
                hi = mid
        for t in np.linspace(lo, hi, per_segment):
            rows.append(a + t * (b - a))
    return np.array(rows)


def mlp_oracles(model, original):
    top = int(np.argmax(mlp_forward(model, original)))
    other = (top + 1) % model.class_count
    return [MlpOracle(model, original),
            MlpOracle(model, original, mode=TARGETED, target_class=other)]


@pytest.mark.parametrize("which", ["fixture", "three_class"])
def test_mlp_batch_equals_rows(which, mlp_fixture_path):
    rng = np.random.default_rng(7)
    if which == "fixture":
        model = load_mlp(mlp_fixture_path)
    else:
        model = random_mlp(rng, [16, 24, 24], 3)
    dim = model.input_dim
    X = rng.uniform(size=(300, dim))
    boundary = near_boundary_rows(model, X[:40])
    assert len(boundary) >= 40
    for oracle in mlp_oracles(model, X[0]):
        got, want, _ = batch_vs_rows(oracle, X)
        assert got == want
        got, want, redecided = batch_vs_rows(oracle, boundary)
        assert got == want
        assert redecided > 0


def test_mlp_batch_exact_score_ties_resolve_like_rows():
    rng = np.random.default_rng(8)
    model = random_mlp(rng, [6, 10], 3)
    out = model.layers[-1]
    out.weight[2], out.bias[2] = out.weight[0], out.bias[0]   # classes 0 and 2 tie
    X = rng.uniform(size=(200, 6))
    for oracle in (MlpOracle(model, mode=UNTARGETED, original_class=0),
                   MlpOracle(model, mode=TARGETED, target_class=2)):
        got, want, _ = batch_vs_rows(oracle, X)
        assert got == want


@pytest.mark.parametrize("which", ["fixture", "three_class"])
def test_mlp_one_row_batch_is_decide(which, mlp_fixture_path):
    # A single query reaches the kernel as a 1-row batch; it must take
    # ``_decide`` itself, also on rows within roundoff of the boundary.
    rng = np.random.default_rng(7)
    model = (load_mlp(mlp_fixture_path) if which == "fixture"
             else random_mlp(rng, [16, 24, 24], 3))
    X = rng.uniform(size=(300, model.input_dim))
    boundary = near_boundary_rows(model, X[:40])
    assert len(boundary) >= 40
    for oracle in mlp_oracles(model, X[0]):
        for x in (*boundary, *X[:40]):
            got, want, redecided = batch_vs_rows(oracle, x[None, :])
            assert got == want
            assert redecided == 1
