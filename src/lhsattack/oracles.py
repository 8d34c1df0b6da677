"""Sign-only decision oracles with exact query accounting.

An oracle answers a single question about a point: is it adversarial
(+1) or not (-1). Nothing else — no scores, no gradients — crosses the
query interface. A :class:`MeteredOracle` is the one way to ask: its
:meth:`~MeteredOracle.decide` answers a single point and its
:meth:`~MeteredOracle.decide_batch` the rows of a matrix, which the attack
uses for each gradient estimate's probes. Both check the point's shape,
then the query cap, then charge the wrapper's :class:`QueryLedger` exactly
one query per point, so ledger totals are exact; both give the same answer
for the same point and raise the same error for the same bad input.

Four oracle kinds are provided: two analytic geometries (halfspace,
hypersphere) whose true boundary normals are known in closed form, a small
fully-connected classifier, and an external-process oracle speaking a
plain-text line protocol for attacking models that live outside this
process. Both ends of that pipe work at once: the engine sends a batch in
chunks of rows, encoding the next chunk while the peer decides the last
one, and :func:`serve_oracle`, the peer side, parses and decides the
complete lines of each read as one batch.
"""
from __future__ import annotations

import functools
import math
import os
import select
import shlex
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapabilityError,
    OracleFailedError,
    ProtocolError,
    QueryBudgetExceededError,
    WeightsFormatError,
)

__all__ = [
    "PHASE_INIT",
    "PHASE_BINSEARCH",
    "PHASE_GRADIENT",
    "PHASE_STEP",
    "PHASES",
    "QueryLedger",
    "MeteredOracle",
    "DecisionOracle",
    "HalfspaceOracle",
    "HypersphereOracle",
    "MlpOracle",
    "ExternalOracle",
    "MAX_TIMEOUT_S",
    "true_gradient",
    "MlpLayer",
    "MlpModel",
    "mlp_forward",
    "load_mlp",
    "save_mlp",
    "format_floats",
    "parse_floats",
    "serve_oracle",
]

PHASE_INIT = "init"
PHASE_BINSEARCH = "binsearch"
PHASE_GRADIENT = "gradient"
PHASE_STEP = "step"
PHASES = (PHASE_INIT, PHASE_BINSEARCH, PHASE_GRADIENT, PHASE_STEP)

RELU = "relu"
IDENTITY = "identity"
_ACTIVATIONS = (RELU, IDENTITY)


class QueryLedger:
    """Phase-labelled query counter.

    ``per_phase`` maps each phase label (init, binsearch, gradient, step)
    to the number of oracle calls charged to it; ``total_queries`` is their
    sum, maintained incrementally. It belongs to one :class:`MeteredOracle`
    and is used from one thread, so it takes no lock.
    """

    __slots__ = ("per_phase", "_total")

    def __init__(self):
        self.per_phase = {p: 0 for p in PHASES}
        self._total = 0

    @property
    def total_queries(self) -> int:
        return self._total

    def record(self, phase: str, count: int = 1) -> None:
        """Charge ``count`` queries to ``phase``."""
        if phase not in self.per_phase:
            raise ValueError(f"unknown query phase {phase!r}; expected one of {PHASES}")
        self.per_phase[phase] += count
        self._total += count

    def snapshot(self) -> dict:
        """A copy of the per-phase counts."""
        return dict(self.per_phase)

    def __repr__(self):
        return f"QueryLedger(total={self._total}, per_phase={self.per_phase})"


class DecisionOracle:
    """Base class: a sign rule over points of a fixed dimension.

    Subclasses implement ``_decide(x) -> +1 | -1`` on a float64 vector of
    length ``dim`` and may override ``_decide_batch(X)``, which must equal
    ``_decide`` row by row. Neither is called directly — all access goes
    through a :class:`MeteredOracle`, so that every query lands in a
    ledger. Inside an attack run, a gradient batch ``X`` is a view of the
    run's buffers, which the next batch overwrites: a ``_decide_batch``
    that keeps a batch after it returns must keep a copy.
    """

    kind = "abstract"

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("oracle dimension must be positive")
        self.dim = int(dim)

    def _decide(self, x: np.ndarray) -> int:
        raise NotImplementedError

    def _decide_batch(self, X: np.ndarray) -> np.ndarray:
        """Decisions for the rows of ``X`` (shape (n, dim)), as an int array."""
        return np.array([self._decide(x) for x in X], dtype=np.int64)


class MeteredOracle:
    """An oracle with its own :class:`QueryLedger` and an optional hard cap.

    This is the only object that queries an oracle: the attack, the
    harness and :func:`serve_oracle` all ask through one, so shape checks,
    budget enforcement and query accounting live in one place. The cap is
    checked *before* each query, and crossing it raises
    :class:`QueryBudgetExceededError` without spending the query.

    One thread uses it and its ledger: the cap check and the charge are
    separate steps, so threads must not share one.
    """

    def __init__(self, oracle: DecisionOracle, max_queries: int | None = None):
        self.oracle = oracle
        self.ledger = QueryLedger()
        self.max_queries = max_queries

    @property
    def dim(self) -> int:
        return self.oracle.dim

    def decide(self, x, phase: str) -> int:
        """Decide ``x`` (shape (dim,)), charging one query to ``phase``.

        Returns +1 (adversarial) or -1. Callers clip ``x`` into the box
        first; its coordinates are not re-checked here.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.oracle.dim,):
            raise ValueError(
                f"point has shape {x.shape}, oracle expects ({self.oracle.dim},)")
        if self.max_queries is not None and self.ledger.total_queries >= self.max_queries:
            raise QueryBudgetExceededError(
                f"query budget of {self.max_queries} exhausted")
        self.ledger.record(phase)
        return self.oracle._decide(x)

    def decide_batch(self, X, phase: str) -> np.ndarray:
        """Decide every row of ``X`` in order, charging one query per row.

        The result equals ``[self.decide(x, phase) for x in X]``, budget
        included: when the cap falls inside the batch, only the rows that
        fit are evaluated and charged, then
        :class:`QueryBudgetExceededError` is raised. The charge is made
        before evaluation, so a batch the oracle fails on is charged in
        full, also when an external oracle failed before it had sent every
        row.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(
                f"batch has shape {X.shape}, oracle expects (n, {self.dim})")
        fits = len(X)
        if self.max_queries is not None:
            fits = min(fits, max(self.max_queries - self.ledger.total_queries, 0))
        self.ledger.record(phase, fits)
        decisions = (self.oracle._decide_batch(X[:fits]) if fits
                     else np.empty(0, dtype=np.int64))
        if fits < len(X):
            raise QueryBudgetExceededError(
                f"query budget of {self.max_queries} exhausted")
        return decisions


# Rounding-error bounds for vectorized batch kernels, which must answer exactly
# as ``_decide`` does. A GEMM and the GEMV it replaces sum in different orders
# and can differ in the last ulp, which flips answers on the boundary.
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_TINY = np.finfo(np.float64).tiny   # covers underflow in the products


def _gamma(n: int) -> float:
    """gamma_n = n*u / (1 - n*u): relative error bound of an n-term dot product."""
    nu = n * _UNIT_ROUNDOFF
    return nu / (1.0 - nu)


def _redecide(oracle, X, decisions, sure) -> np.ndarray:
    """Re-decide with ``_decide`` every row not ``sure`` to match it."""
    for i in np.flatnonzero(~sure):
        decisions[i] = oracle._decide(X[i])
    return decisions


class HalfspaceOracle(DecisionOracle):
    """+1 on the open side of a hyperplane: normal . x + offset > 0.

    Points exactly on the plane answer -1. The true boundary normal is the
    (normalized) ``normal`` vector everywhere.
    """

    kind = "halfspace"

    def __init__(self, normal, offset: float):
        normal = np.asarray(normal, dtype=np.float64)
        if normal.ndim != 1:
            raise ValueError("halfspace normal must be a vector")
        if not (np.isfinite(normal).all() and np.any(normal != 0)):
            raise ValueError("halfspace normal must be finite and nonzero")
        super().__init__(normal.shape[0])
        self.normal = normal
        self.offset = float(offset)
        # 2**_scale bounds every |normal_i|; see _decide.
        self._scale = math.frexp(float(np.abs(normal).max()))[1]

    def _decide(self, x):
        with np.errstate(over="ignore", invalid="ignore"):
            dot = float(self.normal @ x)
        if not math.isfinite(dot):
            # Only an unclipped point (an oracle-serve peer's) gets here.
            # Scaling x by a power of two is exact, and once every |x_i| is
            # below 2**-_scale no product or partial sum can overflow.
            e = math.frexp(float(np.abs(x).max()))[1] + self._scale
            dot = float(self.normal @ np.ldexp(x, -e))
            if dot == 0.0:      # the scaled offset could round to zero
                return 1 if self.offset > 0.0 else -1
            return 1 if dot + math.ldexp(self.offset, -e) > 0.0 else -1
        return 1 if dot + self.offset > 0.0 else -1


class HypersphereOracle(DecisionOracle):
    """+1 strictly outside a ball of radius ``radius`` around ``original``.

    The minimal-distortion adversarial point sits exactly at distance
    ``radius`` from the center, which gives end-to-end convergence tests a
    closed-form optimum.
    """

    kind = "hypersphere"

    def __init__(self, original, radius: float):
        original = np.asarray(original, dtype=np.float64)
        if original.ndim != 1:
            raise ValueError("original point must be a vector")
        if not radius > 0.0:
            raise ValueError("hypersphere radius must be positive")
        super().__init__(original.shape[0])
        self.original = original
        self.radius = float(radius)

    def _decide(self, x):
        d = x - self.original
        return 1 if math.sqrt(d @ d) > self.radius else -1


class MlpOracle(DecisionOracle):
    """Classifier-backed oracle over a small fully-connected network.

    With a ``target_class`` it answers +1 when the prediction equals it;
    otherwise it answers +1 when the prediction differs from
    ``original_class``. Argmax ties resolve to the lowest class index.
    Scores themselves never leave the oracle.

    The model is treated as immutable once an oracle is built: the batch
    kernel computes each layer's rounding-error constants on its first
    batch and keeps them.
    """

    kind = "mlp"

    def __init__(self, model: "MlpModel", original=None,
                 original_class: int | None = None, target_class: int | None = None):
        super().__init__(model.input_dim)
        self.model = model
        self.original = None if original is None else _as_point(original, self.dim)
        if target_class is not None and not 0 <= int(target_class) < model.class_count:
            raise ValueError("target_class out of range")
        self.target_class = None if target_class is None else int(target_class)
        if original_class is None and self.original is not None:
            # Label of the unperturbed input, inferred once at setup time
            # (model evaluation at construction is not a metered query).
            original_class = int(np.argmax(mlp_forward(model, self.original)))
        if original_class is None:
            if self.target_class is None:
                raise ValueError("an mlp oracle without target_class needs an "
                                 "original point or original_class")
        elif not 0 <= int(original_class) < model.class_count:
            raise ValueError("original_class out of range")
        self.original_class = None if original_class is None else int(original_class)

    @functools.cached_property
    def _bounds(self):
        """Per layer: gamma_{n+1} for its n-term dot products, ||W||_inf and
        max|b|, the constants of the batch kernel's error bound.

        Computed on first use, so oracles that never decide a batch, such
        as those that screen original points, do not pay for them.
        """
        return [(_gamma(layer.weight.shape[1] + 1),
                 float(np.linalg.norm(layer.weight, np.inf)),
                 float(np.abs(layer.bias).max()))
                for layer in self.model.layers]

    def _decide(self, x):
        top = int(_forward(self.model, x).argmax())
        if self.target_class is not None:
            return 1 if top == self.target_class else -1
        return 1 if top != self.original_class else -1

    def _decide_batch(self, X):
        if len(X) == 1:
            # A single row costs a quarter as much through ``_decide`` as
            # through the GEMM path and its error bound.
            return np.array([self._decide(X[0])], dtype=np.int64)
        # One GEMM per layer. ``err`` bounds how far any score of either
        # this or the one-row GEMV path can be from the exact value. A
        # layer's rounding is at most gamma_{n+1} * (|W| @ |h| + |b|), and
        # the previous layer's error passes through |W| (ReLU is
        # 1-Lipschitz); both are taken in the max-norm over the whole
        # batch, which costs no second GEMM.
        H, err = X, 0.0
        for layer, (gamma, w_norm, b_max) in zip(self.model.layers, self._bounds):
            err = w_norm * (gamma * np.abs(H).max() + (1.0 + 2.0 * gamma) * err) \
                + gamma * b_max
            H = H @ layer.weight.T
            H += layer.bias
            if layer.activation == RELU:
                np.maximum(H, 0.0, out=H)
        top = H.argmax(axis=1)
        ranked = np.partition(H, -2, axis=1)
        # A top score ahead of the runner-up by more than both paths' errors
        # is the top score on both paths.
        sure = ranked[:, -1] - ranked[:, -2] > 4.0 * err + _TINY
        if self.target_class is not None:
            decisions = np.where(top == self.target_class, 1, -1)
        else:
            decisions = np.where(top != self.original_class, 1, -1)
        return _redecide(self, X, decisions, sure)


def _as_point(x, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (dim,):
        raise ValueError(f"point has shape {x.shape}, expected ({dim},)")
    return x


def true_gradient(oracle: DecisionOracle, x) -> np.ndarray:
    """Unit direction of increasing adversariality, analytic oracles only.

    Halfspace: the normalized plane normal (constant everywhere).
    Hypersphere: the outward radial direction at ``x``, which requires
    ``x`` to differ from the center.

    Raises
    ------
    CapabilityError
        For oracle kinds without a closed-form boundary normal.
    """
    if oracle.kind == "halfspace":
        # Scaled to max |w| = 1 first, so the norm cannot overflow.
        w = oracle.normal / np.abs(oracle.normal).max()
        return w / np.linalg.norm(w)
    if oracle.kind == "hypersphere":
        d = _as_point(x, oracle.dim) - oracle.original
        n = np.linalg.norm(d)
        if n == 0.0:
            raise ValueError("radial direction undefined at the center")
        return d / n
    raise CapabilityError(
        f"true gradient unavailable for oracle kind {oracle.kind!r}")


# ---------------------------------------------------------------------------
# Fully-connected classifier


@dataclass
class MlpLayer:
    """One affine layer: x -> activation(weight @ x + bias)."""

    weight: np.ndarray
    bias: np.ndarray
    activation: str

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2:
            raise ValueError("layer weight must be a matrix")
        if self.bias.shape != (self.weight.shape[0],):
            raise ValueError(
                f"bias length {self.bias.shape} does not match "
                f"{self.weight.shape[0]} output rows")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if not (np.isfinite(self.weight).all() and np.isfinite(self.bias).all()):
            raise ValueError("layer parameters must be finite")


@dataclass
class MlpModel:
    """A stack of :class:`MlpLayer` ending in ``class_count`` score outputs."""

    layers: list
    class_count: int

    def __post_init__(self):
        if not self.layers:
            raise ValueError("model needs at least one layer")
        if self.class_count < 2:
            raise ValueError("model needs at least two classes")
        for prev, cur in zip(self.layers, self.layers[1:]):
            if cur.weight.shape[1] != prev.weight.shape[0]:
                raise ValueError(
                    f"layer input width {cur.weight.shape[1]} does not match "
                    f"previous output width {prev.weight.shape[0]}")
        if self.layers[-1].weight.shape[0] != self.class_count:
            raise ValueError(
                f"final layer width {self.layers[-1].weight.shape[0]} "
                f"!= class count {self.class_count}")

    @property
    def input_dim(self) -> int:
        return self.layers[0].weight.shape[1]


def mlp_forward(model: MlpModel, x) -> np.ndarray:
    """Raw class scores for ``x`` (no softmax; argmax is all that matters)."""
    h = np.asarray(x, dtype=np.float64)
    if h.shape != (model.input_dim,):
        raise ValueError(
            f"input has shape {h.shape}, model expects ({model.input_dim},)")
    return _forward(model, h)


def _forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """:func:`mlp_forward` on a float64 vector whose shape is already checked."""
    h = x
    for layer in model.layers:
        h = layer.weight @ h
        h += layer.bias
        if layer.activation == RELU:
            np.maximum(h, 0.0, out=h)
    return h


def save_mlp(model: MlpModel, path) -> None:
    """Write a model in the plain-text weights format (see :func:`load_mlp`)."""
    lines = [f"mlp k={model.class_count} layers={len(model.layers)}"]
    for layer in model.layers:
        rows, cols = layer.weight.shape
        lines.append(f"layer {rows} {cols} {layer.activation}")
        for r in range(rows):
            lines.append(format_floats(layer.weight[r]))
        lines.append(format_floats(layer.bias))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_mlp(path) -> MlpModel:
    """Read a model from the plain-text weights format.

    Format: a header line ``mlp k=<classes> layers=<L>``, then for each
    layer a line ``layer <rows> <cols> <activation>`` followed by ``rows``
    lines of ``cols`` whitespace-separated floats (the weight matrix) and
    one line of ``rows`` floats (the bias).

    Raises
    ------
    WeightsFormatError
        On any parse failure or shape-invariant violation; the message
        carries the offending line number.
    """
    def fail(lineno, msg):
        raise WeightsFormatError(f"{path}:{lineno}: {msg}")

    with open(path, "rb") as fh:
        data = fh.read()
    try:
        raw = data.decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        # Count the lines up to the bad byte; "x" stands in for it.
        before = data[:exc.start].decode("ascii")
        fail(len((before + "x").splitlines()), f"non-ASCII byte 0x{data[exc.start]:02x}")

    def floats(lineno, count):
        if lineno > len(raw):
            fail(len(raw), "file ended early")
        toks = raw[lineno - 1].split()
        if len(toks) != count:
            fail(lineno, f"expected {count} values, found {len(toks)}")
        try:
            return np.array([float(t) for t in toks], dtype=np.float64)
        except ValueError:
            fail(lineno, "unparseable float")

    if not raw:
        fail(1, "empty file")
    head = raw[0].split()
    if len(head) != 3 or head[0] != "mlp" or not head[1].startswith("k=") \
            or not head[2].startswith("layers="):
        fail(1, "header must read 'mlp k=<classes> layers=<L>'")
    try:
        class_count = int(head[1][2:])
        n_layers = int(head[2][7:])
    except ValueError:
        fail(1, "header counts must be integers")
    if n_layers < 1:
        fail(1, "layer count must be positive")

    layers = []
    lineno = 2
    for li in range(n_layers):
        if lineno > len(raw):
            fail(len(raw), f"file ended before layer {li}")
        toks = raw[lineno - 1].split()
        if len(toks) != 4 or toks[0] != "layer":
            fail(lineno, "expected 'layer <rows> <cols> <activation>'")
        try:
            rows, cols = int(toks[1]), int(toks[2])
        except ValueError:
            fail(lineno, "layer dimensions must be integers")
        act = toks[3].lower()
        if act not in _ACTIVATIONS:
            fail(lineno, f"unknown activation {toks[3]!r}")
        if rows < 1 or cols < 1:
            fail(lineno, "layer dimensions must be positive")
        lineno += 1
        # Row by row, so the header's sizes allocate nothing the file lacks.
        weight = np.array([floats(lineno + r, cols) for r in range(rows)])
        bias = floats(lineno + rows, rows)
        if not (np.isfinite(weight).all() and np.isfinite(bias).all()):
            bad = next(r for r, v in enumerate((*weight, bias)) if not np.isfinite(v).all())
            fail(lineno + bad, "values must be finite")
        lineno += rows + 1
        layers.append(MlpLayer(weight=weight, bias=bias, activation=act))

    if lineno <= len(raw) and any(l.strip() for l in raw[lineno - 1:]):
        fail(lineno, "trailing content after last layer")
    try:
        return MlpModel(layers=layers, class_count=class_count)
    except ValueError as exc:
        raise WeightsFormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# External-process oracle: plain-text line protocol


# Rows per request chunk: the engine encodes the next chunk while the child
# decides this one. On a 2-core box the numpy encoder takes about 10 µs per
# 64-float row in 16-row chunks and 8.5-15 µs in 32-row ones, whose arrays
# can cross the allocator's 128 KiB mmap threshold. On mlp64_pipe, 16 and
# 32 rows measured within 1% of each other (3 pairs at seed 1).
_CHUNK_ROWS = 16

# Chunks of fewer rows are encoded with one %-format call, which takes
# 23-25 µs a row at any count; the numpy encoder's fixed cost makes it
# slower below 4 rows.
_ENCODE_MIN_ROWS = 4

# Seconds a child whose pipe closed gets to exit, so its status is reported.
_EXIT_WAIT_S = 1.0

# Failures in a row, with no complete reply between them, after which an
# external oracle spawns no more children; a child that dies before it
# replies would otherwise be spawned again for every later point and run.
_MAX_FAILED_STARTS = 3

# The longest reply timeout, in seconds: select() rejects one much longer.
MAX_TIMEOUT_S = threading.TIMEOUT_MAX


def format_floats(values) -> str:
    """Render a float vector at 17 significant digits, space-separated.

    17 digits round-trip IEEE doubles exactly, so a peer that parses this
    line recovers bit-identical values.
    """
    values = tuple(np.asarray(values, dtype=np.float64).tolist())
    # One %-format call over the whole row is faster than one per value.
    return " ".join(["%.17g"] * len(values)) % values


# The numpy request encoder. It writes each value into five uint64 words,
# 40 bytes in fixed columns: sign, "0." and up to three zeros for values
# below 1, then the 17 digits, each followed by a slot for the decimal
# point; the last slot holds the separator. Unused bytes are 0 and are
# deleted at the end. Every integer operand of its arithmetic is a uint64,
# so numpy's old value-based casting and NEP 50 promotion give the same bits.
_U32_MASK, _U32, _U64 = np.uint64(0xFFFFFFFF), np.uint64(32), np.uint64(64)
_ONE, _TOP_BIT = np.uint64(1), np.uint64(1 << 63)
_E4, _E8 = np.uint64(10**4), np.uint64(10**8)
_E16, _E17 = np.uint64(10**16), np.uint64(10**17)


@functools.cache
def _encoder_tables():
    """Lookup tables of :func:`_encode_rows`, built on first use."""
    n = np.arange(10000)
    digits = np.zeros((10000, 8), dtype=np.uint8)     # 4 digits, 0 after each
    for i, unit in enumerate((1000, 100, 10, 1)):
        digits[:, 2 * i] = n // unit % 10 + ord("0")
    # Trailing zero digits of a 4-digit group; an all-zero group counts 4.
    zeros = ((n % 10 == 0).astype(np.uint64) + (n % 100 == 0) + (n % 1000 == 0)
             + (n == 0))
    pow5 = np.uint64(5) ** np.arange(22, dtype=np.uint64)
    keep = np.zeros((17, 32), dtype=np.uint8)          # by digits dropped
    for drop in range(17):
        keep[drop, 0:2 * (16 - drop):2] = 0xFF
    lead = np.zeros((20, 8), dtype=np.uint8)           # by first digit, + 10 if negative
    lead[:, 6] = np.arange(20) % 10 + ord("0")
    lead[10:, 0] = ord("-")
    # By k = 16 - exponent: "0." and leading zeros below 1, else the point
    # after digit 16 - k. Row 0 is empty; it stands for "no point".
    head = np.zeros((21, 40), dtype=np.uint8)
    for k in range(1, 17):
        head[k, 7 + 2 * (16 - k)] = ord(".")
    for z in range(4):                         # exponent -1 - z: "0." and z zeros
        head[17 + z, 1:3 + z] = list(b"0.000"[:2 + z])
    # The byte tables are read as native uint64 words, 8 bytes each.
    tables = (digits.view(np.uint64).ravel(), zeros, pow5 >> _U32, pow5 & _U32_MASK,
              keep.view(np.uint64), lead.view(np.uint64).ravel(), head.view(np.uint64))
    for table in tables:                       # shared by every call
        table.setflags(write=False)
    return tables


def _scaled(m, s, k, pow5_hi, pow5_lo):
    """``m * 10**k / 2**s``, truncated, and whether it rounds up (half to even).

    ``m`` < 2**53 and ``10**k / 2**s`` < 2**50; the product is kept
    exactly in two words built from 32-bit limbs.
    """
    ph, pl = pow5_hi[k], pow5_lo[k]            # 10**k = 5**k * 2**k; 2**k is in s
    mh, ml = m >> _U32, m & _U32_MASK
    low = ml * pl
    mid = mh * pl + ml * ph
    lo = low + ((mid & _U32_MASK) << _U32)
    hi = mh * ph + (mid >> _U32) + (lo < low)
    left = _U64 - s
    q = (hi << left) | (lo >> s)
    # The bits shifted out, left-aligned: above half, or half with q odd.
    return q, ((lo << left) | (q & _ONE)) > _TOP_BIT


def _encode_rows(X) -> bytes:
    """The request lines of the rows of ``X``, as ASCII bytes.

    The bytes are ``"".join(format_floats(x) + "\\n" for x in X)``. Values
    that ``%.17g`` writes in fixed notation, ±0 and 1e-4 <= |v| < 1e15,
    are encoded with numpy: 17 correctly rounded digits from the exact
    product of the 53-bit mantissa and a power of ten. Other values
    (exponent notation, nan, inf) are %-formatted and spliced in, and
    chunks of fewer than :data:`_ENCODE_MIN_ROWS` rows are %-formatted
    whole.
    """
    rows, dim = X.shape
    if rows < _ENCODE_MIN_ROWS:
        return (((" ".join(["%.17g"] * dim) + "\n") * rows)
                % tuple(X.ravel().tolist())).encode("ascii")
    digits, zeros, pow5_hi, pow5_lo, keep, lead, head = _encoder_tables()
    v = X.ravel()
    a = np.abs(v)
    zero = a == 0.0
    slow = ~(zero | (a >= 1e-4) & (a < 1e15))
    any_slow = slow.any()
    if any_slow:
        a[slow] = 1.0
    f, e = np.frexp(a)
    m = (f * 2.0**53).astype(np.uint64)        # v = m * 2**(e - 53)
    a[zero] = 1.0
    x = np.floor(np.log10(a))                  # the exponent, or one off
    # 17 digits are m * 10**k / 2**s with k = 16 - x and s = 53 - e - k.
    k = (16.0 - x).astype(np.uint64)
    s = (37.0 + x - e).astype(np.uint64)
    q, up = _scaled(m, s, k.astype(np.intp), pow5_hi, pow5_lo)
    off = np.flatnonzero((q >= _E17) | (q < _E16) & (m != 0))
    if len(off):
        low = q[off] < _E16
        k[off] = np.where(low, k[off] + _ONE, k[off] - _ONE)
        s[off] = np.where(low, s[off] - _ONE, s[off] + _ONE)
        q[off], up[off] = _scaled(m[off], s[off], k[off].astype(np.intp), pow5_hi, pow5_lo)
    # No double in range lies within 5e-18 (relative) below a power of ten,
    # so rounding never carries d up to 10**17.
    d = q + up
    # Split the 17 digits: the first, then four groups of four.
    first = d // _E16
    rest = d - first * _E16
    halves = np.empty((len(v), 2), dtype=np.uint64)
    halves[:, 0] = rest // _E8
    halves[:, 1] = rest - halves[:, 0] * _E8
    groups = np.empty((len(v), 4), dtype=np.uint64)
    groups[:, 0::2] = halves // _E4
    groups[:, 1::2] = halves - groups[:, 0::2] * _E4
    gi = groups.astype(np.intp)
    # Trailing zero digits of d, 17 for d = 0.
    z = zeros[gi]
    z = np.where(groups[:, 1::2] != 0, z[:, 1::2], z[:, 0::2] + np.uint64(4))
    tz = np.where(halves[:, 1] != 0, z[:, 1], z[:, 0] + np.uint64(8))
    tz = np.where(rest != 0, tz, np.uint64(16) + (first == 0))
    # %g drops the trailing zeros after the point, and the point with them.
    ki = k.astype(np.intp)
    W = np.take(head, np.where(tz < k, ki, 0), axis=0)
    W[:, 0] |= lead[first.astype(np.intp) + np.signbit(v) * np.intp(10)]
    W[:, 1:] |= digits[gi] & np.take(keep, np.minimum(k, tz).astype(np.intp), axis=0)
    fields = W.view(np.uint8).reshape(rows, dim, 40)
    fields[:, :, 39] = ord(" ")
    fields[:, -1, 39] = ord("\n")
    if any_slow:
        # A 1 byte marks where each %-formatted value goes.
        fields = fields.reshape(-1, 40)
        fields[slow, :39] = 0
        fields[slow, 0] = 1
    out = W.tobytes().translate(None, b"\0")
    if not any_slow:
        return out
    pieces = out.split(b"\x01")
    spliced = [pieces[0]]
    for value, piece in zip(v[slow].tolist(), pieces[1:]):
        spliced += (b"%.17g" % value, piece)
    return b"".join(spliced)


def parse_floats(line: str, expected: int) -> np.ndarray:
    """Parse a protocol line of ``expected`` floats.

    Raises
    ------
    ProtocolError
        On a wrong token count or an unparseable token.
    """
    toks = line.split()
    if len(toks) != expected:
        raise ProtocolError(
            f"expected {expected} values on the line, found {len(toks)}")
    try:
        return np.array([float(t) for t in toks], dtype=np.float64)
    except ValueError as exc:
        raise ProtocolError(f"unparseable float in request line: {exc}") from exc


class ExternalOracle(DecisionOracle):
    """Decision oracle running in a child process, one query per line.

    Protocol, all lines newline-terminated ASCII: the engine opens with
    ``HELLO m=<dim>`` and the peer answers ``OK``; thereafter each request
    is ``dim`` floats at 17 significant digits separated by spaces, and
    each reply is ``+1`` or ``-1``, in request order. A batch is streamed
    over the single pipe pair in chunks of a few rows: the next chunk is
    encoded while the peer decides the ones already sent, and replies are
    read while requests are still being written. The peer sees the same
    bytes as for one query at a time, and the batch waits for the peer once
    rather than per row.

    The child is spawned lazily on the first query (or via :meth:`start`)
    and is reaped by :meth:`close`; the class doubles as a context
    manager. ``timeout`` must lie in (0, :data:`MAX_TIMEOUT_S`]. A reply
    slower than ``timeout`` seconds, a dead pipe (the error names the
    child's exit status once it has exited), or an unlaunchable command
    raises :class:`OracleFailedError`; a reply that is not ``+1``/``-1``
    raises :class:`ProtocolError`. Either failure kills the child and drops
    its unread output, so no stale reply can answer a later query; the next
    query spawns a fresh child. After three failures in a row with no
    complete reply between them, queries fail at once and spawn nothing.
    """

    kind = "external"

    def __init__(self, cmd, dim: int, timeout: float = 10.0):
        super().__init__(dim)
        self.cmd = shlex.split(cmd) if isinstance(cmd, str) else list(cmd)
        if not self.cmd:
            raise ValueError("external oracle command is empty")
        self.timeout = float(timeout)
        if not 0.0 < self.timeout <= MAX_TIMEOUT_S:
            raise ValueError(
                f"timeout must be positive and at most {int(MAX_TIMEOUT_S)} s")
        self._proc = None
        self._buf = b""
        self._failures = 0   # in a row, since the last complete reply

    def start(self) -> None:
        """Spawn the child and complete the handshake; respawn an exited one."""
        if self._proc is not None:
            if self._proc.poll() is None:
                return
            self._stop(kill=True)
        if self._failures >= _MAX_FAILED_STARTS:
            raise OracleFailedError(
                f"oracle process {self.cmd!r} failed {self._failures} times in a row "
                f"without a reply; not starting it again")
        try:
            self._proc = subprocess.Popen(
                self.cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                bufsize=0)
        except OSError as exc:
            self._failures += 1
            raise OracleFailedError(
                f"could not launch oracle process {self.cmd!r}: {exc}") from exc
        os.set_blocking(self._proc.stdin.fileno(), False)
        os.set_blocking(self._proc.stdout.fileno(), False)
        try:
            [reply] = self._exchange([f"HELLO m={self.dim}\n".encode("ascii")], 1)
            if reply != "OK":
                raise ProtocolError(f"handshake reply was {reply!r}, expected 'OK'")
        except OracleFailedError:
            self._failures += 1
            self._stop(kill=True)
            raise

    def close(self) -> None:
        """Close the pipes and reap the child (kill it if it lingers)."""
        self._stop(kill=False)

    def _stop(self, kill: bool) -> None:
        """Reap the child; ``kill`` it first when its state is unknown."""
        proc, self._proc = self._proc, None
        self._buf = b""
        if proc is None:
            return
        if kill:
            proc.kill()
        for pipe in (proc.stdin, proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass
        try:
            proc.wait(timeout=2.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info):
        self.close()

    def _decide(self, x):
        return int(self._decide_batch(x[None, :])[0])

    def _decide_batch(self, X):
        self.start()
        # A generator, so each chunk is encoded only when the one before it
        # is written: the engine encodes while the child decides. Each row
        # is encoded as format_floats writes it.
        requests = (_encode_rows(X[i:i + _CHUNK_ROWS]) for i in range(0, len(X), _CHUNK_ROWS))
        try:
            replies = self._exchange(requests, len(X))
            for reply in replies:
                if reply not in ("+1", "-1"):
                    raise ProtocolError(
                        f"oracle replied {reply!r}, expected '+1' or '-1'")
        except OracleFailedError:
            # Replies to the rest of the batch may still be in flight.
            self._failures += 1
            self._stop(kill=True)
            raise
        self._failures = 0
        return np.array([1 if r == "+1" else -1 for r in replies], dtype=np.int64)

    def _dead(self, what):
        # The pipe can close a moment before the child has exited.
        try:
            detail = f"exited with status {self._proc.wait(timeout=_EXIT_WAIT_S)}"
        except subprocess.TimeoutExpired:
            detail = "closed the pipe"
        return OracleFailedError(f"oracle process {detail} while {what}")

    def _exchange(self, chunks, count: int) -> list:
        """Send each byte string of ``chunks``; read ``count`` reply lines.

        The next chunk is taken from the iterator only once the previous one
        is written, and replies are read while requests are still being
        written, so a batch larger than the pipe buffers cannot deadlock.
        Each reply must arrive within ``timeout`` seconds of the previous
        one (or of the call).
        """
        chunks = iter(chunks)
        out_fd, in_fd = self._proc.stdin.fileno(), self._proc.stdout.fileno()
        lines: list = []
        data, sent = memoryview(next(chunks, b"")), 0
        deadline = time.monotonic() + self.timeout
        while sent < len(data) or len(lines) < count:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                what = "accept the request" if sent < len(data) else "reply"
                raise OracleFailedError(
                    f"oracle did not {what} within {self.timeout} s")
            writing = [out_fd] if sent < len(data) else []
            readable, writable, _ = select.select([in_fd], writing, [], remaining)
            if writable:
                try:
                    sent += os.write(out_fd, data[sent:])
                except BlockingIOError:
                    pass
                except OSError:
                    raise self._dead("receiving a request") from None
                if sent == len(data):
                    data, sent = memoryview(next(chunks, b"")), 0
            if not readable:
                continue
            try:
                chunk = os.read(in_fd, 65536)
            except BlockingIOError:
                continue
            if not chunk:
                raise self._dead("awaiting a reply")
            self._buf += chunk
            while len(lines) < count and b"\n" in self._buf:
                line, self._buf = self._buf.split(b"\n", 1)
                lines.append(line.decode("ascii", errors="replace"))
                deadline = time.monotonic() + self.timeout
        if self._buf:
            raise ProtocolError(
                f"oracle sent {self._buf[:40]!r} beyond the {count} replies requested")
        return lines


def _line_groups(infile):
    """Yield the complete lines of each read from binary ``infile`` as a list.

    At end of stream, an unterminated last line comes as a group of its own.
    """
    pending = b""
    while data := infile.read1(65536):
        *lines, pending = (pending + data).split(b"\n")
        if lines:
            yield lines
    if pending:
        yield [pending]


def serve_oracle(oracle: DecisionOracle, infile=None, outfile=None) -> int:
    """Answer line-protocol queries on a binary stream pair until EOF.

    This is the peer side of :class:`ExternalOracle`: it validates the
    ``HELLO m=<dim>`` handshake against ``oracle.dim``, replies ``OK``,
    then answers every request line with ``+1`` or ``-1``. The complete
    lines of each read are parsed at once, decided as one
    :meth:`MeteredOracle.decide_batch` call and answered with one write
    and one flush; the reply bytes equal those of answering line by line.
    Defaults to the binary stdin/stdout, so a process can expose any
    in-process oracle over its standard streams.

    Returns
    -------
    int
        Number of decisions served.

    Raises
    ------
    ProtocolError
        On a bad handshake, or a request line that is malformed or holds a
        non-finite value. The replies to the lines before it are written
        and flushed first.
    """
    infile = sys.stdin.buffer if infile is None else infile
    outfile = sys.stdout.buffer if outfile is None else outfile
    # The peer cannot tell the attack's phases apart; it only counts.
    metered = MeteredOracle(oracle)
    greeted = False
    for lines in _line_groups(infile):
        out = []
        if not greeted:
            _check_handshake(lines.pop(0).decode("ascii", errors="replace"), oracle.dim)
            out.append(b"OK\n")
            greeted = True
        X, malformed = _parse_requests(lines, oracle.dim)
        if len(X):
            finite = np.isfinite(X).all(axis=1)
            if not finite.all():
                # The first such line comes before any malformed one.
                X = X[:finite.argmin()]
                malformed = ProtocolError("non-finite value in request line")
            decisions = metered.decide_batch(X, PHASE_INIT)
            out += [b"+1\n" if d > 0 else b"-1\n" for d in decisions.tolist()]
        if out:
            outfile.write(b"".join(out))
            outfile.flush()
        if malformed is not None:
            raise malformed
    if not greeted:
        raise ProtocolError("stream closed before handshake")
    return metered.ledger.total_queries


def _parse_requests(lines, dim: int):
    """Parse request ``lines`` (bytes) into rows, stopping at a malformed one.

    Returns the rows before the first malformed line, as an (n, dim) array,
    and that line's :class:`ProtocolError`, or None when there is none.
    The values, the rows kept and the error are those of calling
    :func:`parse_floats` on each line in turn.
    """
    tokens = [line.split() for line in lines]
    if all(len(t) == dim for t in tokens):
        try:
            # numpy converts each bytes token with Python's float(), which
            # takes bytes as parse_floats takes the decoded line, so one
            # conversion gives the same values and fails on the same lines.
            return np.array(tokens, dtype=np.float64).reshape(len(lines), dim), None
        except ValueError:
            pass
    # Line by line, to find the first malformed line. This also accepts
    # lines split by the separators only str.split knows, such as \x1c.
    rows, malformed = [], None
    for line in lines:
        try:
            rows.append(parse_floats(line.decode("ascii", errors="replace"), dim))
        except ProtocolError as exc:
            malformed = exc
            break
    return np.array(rows).reshape(len(rows), dim), malformed


def _check_handshake(greeting: str, dim: int) -> None:
    if not greeting.startswith("HELLO m="):
        raise ProtocolError(f"bad handshake {greeting!r}")
    try:
        peer_dim = int(greeting[8:])
    except ValueError as exc:
        raise ProtocolError(f"bad handshake {greeting!r}") from exc
    if peer_dim != dim:
        raise ProtocolError(
            f"peer announced dimension {peer_dim}, serving {dim}")
