"""Experiment runner: config files, batch attacks, and CSV reports.

A benchmark is described by a flat INI file (sections ``[experiment]``,
``[oracle <name>]``, ``[points]``, ``[attack]``; exact grammar in the
README). The runner executes every (oracle, sampler, point, repetition)
cell, writes one trace CSV per run plus a summary CSV of mean/median
distortion at each query budget, and never lets a single failed run abort
the batch.

Runs that differ only in sampler share a seed, so stratified-vs-plain
comparisons are made under common random numbers. Budgets are read as
slices out of one trace per run (the best distortion recorded within the
first B queries) rather than re-running per budget.
"""
from __future__ import annotations

import configparser
import dataclasses
import os
from dataclasses import dataclass, field

import numpy as np

from .attack import (
    AttackConfig,
    AttackTrace,
    COMPLETED,
    run_attack,
)
from .errors import (
    ConfigError,
    InitFailedError,
    LhsAttackError,
    OracleFailedError,
)
from .oracles import (
    PHASE_INIT,
    UNTARGETED,
    ExternalOracle,
    HalfspaceOracle,
    HypersphereOracle,
    MeteredOracle,
    MlpOracle,
    load_mlp,
    parse_floats,
)
from .rng import NS_POINTS, NS_RUN, substream_seed
from .samplers import LHS, SRS

__all__ = [
    "OracleSpecConfig",
    "PointsConfig",
    "ExperimentConfig",
    "SummaryRow",
    "RunRecord",
    "ExperimentResult",
    "parse_config",
    "serialize_config",
    "build_oracle",
    "generate_points",
    "load_points_file",
    "distortion_at_budget",
    "emit_trace_csv",
    "emit_summary_csv",
    "run_experiment",
]

TRACE_HEADER = "t,M_t,delta_t,epsilon_t,queries,distortion,agree_count,step_retries,binsearch_steps"
SUMMARY_HEADER = "oracle,sampler,budget,statistic,distortion,repetitions"

ORACLE_KINDS = ("halfspace", "hypersphere", "mlp", "external")
POINT_SOURCES = ("generate", "inline", "file")
STATISTICS = ("mean", "median")


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _fields_equal(a, b) -> bool:
    """Dataclass equality that compares array fields by value."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            if x is None or y is None or not np.array_equal(x, y):
                return False
        elif x != y:
            return False
    return True


@dataclass(frozen=True)
class _ValueType:
    """How an oracle-spec value is read from text, checked and written back."""

    parse: object            # text -> value; None: each grammar parses vectors
    valid: object            # value -> bool
    means: str               # what a valid value is, for error messages
    show: object = str       # value -> INI text


SIZE = _ValueType(int, lambda v: v >= 1, "an integer >= 1")
INDEX = _ValueType(int, lambda v: v >= 0, "an integer >= 0")
FINITE = _ValueType(float, np.isfinite, "finite", _fmt)
POSITIVE = _ValueType(float, lambda v: np.isfinite(v) and v > 0.0, "positive and finite", _fmt)
STRING = _ValueType(str, lambda v: True, "a string")
VECTOR = _ValueType(None, lambda v: v.ndim == 1 and v.size > 0 and np.isfinite(v).all(),
                    "a non-empty vector of finite values",
                    lambda v: " ".join(_fmt(x) for x in v))


def _spec_field(vtype: _ValueType, *aliases: str, default=None):
    """One row of the oracle-spec table (see :class:`OracleSpecConfig`)."""
    return field(default=default, metadata={"type": vtype, "aliases": aliases})


@dataclass(eq=False)
class OracleSpecConfig:
    """Declarative description of one oracle; realized per original point.

    Every field after ``kind`` is a row of the oracle-spec table: its name
    is the canonical key of both text grammars (the CLI's
    ``kind:key=value,...`` and the INI ``[oracle <name>]`` section), and
    the row gives its aliases, value type and default. Parsing, checking,
    serialization and the input dimension a spec implies all come from
    these rows. Each field may be given once, under one of its spellings.
    """

    name: str
    kind: str
    radius: float | None = _spec_field(POSITIVE, "r")
    normal: np.ndarray | None = _spec_field(VECTOR, "w")
    offset: float | None = _spec_field(FINITE, "b")
    weights: str | None = _spec_field(STRING)
    cmd: str | None = _spec_field(STRING)
    timeout: float = _spec_field(POSITIVE, default=10.0)
    target_class: int | None = _spec_field(INDEX, "target")
    dim: int | None = _spec_field(SIZE, "m")
    # The two below matter when no original point is in play (oracle-serve):
    # a fixed hypersphere center, and an explicit class index for mlp.
    center: np.ndarray | None = _spec_field(VECTOR)
    original_class: int | None = _spec_field(INDEX, "class")

    def __post_init__(self):
        if self.kind not in ORACLE_KINDS:
            raise ConfigError(f"unknown oracle kind {self.kind!r}")
        for f in SPEC_FIELDS:
            value, vtype = getattr(self, f.name), f.metadata["type"]
            if value is None:
                continue
            if vtype is VECTOR:
                value = np.asarray(value, dtype=np.float64)
                setattr(self, f.name, value)
            if not vtype.valid(value):
                raise ConfigError(f"oracle {self.name!r}: {f.name} must be {vtype.means}")
        dims = sorted({d for _, d in self.implied_dims()})
        if len(dims) > 1:
            raise ConfigError(f"oracle {self.name!r}: conflicting input dimensions {dims}")
        if self.kind == "hypersphere" and self.radius is None:
            raise ConfigError(f"oracle {self.name!r}: radius must be positive")
        if self.kind == "halfspace":
            if self.normal is None or self.offset is None:
                raise ConfigError(f"oracle {self.name!r}: needs normal and offset")
            if not np.any(self.normal != 0):
                raise ConfigError(f"oracle {self.name!r}: normal must be a nonzero vector")
            # Bounds |normal . x + offset| over the default [0, 1] box, so the
            # sign the oracle computes there cannot come from an overflow.
            with np.errstate(over="ignore"):
                bound = np.abs(self.normal).sum() + abs(self.offset)
            if not np.isfinite(bound):
                raise ConfigError(
                    f"oracle {self.name!r}: sum(|normal|) + |offset| must be finite")
        if self.kind == "mlp" and not self.weights:
            raise ConfigError(f"oracle {self.name!r}: needs a weights path")
        if self.kind == "external" and not self.cmd:
            raise ConfigError(f"oracle {self.name!r}: needs a command")

    @classmethod
    def from_text(cls, name: str, kind: str, items, vector) -> "OracleSpecConfig":
        """Build a spec from known ``(key, text)`` pairs; ``vector`` parses vectors."""
        kwargs, spelled = {}, {}
        for key, text in items:
            f = SPEC_KEYS[key]
            if f.name in spelled:
                raise ConfigError(f"oracle {name!r}: {f.name} given more than once "
                                  f"(as {spelled[f.name]!r} and {key!r})")
            spelled[f.name] = key
            try:
                kwargs[f.name] = (f.metadata["type"].parse or vector)(text)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"oracle {name!r}: bad value for {key!r}: {exc}") from exc
        return cls(name=name, kind=kind, **kwargs)

    def implied_dims(self):
        """``(field, dimension)`` for ``dim`` and each vector field that is set."""
        for f in SPEC_FIELDS:
            value = getattr(self, f.name)
            if f.name == "dim" and value is not None:
                yield f.name, value
            elif f.metadata["type"] is VECTOR and value is not None:
                yield f.name, len(value)

    def __eq__(self, other):
        if not isinstance(other, OracleSpecConfig):
            return NotImplemented
        return _fields_equal(self, other)


SPEC_FIELDS = tuple(f for f in dataclasses.fields(OracleSpecConfig) if f.metadata)
SPEC_KEYS = {key: f for f in SPEC_FIELDS for key in (f.name, *f.metadata["aliases"])}


@dataclass(eq=False)
class PointsConfig:
    """Where the original points come from: generated, inline, or a file."""

    source: str
    count: int = 0
    dim: int = 0
    seed: int = 0
    file: str | None = None
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.source not in POINT_SOURCES:
            raise ConfigError(f"unknown points source {self.source!r}")
        if self.seed < 0:
            raise ConfigError("points: seed must be >= 0")
        if self.source == "generate":
            if self.count < 1 or self.dim < 1:
                raise ConfigError("points: generate needs count >= 1 and dim >= 1")
        elif self.source == "file":
            if not self.file:
                raise ConfigError("points: source=file needs a file path")
        elif self.source == "inline":
            if self.values is None or len(self.values) == 0:
                raise ConfigError("points: source=inline needs values")
            self.values = np.atleast_2d(np.asarray(self.values, dtype=np.float64))
            if not np.isfinite(self.values).all():
                raise ConfigError("points: values must be finite")
            self.count = self.values.shape[0]
            self.dim = self.values.shape[1]

    def __eq__(self, other):
        if not isinstance(other, PointsConfig):
            return NotImplemented
        return _fields_equal(self, other)


@dataclass
class ExperimentConfig:
    """Everything one benchmark needs; see the README for the file grammar."""

    oracles: list
    points: PointsConfig
    attack: AttackConfig
    samplers: list = field(default_factory=lambda: [LHS, SRS])
    budgets: list = field(default_factory=lambda: [1000, 5000, 20000])
    statistics: list = field(default_factory=lambda: list(STATISTICS))
    repetitions: int = 1
    base_seed: int = 0
    output_dir: str = "out"
    name: str = "experiment"

    def __post_init__(self):
        if not self.oracles:
            raise ConfigError("at least one [oracle <name>] section is required")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.base_seed < 0:
            raise ConfigError("base_seed must be >= 0")
        if not self.budgets or any(b < 1 for b in self.budgets):
            raise ConfigError("budgets must be positive integers")
        if not self.samplers or any(s not in (LHS, SRS) for s in self.samplers):
            raise ConfigError(f"samplers must be drawn from ('{LHS}', '{SRS}')")
        if not self.statistics or any(s not in STATISTICS for s in self.statistics):
            raise ConfigError(f"statistics must be drawn from {STATISTICS}")
        names = [o.name for o in self.oracles]
        if len(set(names)) != len(names):
            raise ConfigError("oracle section names must be unique")


@dataclass
class SummaryRow:
    """One cell of the final report: a distortion statistic at a budget."""

    oracle: str
    sampler: str
    budget: int
    statistic: str
    distortion: float
    repetitions: int


@dataclass
class RunRecord:
    """Outcome of a single attack run inside an experiment."""

    oracle: str
    sampler: str
    point_index: int
    rep: int
    seed: int
    trace_path: str
    status: str
    error: str | None = None


@dataclass
class ExperimentResult:
    summary_rows: list
    runs: list
    summary_path: str
    output_dir: str
    # In-memory traces keyed by (oracle, sampler, point_index, rep), for
    # callers that audit ledgers without re-parsing the CSVs.
    traces: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Config file parsing


_EXPERIMENT_KEYS = {"name", "repetitions", "base_seed", "output_dir", "budgets",
                    "samplers", "statistics"}
_POINTS_KEYS = {"source", "count", "dim", "seed", "file", "values"}
_ATTACK_KEYS = {"initial_samples", "iterations", "bisect_tol", "max_queries",
                "mode", "max_init_tries", "max_step_retries", "clip_low",
                "clip_high"}


def _typed(section, key, conv, default=None):
    if key not in section or section[key].strip() == "":
        return default
    try:
        return conv(section[key].strip())
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"[{section.name}] {key}: {exc}") from exc


def _check_keys(section, allowed):
    for key in section:
        if key not in allowed:
            raise ConfigError(f"[{section.name}] unknown key {key!r}")


def _float_list(text: str) -> np.ndarray:
    return np.array([float(t) for t in text.split()], dtype=np.float64)


def _word_list(text: str) -> list:
    """Split a list-valued key on whitespace and/or commas."""
    return [t for t in text.replace(",", " ").split() if t]


def parse_config(path) -> ExperimentConfig:
    """Parse and fully validate an experiment config file.

    Unknown sections or keys, malformed values, and invariant violations
    all raise :class:`ConfigError` naming the offending location.
    """
    cp = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path!r} is not UTF-8 text: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path!r}: {exc}") from exc

    oracles = []
    points = None
    attack_kwargs = {}
    exp_kwargs = {}
    for name in cp.sections():
        section = cp[name]
        if name == "experiment":
            _check_keys(section, _EXPERIMENT_KEYS)
            exp_kwargs["name"] = section.get("name", "experiment").strip()
            exp_kwargs["repetitions"] = _typed(section, "repetitions", int, 1)
            exp_kwargs["base_seed"] = _typed(section, "base_seed", int, 0)
            exp_kwargs["output_dir"] = section.get("output_dir", "out").strip()
            budgets = _typed(section, "budgets",
                             lambda s: [int(t) for t in _word_list(s)], None)
            if budgets is not None:
                exp_kwargs["budgets"] = budgets
            samplers = _typed(section, "samplers", _word_list, None)
            if samplers is not None:
                exp_kwargs["samplers"] = samplers
            stats = _typed(section, "statistics", _word_list, None)
            if stats is not None:
                exp_kwargs["statistics"] = stats
        elif name.startswith("oracle ") or name == "oracle":
            _check_keys(section, {"kind", *SPEC_KEYS})
            items = [(key, text.strip()) for key, text in section.items()
                     if key != "kind" and text.strip()]
            try:
                oracles.append(OracleSpecConfig.from_text(
                    name[7:].strip() or "oracle", section.get("kind", "").strip(),
                    items, _float_list))
            except ConfigError as exc:
                raise ConfigError(f"[{name}] {exc}") from None
        elif name == "points":
            _check_keys(section, _POINTS_KEYS)
            values = section.get("values", "").strip()
            rows = None
            if values:
                try:
                    rows = np.array([_float_list(line)
                                     for line in values.splitlines() if line.strip()])
                except ValueError as exc:
                    raise ConfigError(f"[points] values: {exc}") from exc
            try:
                points = PointsConfig(
                    source=section.get("source", "generate").strip(),
                    count=_typed(section, "count", int, 0),
                    dim=_typed(section, "dim", int, 0),
                    seed=_typed(section, "seed", int, 0),
                    file=section.get("file", "").strip() or None,
                    values=rows,
                )
            except ConfigError as exc:
                raise ConfigError(f"[points] {exc}") from None
        elif name == "attack":
            _check_keys(section, _ATTACK_KEYS)
            for key, conv in (("initial_samples", int), ("iterations", int),
                              ("bisect_tol", float), ("max_queries", int),
                              ("max_init_tries", int), ("max_step_retries", int),
                              ("clip_low", float), ("clip_high", float)):
                val = _typed(section, key, conv)
                if val is not None:
                    attack_kwargs[key] = val
            mode = section.get("mode", UNTARGETED).strip()
            if mode != UNTARGETED:
                raise ConfigError(
                    "[attack] mode: benchmark configs support untargeted runs only; "
                    "use the library API for targeted attacks")
        else:
            raise ConfigError(f"unknown section [{name}]")

    if points is None:
        raise ConfigError("a [points] section is required")
    try:
        attack = AttackConfig(**attack_kwargs)
    except ValueError as exc:
        raise ConfigError(f"[attack] {exc}") from exc

    config = ExperimentConfig(oracles=oracles, points=points, attack=attack,
                              **exp_kwargs)
    _cross_validate(config)
    return config


def _cross_validate(config: ExperimentConfig) -> None:
    dim = config.points.dim
    for spec in config.oracles:
        for key, d in spec.implied_dims():
            if dim and d != dim:
                clash = (f"dim={d} conflicts with points" if key == "dim" else
                         f"{key} has {d} coordinates but points have")
                raise ConfigError(f"oracle {spec.name!r}: {clash} dimension {dim}")


def serialize_config(config: ExperimentConfig) -> str:
    """Render a config back to the INI grammar (parse . serialize = identity)."""
    lines = ["[experiment]",
             f"name = {config.name}",
             f"repetitions = {config.repetitions}",
             f"base_seed = {config.base_seed}",
             f"output_dir = {config.output_dir}",
             "budgets = " + " ".join(str(b) for b in config.budgets),
             "samplers = " + " ".join(config.samplers),
             "statistics = " + " ".join(config.statistics),
             ""]
    for spec in config.oracles:
        lines.append(f"[oracle {spec.name}]")
        lines.append(f"kind = {spec.kind}")
        for f in SPEC_FIELDS:
            value = getattr(spec, f.name)
            if value is not None and (f.default is None or value != f.default):
                lines.append(f"{f.name} = {f.metadata['type'].show(value)}")
        lines.append("")
    lines.append("[points]")
    lines.append(f"source = {config.points.source}")
    if config.points.source == "generate":
        lines.append(f"count = {config.points.count}")
        lines.append(f"dim = {config.points.dim}")
        lines.append(f"seed = {config.points.seed}")
    elif config.points.source == "file":
        lines.append(f"file = {config.points.file}")
        if config.points.dim:
            lines.append(f"dim = {config.points.dim}")
        if config.points.seed:
            lines.append(f"seed = {config.points.seed}")
    else:
        lines.append("values =")
        for row in config.points.values:
            lines.append("    " + " ".join(_fmt(v) for v in row))
    lines.append("")
    lines.append("[attack]")
    a = config.attack
    lines.append(f"initial_samples = {a.initial_samples}")
    lines.append(f"iterations = {a.iterations}")
    if a.bisect_tol is not None:
        lines.append(f"bisect_tol = {_fmt(a.bisect_tol)}")
    if a.max_queries is not None:
        lines.append(f"max_queries = {a.max_queries}")
    lines.append(f"mode = {a.mode}")
    lines.append(f"max_init_tries = {a.max_init_tries}")
    lines.append(f"max_step_retries = {a.max_step_retries}")
    lines.append(f"clip_low = {_fmt(a.clip_low)}")
    lines.append(f"clip_high = {_fmt(a.clip_high)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Oracle and point realization


def build_oracle(spec: OracleSpecConfig, original=None, model_cache: dict | None = None):
    """Instantiate the oracle described by ``spec``; the only place that does.

    A hypersphere without ``center`` is centred on ``original``, an
    untargeted mlp takes its class, and an external oracle without ``dim``
    its length; without ``original`` (``oracle-serve``) the spec must say
    these. ``model_cache`` (path -> MlpModel) avoids re-reading weights.
    External oracles should be reused, and finally closed, by the caller.
    """
    if original is not None:
        original = np.asarray(original, dtype=np.float64)
        for key, d in spec.implied_dims():
            if d != original.shape[0]:
                said = f"dim={d}" if key == "dim" else f"{key} has {d} coordinates"
                raise ConfigError(f"oracle {spec.name!r}: {key}/point dimension "
                                  f"mismatch: {said}, point has {original.shape[0]}")
    if spec.kind == "hypersphere":
        center = original if spec.center is None else spec.center
        if center is None:
            raise ConfigError(
                f"oracle {spec.name!r}: without an original point, needs center=<vector>")
        return HypersphereOracle(center, spec.radius)
    if spec.kind == "halfspace":
        return HalfspaceOracle(spec.normal, spec.offset, original)
    if spec.kind == "mlp":
        if model_cache is not None and spec.weights in model_cache:
            model = model_cache[spec.weights]
        else:
            model = load_mlp(spec.weights)
            if model_cache is not None:
                model_cache[spec.weights] = model
        mode = UNTARGETED if spec.target_class is None else "targeted"
        return MlpOracle(model, original, mode=mode,
                         original_class=spec.original_class,
                         target_class=spec.target_class)
    dim = spec.dim or (None if original is None else original.shape[0])
    if not dim:
        raise ConfigError(f"oracle {spec.name!r}: input dimension unknown; give dim=")
    return ExternalOracle(spec.cmd, dim=dim, timeout=spec.timeout)


def load_points_file(path, dim: int | None = None) -> np.ndarray:
    """Read original points, one float-line per point (protocol line format)."""
    points = []
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"points file {path!r} is not ASCII text: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        if dim is None:
            dim = len(line.split())
        try:
            points.append(parse_floats(line.strip(), dim))
        except LhsAttackError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        if not np.isfinite(points[-1]).all():
            raise ConfigError(f"{path}:{lineno}: coordinates must be finite")
    if not points:
        raise ConfigError(f"points file {path!r} is empty")
    return np.vstack(points)


def generate_points(count: int, dim: int, seed: int, lo: float = 0.0,
                    hi: float = 1.0, accept=None, max_tries: int = 1000) -> np.ndarray:
    """Draw original points uniformly in the clip box, deterministically.

    ``accept`` (point -> bool), when given, rejection-samples each point —
    used to guarantee originals the oracles answer -1 on. Raises
    :class:`ConfigError` if a point survives ``max_tries`` rejections.
    """
    rng = np.random.default_rng(substream_seed(seed, NS_POINTS))
    out = np.empty((count, dim), dtype=np.float64)
    for i in range(count):
        for _ in range(max_tries):
            cand = lo + (hi - lo) * rng.random(dim)
            if accept is None or accept(cand):
                out[i] = cand
                break
        else:
            raise ConfigError(
                f"could not generate an acceptable original point in {max_tries} tries")
    return out


def _setup_decision(oracle, point) -> int:
    """One unmetered-by-the-experiment oracle call on a throwaway ledger.

    Used only to validate originals before a run; attack ledgers stay
    exact because this never touches them.
    """
    return MeteredOracle(oracle).decide(point, PHASE_INIT)


# ---------------------------------------------------------------------------
# CSV emission


def emit_trace_csv(trace: AttackTrace, path) -> None:
    """Write a trace in the pinned CSV layout.

    Header, one row per iteration with floats at 17 significant digits,
    and a final comment line ``# status=<status>``. An empty trace still
    gets the header and status line.
    """
    lines = [TRACE_HEADER]
    for r in trace.rows:
        lines.append(",".join((
            str(r.t), str(r.n_samples), _fmt(r.probe_step), _fmt(r.step_size),
            str(r.queries), _fmt(r.distortion), str(r.agree_count),
            str(r.step_retries), str(r.bisect_steps))))
    lines.append(f"# status={trace.status}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_summary_csv(rows, path, failures=()) -> None:
    """Write the summary table; failed runs append ``# failed ...`` comments."""
    lines = [SUMMARY_HEADER]
    for r in rows:
        lines.append(f"{r.oracle},{r.sampler},{r.budget},{r.statistic},"
                     f"{_fmt(r.distortion)},{r.repetitions}")
    for rec in failures:
        lines.append(f"# failed oracle={rec.oracle} sampler={rec.sampler} "
                     f"point={rec.point_index} rep={rec.rep} status={rec.status}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def distortion_at_budget(trace: AttackTrace, budget: int) -> float | None:
    """Best distortion recorded within the first ``budget`` queries.

    ``None`` when the trace has no row inside the budget (the run never
    got a point recorded that cheaply).
    """
    best = None
    for r in trace.rows:
        if r.queries <= budget and (best is None or r.distortion < best):
            best = r.distortion
    return best


# ---------------------------------------------------------------------------
# Experiment execution


def run_experiment(config: ExperimentConfig, output_dir=None) -> ExperimentResult:
    """Execute the full benchmark grid and write all artifacts.

    For every (oracle, sampler, point, repetition) cell this runs one
    attack at the largest configured budget; smaller budgets are sliced
    from the same trace. The run seed depends on the oracle, point, and
    repetition — but not the sampler — so sampler comparisons are paired.
    Failures (bad originals, init failures, oracle failures) are recorded
    per run and excluded from the statistics; they never abort the batch.
    Generated originals are screened through the same oracles the runs use
    (one child per external spec), and an error while screening raises.
    """
    out_dir = output_dir if output_dir is not None else config.output_dir
    os.makedirs(out_dir, exist_ok=True)

    max_budget = max(config.budgets)
    model_cache: dict = {}
    externals: dict = {}
    runs: list[RunRecord] = []
    traces: dict = {}

    def realize(spec, point):
        if spec.kind != "external":
            return build_oracle(spec, point, model_cache)
        if spec.name not in externals:
            externals[spec.name] = build_oracle(spec, point)
        return externals[spec.name]

    def acceptable(cand):
        return all(_setup_decision(realize(spec, cand), cand) == -1
                   for spec in config.oracles)

    try:
        if config.points.source == "inline":
            points = config.points.values
        elif config.points.source == "file":
            points = load_points_file(config.points.file,
                                      config.points.dim or None)
        else:
            points = generate_points(config.points.count, config.points.dim,
                                     config.points.seed, config.attack.clip_low,
                                     config.attack.clip_high, accept=acceptable)

        for oi, spec in enumerate(config.oracles):
            for pi, point in enumerate(points):
                try:
                    probe_oracle = realize(spec, point)
                    original_ok = _setup_decision(probe_oracle, point) == -1
                except LhsAttackError as exc:
                    for sampler in config.samplers:
                        runs.append(RunRecord(spec.name, sampler, pi, -1, 0, "",
                                              "oracle_failed", str(exc)))
                    continue
                for rep in range(config.repetitions):
                    seed = substream_seed(config.base_seed, NS_RUN, oi, pi, rep)
                    for sampler in config.samplers:
                        trace_path = os.path.join(
                            out_dir,
                            f"trace_{spec.name}_{sampler}_pt{pi:03d}_rep{rep:03d}.csv")
                        if not original_ok:
                            runs.append(RunRecord(
                                spec.name, sampler, pi, rep, seed, "",
                                "init_failed", "original point is already adversarial"))
                            continue
                        run_cfg = dataclasses.replace(
                            config.attack, sampler_kind=sampler, seed=seed,
                            max_queries=max_budget)
                        oracle = realize(spec, point)
                        status, err, trace = COMPLETED, None, None
                        try:
                            _, trace = run_attack(oracle, point, run_cfg)
                            status = trace.status
                        except (InitFailedError, OracleFailedError) as exc:
                            trace = exc.trace
                            status = trace.status if trace else "oracle_failed"
                            err = str(exc)
                        except LhsAttackError as exc:
                            status, err = "oracle_failed", str(exc)
                        if trace is not None:
                            emit_trace_csv(trace, trace_path)
                            traces[(spec.name, sampler, pi, rep)] = trace
                        runs.append(RunRecord(spec.name, sampler, pi, rep, seed,
                                              trace_path if trace else "",
                                              status, err))
    finally:
        for oracle in externals.values():
            oracle.close()

    summary_rows = []
    for spec in config.oracles:
        for sampler in config.samplers:
            for budget in config.budgets:
                values = []
                for (oname, skind, pi, rep), trace in traces.items():
                    if oname != spec.name or skind != sampler:
                        continue
                    d = distortion_at_budget(trace, budget)
                    if d is not None:
                        values.append(d)
                for stat in config.statistics:
                    if not values:
                        continue
                    agg = float(np.mean(values)) if stat == "mean" \
                        else float(np.median(values))
                    summary_rows.append(SummaryRow(
                        oracle=spec.name, sampler=sampler, budget=budget,
                        statistic=stat, distortion=agg,
                        repetitions=len(values)))

    failures = [r for r in runs if r.error is not None]
    summary_path = os.path.join(out_dir, "summary.csv")
    emit_summary_csv(summary_rows, summary_path, failures)
    return ExperimentResult(summary_rows=summary_rows, runs=runs,
                            summary_path=summary_path, output_dir=out_dir,
                            traces=traces)
