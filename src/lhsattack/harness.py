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
import shlex
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .attack import AttackConfig, AttackTrace, _run_buffers, run_attack
from .errors import ConfigError, LhsAttackError
from .oracles import (
    MAX_TIMEOUT_S,
    PHASE_INIT,
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

# The OracleSpecConfig fields build_oracle reads for each kind, besides
# ``dim``, which every kind takes because it settles the input width.
KIND_KEYS = {"halfspace": ("normal", "offset"), "hypersphere": ("radius", "center"),
             "mlp": ("weights", "original_class", "target_class"),
             "external": ("cmd", "timeout")}
ORACLE_KINDS = tuple(KIND_KEYS)
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


def _float_list(text: str) -> np.ndarray:
    return np.array([float(t) for t in text.split()], dtype=np.float64)


def _list_of(conv):
    """Reader of a list-valued key: entries split on whitespace and/or commas."""
    return lambda text: [conv(t) for t in text.replace(",", " ").split()]


def _join(values) -> str:
    return " ".join(str(v) for v in values)


def _runnable(cmd: str) -> bool:
    """Whether ``cmd`` splits, as ``ExternalOracle`` splits it, into a
    non-empty argument list that holds no NUL byte."""
    try:
        return "\0" not in cmd and bool(shlex.split(cmd))
    except ValueError:   # an unclosed quote or a trailing backslash
        return False


# A row of a key table: reads a value from text and writes it back. Oracle
# rows also check a value (``valid``) and say what a valid one is
# (``means``); the other sections leave that to their dataclasses.
_Key = namedtuple("_Key", "read write valid means", defaults=(str, None, None))
_INT, _FLOAT, _TEXT = _Key(int), _Key(float, _fmt), _Key(str)
_WORDS = _Key(_list_of(str), _join)
SIZE = _Key(int, str, lambda v: v >= 1, "an integer >= 1")
INDEX = _Key(int, str, lambda v: v >= 0, "an integer >= 0")
FINITE = _Key(float, _fmt, np.isfinite, "finite")
POSITIVE = _Key(float, _fmt, lambda v: np.isfinite(v) and v > 0.0, "positive and finite")
TIMEOUT = _Key(float, _fmt, lambda v: 0.0 < v <= MAX_TIMEOUT_S,
               f"positive and finite, at most {int(MAX_TIMEOUT_S)} s")
COMMAND = _Key(str, str, _runnable,
               "a command line that shlex can split, with no NUL byte")
# Reads the INI form (space-separated); the CLI grammar brings its own reader.
VECTOR = _Key(_float_list, lambda v: " ".join(_fmt(x) for x in v),
              lambda v: v.ndim == 1 and v.size > 0 and np.isfinite(v).all(),
              "a non-empty vector of finite values")

# One table per section. Each key names the dataclass field it sets, and
# the field holds the default; serialize_config writes the keys in table
# order. ``cli`` makes the ``attack`` flags from ATTACK_KEYS.
EXPERIMENT_KEYS = {"name": _TEXT, "repetitions": _INT, "base_seed": _INT, "output_dir": _TEXT,
                   "budgets": _Key(_list_of(int), _join), "samplers": _WORDS,
                   "statistics": _WORDS}
# Every OracleSpecConfig field after ``kind``; SPEC_KEYS adds the aliases.
ORACLE_KEYS = {"radius": POSITIVE, "normal": VECTOR, "offset": FINITE, "weights": _TEXT,
               "cmd": COMMAND, "timeout": TIMEOUT, "target_class": INDEX, "dim": SIZE,
               "center": VECTOR, "original_class": INDEX}
SPEC_KEYS = {**{key: key for key in ORACLE_KEYS}, "r": "radius", "w": "normal",
             "b": "offset", "target": "target_class", "m": "dim", "class": "original_class"}
POINTS_KEYS = {"source": _TEXT, "count": _INT, "dim": _INT, "seed": _INT, "file": _TEXT,
               "values": _Key(lambda text: np.array(
                   [VECTOR.read(line) for line in text.splitlines() if line.strip()]),
                   lambda v: "\n    ".join(VECTOR.write(row) for row in v))}
ATTACK_KEYS = {"initial_samples": _INT, "iterations": _INT, "bisect_tol": _FLOAT,
               "clip_low": _FLOAT, "clip_high": _FLOAT}


@dataclass(eq=False)
class OracleSpecConfig:
    """Declarative description of one oracle; realized per original point.

    Every field after ``kind`` is a key of ``ORACLE_KEYS``: its name is the
    canonical key of both text grammars (the CLI's ``kind:key=value,...``
    and the INI ``[oracle <name>]`` section), ``SPEC_KEYS`` gives its
    alias, and its row reads, checks and writes the value. Each field may
    be given once, under one of its spellings.
    """

    name: str
    kind: str
    radius: float | None = None
    normal: np.ndarray | None = None
    offset: float | None = None
    weights: str | None = None
    cmd: str | None = None
    timeout: float = 10.0
    target_class: int | None = None
    dim: int | None = None
    # The two below matter when no original point is in play (oracle-serve):
    # a fixed hypersphere center, and an explicit class index for mlp.
    center: np.ndarray | None = None
    original_class: int | None = None

    def __post_init__(self):
        if self.kind not in ORACLE_KINDS:
            raise ConfigError(f"unknown oracle kind {self.kind!r}")
        for key, row in ORACLE_KEYS.items():
            value = getattr(self, key)
            if value is None:
                continue
            if row is VECTOR:
                value = np.asarray(value, dtype=np.float64)
                setattr(self, key, value)
            if row.valid and not row.valid(value):
                raise ConfigError(f"oracle {self.name!r}: {key} must be {row.means}")
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
        """Build a spec from known ``(key, text)`` pairs; ``vector`` parses vectors.

        A key that ``kind`` does not read is an error, not ignored.
        """
        kwargs, spelled = {}, {}
        for key, text in items:
            field_name = SPEC_KEYS[key]
            if kind in KIND_KEYS and field_name not in ("dim", *KIND_KEYS[kind]):
                raise ConfigError(
                    f"oracle {name!r}: kind {kind!r} does not read {key!r}; "
                    f"its keys are {', '.join(('dim', *KIND_KEYS[kind]))}")
            if field_name in spelled:
                raise ConfigError(f"oracle {name!r}: {field_name} given more than once "
                                  f"(as {spelled[field_name]!r} and {key!r})")
            spelled[field_name] = key
            row = ORACLE_KEYS[field_name]
            try:
                kwargs[field_name] = (vector if row is VECTOR else row.read)(text)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"oracle {name!r}: bad value for {key!r}: {exc}") from exc
        return cls(name=name, kind=kind, **kwargs)

    def implied_dims(self):
        """``(field, dimension)`` for ``dim`` and each vector field that is set."""
        for key, row in ORACLE_KEYS.items():
            value = getattr(self, key)
            if key == "dim" and value is not None:
                yield key, value
            elif row is VECTOR and value is not None:
                yield key, len(value)

    def __eq__(self, other):
        if not isinstance(other, OracleSpecConfig):
            return NotImplemented
        return _fields_equal(self, other)


@dataclass(eq=False)
class PointsConfig:
    """Where the original points come from: generated, inline, or a file."""

    source: str = "generate"
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
        for key in ("budgets", "samplers", "statistics"):
            entries = getattr(self, key)
            if len(set(entries)) != len(entries):
                raise ConfigError(f"{key} must not repeat an entry")
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


def _check_keys(section, allowed):
    for key in section:
        if key not in allowed:
            raise ConfigError(f"[{section.name}] unknown key {key!r}")


def _typed(section, key, conv):
    try:
        return conv(section[key].strip())
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"[{section.name}] {key}: {exc}") from exc


def _read_section(section, keys) -> dict:
    """The keys set in ``section``, read by their rows; an empty value means the default."""
    _check_keys(section, keys)
    return {key: _typed(section, key, row.read) for key, row in keys.items()
            if section.get(key, "").strip()}


def _write_section(obj, keys) -> list:
    """``key = value`` lines for every table key whose value on ``obj`` is
    set: neither None nor the field's default, which reading restores."""
    defaults = {f.name: f.default if f.default_factory is dataclasses.MISSING
                else f.default_factory() for f in dataclasses.fields(obj)}
    lines = []
    for key, row in keys.items():
        value, default = getattr(obj, key), defaults[key]
        if value is not None and (default is None or value != default):
            lines.append(f"{key} = {row.write(value)}")
    return lines


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
    if cp.defaults():
        # configparser would copy its keys into every section.
        raise ConfigError("[DEFAULT] section is not supported; "
                          "set each key in the section it belongs to")

    oracles = []
    points = None
    attack_kwargs = {}
    exp_kwargs = {}
    for name in cp.sections():
        section = cp[name]
        if name == "experiment":
            exp_kwargs = _read_section(section, EXPERIMENT_KEYS)
        elif name.startswith("oracle ") or name == "oracle":
            _check_keys(section, {"kind", *SPEC_KEYS})
            items = [(key, text.strip()) for key, text in section.items()
                     if key != "kind" and text.strip()]
            try:
                oracles.append(OracleSpecConfig.from_text(
                    name[7:].strip() or "oracle", section.get("kind", "").strip(),
                    items, VECTOR.read))
            except ConfigError as exc:
                raise ConfigError(f"[{name}] {exc}") from None
        elif name == "points":
            points_kwargs = _read_section(section, POINTS_KEYS)
            try:
                points = PointsConfig(**points_kwargs)
            except ConfigError as exc:
                raise ConfigError(f"[points] {exc}") from None
        elif name == "attack":
            attack_kwargs = _read_section(section, ATTACK_KEYS)
        else:
            raise ConfigError(f"unknown section [{name}]")

    if points is None:
        raise ConfigError("a [points] section is required")
    try:
        attack = AttackConfig(**attack_kwargs)
        config = ExperimentConfig(oracles=oracles, points=points, attack=attack,
                                  **exp_kwargs)
        if points.dim:
            _cross_validate(config.oracles, points.dim)
            attack.check_dim(points.dim)
    except ValueError as exc:
        raise ConfigError(f"[attack] {exc}") from exc
    return config


def _cross_validate(oracles, dim: int, model_cache: dict | None = None) -> int:
    """The input width: ``dim``, or when that is 0 (unknown) the first width a
    spec implies, 0 if none does. Raise if a spec implies another; with
    ``model_cache``, an mlp's weights, read into it, imply their width too."""
    for spec in oracles:
        widths = list(spec.implied_dims())
        if model_cache is not None and spec.kind == "mlp":
            widths.append(("weights", _cached_mlp(spec.weights, model_cache).input_dim))
        for key, d in widths:
            dim = dim or d
            if d != dim:
                clash = (f"dim={d} conflicts with points" if key == "dim" else
                         f"weights {spec.weights!r} take {d} inputs but points have"
                         if key == "weights" else f"{key} has {d} coordinates but points have")
                raise ConfigError(f"oracle {spec.name!r}: {clash} dimension {dim}")
    return dim


def serialize_config(config: ExperimentConfig) -> str:
    """Render a config back to the INI grammar (parse . serialize = identity)."""
    lines = ["[experiment]", *_write_section(config, EXPERIMENT_KEYS), ""]
    for spec in config.oracles:
        lines += [f"[oracle {spec.name}]", f"kind = {spec.kind}",
                  *_write_section(spec, ORACLE_KEYS), ""]
    lines += ["[points]", *_write_section(config.points, POINTS_KEYS), "",
              "[attack]", *_write_section(config.attack, ATTACK_KEYS)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Oracle and point realization


def _cached_mlp(path, model_cache: dict | None):
    """The model in weights file ``path``, read once per ``model_cache`` (path -> MlpModel)."""
    if model_cache is None:
        return load_mlp(path)
    if path not in model_cache:
        model_cache[path] = load_mlp(path)
    return model_cache[path]


def build_oracle(spec: OracleSpecConfig, original=None, model_cache: dict | None = None):
    """Instantiate the oracle described by ``spec``; the only place that does.

    A hypersphere without ``center`` is centred on ``original``, an
    mlp takes its class, and an external oracle without ``dim``
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
        return HalfspaceOracle(spec.normal, spec.offset)
    if spec.kind == "mlp":
        return MlpOracle(_cached_mlp(spec.weights, model_cache), original,
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


# Uniform draws per generated original before generate_points gives up.
_MAX_POINT_TRIES = 1000


def generate_points(count: int, dim: int, seed: int, lo: float = 0.0,
                    hi: float = 1.0, accept=None) -> np.ndarray:
    """Draw original points uniformly in the clip box, deterministically.

    ``accept`` (point -> bool), when given, rejection-samples each point —
    used to guarantee originals the oracles answer -1 on. Raises
    :class:`ConfigError` if a point survives :data:`_MAX_POINT_TRIES` (1000)
    rejections.
    """
    rng = np.random.default_rng(substream_seed(seed, NS_POINTS))
    out = np.empty((count, dim), dtype=np.float64)
    for i in range(count):
        for _ in range(_MAX_POINT_TRIES):
            cand = lo + (hi - lo) * rng.random(dim)
            if accept is None or accept(cand):
                out[i] = cand
                break
        else:
            raise ConfigError(
                f"could not generate an acceptable original point in {_MAX_POINT_TRIES} tries")
    return out


class _SetUp:
    """The set-up that ``bench`` and ``attack`` share, for one input width.

    Made from the oracle specs, the attack config and the points' width
    (0: unknown, then the specs' width), it checks that width against every
    spec, mlp weights included, and against the config before any oracle is
    built or point drawn. It then builds the oracles, in-process ones per
    point and one child per external spec, which every point shares and
    leaving the ``with`` block closes, and screens originals.
    """

    def __init__(self, specs, attack: AttackConfig, dim: int):
        self.specs, self.attack = specs, attack
        self.model_cache, self.children = {}, {}
        self.dim = _cross_validate(specs, dim, self.model_cache)
        if not self.dim:
            raise ConfigError(
                "input dimension unknown; give --point, --dim, or m= in the oracle spec")
        attack.check_dim(self.dim)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        for child in self.children.values():
            child.close()

    def oracle(self, spec: OracleSpecConfig, point):
        if spec.kind != "external":
            return build_oracle(spec, point, self.model_cache)
        if spec.name not in self.children:
            self.children[spec.name] = build_oracle(spec, point)
        return self.children[spec.name]

    def screen(self, spec: OracleSpecConfig, point):
        """``spec``'s oracle at ``point``, and whether it answers -1 there.

        The query goes to a throwaway ledger, so attack ledgers stay exact.
        """
        oracle = self.oracle(spec, point)
        return oracle, MeteredOracle(oracle).decide(point, PHASE_INIT) == -1

    def draw(self, count: int, seed: int) -> np.ndarray:
        """``count`` originals in the clip box that every oracle answers -1 on."""
        return generate_points(
            count, self.dim, seed, self.attack.clip_low, self.attack.clip_high,
            accept=lambda x: all(self.screen(spec, x)[1] for spec in self.specs))


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
    Failed runs (bad originals, init failures, oracle failures) are recorded
    per run and never abort the batch; a failed attack still writes its
    trace CSV and joins ``traces``, but only runs that did not fail enter
    the statistics.
    The set-up (``_SetUp``) checks the points' width and the attack config
    before any oracle is built, and the output directory is made only once
    they pass. Generated originals are screened through the same oracles
    the runs use, and an error while screening raises.
    Each (oracle, point) pair is built once, checks the original and serves
    every repetition and sampler. Every run of the grid draws its probe
    batches into one set of buffers, freed when the grid ends.
    """
    out_dir = output_dir if output_dir is not None else config.output_dir

    max_budget = max(config.budgets)
    runs: list[RunRecord] = []
    traces: dict = {}

    points = config.points.values
    if config.points.source == "file":
        points = load_points_file(config.points.file, config.points.dim or None)
    with (_SetUp(config.oracles, config.attack,
                 config.points.dim or points.shape[1]) as setup,
          _run_buffers(config.attack, setup.dim)):
        if config.points.source == "generate":
            points = setup.draw(config.points.count, config.points.seed)
        os.makedirs(out_dir, exist_ok=True)

        for oi, spec in enumerate(config.oracles):
            for pi, point in enumerate(points):
                try:
                    oracle, original_ok = setup.screen(spec, point)
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
                        _, trace = run_attack(oracle, point, run_cfg)
                        emit_trace_csv(trace, trace_path)
                        traces[(spec.name, sampler, pi, rep)] = trace
                        runs.append(RunRecord(spec.name, sampler, pi, rep, seed,
                                              trace_path, trace.status, trace.error))

    summary_rows = []
    for spec in config.oracles:
        for sampler in config.samplers:
            for budget in config.budgets:
                values = []
                for (oname, skind, pi, rep), trace in traces.items():
                    if oname != spec.name or skind != sampler or trace.error is not None:
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
