"""Command-line front end.

Subcommands::

    attack        run one attack and write a trace CSV
    bench         run a benchmark grid from a config file
    sample        draw a noise batch and print uniformity diagnostics
    oracle-serve  expose a built-in oracle over stdin/stdout (line protocol)

Oracle argument grammar (shared by ``attack`` and ``oracle-serve``)::

    kind:key=value,key=value,...

    hypersphere:r=0.5,m=20[,center=0.1;0.2;...]
    halfspace:w=1;0;0,b=-0.5            (vectors: ';'-separated or @file)
    mlp:weights=model.txt[,class=0|target=1]
    external:m=20[,timeout=10],cmd=python serve.py   (cmd= last; rest is raw)

The keys, their aliases and value types come from the table in
``harness.OracleSpecConfig``. Each field may be given once, under one
spelling. ``m``/``dim``, ``w`` and ``center`` each imply the input
dimension. ``timeout`` (seconds, default 10) must be > 0 and at most
``oracles.MAX_TIMEOUT_S`` (9223372036 on Linux); ``r`` must be > 0, and
every number must be finite.

Exit codes: 0 success, 1 configuration error, 2 runtime failure (out of
memory included).
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from .attack import AttackConfig, run_attack
from .errors import ConfigError, LhsAttackError, WeightsFormatError
from .harness import (
    ATTACK_KEYS,
    SPEC_KEYS,
    OracleSpecConfig,
    build_oracle,
    emit_trace_csv,
    load_points_file,
    parse_config,
    run_experiment,
    _cross_validate,
    _SetUp,
)
from .oracles import format_floats, serve_oracle
from .samplers import (
    LHS,
    SRS,
    batch_discrepancy,
    lhs_normal,
    normalize_rows,
    srs_normal,
)

__all__ = ["main", "parse_oracle_spec"]


def _err(msg: str) -> None:
    print(f"lhsattack: {msg}", file=sys.stderr)


def _int_at_least(low: int, means: str):
    """argparse type: an integer >= ``low``; ``means`` names it in errors."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected {means}, got {text!r}")
        return value
    return parse


_seed = _int_at_least(0, "a non-negative integer")
_dim = _int_at_least(1, "a positive integer")


def _parse_vector(text: str) -> np.ndarray:
    """A ';'-separated float list, or @path to a float-line file."""
    if text.startswith("@"):
        return load_points_file(text[1:])[0]
    try:
        vals = [float(t) for t in text.split(";") if t.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad vector {text!r}: {exc}") from exc
    if not vals:
        raise ConfigError(f"bad vector {text!r}: no values")
    return np.array(vals, dtype=np.float64)


def parse_oracle_spec(text: str) -> OracleSpecConfig:
    """Parse a ``kind:key=value,...`` oracle argument.

    ``cmd=`` consumes the remainder of the string verbatim (so external
    commands may contain commas); every other value is a scalar, a
    ';'-separated vector, or ``@file``.
    """
    kind, sep, rest = text.partition(":")
    kind = kind.strip()
    if not kind:
        raise ConfigError(f"oracle spec {text!r}: missing kind")
    items = []
    while rest:
        if rest.startswith("cmd="):
            if not rest[4:].strip():
                raise ConfigError(f"oracle spec {text!r}: empty cmd")
            items.append(("cmd", rest[4:]))
            break
        part, _, rest = rest.partition(",")
        part = part.strip()
        if not part:
            continue
        key, eq, value = part.partition("=")
        key = key.strip()
        if not eq or key not in SPEC_KEYS:
            raise ConfigError(f"oracle spec: unknown or malformed token {part!r}")
        items.append((key, value.strip()))
    return OracleSpecConfig.from_text(kind, kind, items, _parse_vector)


def cmd_attack(args) -> int:
    spec = parse_oracle_spec(args.oracle)
    point = None
    if args.point is not None:
        try:
            point = np.array([float(t) for t in args.point.split()], dtype=np.float64)
        except ValueError as exc:
            raise ConfigError(f"--point: {exc}") from exc
        if point.size == 0:
            raise ConfigError("--point: no values")
        if not np.isfinite(point).all():
            raise ConfigError("--point: coordinates must be finite")
    elif args.point_file is not None:
        point = load_points_file(args.point_file)[0]
    dim = args.dim or 0
    if point is not None:
        if dim not in (0, len(point)):
            raise ConfigError(f"conflicting input dimensions {sorted({dim, len(point)})}")
        dim = len(point)

    target_image = None
    if args.target_image is not None:
        target_image = load_points_file(args.target_image)[0]
    config = AttackConfig(
        max_queries=args.budget, sampler_kind=args.sampler, seed=args.seed,
        init_target_image=target_image,
        **{key: value for key, value in vars(args).items() if key in ATTACK_KEYS})

    # Every check is made before a point is drawn or a query spent.
    with _SetUp([spec], config, dim) as setup:
        if point is None:
            point = setup.draw(1, args.seed)[0]
        elif not setup.screen(spec, point)[1]:
            raise ConfigError("original point is already adversarial for this oracle")
        best, trace = run_attack(setup.oracle(spec, point), point, config)
        emit_trace_csv(trace, args.out)
        if trace.error is not None:
            _err(f"attack failed: {trace.error}")
            return 2
        distortion = float(np.linalg.norm(best - point))
        print(f"status={trace.status} queries={trace.queries_total} "
              f"distortion={distortion:.6g} trace={args.out}")
        return 0


def cmd_bench(args) -> int:
    config = parse_config(args.config)
    result = run_experiment(config, output_dir=args.output_dir)
    for row in result.summary_rows:
        print(f"{row.oracle} {row.sampler} budget={row.budget} "
              f"{row.statistic}={row.distortion:.6g} (n={row.repetitions})")
    failures = [r for r in result.runs if r.error is not None]
    if failures:
        _err(f"{len(failures)} of {len(result.runs)} runs failed; see summary comments")
    print(f"summary written to {result.summary_path}")
    # A grid whose every run failed produced nothing to compare.
    return 2 if failures and len(failures) == len(result.runs) else 0


def cmd_sample(args) -> int:
    sampler = lhs_normal if args.sampler == LHS else srs_normal
    batch = sampler(args.count, args.dim, args.seed)
    if args.normalize:
        batch = normalize_rows(batch)
    print(f"sampler={batch.sampler_kind} n={batch.n_samples} "
          f"dim={batch.dim} seed={batch.seed}")
    col_means = batch.rows.mean(axis=0)
    print(f"worst_coordinate_mean={np.abs(col_means).max():.6g}")
    if batch.n_samples >= 2 and not args.normalize:
        print(f"ks_discrepancy={batch_discrepancy(batch):.6g}")
    if batch.stratum_index is not None:
        full = np.arange(batch.n_samples)
        ok = all(np.array_equal(np.sort(batch.stratum_index[:, j]), full)
                 for j in range(batch.dim))
        print(f"one_sample_per_stratum={'yes' if ok else 'NO'}")
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            for row in batch.rows:
                fh.write(format_floats(row) + "\n")
        print(f"rows written to {args.out}")
    return 0


def cmd_oracle_serve(args) -> int:
    spec = parse_oracle_spec(args.spec)
    if spec.kind == "external":
        raise ConfigError(f"cannot serve oracle kind {spec.kind!r}")
    # The width checks of attack and bench; the weights are read once.
    models: dict = {}
    _cross_validate([spec], 0, models)
    served = serve_oracle(build_oracle(spec, model_cache=models))
    print(f"served {served} decisions", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lhsattack",
        description="Decision-based boundary attack with stratified gradient sampling")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("attack", help="run one attack and write a trace CSV")
    p.add_argument("--oracle", required=True,
                   help="oracle spec, e.g. hypersphere:r=0.5,m=20")
    p.add_argument("--sampler", choices=(LHS, SRS), default=LHS)
    p.add_argument("--budget", type=int, default=None,
                   help="hard query cap (default: unlimited)")
    p.add_argument("--seed", type=_seed, default=0)
    given = p.add_mutually_exclusive_group()
    given.add_argument("--point", help="original point as space-separated floats")
    given.add_argument("--point-file", help="float-line file; first line is the original")
    p.add_argument("--dim", type=_dim, help="input dimension when not implied")
    p.add_argument("--target-image",
                   help="float-line file whose first line is the adversarial start")
    # The [attack] keys; a flag left out keeps AttackConfig's default.
    for key, row in ATTACK_KEYS.items():
        p.add_argument("--" + key.replace("_", "-"), type=row.read, default=argparse.SUPPRESS)
    p.add_argument("--out", default="trace.csv", help="trace CSV path")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("bench", help="run a benchmark grid from a config file")
    p.add_argument("config", help="experiment config file (INI grammar)")
    p.add_argument("--output-dir", default=None,
                   help="override the config's output directory")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("sample", help="draw a noise batch and print diagnostics")
    p.add_argument("--sampler", choices=(LHS, SRS), default=LHS)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--dim", type=int, default=10)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--normalize", action="store_true",
                   help="scale rows to unit length")
    p.add_argument("--out", help="write rows as float lines")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("oracle-serve",
                       help="answer line-protocol queries on stdin/stdout")
    p.add_argument("spec", help="oracle spec, e.g. halfspace:w=1;0,b=-0.5")
    p.set_defaults(func=cmd_oracle_serve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ConfigError, WeightsFormatError, ValueError) as exc:
        _err(str(exc))
        return 1
    except (LhsAttackError, OSError) as exc:
        _err(str(exc))
        return 2
    except MemoryError as exc:
        _err(f"out of memory: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
