"""The benchmark's workloads: inputs from a seed, set-up, grid passes, checks.

Every workload is a closed loop in one engine process: ``run_experiment``
runs its attacks one after another, and each oracle query waits for its
answer. ``mlp64_pipe`` adds one oracle child process, spawned in set-up and
reused by every pass of the run.
"""
from __future__ import annotations

import dataclasses
import os
import shlex
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from lhsattack import attack, harness, oracles
from lhsattack.harness import OracleSpecConfig, PointsConfig

WEIGHTS = "tests/fixtures/mlp_8x8_2class.txt"
SAMPLERS = ("lhs", "srs")
# Highest percentile kept for a tail; a tail needs ten samples beyond it.
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
INITIAL_SAMPLES = 100      # probes in the first gradient estimate
RADIUS = 0.5               # the hypersphere oracle's radius


@dataclass(frozen=True)
class Workload:
    """One grid: the oracle, the input size and the attack schedule.

    ``min_passes`` grid passes run even when ``--seconds`` is shorter, so
    each run repeats the grid (the repeat check needs two passes) and times
    enough attacks for a tail. ``probe`` names the kind of work the
    attack time goes to, which the host speed probe repeats (speed.py).
    """

    name: str
    oracle: str                # "mlp", "hypersphere" or "external"
    dim: int
    points: int
    iterations: int
    budgets: tuple
    min_passes: int
    probe: str = "interpreter"

    @property
    def attacks_per_pass(self) -> int:
        return self.points * len(SAMPLERS)

    @property
    def tail_percentile(self) -> float:
        """The tail percentile of ``attack_s``, fixed by the minimum attack count."""
        return tail_percentile(self.min_passes * self.attacks_per_pass)


WORKLOADS = {w.name: w for w in (
    Workload("mlp64_grid", "mlp", 64, points=10, iterations=64,
             budgets=(1000, 5000, 20000), min_passes=3),
    Workload("sphere3072", "hypersphere", 3072, points=5, iterations=8,
             budgets=(200, 1000, 2000), min_passes=4, probe="array"),
    Workload("mlp64_pipe", "external", 64, points=10, iterations=12,
             budgets=(1000, 5000), min_passes=3, probe="pipe"),
)}


def tail_percentile(n: int) -> float:
    """The highest of ``PERCENTILES`` with at least ten of ``n`` samples beyond it."""
    fitting = [p for p in PERCENTILES if n * (100.0 - p) / 100.0 >= 10.0]
    return fitting[-1] if fitting else 50


def serve_command() -> str:
    """The ``oracle-serve`` command line the pipe workload attacks."""
    return shlex.join([sys.executable, "-m", "lhsattack", "oracle-serve",
                       f"mlp:weights={WEIGHTS},class=0"])


def config_text(wl: Workload, seed: int, oracle: str, out_dir: str) -> str:
    """The INI file of one workload; ``oracle`` picks the oracle section."""
    section = {
        "mlp": f"kind = mlp\nweights = {WEIGHTS}\nclass = 0\n",
        "hypersphere": f"kind = hypersphere\nr = {RADIUS!r}\n",
        "external": f"kind = external\ndim = {wl.dim}\ncmd = {serve_command()}\n",
    }[oracle]
    return f"""\
[experiment]
name = {wl.name}
repetitions = 1
base_seed = {seed}
budgets = {" ".join(str(b) for b in wl.budgets)}
samplers = {" ".join(SAMPLERS)}
statistics = median
output_dir = {out_dir}

[oracle net]
{section}
[points]
source = generate
count = {wl.points}
dim = {wl.dim}
seed = {seed}

[attack]
initial_samples = {INITIAL_SAMPLES}
iterations = {wl.iterations}
"""


class ServedOracle(oracles.ExternalOracle):
    """An external oracle whose child serves every grid pass of a run.

    ``run_experiment`` closes its external oracles when a pass ends; this
    one ignores that, so the spawn and handshake are paid once, in set-up.
    :meth:`shutdown` ends the child and waits for it.
    """

    def close(self) -> None:
        pass

    def shutdown(self) -> None:
        super().close()


@dataclass
class Prepared:
    """What set-up hands to the timed passes."""

    workload: Workload
    seed: int
    config: harness.ExperimentConfig
    served: ServedOracle | None = None


def parse(wl: Workload, seed: int, oracle: str, work_dir: str):
    path = os.path.join(work_dir, f"{oracle}.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(config_text(wl, seed, oracle, os.path.join(work_dir, "out")))
    return harness.parse_config(path)


def set_up(wl: Workload, seed: int, work_dir: str) -> Prepared:
    """Parse the config, load weights, make the points, start the child.

    The generated points are filtered so every original answers -1 on the
    in-process form of the workload's oracle, then handed to the grid as
    inline points. ``run_experiment`` filters generated points itself, but
    skips external sections, so on the pipe some originals would otherwise
    already be adversarial.
    """
    config = parse(wl, seed, wl.oracle, work_dir)
    spec = config.oracles[0]
    if spec.kind == "external":
        spec = OracleSpecConfig(name=spec.name, kind="mlp", weights=WEIGHTS,
                                original_class=0)
    models: dict = {}

    def non_adversarial(point) -> bool:
        oracle = harness.build_oracle(spec, point, models)
        return oracles.MeteredOracle(oracle).decide(point, oracles.PHASE_INIT) == -1

    p = config.points
    points = harness.generate_points(p.count, p.dim, p.seed, config.attack.clip_low,
                                     config.attack.clip_high, accept=non_adversarial)
    config = dataclasses.replace(config, points=PointsConfig(source="inline", values=points))
    prep = Prepared(wl, seed, config)
    if wl.oracle == "external":
        ext = config.oracles[0]
        prep.served = ServedOracle(ext.cmd, dim=ext.dim, timeout=ext.timeout)
        try:
            prep.served.start()
        except BaseException:
            prep.served.shutdown()
            raise
    return prep


def warm_up(prep: Prepared) -> None:
    """One untimed attack, so imports and first-call costs are paid."""
    point = prep.config.points.values[0]
    oracle = prep.served or harness.build_oracle(prep.config.oracles[0], point)
    cfg = dataclasses.replace(prep.config.attack, seed=prep.seed,
                              max_queries=max(prep.config.budgets))
    attack.run_attack(oracle, point, cfg)


def run_pass(prep: Prepared, out_dir: str):
    """Run the grid once through ``run_experiment``; return (wall s, result).

    On the pipe, ``harness.ExternalOracle`` is swapped for the served oracle
    during the pass, so the grid uses the child started in set-up.
    """
    saved = harness.ExternalOracle
    if prep.served is not None:
        harness.ExternalOracle = lambda cmd, dim, timeout: prep.served
    try:
        t0 = perf_counter()
        result = harness.run_experiment(prep.config, output_dir=out_dir)
        return perf_counter() - t0, result
    finally:
        harness.ExternalOracle = saved


def reference_pass(prep: Prepared, work_dir: str):
    """The pipe grid with the same seeds and points, answered in-process."""
    config = parse(prep.workload, prep.seed, "mlp", work_dir)
    config = dataclasses.replace(config, points=prep.config.points)
    return run_pass(Prepared(prep.workload, prep.seed, config), os.path.join(work_dir, "ref"))


# ---------------------------------------------------------------------------
# The smallest distortion that flips each original, found white-box, so
# attack quality can be judged per point: raw distortion differs tenfold
# between points.


def optimum_distances(prep: Prepared) -> list:
    """Per original point: the sphere's radius, or the MLP's white-box distance."""
    points = prep.config.points.values
    if prep.workload.oracle == "hypersphere":
        return [RADIUS] * len(points)
    model = oracles.load_mlp(WEIGHTS)
    return [white_box_distance(model, x, 0) for x in points]


def _margin(model, x, cls: int):
    """Best other class's score minus class ``cls``'s, and its gradient at x."""
    h, masks = x, []
    for layer in model.layers:
        z = layer.weight @ h + layer.bias
        mask = z > 0.0 if layer.activation == "relu" else None
        h = z if mask is None else np.where(mask, z, 0.0)
        masks.append(mask)
    other = int(np.argmax(np.where(np.arange(h.size) == cls, -np.inf, h)))
    v = np.zeros(h.size)
    v[other], v[cls] = 1.0, -1.0
    for layer, mask in zip(reversed(model.layers), reversed(masks)):
        v = layer.weight.T @ (v if mask is None else v * mask)
    return h[other] - h[cls], v


def white_box_distance(model, x0, cls: int) -> float:
    """Distance from ``x0`` to the nearest point another class wins, from the weights.

    DeepFool steps (linearize the margin, jump 2 % past its zero) reach the
    far side of the boundary; bisection along that direction then finds the
    crossing to 1e-12 of its length. The clip box is ignored.
    """
    x = x0
    for _ in range(100):
        g, grad = _margin(model, x, cls)
        if g > 0.0:
            break
        x = x - 1.02 * g / (grad @ grad) * grad
    else:
        raise RuntimeError("white-box search found no class boundary")
    direction = x - x0
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if _margin(model, x0 + mid * direction, cls)[0] > 0.0:
            hi = mid
        else:
            lo = mid
    return hi * float(np.linalg.norm(direction))


# ---------------------------------------------------------------------------
# Output checks. None compares against stored output: a change that moves
# bits but stays correct (another quantile routine, say) passes them all.


def trace_problems(trace, wl: Workload) -> list:
    """Status, the query conservation law, and the sphere's distance floor."""
    problems = []
    if trace.status != attack.COMPLETED:
        problems.append(f"status {trace.status}")
    rows = trace.rows
    if not rows:
        return problems + ["empty trace"]
    if rows[0].queries != trace.ledger.snapshot()["init"] + rows[0].bisect_steps:
        problems.append("row 0 does not add up to init + bisection queries")
    for prev, row in zip(rows, rows[1:]):
        spent = row.n_samples + row.step_retries + 1 + row.bisect_steps
        if row.queries - prev.queries != spent:
            problems.append(f"row {row.t} spent {row.queries - prev.queries}, law says {spent}")
    if rows[-1].queries != trace.ledger.total_queries:
        problems.append("last row differs from the ledger total")
    if wl.oracle == "hypersphere" and any(r.distortion < RADIUS - 1e-9 for r in rows):
        problems.append("distortion below the sphere radius")
    return problems


def read_outputs(result) -> dict:
    """The bytes of every trace CSV and of the summary CSV, by file name."""
    paths = [r.trace_path for r in result.runs if r.trace_path] + [result.summary_path]
    out = {}
    for path in paths:
        with open(path, "rb") as fh:
            out[os.path.basename(path)] = fh.read()
    return out


def failures(result, wl: Workload, outputs: dict, reference: dict) -> dict:
    """Failed runs and checks of one pass, as {file name: what failed}.

    A run fails when it did not complete, breaks a trace check, or its
    trace CSV differs from ``reference`` (an earlier pass of the grid). A
    summary CSV that differs is one more failed check.
    """
    failed = {}
    for rec in result.runs:
        trace = result.traces.get((rec.oracle, rec.sampler, rec.point_index, rec.rep))
        name = os.path.basename(rec.trace_path) or f"{rec.sampler} point {rec.point_index}"
        found = [rec.error or f"status {rec.status}"] if trace is None else trace_problems(trace, wl)
        if found:
            failed[name] = "; ".join(found)
    for name in differing(outputs, reference):
        failed.setdefault(name, "differs from the reference pass")
    return failed


def differing(outputs: dict, reference: dict) -> list:
    """Names of the files whose bytes differ between two passes."""
    return sorted(n for n in outputs.keys() | reference.keys()
                  if outputs.get(n) != reference.get(n))
