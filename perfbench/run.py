"""Benchmark of the lhsattack engine: one workload per run, results as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mlp64_grid --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones. ``--workload all`` runs every workload, each in its own process. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Files go to
``.perfbench_work/<workload>/`` in the checkout. See README.md beside this
file for the workloads and what each metric is for.
"""
from __future__ import annotations

import os

# BLAS threading alone swings the MLP kernel 3.6x on two cores, so pin it
# before numpy is first imported; the oracle-serve child inherits it.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

import numpy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# Set-up repeats until this much time, probes included, has passed, and at
# least SETUP_MIN times: 9 times on the pipe, 100-200 in-process.
SETUP_SECONDS = 1.0
SETUP_MIN = 9

END_TO_END_UNITS = {
    "setup_s": "s", "workload_s": "s", "attack_s_p50": "s", "attack_s_tail": "s",
    "queries_per_s": "1/s", "distortion_over_opt": "ratio", "success_frac": "frac",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def percentile(values, p: float) -> float:
    return float(numpy.percentile(values, p))


class AttackTimer:
    """Times every ``run_attack`` call the harness makes, with a speed probe
    before each call and one more when the pass ends (see speed.py)."""

    def __init__(self, probe):
        self.run_attack = None
        self.probe = probe
        self.walls, self.probes, self.samplers = [], [], []

    def __call__(self, oracle, original, config):
        self.samplers.append(config.sampler_kind)
        self.probes.append(self.probe())
        t0 = perf_counter()
        try:
            return self.run_attack(oracle, original, config)
        finally:
            self.walls.append(perf_counter() - t0)

    def end_pass(self, pass_wall: float):
        """(samplers, scaled attack walls, scaled rest) of the pass that just ran.

        An attack is scaled by the two probes before it and the two after;
        the rest of the pass (harness work, CSV writing) by all of them.
        """
        walls, samplers, probes = self.walls, self.samplers, self.probes + [self.probe()]
        self.walls, self.probes, self.samplers = [], [], []
        scaled = [self.probe.scale(w, probes[max(i - 1, 0):i + 3]) for i, w in enumerate(walls)]
        rest = pass_wall - sum(walls) - sum(probes[:-1])
        return samplers, scaled, self.probe.scale(rest, probes)


def median_pass(passes) -> float:
    """Pass wall from (attack walls, rest) pairs of identical passes.

    Each attack's time is its median over the passes, so a burst of host
    load that hits one attack in one pass is dropped.
    """
    columns = zip(*(attacks for attacks, _ in passes))
    return sum(statistics.median(c) for c in columns) + statistics.median(r for _, r in passes)


def distortion_over_opt(result, budgets, optimum) -> float:
    """Median over runs of distortion at the largest budget over the point's optimum."""
    from lhsattack.harness import distortion_at_budget
    return statistics.median(distortion_at_budget(t, max(budgets)) / optimum[point]
                             for (_, _, point, _), t in result.traces.items())


def layer_metrics(tr, setup_tr, passes: int, setups: int, result_per_pass) -> dict:
    """Per-layer numbers: per grid pass, except set-up ones (per set-up)."""
    import tracer as T
    from workloads import tail_percentile

    def busy(*names):
        return sum(tr.busy[n] for n in names) / passes

    def count(name):
        return tr.counts[name] / passes

    queries = {ph: count("oracles.queries." + ph) for ph in ("init", "binsearch", "gradient", "step")}
    total_q = sum(queries.values())
    oracle_busy, kernel = busy(T.DECIDE), busy(T.KERNEL)
    sampler_busy = busy(*T.SAMPLER_SPANS)
    kernel_times = numpy.asarray(tr.kernel_times)
    traces = [t for r in result_per_pass for t in r.traces.values()]
    probes = sum(r.n_samples for t in traces for r in t.rows)
    agree = sum(r.agree_count for t in traces for r in t.rows)
    m = {
        "samplers.batches": (count("samplers.batches"), "count"),
        "samplers.elements": (count("samplers.elements"), "count"),
        "samplers.busy_s": (sampler_busy, "s"),
        "samplers.quantile_s": (busy(T.QUANTILE), "s"),
        "samplers.ns_per_element": (1e9 * sampler_busy / max(count("samplers.elements"), 1), "ns"),
    }
    for ph, q in queries.items():
        m["oracles.queries." + ph] = (q, "count")
    m.update({
        "oracles.busy_s": (oracle_busy, "s"),
        "oracles.us_per_query": (1e6 * oracle_busy / max(total_q, 1), "us"),
        "oracles.kernel_s": (kernel, "s"),
        "oracles.dispatch_s": (oracle_busy - kernel, "s"),
        "oracles.kernel_us_p50": (1e6 * percentile(kernel_times, 50), "us"),
        "oracles.kernel_us_tail": (
            1e6 * percentile(kernel_times, tail_percentile(len(kernel_times))), "us"),
        "oracles.request_bytes": (count("oracles.request_bytes"), "bytes"),
        "oracles.start_s": (setup_tr.busy[T.START] / setups, "s"),
        "oracles.budget_refusals": (count("oracles.budget_refusals"), "count"),
    })
    for ph, span in T.PHASE_SPANS.items():
        m[f"attack.{ph}_s"] = (busy(span), "s")
    m.update({
        "attack.self_s": (busy(T.ATTACK) - sampler_busy - oracle_busy, "s"),
        "attack.iterations": (tr.calls[T.PHASE_SPANS["gradient"]] / passes, "count"),
        "attack.estimate_redraws": (
            count("samplers.batches") - tr.calls[T.PHASE_SPANS["gradient"]] / passes, "count"),
        "attack.step_accept_ratio": (
            count("attack.steps_accepted") / max(queries["step"], 1), "ratio"),
        "attack.agree_frac": (agree / max(probes, 1), "frac"),
        "harness.parse_s": (setup_tr.busy[T.PARSE] / setups, "s"),
        "harness.points_s": (setup_tr.busy[T.POINTS] / setups, "s"),
        "harness.load_s": (setup_tr.busy[T.BUILD] / setups, "s"),
        "harness.emit_s": (busy(T.EMIT), "s"),
        "harness.emit_bytes": (count("harness.emit_bytes"), "bytes"),
        "harness.runs": (sum(len(r.runs) for r in result_per_pass) / passes, "count"),
        "harness.failed_runs": (sum(r.status != "completed" for res in result_per_pass
                                    for r in res.runs) / passes, "count"),
        "rng.substreams": (tr.calls[T.SUBSTREAM] / passes, "count"),
        "rng.substream_s": (busy(T.SUBSTREAM), "s"),
    })
    return m


def timed_setups(wl, seed: int, work: str, probe, tracer=None):
    """Set up repeatedly; return (last set-up, scaled walls, raw walls).

    Every set-up but the last is thrown away, its oracle child stopped.
    """
    import workloads as W
    prep, scaled, raw = None, [], []
    start = perf_counter()
    before = probe()
    while len(raw) < SETUP_MIN or perf_counter() - start < SETUP_SECONDS:
        if prep is not None and prep.served is not None:
            prep.served.shutdown()
        if tracer is not None:
            tracer.install()
        t0 = perf_counter()
        try:
            prep = W.set_up(wl, seed, work)
        finally:
            wall = perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        after = probe()
        raw.append(wall)
        scaled.append(probe.scale(wall, [before, after]))
        before = after
    return prep, scaled, raw


def run_all(args, names) -> int:
    """Run each workload in its own process, one after another.

    The last line sums the counts and prefixes each metric with its workload.
    """
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            return proc.returncode
        line = json.loads(lines[-1])
        total["correct"] = total["correct"] and line["correct"]
        total["attempted"] += line["attempted"]
        total["failed"] += line["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in line["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lhsattack", "__init__.py")):
        print(f"perfbench: no lhsattack sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

    import lhsattack
    if os.path.dirname(os.path.abspath(lhsattack.__file__)) != os.path.join(SRC, "lhsattack"):
        print(f"perfbench: imported lhsattack from {lhsattack.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from lhsattack import harness
    import tracer as T
    import workloads as W
    from speed import Probe

    if args.workload == "all":
        return run_all(args, list(W.WORKLOADS))
    wl = W.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(W.WORKLOADS)}", file=sys.stderr)
        return 2
    if not os.path.isfile(W.WEIGHTS):
        print(f"perfbench: missing weights file {W.WEIGHTS}", file=sys.stderr)
        return 2
    work = os.path.join(".perfbench_work", wl.name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    out_dir = os.path.join(work, "out")

    probe = Probe(wl.probe)
    timer = AttackTimer(probe)
    tracer, setup_tracer = T.Tracer(), T.Tracer()
    prep = None
    raw = {"passes": {False: [], True: []}, "attacks": []}
    try:
        probe(), probe()             # first calls pay one-time costs
        # In-process set-up is parsing and loading: interpreter work. On the
        # pipe, starting the oracle-serve child dominates it.
        setup_probe = Probe("spawn" if wl.oracle == "external" else "interpreter")
        prep, setup_walls, raw["setup"] = timed_setups(
            wl, args.seed, work, setup_probe, setup_tracer if args.trace else None)
        W.warm_up(prep)

        # Timed grid passes. A traced run alternates untraced and traced passes.
        walls = {False: [], True: []}
        traced_results, attack_walls, queries = [], defaultdict(list), 0
        attempted = failed = 0
        problems, reference, passes_run = [], None, 0
        start = perf_counter()
        while True:
            traced = bool(args.trace) and len(walls[False]) > len(walls[True])
            if traced:
                tracer.install()
            # The timer goes on top of the tracer, so probe time stays out of spans.
            timer.run_attack, harness.run_attack = harness.run_attack, timer
            try:
                wall, result = W.run_pass(prep, out_dir)
            finally:
                harness.run_attack = timer.run_attack
                tracer.uninstall()
            raw["passes"][traced].append(wall)
            raw["attacks"] += timer.walls
            samplers, scaled_attacks, scaled_rest = timer.end_pass(wall)
            walls[traced].append((scaled_attacks, scaled_rest))
            for sampler, scaled in zip(samplers, scaled_attacks):
                attack_walls[sampler].append(scaled)
            queries += sum(t.ledger.total_queries for t in result.traces.values())
            if traced:
                traced_results.append(result)
            outputs = W.read_outputs(result)
            if reference is None:
                first_result, reference = result, outputs
            found = W.failures(result, wl, outputs, reference)
            if passes_run == 0:
                first_failed = set(found)
            attempted += len(result.runs)
            failed += len(found)
            problems += [f"pass {passes_run}: {k}: {v}" for k, v in found.items()]
            passes_run += 1
            if perf_counter() - start >= args.seconds and passes_run >= wl.min_passes \
                    and (not args.trace or walls[True]):
                break

        if prep.served is not None:
            # Same seeds and points answered in-process: traces must not change.
            _, ref = W.reference_pass(prep, work)
            for name in W.differing(reference, W.read_outputs(ref)):
                problems.append(f"pipe vs in-process: {name} differs")
                failed += name not in first_failed
    finally:
        probe.close()
        if prep is not None and prep.served is not None:
            prep.served.shutdown()

    if args.trace:
        metrics = layer_metrics(tracer, setup_tracer, len(walls[True]), len(setup_walls),
                                traced_results)
        metrics["trace_overhead_frac"] = (
            median_pass(walls[True]) / median_pass(walls[False]) - 1.0, "frac")
        tracer.dump(os.path.join(work, "spans.json"))
    else:
        p_tail = wl.tail_percentile
        all_attacks = [w for ws in attack_walls.values() for w in ws]
        metrics = {
            "setup_s": statistics.median(setup_walls),
            "workload_s": median_pass(walls[False]),
            # lhs attacks take ~15 % longer than srs ones; the median of the
            # mix falls in the gap between the two clusters and jumps, so
            # take each sampler's median and average them.
            "attack_s_p50": statistics.mean(statistics.median(w) for w in attack_walls.values()),
            "attack_s_tail": percentile(all_attacks, p_tail),
            "queries_per_s": queries / sum(all_attacks),
            "distortion_over_opt": distortion_over_opt(
                first_result, prep.config.budgets, W.optimum_distances(prep)),
            "success_frac": max(0.0, 1.0 - failed / attempted),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
        print(f"attack_s_tail is p{p_tail:g} of n={len(all_attacks)} attacks; "
              f"workload_s is the median of {len(walls[False])} passes")
        print(f"unscaled: setup_s {statistics.median(raw['setup']):.6g}, "
              f"workload_s {statistics.median(raw['passes'][False]):.6g}, "
              f"attack_s_p50 {statistics.median(raw['attacks']):.6g}")

    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    for problem in problems[:20]:
        print(f"check failed: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:.6g} {unit}")
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(line, workload=wl.name, seed=args.seed, trace=args.trace,
                       environment=env, probe=wl.probe,
                       scaled_pass_walls={k: [sum(a) + r for a, r in v] for k, v in walls.items()},
                       unscaled=raw), fh, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
