"""Per-layer tracing of lhsattack, done entirely from the benchmark's side.

No source file of the package changes. :class:`Tracer` replaces public
functions with timing wrappers *where they are called*: the module attribute
the caller looks up at run time, or the class attribute for methods. Names a
module imported with ``from x import y`` are patched in the importing module
(``harness.run_attack``, ``attack.substream_seed``), and the sampler functions
``attack`` bound at import time are patched inside ``attack._SAMPLERS``.

High-frequency spans (one per oracle query, one per sampler batch) are
aggregated in memory per span name: calls, busy time and self time (busy time
minus the time of spans nested inside). Each ``run_attack`` call also keeps
one span record of its own, with the aggregates of the spans it caused, so a
run's spans share the attack's identifier. :meth:`Tracer.dump` writes the
records out when the benchmark ends.
"""
from __future__ import annotations

import json
import os
from array import array
from collections import Counter, defaultdict
from time import perf_counter

from lhsattack import attack, harness, oracles, samplers
from lhsattack.errors import QueryBudgetExceededError

# Span names. The outermost sampler spans make up sampler busy time; the
# quantile transform is nested inside them.
SAMPLER_SPANS = ("samplers.lhs_normal", "samplers.srs_normal", "samplers.normalize_rows")
QUANTILE = "samplers.inverse_normal_cdf"
DECIDE = "oracles.decide"
KERNEL = "oracles.kernel"
START = "oracles.start"
ATTACK = "attack.run"
PHASE_SPANS = {"init": "attack.initialize_adversarial", "binsearch": "attack.bin_search",
               "gradient": "attack.estimate_gradient", "step": "attack.step_forward"}
SUBSTREAM = "rng.substream_seed"
PARSE = "harness.parse_config"
POINTS = "harness.generate_points"
BUILD = "harness.build_oracle"
EMIT = "harness.emit"


class Tracer:
    """In-memory span aggregates plus one record per traced attack."""

    def __init__(self):
        self._patches = []
        self.reset()

    def reset(self) -> None:
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.kernel_times = array("d")  # one per query, for percentiles
        self.attacks = []
        self._stack = []          # time covered by child spans, one slot per open span
        self._attack_depth = 0

    # -- span bookkeeping -------------------------------------------------

    def _enter(self) -> float:
        self._stack.append(0.0)
        return perf_counter()

    def _exit(self, name: str, t0: float) -> float:
        dt = perf_counter() - t0
        child = self._stack.pop()
        if self._stack:
            self._stack[-1] += dt
        self.calls[name] += 1
        self.busy[name] += dt
        self.self_time[name] += dt - child
        return dt

    def span(self, name: str, fn):
        """Wrap ``fn`` so that every call records one span called ``name``."""
        def traced(*args, **kwargs):
            t0 = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, t0)
        return traced

    # -- wrappers that also count work -------------------------------------

    def _sampler(self, name, fn):
        def traced(n_samples, dim, seed):
            self.counts["samplers.batches"] += 1
            self.counts["samplers.elements"] += n_samples * dim
            t0 = self._enter()
            try:
                return fn(n_samples, dim, seed)
            finally:
                self._exit(name, t0)
        return traced

    def _decide(self, fn):
        def traced(metered, x, phase):
            if not self._attack_depth:      # harness pre-checks on a throwaway ledger
                return fn(metered, x, phase)
            t0 = self._enter()
            try:
                answer = fn(metered, x, phase)
            except QueryBudgetExceededError:
                self.counts["oracles.budget_refusals"] += 1
                raise
            finally:
                self._exit(DECIDE, t0)
            self.counts["oracles.queries." + phase] += 1
            return answer
        return traced

    def _kernel(self, fn):
        def traced(oracle, x):
            if not self._attack_depth:
                return fn(oracle, x)
            t0 = self._enter()
            try:
                return fn(oracle, x)
            finally:
                self.kernel_times.append(self._exit(KERNEL, t0))
        return traced

    def _format_floats(self, fn):
        def traced(values):
            line = fn(values)
            if self._attack_depth:
                self.counts["oracles.request_bytes"] += len(line) + 1
            return line
        return traced

    def _start(self, fn):
        def traced(oracle):
            if oracle._proc is not None:    # already running: start() is a no-op
                return fn(oracle)
            t0 = self._enter()
            try:
                return fn(oracle)
            finally:
                self._exit(START, t0)
        return traced

    def _step(self, fn):
        def traced(*args, **kwargs):
            t0 = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(PHASE_SPANS["step"], t0)
            self.counts["attack.steps_accepted"] += 1
            return result
        return traced

    def _emit(self, fn):
        def traced(obj, path, *args, **kwargs):
            t0 = self._enter()
            try:
                return fn(obj, path, *args, **kwargs)
            finally:
                self._exit(EMIT, t0)
                self.counts["harness.emit_bytes"] += os.path.getsize(path)
        return traced

    def _attack(self, fn):
        def traced(oracle, original, config):
            before = (Counter(self.calls), dict(self.busy))
            self._attack_depth += 1
            start = perf_counter()
            t0 = self._enter()
            try:
                return fn(oracle, original, config)
            finally:
                self._exit(ATTACK, t0)
                self._attack_depth -= 1
                self.attacks.append({
                    "id": len(self.attacks), "start": start, "end": perf_counter(),
                    "sampler": config.sampler_kind, "seed": config.seed,
                    "children": {n: [self.calls[n] - before[0][n],
                                     self.busy[n] - before[1].get(n, 0.0)]
                                 for n in self.calls if n != ATTACK
                                 and self.calls[n] != before[0][n]}})
        return traced

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr, wrapper) -> None:
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        if isinstance(owner, dict):
            owner[attr] = wrapper(original)
        else:
            setattr(owner, attr, wrapper(original))

    def install(self) -> None:
        """Put every wrapper in place; :meth:`uninstall` restores the originals."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        sp = self.span
        self._patch(attack._SAMPLERS, samplers.LHS, lambda f: self._sampler(SAMPLER_SPANS[0], f))
        self._patch(attack._SAMPLERS, samplers.SRS, lambda f: self._sampler(SAMPLER_SPANS[1], f))
        self._patch(attack, "normalize_rows", lambda f: sp(SAMPLER_SPANS[2], f))
        self._patch(samplers, "inverse_normal_cdf", lambda f: sp(QUANTILE, f))
        self._patch(oracles.MeteredOracle, "decide", self._decide)
        self._patch(oracles.HypersphereOracle, "_decide", self._kernel)
        self._patch(oracles.MlpOracle, "_decide", self._kernel)
        self._patch(oracles.ExternalOracle, "_decide", self._kernel)
        self._patch(oracles.ExternalOracle, "start", self._start)
        self._patch(oracles.HypersphereOracle, "__init__", lambda f: sp(START, f))
        self._patch(oracles.MlpOracle, "__init__", lambda f: sp(START, f))
        self._patch(oracles, "format_floats", self._format_floats)
        for phase in ("init", "binsearch", "gradient"):
            name = PHASE_SPANS[phase]
            self._patch(attack, name.split(".")[1], lambda f, n=name: sp(n, f))
        self._patch(attack, "step_forward", self._step)
        self._patch(attack, "substream_seed", lambda f: sp(SUBSTREAM, f))
        self._patch(harness, "substream_seed", lambda f: sp(SUBSTREAM, f))
        self._patch(harness, "run_attack", self._attack)
        self._patch(harness, "parse_config", lambda f: sp(PARSE, f))
        self._patch(harness, "generate_points", lambda f: sp(POINTS, f))
        self._patch(harness, "build_oracle", lambda f: sp(BUILD, f))
        self._patch(harness, "emit_trace_csv", self._emit)
        self._patch(harness, "emit_summary_csv", self._emit)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def dump(self, path) -> None:
        """Write the aggregates and the per-attack span records as JSON."""
        spans = {n: {"calls": self.calls[n], "busy_s": self.busy[n],
                     "self_s": self.self_time[n]} for n in sorted(self.calls)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "counts": dict(self.counts),
                       "attacks": self.attacks}, fh, indent=1)
