"""Host speed probes: a fixed piece of work timed next to the workload.

The benchmark runs on shared cores whose speed drifts by 15-25 % over tens
of seconds; a fixed piece of work slows down with everything else. Every
timed stretch of a workload is therefore bracketed by probes of the same
kind of work, and its time is reported as ``wall * reference / probe``:
seconds at the host speed where the probe takes its reference time. Only
the benchmark's own code runs inside a probe, so a change to lhsattack moves
the scaled times and the host's drift does not.
"""
from __future__ import annotations

import subprocess
import sys
from time import perf_counter

import numpy as np

# Typical probe time on the two-core host the benchmark was tuned on, per
# kind of work; the scale of the reported seconds. Changing a value
# rescales every time metric.
REFERENCE_S = {"interpreter": 0.0066, "array": 0.0054, "pipe": 0.0045, "spawn": 0.045}

# The pipe probe's peer: per line, parse 64 floats, one matrix-vector
# product, one reply line; the work an oracle-serve child does per query.
_ECHO = """\
import sys
import numpy as np
w = np.random.default_rng(0).random((64, 64))
for line in sys.stdin:
    x = np.array([float(t) for t in line.split()])
    sys.stdout.write("+1\\n" if (w @ x)[0] > 0 else "-1\\n")
    sys.stdout.flush()
"""


class Probe:
    """Times fixed work of one kind.

    ``interpreter``: 2000 small ReLU matrix-vector products issued from
    Python, like MLP queries. The matrices sit at all eight 8-byte offsets
    of a 64-byte line, so how malloc happens to align them in this process
    does not bias the probe. ``array``: an argsort and an exp over a
    100 x 3072 array, like a sampler batch at d = 3072. ``pipe``: 40 round
    trips of a 64-float line to a child process of the probe's own, like
    queries to an external oracle; the child waits on the other core, so
    this probe also sees that core's speed and the cost of waking it.
    ``spawn``: start a Python interpreter that does nothing and wait for it
    to exit, like the start of an oracle-serve child. :meth:`close` stops
    the pipe probe's child.
    """

    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        self.kind = kind
        self.reference = REFERENCE_S[kind]
        mats, vecs = rng.random(8 * 4096 + 8), rng.random(8 * 64 + 8)
        self._pairs = [(mats[o * 4097:o * 4097 + 4096].reshape(64, 64), vecs[o * 65:o * 65 + 64])
                       for o in range(8)]
        self._big = rng.random((100, 3072))
        self._child = None
        if kind == "pipe":
            self._child = subprocess.Popen([sys.executable, "-c", _ECHO],
                                           stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def __call__(self) -> float:
        t0 = perf_counter()
        if self.kind == "interpreter":
            for _ in range(250):
                for a, x in self._pairs:
                    float(np.maximum(a @ x, 0.0)[0])
        elif self.kind == "array":
            np.argsort(self._big, axis=0)
            np.exp(self._big)
        elif self.kind == "pipe":
            for _, x in self._pairs * 5:
                self._child.stdin.write((" ".join(f"{v:.17g}" for v in x) + "\n").encode())
                self._child.stdin.flush()
                if not self._child.stdout.readline():
                    raise RuntimeError("the pipe probe's child exited")
        elif self.kind == "spawn":
            subprocess.run([sys.executable, "-c", "pass"], check=True)
        return perf_counter() - t0

    def scale(self, wall: float, probes) -> float:
        """``wall`` at reference speed, from the median of the probes around it."""
        return wall * self.reference / float(np.median(probes))

    def close(self) -> None:
        """Stop the pipe probe's child, if there is one, and wait for it."""
        if self._child is not None:
            self._child.stdin.close()
            self._child.wait()
            self._child.stdout.close()
            self._child = None
