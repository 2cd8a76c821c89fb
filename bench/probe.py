"""A fixed reference computation that measures how fast the CPU is right now.

On a small VM of a shared machine (measured on a 2-vCPU KVM guest of a
Xeon Sapphire Rapids host) each vCPU switches between a fast and a slow
state, most likely as other guests load its physical core, in spells from
a second to minutes long.  In the slow state the same numpy-bound code runs
1.4-1.8x slower, so raw wall times of identical runs a few minutes apart
differed by 30%, more than any useful regression bound.

The probe is a forward and backward pass of a plain-numpy MLP with the
workload's layer widths and batch size, so it has the workload's mix of
per-call overhead and BLAS work and slows down by about as much.  It is
benchmark code: no change to the program changes how long it takes.  The
benchmark runs it between rounds and scales each round's wall time by
`ref_s / probe time`, which gives the round's time at the probe's reference
speed.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np


class Probe:
    """`probe()` runs the reference computation once and returns its seconds."""

    def __init__(self, dims: list[int], batch: int, reps: int, ref_s: float):
        rng = np.random.default_rng(0)
        self.weights = [rng.standard_normal((a, b)) / np.sqrt(a)
                        for a, b in zip(dims, dims[1:])]
        self.x = rng.standard_normal((batch, dims[0]))
        self.reps = reps
        self.ref_s = ref_s
        self.times: list[float] = []

    def __call__(self) -> float:
        t0 = perf_counter()
        for _ in range(self.reps):
            h, acts = self.x, []
            for w in self.weights:
                acts.append(h)
                h = np.maximum(h @ w, 0.0)
            g = h - h.mean(axis=1, keepdims=True)
            for w, a in zip(reversed(self.weights), reversed(acts)):
                w.T @ a.T  # weight-gradient shaped matmul, result unused
                g = (g @ w.T) * (a > 0)
        dt = perf_counter() - t0
        self.times.append(dt)
        return dt
