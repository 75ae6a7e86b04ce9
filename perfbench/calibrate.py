"""A fixed probe of how fast the machine runs right now.

The benchmark runs on shared virtual machines whose speed moves by 20-40% for
minutes at a time (with CPU time equal to wall time: not steal, but
neighbours on the same cores and caches). No statistic inside one run removes
a shift that lasts longer than the run. So ``run.py`` times this kernel
between the commands it measures and scales its timings by
``REFERENCE_S / median(kernel seconds)``: a timing then reads as it would on a
machine where the kernel takes ``REFERENCE_S``.

The kernel does the kinds of work the simulator and its writers do, in
similar proportions: small numpy arrays (3-vectors, a 6x6 solve), scalar
``math`` on floats, tuples and dicts, and float formatting and parsing. It
imports nothing from ``vetsim``, so a change to the program cannot move it.
Never change it, nor ``REFERENCE_S``, in a change that is measured against
its parent: both sides must be scaled by the same kernel.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# A round figure near the kernel's median time on the 2-vCPU Xeon VM the
# benchmark was written on, where it read 0.05-0.10 s as the VM's speed drifted.
REFERENCE_S = 0.060
_ROUNDS = 3000


def _kernel(rounds: int) -> float:
    a = np.eye(6) * 4.0 + np.full((6, 6), 0.1)
    b = np.linspace(0.1, 0.6, 6)
    r = np.eye(3)
    v = np.array([0.3, -0.2, 1.0])
    acc = 0.0
    rows = []
    for i in range(rounds):
        t = i * 1e-2
        c, s = math.cos(t), math.sin(t)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        r = rot @ r
        w = r @ v
        x = np.linalg.solve(a, b * (1.0 + 1e-3 * c))
        state = {"t": t, "x": float(x[0]), "w": float(w[1])}
        pose = (state["x"], state["w"], math.atan2(s, c), math.hypot(c, s))
        for _ in range(4):
            acc += math.sqrt(abs(pose[0]) + 1.0) * 1e-3 + math.exp(-abs(pose[1]))
            acc = acc - math.floor(acc)
        row = ",".join(f"{value:.9g}" for value in pose)
        rows.append(row)
        acc += sum(float(field) for field in row.split(",")) * 1e-6
    return acc + len(rows)


def sample() -> float:
    """Seconds one pass of the kernel takes now."""
    start = perf_counter()
    _kernel(_ROUNDS)
    return perf_counter() - start


if __name__ == "__main__":
    samples = sorted(sample() for _ in range(21))
    print(f"kernel median {samples[10]:.6f} s, min {samples[0]:.6f} s, max {samples[-1]:.6f} s")
