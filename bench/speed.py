"""Machine-speed reference for wall times taken on a shared host.

The host's speed drifts by tens of percent within seconds to minutes as
other tenants come and go, and it drifts for a fixed reference work as much
as for setflow's own.  The benchmark samples the reference work in the gaps
before and after every timed operation and reports the operation's time at
reference speed: ``wall * REF_S / median(samples around it)``, where
``REF_S`` is one reference sample at reference speed.  Nothing of setflow
runs in the reference work, so a change to setflow moves the scaled times
exactly as it moves the wall times.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REF_S = 0.005  # one reference sample on an idle 2-vCPU Xeon (Sapphire Rapids) VM
REPS = 5  # samples taken at each gap between operations


def reference_work() -> float:
    """Interpreter loop plus small numpy array arithmetic, like setflow's own mix."""
    total = 0
    for i in range(30000):
        total += i * i
    a = np.linspace(0.0, 1.0, 1024)
    for _ in range(150):
        a = 0.25 * (np.roll(a, 1) + np.roll(a, -1)) + 0.5 * a
    return total + float(a[0])


def sample() -> list:
    """REPS timings of the reference work, in seconds."""
    out = []
    for _ in range(REPS):
        t0 = perf_counter()
        reference_work()
        out.append(perf_counter() - t0)
    return out


def scale(wall: float, samples: list) -> float:
    """Wall seconds taken next to `samples`, converted to reference speed."""
    return wall * REF_S / statistics.median(samples)
