"""Kernel sweep: the numeric kernels under the CLI paths, timed alone per grid size.

Each kernel runs on seeded inputs at every n in ``SIZES`` and reports the
median wall time of one call in microseconds as ``kernel.<name>.n<N>.us``.
``cone_margins`` also reports the elements one call computes.  These are
layer metrics: they explain an end-to-end change, they never gate one.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

import speed
from setflow import dynamics, hukuhara, support

SIZES = (64, 256, 1024, 4096)
KERNELS = (
    "cone_margins", "support_of_polygon", "reconstruct_polygon", "regularize",
    "hull", "hausdorff_exact", "classify_curve", "rk4_step",
)
MIN_REPS = 3
MIN_SECONDS = 0.05


def ellipse_values(grid, a=1.5, b=0.8) -> np.ndarray:
    """Support values of the ellipse with semi-axes a, b: every grid line is active."""
    u = grid.directions
    return np.sqrt((a * u[:, 0]) ** 2 + (b * u[:, 1]) ** 2)


def kernel_calls(n: int, rng: np.random.Generator) -> dict:
    """One zero-argument call per kernel, on inputs built here at size n."""
    grid = support.DirectionGrid(n)
    ellipse = support.SupportSample(grid, ellipse_values(grid))
    polygon = support.reconstruct_polygon(ellipse)  # n vertices
    box = support.ConvexPolygon.box((-1.0, 1.0), (-1.0, 1.0))
    small = support.ConvexPolygon.from_points(rng.uniform(-1.5, 1.5, (8, 2)))
    noisy = ellipse.values + rng.uniform(-0.05, 0.05, n)
    cloud = rng.normal(size=(n, 2))
    a0 = support.ConvexPolygon.box((-1.5, 3.5), (-0.5, 0.0))
    curve = dynamics.relaxation_curve(a0, box, np.linspace(0.0, 4.0, 41), grid)
    field = dynamics.relax_to(support.support_of_polygon(box, grid))
    y = support.support_of_polygon(a0, grid).values
    return {
        "cone_margins": lambda: support.cone_margins(ellipse.values, grid),
        "support_of_polygon": lambda: support.support_of_polygon(small, grid),
        "reconstruct_polygon": lambda: support.reconstruct_polygon(ellipse),
        "regularize": lambda: support.regularize(noisy, grid),
        "hull": lambda: support.ConvexPolygon.from_points(cloud),
        "hausdorff_exact": lambda: support.hausdorff_exact(polygon, box),
        "classify_curve": lambda: hukuhara.classify_curve(curve),
        "rk4_step": lambda: dynamics._rk4_step(field, 0.0, y, 0.01),
    }


def time_call(fn) -> float:
    """Median seconds of one call, over at least MIN_REPS calls and MIN_SECONDS."""
    fn()  # warm caches and lazy set-up
    times = []
    start = perf_counter()
    while len(times) < MIN_REPS or perf_counter() - start < MIN_SECONDS:
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def sweep(seed: int) -> dict:
    """Median call times at reference speed, in microseconds, per kernel and n."""
    metrics = {}
    before = speed.sample()
    for n in SIZES:
        calls = kernel_calls(n, np.random.default_rng([seed, n]))
        for name in KERNELS:
            wall = time_call(calls[name])
            after = speed.sample()
            metrics[f"kernel.{name}.n{n}.us"] = 1e6 * speed.scale(wall, before + after)
            before = after
        metrics[f"kernel.cone_margins.n{n}.elems"] = n
    return metrics


def metric_specs():
    specs = []
    for n in SIZES:
        specs += [(f"kernel.{name}.n{n}.us", "us", "lower") for name in KERNELS]
        specs.append((f"kernel.cone_margins.n{n}.elems", "count", "lower"))
    return specs
