"""The four benchmark workloads: seeded inputs, one operation, and its oracle.

Every workload is a closed loop driven by ``run.py``: ``inputs(i)`` builds
operation ``i`` from the workload seed (untimed), ``run`` is the timed
operation, and ``check`` verifies the result (untimed), raising
``OracleFailure`` on a wrong answer and otherwise returning the number of
domain items the operation completed.

The benchmark reaches setflow only through module attributes
(``cli.main``, ``dynamics.integrate``, ...), looked up at call time, so the
span wrappers that ``tracing`` installs see every call it makes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from setflow import cli, duality, dynamics, hukuhara, support

# the cone tolerance of the README's numerical contracts: 1e-9 * max(1, |s|_inf)
TOL_REL = 1e-9

EXAMPLE_CLASSES = ("FirstType", "SecondType", "Neither")
REVERSED_CLASSES = ("SecondType", "FirstType", "Neither")


class OracleFailure(Exception):
    """An operation returned, but its output is wrong."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise OracleFailure(message)


@dataclass(frozen=True)
class CliResult:
    code: int
    out: str
    err: str


def call_cli(argv: list[str]) -> CliResult:
    """Run ``setflow.cli.main`` in process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def expect_ok(res: CliResult, what: str) -> None:
    expect(res.code == 0, f"{what}: exit {res.code}: {res.err.strip()[:200]}")


def cone_tol(values: np.ndarray) -> float:
    return TOL_REL * max(1.0, float(np.max(np.abs(values))))


def margins(states: np.ndarray, n: int) -> np.ndarray:
    """Three-term cone margins along the last axis, computed independently."""
    two_cos = 2.0 * math.cos(2.0 * math.pi / n)
    return np.roll(states, 1, -1) + np.roll(states, -1, -1) - two_cos * states


def grid_directions(n: int) -> np.ndarray:
    """Unit directions at angles 2*pi*i/n, the grid of the README."""
    angles = 2.0 * np.pi * np.arange(n) / n
    return np.column_stack([np.cos(angles), np.sin(angles)])


def box_support(directions: np.ndarray, xr, yr) -> np.ndarray:
    corners = np.array([[x, y] for x in xr for y in yr])
    return (directions @ corners.T).max(axis=1)


def read_table(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.asarray(rows[1:], dtype=float)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)

    def rng(self, i: int) -> np.random.Generator:
        """Generator for operation i: a pure function of (seed, i)."""
        return np.random.default_rng([self.seed, i])

    def inputs(self, i: int):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> int:
        raise NotImplementedError

    def summary(self) -> str:
        return ""


class Example(Workload):
    """``setflow example OUT`` with the defaults: the README demo."""

    name = "example"
    steps = 400  # per curve: T = 4 at the default h = 0.01

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.digest = None

    def inputs(self, i):
        # the demo has no inputs beyond its output directory; it starts empty
        # so a file the operation failed to write cannot pass as written
        outdir = self.workdir / "example"
        shutil.rmtree(outdir, ignore_errors=True)
        return ["example", str(outdir)]

    def run(self, argv):
        return call_cli(argv)

    def check(self, argv, res) -> int:
        expect_ok(res, "example")
        classes = dict(re.findall(r"^curve (\d): (\w+)$", res.out, re.M))
        got = tuple(classes.get(str(k)) for k in (1, 2, 3))
        expect(got == EXAMPLE_CLASSES, f"example classes {got}")
        errs = [float(x) for x in re.findall(r"closed form\| = (\S+)$", res.out, re.M)]
        expect(len(errs) == 3, f"expected 3 closed-form errors, got {len(errs)}")
        expect(max(errs) <= 1e-6, f"closed-form error {max(errs):.3e} > 1e-6")
        outdir = Path(argv[1])
        digest = hashlib.sha256()
        items = 0
        for path in sorted(outdir.glob("*.csv")):
            data = path.read_bytes()
            digest.update(path.name.encode() + b"\0" + data)
            if path.name.endswith("_trajectory.csv"):
                items += data.count(b"\n") - 2  # header and the initial state
        expect(items == 3 * self.steps, f"{items} RK4 steps in trajectory CSVs")
        hexdigest = digest.hexdigest()
        if self.digest is None:
            self.digest = hexdigest
        expect(hexdigest == self.digest, "example CSVs differ between operations")
        return items

    def summary(self):
        return f"csv sha256 {self.digest}"


class Repair(Workload):
    """``setflow integrate`` where every Euler step leaves the cone."""

    name = "repair"
    n = 1024
    h = 0.01
    T = 0.5
    half = 2.0  # the initial set is the box [-2, 2]^2

    def inputs(self, i):
        theta = math.radians(self.rng(i).uniform(15.0, 75.0))
        u = np.array([math.cos(theta), math.sin(theta)])
        # minus the support of the unit segment [-u/2, u/2]
        delta = -0.5 * np.abs(grid_directions(self.n) @ u)
        config = self.workdir / "repair.json"
        traj = self.workdir / "repair.csv"
        traj.unlink(missing_ok=True)
        scenario = {
            "grid_n": self.n,
            "T": self.T,
            "h": self.h,
            "method": "euler",
            "policy": "on_violation",
            "rhs": {"kind": "constant", "delta": delta.tolist()},
            "initial": {"box": [[-self.half, self.half], [-self.half, self.half]]},
            "output": {"trajectory": str(traj)},
        }
        config.write_text(json.dumps(scenario))
        return {"config": str(config), "trajectory": traj, "u": u, "delta": delta}

    def run(self, inp):
        return call_cli(["integrate", inp["config"]])

    def check(self, inp, res) -> int:
        expect_ok(res, "integrate")
        header, table = read_table(inp["trajectory"])
        expect(header[:3] == ["t", "residual", "regularized"], "trajectory header")
        steps = round(self.T / self.h)
        expect(table.shape == (steps + 1, 3 + self.n), f"trajectory shape {table.shape}")
        times, flags, states = table[:, 0], table[:, 2], table[:, 3:]
        expect(bool(np.all(flags[1:] == 1)), f"{int(np.sum(flags[1:] != 1))} steps not regularized")
        directions = grid_directions(self.n)
        for k in range(steps + 1):
            s = states[k]
            tol = cone_tol(s)
            expect(float(margins(s, self.n).min()) >= -tol, f"state {k} is outside the cone")
            # regularize never exceeds its input ...
            if k:
                bound = states[k - 1] + self.h * inp["delta"]
                expect(bool(np.all(s <= bound + tol)), f"state {k} exceeds previous + h*delta")
            # ... and keeps the exact Minkowski difference box - t*segment
            shrink = 0.5 * times[k] * np.abs(inp["u"])
            xr = (-self.half + shrink[0], self.half - shrink[0])
            yr = (-self.half + shrink[1], self.half - shrink[1])
            floor = box_support(directions, xr, yr)
            expect(bool(np.all(s >= floor - tol)), f"state {k} lost the Minkowski difference")
        return int(np.sum(flags[1:]))


class Diagnose(Workload):
    """``setflow check subtangent|osl|horizon|lipschitz`` on one scenario."""

    name = "diagnose"
    n = 256
    samples = 100
    r = 1.0
    T = 1.0
    checks = ("subtangent", "osl", "horizon", "lipschitz")

    def inputs(self, i):
        rng = self.rng(i)
        target_c = rng.uniform(-0.5, 0.5, 2)
        target_w = rng.uniform(0.5, 1.5, 2)
        initial_c = rng.uniform(-3.0, 3.0, 2)
        initial_w = rng.uniform(0.25, 1.0, 2)

        def box(c, w):
            return {"box": [[c[0] - w[0], c[0] + w[0]], [c[1] - w[1], c[1] + w[1]]]}

        scenario = {
            "grid_n": self.n,
            "T": self.T,
            "h": 0.01,
            "rhs": {"kind": "relax_to", "target": box(target_c, target_w)},
            "initial": box(initial_c, initial_w),
            "samples": self.samples,
            "r": self.r,
            "seed": int(rng.integers(2**31)),
        }
        config = self.workdir / "diagnose.json"
        config.write_text(json.dumps(scenario))
        return str(config)

    def run(self, config):
        return {c: call_cli(["check", c, config]) for c in self.checks}

    def check(self, config, results) -> int:
        for name, res in results.items():
            expect_ok(res, f"check {name}")
        n = self.samples
        m = re.search(r"(\d+)/(\d+) feasible", results["subtangent"].out)
        expect(m is not None and m.groups() == (str(n), str(n)), "subtangent: not N/N feasible")
        m = re.search(r"(\d+)/(\d+) pairs satisfied", results["osl"].out)
        expect(m is not None and m.groups() == (str(n), str(n)), "osl: not N/N pairs satisfied")
        m = re.search(r"c = (\S+), b = min\(T, r/c\) = (\S+)", results["horizon"].out)
        expect(m is not None, "horizon: no c and b reported")
        c, b = float(m.group(1)), float(m.group(2))
        want = min(self.T, self.r / c)
        expect(abs(b - want) <= 1e-7 * want, f"horizon: b = {b} but min(T, r/c) = {want}")
        m = re.search(r"lipschitz estimate: (\S+)", results["lipschitz"].out)
        expect(m is not None, "lipschitz: no estimate reported")
        est = float(m.group(1))
        expect(abs(est - 1.0) <= 1e-9, f"lipschitz estimate {est} is not 1")
        return 4 * n  # subtangent points, osl pairs, horizon bumps, lipschitz pairs


class Analyze(Workload):
    """Library pipeline: integrate, classify both time directions, duality."""

    name = "analyze"
    n = 64

    def inputs(self, i):
        rng = self.rng(i)
        cases = []
        for k in (1, 2, 3):
            shift = rng.uniform(-2.0, 2.0, 2)
            scale = 2.0 - rng.uniform(0.0, 1.5)  # in (0.5, 2]

            def place(rect):
                (x0, x1), (y0, y1) = rect
                return (
                    (scale * x0 + shift[0], scale * x1 + shift[0]),
                    (scale * y0 + shift[1], scale * y1 + shift[1]),
                )

            cases.append((place(cli.EXAMPLE_RECTS[k]), place(cli.EXAMPLE_TARGET)))
        return cases

    def run(self, cases):
        grid = support.DirectionGrid(self.n)
        results = []
        for rect, target in cases:
            a0 = support.ConvexPolygon.box(*rect)
            q = support.ConvexPolygon.box(*target)
            field = dynamics.relax_to(support.support_of_polygon(q, grid))
            sigma0 = support.support_of_polygon(a0, grid)
            traj = dynamics.integrate(field, sigma0, 4.0, 0.01, method="rk4")
            curve = traj.curve()
            whole, steps = hukuhara.classify_curve(curve)
            rwhole, rsteps = hukuhara.classify_curve(hukuhara.time_reverse(curve))
            pairings = []
            for k in range(1, len(curve) - 1):
                fwd, bwd = hukuhara.difference_quotients(curve, k)
                hukuhara.hukuhara_difference(curve.samples[k + 1], curve.samples[k])
                inner = duality.semi_inner(fwd, bwd)
                reps = duality.dual_representatives(bwd)
                pairings.append((inner, min(mu(fwd) for mu in reps)))
            results.append((str(whole), str(rwhole), len(steps) + len(rsteps), pairings))
        return results

    def check(self, cases, results) -> int:
        forward = tuple(r[0] for r in results)
        backward = tuple(r[1] for r in results)
        expect(forward == EXAMPLE_CLASSES, f"analyze classes {forward}")
        expect(backward == REVERSED_CLASSES, f"time-reversed classes {backward}")
        for _, _, _, pairings in results:
            for inner, best in pairings:
                # the single-atom representatives attain the semi-inner product
                expect(abs(inner - best) <= 1e-12 * max(1.0, abs(inner)),
                       f"semi_inner {inner} != min over representatives {best}")
        return sum(r[2] for r in results)


WORKLOADS = {w.name: w for w in (Example, Repair, Diagnose, Analyze)}


def make(name: str, seed: int, workdir: Path) -> Workload:
    return WORKLOADS[name](seed, workdir)
