import ast
import contextlib
import hashlib
import io
import json
import math
import re
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import setflow as sf
from setflow import cli
from setflow.cli import CHECKS, _frame_indices, main
from setflow.dynamics import METHODS, _drift_limit
from setflow.support import default_tol


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def scenario(tmp_path):
    def make(**overrides):
        cfg = {
            "grid_n": 64,
            "T": 1.0,
            "h": 0.01,
            "method": "rk4",
            "policy": "on_violation",
            "rhs": {"kind": "relax_to", "target": {"box": [[-1, 1], [-1, 1]]}},
            "initial": {"box": [[2, 3], [1, 2]]},
            "samples": 40,
            "r": 1.0,
            "output": {"trajectory": str(tmp_path / "traj.csv")},
        }
        cfg.update(overrides)
        return write_json(tmp_path / "scen.json", cfg)

    return make


def _without(path, key):
    """The scenario file at path, rewritten without key."""
    cfg = json.loads(Path(path).read_text())
    del cfg[key]
    return write_json(Path(path), cfg)


def _table(path):
    """A CSV table as its header fields and one list of fields per row."""
    header, *rows = path.read_text().splitlines()
    return header.split(","), [row.split(",") for row in rows]


def _drifting(scen, tmp_path):
    """Policy "never" under a constant rhs that leaves the cone, with a filmstrip."""
    delta = [0.5 if i % 2 == 0 else -1.0 for i in range(64)]
    return scen(
        h=0.02, policy="never", rhs={"kind": "constant", "delta": delta},
        initial={"box": [[0, 1], [0, 1]]},
        output={"trajectory": str(tmp_path / "t.csv"), "filmstrip": str(tmp_path / "f.svg")},
    )


# ---------------------------------------------------------------------- integrate

def test_integrate_writes_monotone_gap_csv(scenario, tmp_path):
    path = scenario(T=4.0)
    assert main(["integrate", path]) == 0
    rows = (tmp_path / "traj.csv").read_text().strip().splitlines()[1:]
    grid = sf.DirectionGrid(64)
    target = sf.support_of_polygon(sf.ConvexPolygon.box((-1, 1), (-1, 1)), grid)
    gaps = []
    for row in rows:
        vals = np.asarray(row.split(",")[3:], dtype=float)
        gaps.append(np.max(np.abs(vals - target.values)))
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))


def test_integrate_deterministic_output(scenario, tmp_path):
    path = scenario()
    assert main(["integrate", path]) == 0
    first = (tmp_path / "traj.csv").read_bytes()
    assert main(["integrate", path]) == 0
    assert (tmp_path / "traj.csv").read_bytes() == first


def test_integrate_svg_outputs(scenario, tmp_path):
    path = scenario(
        output={
            "trajectory": str(tmp_path / "t.csv"),
            "filmstrip": str(tmp_path / "film.svg"),
            "support": str(tmp_path / "supp.svg"),
        }
    )
    assert main(["integrate", path]) == 0
    film = ET.parse(tmp_path / "film.svg").getroot()
    supp = ET.parse(tmp_path / "supp.svg").getroot()
    n_poly = len(film.findall(".//{http://www.w3.org/2000/svg}polygon"))
    n_lines = len(supp.findall(".//{http://www.w3.org/2000/svg}polyline"))
    assert n_poly == n_lines == 5  # frames at 0, .25, .5, .75, 1


def test_frame_choice_is_fast_at_the_step_limit():
    # MAX_STEPS stored times, one frame per step: the per-frame scan it
    # replaced took 1.4 s at 40,000 times and grew quadratically
    times = np.arange(1_000_001) * 1e-6
    start = time.perf_counter()
    frames = _frame_indices(times, 1e-6)
    assert time.perf_counter() - start < 1.0
    assert frames == list(range(1_000_001))


def test_integrate_malformed_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["integrate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "bad_json"


def test_integrate_rejects_bad_step(scenario):
    assert main(["integrate", scenario(h=-0.5)]) == 2


def test_drifted_filmstrip_exits_3_after_writing_the_trajectory(scenario, tmp_path, capsys):
    assert main(["integrate", _drifting(scenario, tmp_path)]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "integration"
    assert len((tmp_path / "t.csv").read_text().splitlines()) == 52  # header and 51 states


def test_integrate_truncated_trajectory_exits_3(scenario, tmp_path, capsys):
    # one step of length 4 overshoots the target: its repair finds the
    # halfplane intersection empty, so only the initial state is stored
    assert main(["integrate", scenario(T=4.0, h=4.0)]) == 3
    out, err = capsys.readouterr()
    assert out == f"wrote {tmp_path / 'traj.csv'} (0 steps, method=rk4)\n"
    assert json.loads(err) == {
        "error": "integration", "message": "empty halfplane intersection at t = 4.0"
    }
    assert len((tmp_path / "traj.csv").read_text().splitlines()) == 2


def test_integrate_frame_spacing(scenario, tmp_path, capsys):
    film = tmp_path / "f.svg"
    output = {"trajectory": str(tmp_path / "t.csv"), "frame_spacing": 0.5, "filmstrip": str(film)}
    assert main(["integrate", scenario(output=output)]) == 0
    assert capsys.readouterr().out == (
        f"wrote {tmp_path / 't.csv'} (100 steps, method=rk4)\nwrote {film}\n"
    )
    polys = ET.parse(film).getroot().findall(".//{http://www.w3.org/2000/svg}polygon")
    assert len(polys) == 3  # frames at 0, .5, 1


def test_integrate_draws_figures_from_a_single_frame(scenario, tmp_path, capsys):
    # T < frame_spacing / 2: the only frame is t = 0
    traj, film, supp = tmp_path / "t.csv", tmp_path / "f.svg", tmp_path / "s.svg"
    output = {"trajectory": str(traj), "filmstrip": str(film), "support": str(supp)}
    assert main(["integrate", scenario(T=0.1, h=0.05, output=output)]) == 0
    assert capsys.readouterr().out == (
        f"wrote {traj} (2 steps, method=rk4)\nwrote {film}\nwrote {supp}\n"
    )
    polys = ET.parse(film).getroot().findall(".//{http://www.w3.org/2000/svg}polygon")
    lines = ET.parse(supp).getroot().findall(".//{http://www.w3.org/2000/svg}polyline")
    assert len(polys) == len(lines) == 1


def test_integrate_failure_exit_code(scenario, capsys):
    # explosive growth overflows to inf within the first rk4 step
    path = scenario(rhs={"kind": "expand", "rate": 1e80}, initial={"box": [[1, 2], [1, 2]]})
    with np.errstate(over="ignore"):
        assert main(["integrate", path]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "integration"


def test_integrate_repairs_every_step_of_a_shrinking_box(tmp_path):
    # the box [-2, 2]^2 minus t times a unit segment at 30 degrees, Euler h = 0.01:
    # every step leaves the cone; each repair stays in the cone, below its input and
    # above the exact Minkowski difference
    n, h, u = 256, 0.01, np.array([math.cos(math.pi / 6), math.sin(math.pi / 6)])
    grid = sf.DirectionGrid(n)
    delta = -0.5 * np.abs(grid.directions @ u)
    path = write_json(tmp_path / "repair.json", {
        "grid_n": n, "T": 0.5, "h": h, "method": "euler", "policy": "on_violation",
        "rhs": {"kind": "constant", "delta": delta.tolist()},
        "initial": {"box": [[-2, 2], [-2, 2]]},
        "output": {"trajectory": str(tmp_path / "repair.csv")},
    })
    assert main(["integrate", path]) == 0
    header, rows = _table(tmp_path / "repair.csv")
    table = np.array(rows, dtype=float)
    times, flags, states = table[:, 0], table[:, 2], table[:, 3:]
    assert header[:3] == ["t", "residual", "regularized"] and states.shape == (51, n)
    assert np.all(flags[1:] == 1)
    tol = default_tol(states)[:, None]
    assert np.all(sf.cone_margins(states, grid) >= -tol)
    assert np.all(states[1:] <= states[:-1] + h * delta + tol[1:])
    for t, s, tol_k in zip(times, states, tol):
        lo, hi = -2.0 + 0.5 * t * u, 2.0 - 0.5 * t * u
        floor = sf.support_of_polygon(sf.ConvexPolygon.box((lo[0], hi[0]), (lo[1], hi[1])), grid)
        assert np.all(s >= floor.values - tol_k)


# ------------------------------------------------------------------------ example

def test_example_classification_summary(tmp_path, capsys):
    out = tmp_path / "demo"
    assert main(["example", str(out), "--h", "0.02"]) == 0
    text = capsys.readouterr().out
    assert "curve 1: FirstType" in text
    assert "curve 2: SecondType" in text
    assert "curve 3: Neither" in text
    errs = [float(line.rsplit("=", 1)[1]) for line in text.splitlines() if "closed form" in line]
    assert errs and all(e <= 1e-6 for e in errs)


def test_example_outputs(tmp_path):
    out = tmp_path / "demo"
    assert main(["example", str(out), "--h", "0.05"]) == 0
    for k in (1, 2, 3):
        assert (out / f"curve{k}_trajectory.csv").exists()
        assert (out / f"curve{k}_classification.csv").exists()
        assert (out / f"curve{k}_frechet_delta.csv").exists()
        assert (out / f"curve{k}_sets.svg").exists()
    assert (out / "curve1_hukuhara_differentials.csv").exists()
    assert (out / "curve2_second_type_differentials.csv").exists()
    assert not (out / "curve3_hukuhara_differentials.csv").exists()
    assert not (out / "curve3_second_type_differentials.csv").exists()


def test_example_third_curve_delta_fails_cone_both_ways(tmp_path):
    out = tmp_path / "demo"
    assert main(["example", str(out), "--h", "0.05"]) == 0
    rows = (out / "curve3_frechet_delta.csv").read_text().strip().splitlines()[1:]
    grid = sf.DirectionGrid(64)
    vals = np.asarray(rows[0].split(",")[1:], dtype=float)
    assert not sf.is_in_cone(vals, grid)
    assert not sf.is_in_cone(-vals, grid)


# sha256 of every file `setflow example OUT` writes with the defaults (numpy on x86-64);
# a refactor must leave these bytes alone, a deliberate change of output re-pins them
EXAMPLE_SHA256 = {
    "curve1_classification.csv": "c90b70bf428a87d55af657bed0794eb63d09aed557bcb5846aacef29488387f7",
    "curve1_delta_support.svg": "fcfc0c26b5b3bde7bf6a7991e982c3068e7ba72f2374392c8e6e32380e9502b4",
    "curve1_differentials.svg": "594ba9e2c2600fee1b58fea510d8712ef1b4fd35d6d95f15f7e4e4876a448840",
    "curve1_frechet_delta.csv": "983a0facd0db1d3376d8e20f525cb7c41d8a7de2d7c9fdc17d19ccfa795762cc",
    "curve1_hukuhara_differentials.csv":
        "983a0facd0db1d3376d8e20f525cb7c41d8a7de2d7c9fdc17d19ccfa795762cc",
    "curve1_sets.svg": "38d2dda264fe1cc7f5583ea8d303258bf59c9d0ca096a6b5dbc0f5dadeaec43b",
    "curve1_support.svg": "4b26881408135c31952b1ab3e69519f2de04fd6e80b044303cc98228b47b5520",
    "curve1_trajectory.csv": "2cae03eea46afee08e96533ba5eb9c5781acba2313433097546271c8f82a9a3f",
    "curve2_classification.csv": "bcbc995192ae0f47551c8c703c88c47feb7a7ccf62e41686f5a2d00deaa1633c",
    "curve2_delta_support.svg": "69a5b06d111af81490fa96c7b77dc5d5d5e2426d83aa101566b84c2df0ce522b",
    "curve2_differentials.svg": "b6b08f83c57327d23223bc0785f43d2f1f990b89de7674e5197f3a26cabcec83",
    "curve2_frechet_delta.csv": "7247b60e2f9fd65e33a9aa76cb0675bc3e999dbbe229552c6cfdcebda1a35577",
    "curve2_second_type_differentials.csv":
        "ad5ee4b10a2fd8cfde4b18a4e5b6b06b96a53d2cbedc83ad782fbf132bde9e3f",
    "curve2_sets.svg": "8a07d05d76eeb80b31f12286d61abbd836f3e40402757e7f6672a2125c1e7097",
    "curve2_support.svg": "550828d8d861488fc2c74869d20d5e98cfb48a46a09cc88d6efbeb2d588a4e44",
    "curve2_trajectory.csv": "d1b6c95aeb1d0e1e34632067688edeb7705dd4dafe8a1ce2e1617827ac9d37d7",
    "curve3_classification.csv": "2fa7dced71af0fcde25e53943323089fb2f0648757c544684c75df3709266a52",
    "curve3_delta_support.svg": "99f8f3c5c5a3b138dd1d925653b3c911e702eb613b33e66620195bc9df98cd3a",
    "curve3_frechet_delta.csv": "726f14374872f89ed844d0b3b420078cd04196f4693a3766ca1d97d4a01ae01b",
    "curve3_sets.svg": "97f5c8e271536a6ef1aca544bad2b9b5188a23dd05f17cd8b261fb43951f391e",
    "curve3_support.svg": "c0d18af7fb320504d6367449542933a2a11cda10ee893e56f1c8184bea2df085",
    "curve3_trajectory.csv": "cc4a1dacbd730d88df4b06339bdf7dc1fbe6b7baf7e4b1690698c20ed7ba3205",
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_example_output_bytes_are_pinned(tmp_path, capsys):
    out = tmp_path / "demo"
    assert main(["example", str(out)]) == 0
    assert {p.name: _sha256(p) for p in out.iterdir()} == EXAMPLE_SHA256
    assert capsys.readouterr().out == (
        "curve 1: FirstType\ncurve 2: SecondType\ncurve 3: Neither\n"
        "curve 1 max |numeric - closed form| = 1.115e-10\n"
        "curve 2 max |numeric - closed form| = 9.002e-11\n"
        "curve 3 max |numeric - closed form| = 7.728e-11\n"
    )


def test_repair_trajectory_bytes_are_pinned(tmp_path):
    # n 1024, Euler: the box [-2, 2]^2 minus the support of a unit segment at 30
    # degrees, where all 50 steps leave the cone and regularize repairs them
    n, u = 1024, [math.cos(math.radians(30.0)), math.sin(math.radians(30.0))]
    delta = -0.5 * np.abs(sf.DirectionGrid(n).directions @ u)
    path = write_json(tmp_path / "repair.json", {
        "grid_n": n, "T": 0.5, "h": 0.01, "method": "euler", "policy": "on_violation",
        "rhs": {"kind": "constant", "delta": delta.tolist()},
        "initial": {"box": [[-2, 2], [-2, 2]]},
        "output": {"trajectory": str(tmp_path / "repair.csv")},
    })
    assert main(["integrate", path]) == 0
    digest = "5365e7b15868d0150036eed96cf213ddf1ab3ab9c0197d58fefd3bde4d424c66"
    assert _sha256(tmp_path / "repair.csv") == digest


def test_example_tables_match_the_library_per_step(tmp_path):
    # the quotient gaps and both differential tables, bit for bit, against the
    # library on the frame curve of each written trajectory (%.17g reads back exactly)
    out = tmp_path / "demo"
    assert main(["example", str(out), "--h", "0.05"]) == 0
    grid = sf.DirectionGrid(64)
    for k in (1, 2, 3):
        traj = np.array(_table(out / f"curve{k}_trajectory.csv")[1], dtype=float)
        frames = _frame_indices(traj[:, 0], 0.25)
        states = traj[frames, 3:]
        curve = sf.SetCurve(grid, traj[frames, 0], states, tol=_drift_limit(states))
        steps = sf.classify_curve(curve)[1]
        header, rows = _table(out / f"curve{k}_classification.csv")
        assert header == ["step", "t", "class", "quotient_gap"]
        assert len(rows) == len(curve) - 2
        want = {"hukuhara": [], "second_type": []}
        for j, (step, t, cls, gap) in enumerate(rows, start=1):
            assert (int(step), float(t), cls) == (j, curve.times[j], str(steps[j - 1]))
            fwd, bwd = sf.difference_quotients(curve, j)
            assert float(gap) == (fwd - bwd).norm_inf
            delta = (fwd + bwd) * 0.5
            if sf.is_in_cone(delta.values, grid):
                want["hukuhara"].append([t, *sf.SupportSample(grid, delta.values).values])
            if (second := sf.second_type_differential(delta)) is not None:
                want["second_type"].append([t, *second.values])
        for kind, expected in want.items():
            path = out / f"curve{k}_{kind}_differentials.csv"
            assert path.exists() == bool(expected)
            if expected:
                got = np.array(_table(path)[1], dtype=float)
                assert np.array_equal(got, np.array(expected, dtype=float))


# -------------------------------------------------------------------------- check

def test_check_subtangent_ok(scenario):
    assert main(["check", "subtangent", scenario()]) == 0


def test_check_subtangent_witnesses(scenario, capsys):
    # the negated support of a box is tangent only where sigma has an edge at
    # each of its four normals: a point has none, and neither has its cone ball
    # (its shrunk draws are the point, its widened ones random polygons)
    grid = sf.DirectionGrid(64)
    box = sf.support_of_polygon(sf.ConvexPolygon.box((0, 1), (0, 1)), grid)
    path = scenario(
        rhs={"kind": "constant", "delta": (-box.values).tolist()},
        initial={"vertices": [[0.5, 0.5]]},
    )
    assert main(["check", "subtangent", path]) == 1
    assert capsys.readouterr().out == "subtangent: 40 infeasible points witnessed\n"


def test_check_subtangent_mixed_outcome(scenario, capsys):
    # the negated support of a small box is tangent at the initial box and at
    # most of its cone ball, but not at every draw: both lines print, and the
    # common interval is taken over the feasible points only
    grid = sf.DirectionGrid(64)
    box = sf.support_of_polygon(sf.ConvexPolygon.box((0, 0.5), (0, 0.5)), grid)
    path = scenario(rhs={"kind": "constant", "delta": (-box.values).tolist()}, r=2.0)
    assert main(["check", "subtangent", path]) == 1
    assert capsys.readouterr().out == (
        "subtangent: 33/40 feasible; common lambda interval [37.4006, inf]\n"
        "subtangent: 7 infeasible points witnessed\n"
    )


def test_check_osl_ok(scenario):
    assert main(["check", "osl", scenario()]) == 0


def test_check_osl_violation(scenario, tmp_path, capsys):
    path = scenario(
        rhs={"kind": "expand", "rate": 1.0},
        omega={"kind": "zero"},
        output={"witnesses": str(tmp_path / "wit.csv")},
    )
    assert main(["check", "osl", path]) == 1
    assert (tmp_path / "wit.csv").exists()
    assert "osl witness" in capsys.readouterr().out


def test_osl_witness_csv_prints_17_significant_digits(scenario, tmp_path, capsys):
    wit = tmp_path / "wit.csv"
    path = scenario(
        rhs={"kind": "expand", "rate": 1.0},
        omega={"kind": "zero"},
        output={"witnesses": str(wit)},
    )
    assert main(["check", "osl", path]) == 1
    assert capsys.readouterr().out == (
        "osl: 0/40 pairs satisfied\n"
        f"wrote {wit}\n"
        "osl witness: distance=2.09908 index=43 lhs=2.09908 bound=0\n"
    )
    header, *rows = wit.read_bytes().decode().split("\r\n")[:-1]
    assert header == "t,distance,direction_index,lhs,bound"
    assert len(rows) == 40
    for row in rows:
        fields = row.split(",")
        assert fields[2] == str(int(fields[2]))
        for field in fields[:2] + fields[3:]:
            assert field == "%.17g" % float(field)


def test_check_lipschitz(scenario, capsys):
    assert main(["check", "lipschitz", scenario()]) == 0
    assert "lipschitz estimate: 1" in capsys.readouterr().out


@pytest.mark.parametrize(
    "check, out",
    [
        ("subtangent", "subtangent: 40/40 feasible; common lambda interval [1, inf]\n"),
        ("lipschitz", "lipschitz estimate: 1 (declared 1)\n"),
    ],
)
def test_sampled_checks_without_initial_use_the_origin_ball(scenario, capsys, check, out):
    assert main(["check", check, _without(scenario(), "initial")]) == 0
    assert capsys.readouterr().out == out


def test_check_horizon(scenario, capsys):
    assert main(["check", "horizon", scenario()]) == 0
    out = capsys.readouterr().out
    assert "b = min(T, r/c)" in out


def test_check_horizon_degenerate_field(scenario, capsys):
    path = scenario(rhs={"kind": "constant", "delta": [0] * 64})
    assert main(["check", "horizon", path]) == 0
    assert capsys.readouterr().out == "horizon: field degenerate (c = 0), b = 1\n"


def test_check_bad_config(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["check", "osl", str(missing)]) == 2


def _check_scenarios(tmp_path):
    """12 seeded scenarios, grid_n 18, 64, 256 and 1000 under each rhs kind: random boxes,
    rates, deltas, omega rates and seeds, 100 samples, and a witness CSV path."""
    rng = np.random.default_rng(2024)

    def box():
        lo, size = rng.uniform(-3.0, 2.0, 2), rng.uniform(0.1, 3.0, 2)
        return {"box": [[lo[0], lo[0] + size[0]], [lo[1], lo[1] + size[1]]]}

    for n in (18, 64, 256, 1000):
        for kind in ("relax_to", "expand", "constant"):
            rhs = {"kind": kind}
            if kind == "relax_to":
                rhs["target"] = box()
            elif kind == "expand":
                rhs["rate"] = rng.uniform(-2.0, 2.0)
            else:
                rhs["delta"] = rng.normal(0.0, 0.5, n).tolist()
            witnesses = tmp_path / f"w_{n}_{kind}.csv"
            path = write_json(tmp_path / f"s_{n}_{kind}.json", {
                "grid_n": n, "T": 1.0, "h": 0.01, "rhs": rhs, "initial": box(),
                "omega": {"kind": "linear", "rate": rng.uniform(-1.5, 1.5)},
                "seed": int(rng.integers(2**31)), "samples": 100, "r": rng.uniform(0.1, 2.0),
                "output": {"witnesses": str(witnesses)},
            })
            yield path, witnesses


def test_check_output_bytes_are_pinned(tmp_path, capsys, monkeypatch):
    # sha256 of the exit code, stdout, stderr and witness CSV of every check on each
    # scenario above, with the seed taken from the scenario
    monkeypatch.delenv("SETFLOW_SEED", raising=False)
    digest = hashlib.sha256()
    for path, witnesses in _check_scenarios(tmp_path):
        for check in ("subtangent", "osl", "horizon", "lipschitz"):
            code = main(["check", check, path])
            out, err = capsys.readouterr()
            written = witnesses.read_bytes() if witnesses.exists() else b""
            digest.update(f"{code}\n{out.replace(str(tmp_path), 'TMP')}\n{err}\n".encode())
            digest.update(written)
    assert digest.hexdigest() == "9897ea72feffb6237790184e72db6f8f3594aaa97133f51033ce6ff03169d3da"


# ---------------------------------------------------------------------- hausdorff

def test_hausdorff_cmd(tmp_path, capsys):
    a = write_json(tmp_path / "a.json", {"box": [[2, 3], [1, 2]]})
    b = write_json(tmp_path / "b.json", {"vertices": [[-1, -1], [1, -1], [1, 1], [-1, 1]]})
    assert main(["hausdorff", a, b, "--n", "1024"]) == 0
    out = capsys.readouterr().out
    exact = float(out.splitlines()[1].split(":")[1])
    assert exact == pytest.approx(np.sqrt(13), abs=1e-9)


def test_hausdorff_identical_sets(tmp_path, capsys):
    a = write_json(tmp_path / "a.json", {"box": [[0, 1], [0, 1]]})
    assert main(["hausdorff", a, a]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert float(lines[0].split(":")[1]) == 0.0
    assert float(lines[1].split(":")[1]) == 0.0


def _hausdorff_pairs():
    """50 seeded set pairs, then the two box pairs above.  Points, segments and polygons of
    3 to 9 vertices at scales 1e-3 .. 1e3: unrelated, one shrunk into the other, or shifted."""
    rng = np.random.default_rng(1508)
    pairs = []
    for k in range(50):
        scale = 10.0 ** int(rng.integers(-3, 4))
        p = scale * rng.uniform(-1.0, 1.0, (int(rng.integers(1, 10)), 2))
        if k % 3 == 0:
            q = scale * rng.uniform(-1.0, 1.0, (int(rng.integers(1, 10)), 2))
        elif k % 3 == 1:
            c = p.mean(axis=0)
            q = c + rng.uniform(0.0, 0.9) * (p - c)
        else:
            q = p + 0.1 * scale * rng.uniform(-1.0, 1.0, 2)
        pairs.append(({"vertices": p.tolist()}, {"vertices": q.tolist()}))
    square = {"vertices": [[-1, -1], [1, -1], [1, 1], [-1, 1]]}
    return pairs + [({"box": [[2, 3], [1, 2]]}, square), ({"box": [[0, 1], [0, 1]]},) * 2]


def test_hausdorff_output_bytes_are_pinned(tmp_path, capsys):
    # sha256 of the stdout of `setflow hausdorff` on every pair at --n 8, 64, 256 and 1024
    digest = hashlib.sha256()
    for k, (a, b) in enumerate(_hausdorff_pairs()):
        a, b = write_json(tmp_path / f"a{k}.json", a), write_json(tmp_path / f"b{k}.json", b)
        for n in (8, 64, 256, 1024):
            assert main(["hausdorff", a, b, "--n", str(n)]) == 0
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == "61b38ee103129b4ba4f008e12747a7990d65d1a9367cf49c20e8ca60117282e3"


def test_hausdorff_of_a_thin_reconstruction(tmp_path, capsys):
    # the 4,096 corners of the ellipse of semi-axes 2 and 0.01 at n = 4096: ordered by dedup
    # cell, their hull wound, and the command exited 3; the box's farthest point is the tip
    grid = sf.DirectionGrid(4096)
    u = grid.directions
    corners = sf.support._line_corners(np.hypot(2.0 * u[:, 0], 0.01 * u[:, 1]), grid)
    thin = write_json(tmp_path / "thin.json", {"vertices": corners.tolist()})
    box = write_json(tmp_path / "box.json", {"box": [[-1, 1], [-0.001, 0.001]]})
    assert main(["hausdorff", thin, box, "--n", "64"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.splitlines()[1] == "exact: 1"


def test_hausdorff_parse_failure(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1,2")
    good = write_json(tmp_path / "g.json", {"box": [[0, 1], [0, 1]]})
    assert main(["hausdorff", str(bad), good]) == 2


# ------------------------------------------------------------- exit-code contract

def _box_file(tmp_path):
    return write_json(tmp_path / "a.json", {"box": [[0, 1], [0, 1]]})


def _set_file(tmp_path, obj):
    return write_json(tmp_path / "s.json", obj)


def _raw_file(tmp_path, data):
    path = tmp_path / "raw.json"
    path.write_bytes(data)
    return str(path)


def _frames(tmp_path, spacing):
    return {"trajectory": str(tmp_path / "t.csv"), "frame_spacing": spacing}


CONTRACT_CASES = {
    # name: (argv built from the scenario factory and tmp_path, env, exit code)
    "seed_not_an_integer": (
        lambda scen, tmp: ["check", "lipschitz", scen()], {"SETFLOW_SEED": "abc"}, 2
    ),
    "hausdorff_grid_too_small": (
        lambda scen, tmp: ["hausdorff", _box_file(tmp), _box_file(tmp), "--n", "2"], {}, 2
    ),
    "example_grid_too_small": (
        lambda scen, tmp: ["example", str(tmp / "out"), "--grid-n", "2"], {}, 2
    ),
    "example_grid_odd": (
        lambda scen, tmp: ["example", str(tmp / "out"), "--grid-n", "63"], {}, 2
    ),
    "example_step_not_positive": (
        lambda scen, tmp: ["example", str(tmp / "out"), "--h", "0"], {}, 2
    ),
    "output_not_an_object": (lambda scen, tmp: ["integrate", scen(output="x")], {}, 2),
    "samples_negative": (
        lambda scen, tmp: ["check", "subtangent", scen(samples=-5)], {}, 2
    ),
    "trajectory_unwritable": (
        lambda scen, tmp: [
            "integrate", scen(output={"trajectory": str(tmp / "missing" / "t.csv")})
        ],
        {},
        4,
    ),
    "T_nan": (lambda scen, tmp: ["integrate", scen(T=math.nan)], {}, 2),
    "T_not_a_number": (lambda scen, tmp: ["integrate", scen(T="abc")], {}, 2),
    "T_null": (lambda scen, tmp: ["integrate", scen(T=None)], {}, 2),
    "T_infinite": (lambda scen, tmp: ["integrate", scen(T=math.inf)], {}, 2),
    "step_count_over_limit": (lambda scen, tmp: ["integrate", scen(T=1e300, h=0.1)], {}, 2),
    "example_step_count_over_limit": (
        lambda scen, tmp: ["example", str(tmp / "out"), "--h", "1e-300"], {}, 2
    ),
    "expand_rate_not_a_number": (
        lambda scen, tmp: ["integrate", scen(rhs={"kind": "expand", "rate": "x"})], {}, 2
    ),
    "expand_rate_nan": (
        lambda scen, tmp: ["integrate", scen(rhs={"kind": "expand", "rate": math.nan})],
        {},
        2,
    ),
    "constant_delta_not_numbers": (
        lambda scen, tmp: ["integrate", scen(rhs={"kind": "constant", "delta": ["x"] * 64})],
        {},
        2,
    ),
    "constant_delta_nan": (
        lambda scen, tmp: [
            "integrate", scen(rhs={"kind": "constant", "delta": [math.nan] * 64})
        ],
        {},
        2,
    ),
    "config_seed_not_an_integer": (
        lambda scen, tmp: ["check", "lipschitz", scen(seed="abc")], {}, 2
    ),
    "samples_not_an_integer": (
        lambda scen, tmp: ["check", "subtangent", scen(samples="x")], {}, 2
    ),
    "r_not_a_number": (lambda scen, tmp: ["check", "horizon", scen(r="x")], {}, 2),
    "r_negative": (lambda scen, tmp: ["check", "horizon", scen(r=-1)], {}, 2),
    "r_overflows_its_range": (lambda scen, tmp: ["check", "horizon", scen(r=1e308)], {}, 2),
    "filmstrip_of_drifted_states": (lambda scen, tmp: ["integrate", _drifting(scen, tmp)], {}, 3),
    "omega_not_an_object": (lambda scen, tmp: ["check", "osl", scen(omega=5)], {}, 2),
    "omega_rate_not_a_number": (
        lambda scen, tmp: ["check", "osl", scen(omega={"kind": "linear", "rate": "x"})],
        {},
        2,
    ),
    "frame_spacing_not_a_number": (
        lambda scen, tmp: ["integrate", scen(output=_frames(tmp, "x"))], {}, 2
    ),
    "frame_spacing_zero": (lambda scen, tmp: ["integrate", scen(output=_frames(tmp, 0))], {}, 2),
    "frame_spacing_too_fine": (
        lambda scen, tmp: ["integrate", scen(output=_frames(tmp, 1e-300))], {}, 2
    ),
    "trajectory_path_a_descriptor": (
        lambda scen, tmp: ["integrate", scen(output={"trajectory": 7})], {}, 2
    ),
    "trajectory_path_stdout": (
        lambda scen, tmp: ["integrate", scen(output={"trajectory": 1})], {}, 2
    ),
    "filmstrip_path_not_a_string": (
        lambda scen, tmp: ["integrate", scen(output={**_frames(tmp, 0.5), "filmstrip": 1})],
        {},
        2,
    ),
    "support_path_not_a_string": (
        lambda scen, tmp: ["integrate", scen(output={**_frames(tmp, 0.5), "support": ["s"]})],
        {},
        2,
    ),
    "witnesses_path_not_a_string": (
        lambda scen, tmp: [
            "check",
            "osl",
            scen(rhs={"kind": "expand", "rate": 1.0}, omega={"kind": "zero"},
                 output={"witnesses": 7}),
        ],
        {},
        2,
    ),
    # memory-heavy at the parent: these exhaust memory instead of exiting 2
    "grid_n_over_limit": (lambda scen, tmp: ["integrate", scen(grid_n=400_000_000)], {}, 2),
    "example_grid_over_limit": (
        lambda scen, tmp: ["example", str(tmp / "out"), "--grid-n", "400000000"], {}, 2
    ),
    "hausdorff_grid_over_limit": (
        lambda scen, tmp: [
            "hausdorff", _box_file(tmp), _box_file(tmp), "--n", "400000001"
        ],
        {},
        2,
    ),
    "stored_floats_over_limit": (
        lambda scen, tmp: ["integrate", scen(grid_n=65_536, T=100.0, h=1e-3)], {}, 2
    ),
    # at the parent these run until killed (lipschitz, subtangent) or hold 525 MB (horizon)
    "samples_over_limit_lipschitz": (
        lambda scen, tmp: ["check", "lipschitz", scen(samples=10**12)], {}, 2
    ),
    "samples_over_limit_subtangent": (
        lambda scen, tmp: ["check", "subtangent", scen(samples=10**12)], {}, 2
    ),
    "samples_times_grid_n_over_limit": (
        lambda scen, tmp: ["check", "horizon", scen(grid_n=65_536, samples=1000)], {}, 2
    ),
    "example_stored_floats_over_limit": (
        lambda scen, tmp: ["example", str(tmp / "out"), "--grid-n", "65536", "--h", "1e-4"],
        {},
        2,
    ),
    "hausdorff_vertices_not_pairs": (
        lambda scen, tmp: [
            "hausdorff", _set_file(tmp, {"vertices": [[1, 2, 3], [4, 5, 6]]}), _box_file(tmp)
        ],
        {},
        2,
    ),
    "initial_vertices_nested": (
        lambda scen, tmp: ["integrate", scen(initial={"vertices": [[[1, 2]], [[3, 4]]]})], {}, 2
    ),
    "grid_n_not_integral": (lambda scen, tmp: ["integrate", scen(grid_n=4.5)], {}, 2),
    "samples_not_integral": (lambda scen, tmp: ["check", "subtangent", scen(samples=2.7)], {}, 2),
    "seed_a_bool": (lambda scen, tmp: ["check", "lipschitz", scen(seed=True)], {}, 2),
    # at the parent these overflow: a wrong distance, a bogus witness, warnings or a traceback
    "hausdorff_coordinates_over_magnitude": (
        lambda scen, tmp: [
            "hausdorff",
            _set_file(tmp, {"vertices": [[1e308, 0], [-1e308, 0], [0, 1e308]]}),
            _box_file(tmp),
        ],
        {},
        2,
    ),
    "target_coordinates_over_magnitude": (
        lambda scen, tmp: [
            "check",
            "osl",
            scen(rhs={"kind": "relax_to", "target": {"box": [[-1.7e308, 1.7e308], [-1, 1]]}}),
        ],
        {},
        2,
    ),
    "initial_coordinates_over_magnitude": (
        lambda scen, tmp: [
            "check", "horizon", scen(initial={"vertices": [[1.7e308, 1.7e308]]})
        ],
        {},
        2,
    ),
    "r_over_magnitude": (lambda scen, tmp: ["check", "horizon", scen(r=5e307)], {}, 2),
    "config_not_utf8": (
        lambda scen, tmp: ["integrate", _raw_file(tmp, b'{"grid_n": "\xff"}')], {}, 2
    ),
    "config_nested_too_deep": (
        lambda scen, tmp: ["integrate", _raw_file(tmp, b"[" * 100_000 + b"]" * 100_000)], {}, 2
    ),
    # at the parent a negative seed is a ValueError traceback (exit 1)
    "seed_negative": (lambda scen, tmp: ["check", "lipschitz", scen(seed=-1)], {}, 2),
    "env_seed_negative": (
        lambda scen, tmp: ["check", "lipschitz", scen()], {"SETFLOW_SEED": "-5"}, 2
    ),
    # at the parent these overflow and exit 0 or 1: c = inf, a bogus witness, warnings
    "expand_rate_over_magnitude": (
        lambda scen, tmp: ["check", "horizon", scen(rhs={"kind": "expand", "rate": 1e308})],
        {},
        2,
    ),
    "constant_delta_over_magnitude": (
        lambda scen, tmp: [
            "check", "subtangent", scen(rhs={"kind": "constant", "delta": [1e308] * 64})
        ],
        {},
        2,
    ),
    "omega_rate_over_magnitude": (
        lambda scen, tmp: ["check", "osl", scen(omega={"kind": "linear", "rate": -1e308})],
        {},
        2,
    ),
    # at the parent these run as T = 1 and h = 0.5 (exit 0), or overflow float() (exit 1)
    "T_a_bool": (lambda scen, tmp: ["integrate", scen(T=True)], {}, 2),
    "h_a_numeric_string": (lambda scen, tmp: ["integrate", scen(h="0.5")], {}, 2),
    "T_integer_beyond_float_range": (lambda scen, tmp: ["integrate", scen(T=10**400)], {}, 2),
    # set coordinates and delta entries are JSON numbers: not strings or bools, and
    # an integer beyond the float range is refused rather than overflowing float()
    "vertex_a_numeric_string": (
        lambda scen, tmp: ["integrate", scen(initial={"vertices": [["0", 0], [1, 0], [0, 1]]})],
        {},
        2,
    ),
    "box_coordinate_a_bool": (
        lambda scen, tmp: ["integrate", scen(initial={"box": [[0, 1], [0, True]]})], {}, 2
    ),
    "target_coordinate_a_numeric_string": (
        lambda scen, tmp: [
            "check", "osl", scen(rhs={"kind": "relax_to", "target": {"box": [["-1", 1], [-1, 1]]}})
        ],
        {},
        2,
    ),
    "vertex_integer_beyond_float_range": (
        lambda scen, tmp: ["integrate", scen(initial={"vertices": [[10**400, 0], [0, 1]]})],
        {},
        2,
    ),
    "constant_delta_numeric_string": (
        lambda scen, tmp: [
            "integrate", scen(rhs={"kind": "constant", "delta": ["0.5"] + [0.5] * 63})
        ],
        {},
        2,
    ),
    "constant_delta_bool": (
        lambda scen, tmp: ["integrate", scen(rhs={"kind": "constant", "delta": [True] * 64})],
        {},
        2,
    ),
    "constant_delta_not_a_list": (
        lambda scen, tmp: ["integrate", scen(rhs={"kind": "constant", "delta": 5})], {}, 2
    ),
    "constant_delta_integer_beyond_float_range": (
        lambda scen, tmp: [
            "integrate", scen(rhs={"kind": "constant", "delta": [10**400] + [0] * 63})
        ],
        {},
        2,
    ),
    # each rule of the scenario and set readers, and a demo curve that truncates
    "integrate_without_initial": (
        lambda scen, tmp: ["integrate", _without(scen(), "initial")], {}, 2
    ),
    "horizon_without_initial": (
        lambda scen, tmp: ["check", "horizon", _without(scen(), "initial")], {}, 2
    ),
    "set_not_an_object": (lambda scen, tmp: ["integrate", scen(initial=5)], {}, 2),
    "box_bounds_unordered": (
        lambda scen, tmp: ["integrate", scen(initial={"box": [[1, 0], [0, 1]]})], {}, 2
    ),
    "config_root_not_an_object": (
        lambda scen, tmp: ["integrate", _raw_file(tmp, b"[1, 2]")], {}, 2
    ),
    "policy_unknown": (lambda scen, tmp: ["integrate", scen(policy="sometimes")], {}, 2),
    "rhs_without_kind": (lambda scen, tmp: ["integrate", scen(rhs={"rate": 1.0})], {}, 2),
    "relax_to_without_target": (
        lambda scen, tmp: ["integrate", scen(rhs={"kind": "relax_to"})], {}, 2
    ),
    "constant_delta_wrong_length": (
        lambda scen, tmp: ["integrate", scen(rhs={"kind": "constant", "delta": [0.5] * 3})],
        {},
        2,
    ),
    # the grid check at an expand rate near the cap: no overflow, no nan, a plain verdict
    "osl_expand_rate_near_the_cap": (
        lambda scen, tmp: [
            "check", "osl", scen(rhs={"kind": "expand", "rate": 9e99}, omega={"kind": "zero"})
        ],
        {},
        1,
    ),
    "osl_shrink_rate_near_the_cap": (
        lambda scen, tmp: [
            "check", "osl", scen(rhs={"kind": "expand", "rate": -9e99}, omega={"kind": "zero"})
        ],
        {},
        0,
    ),
    # a large field value that cancels in f(x) - f(y) must not widen the verdict's slack:
    # d = 0 against a bound of -|x - y|, and d = -(x - y) against -2 |x - y|, both violate
    "osl_large_constant_delta_against_a_negative_omega": (
        lambda scen, tmp: [
            "check", "osl",
            scen(rhs={"kind": "constant", "delta": [1e10] * 64},
                 omega={"kind": "linear", "rate": -1.0}),
        ],
        {},
        1,
    ),
    "osl_far_relax_target_against_a_steeper_omega": (
        lambda scen, tmp: [
            "check", "osl",
            scen(rhs={"kind": "relax_to", "target": {"box": [[1e10, 1e10 + 1]] * 2}},
                 omega={"kind": "linear", "rate": -2.0}),
        ],
        {},
        1,
    ),
    "omega_kind_unknown": (
        lambda scen, tmp: ["check", "osl", scen(omega={"kind": "quadratic"})], {}, 2
    ),
    "example_curve_truncates": (
        lambda scen, tmp: ["example", str(tmp / "out"), "--h", "4"], {}, 3
    ),
    "witnesses_unwritable": (
        lambda scen, tmp: [
            "check",
            "osl",
            scen(
                rhs={"kind": "expand", "rate": 1.0},
                omega={"kind": "zero"},
                output={"witnesses": str(tmp / "missing" / "w.csv")},
            ),
        ],
        {},
        4,
    ),
}


CAP = 1e100  # formats.MAX_MAGNITUDE
CAP_BOX = {"box": [[-CAP, CAP], [-CAP, CAP]]}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("check", ["lipschitz", "horizon", "osl", "subtangent"])
@pytest.mark.parametrize(
    "rhs",
    [
        {"kind": "expand", "rate": CAP},
        {"kind": "constant", "delta": [CAP] * 256},
        {"kind": "relax_to", "target": CAP_BOX},
    ],
    ids=["expand", "constant", "relax_to"],
)
def test_checks_are_warning_free_at_the_caps(scenario, check, rhs):
    # every capped value at exactly MAX_MAGNITUDE: no overflow, no warning, exit 0
    path = scenario(
        grid_n=256, rhs=rhs, omega={"kind": "linear", "rate": CAP}, r=CAP, initial=CAP_BOX
    )
    assert main(["check", check, path]) == 0


def test_lipschitz_estimate_does_not_cancel_at_the_caps(scenario, capsys):
    # pairs from the cone ball of radius 1e100 differ at its scale, so
    # f(a) - f(b) = (target - a) - (target - b) keeps its size, not 0
    path = scenario(
        grid_n=256, rhs={"kind": "relax_to", "target": CAP_BOX},
        omega={"kind": "linear", "rate": CAP}, r=CAP, initial=CAP_BOX,
    )
    assert main(["check", "lipschitz", path]) == 0
    assert capsys.readouterr().out == "lipschitz estimate: 1 (declared 1)\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rate", [CAP, -CAP], ids=["growing", "shrinking"])
def test_integrate_overflow_is_reported_only_by_its_exit_line(scenario, capsys, rate):
    path = scenario(
        grid_n=16, T=0.2, h=0.05, rhs={"kind": "expand", "rate": rate},
        initial={"box": [[0, 1], [0, 1]]},
    )
    assert main(["integrate", path]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == "integration"


def test_integrate_keeps_huge_valid_states(scenario, tmp_path):
    # Euler at rate 1 grows the box 1.5-fold per step, to 1.3e308 at T: the sums in its
    # margins overflow, and every residual must still be a number within the drift limit;
    # the filmstrip's span overflowed to inf, so every coordinate it wrote was nan, and the
    # hull of 4 of its 7 frames was a diagonal
    path = scenario(
        grid_n=16, T=590.5, h=0.5, method="euler", rhs={"kind": "expand", "rate": 1.0},
        initial={"box": [[-1e100, 1e100], [-1e100, 1e100]]},
        output={"trajectory": str(tmp_path / "traj.csv"), "filmstrip": str(tmp_path / "f.svg"),
                "support": str(tmp_path / "s.svg"), "frame_spacing": 100},
    )
    assert main(["integrate", path]) == 0
    assert "nan" not in (tmp_path / "traj.csv").read_text()
    _, rows = _table(tmp_path / "traj.csv")
    table = np.array(rows, dtype=float)
    assert len(table) == 1182 and np.abs(table[:, 3:]).max() > 1e308
    assert np.all(table[:, 1] <= _drift_limit(table[:, 3:]))
    assert "nan" not in (tmp_path / "f.svg").read_text() + (tmp_path / "s.svg").read_text()
    polys = ET.parse(tmp_path / "f.svg").getroot().findall(".//{http://www.w3.org/2000/svg}polygon")
    assert [len(p.get("points").split()) for p in polys] == [4] * 7


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(CONTRACT_CASES))
def test_bad_input_exit_code_and_one_json_line(
    case, scenario, tmp_path, capsys, monkeypatch
):
    build, env, code = CONTRACT_CASES[case]
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    argv = build(scenario, tmp_path)
    capsys.readouterr()
    assert main(argv) == code
    out, err = capsys.readouterr()
    if code <= 1:  # a run that finished: a verdict on stdout, nothing on stderr
        assert err == ""
        assert code == 1 or "nan" not in out
        return
    lines = err.splitlines()
    assert len(lines) == 1
    assert "error" in json.loads(lines[0])


def test_only_main_turns_an_error_into_an_exit_code():
    """A command or check returns 0, 1 or what a call returns; codes 2, 3 and 4 come
    from main alone, which maps each raised error to one."""
    tree = ast.parse(Path(cli.__file__).read_text())
    handlers = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name.startswith(("cmd_", "_check_"))]
    assert len(handlers) == len(CHECKS) + 4  # the four commands and every check

    def allowed(value):  # a call, or the literal 0 or 1 (not True or False)
        return isinstance(value, ast.Call) or (
            isinstance(value, ast.Constant) and repr(value.value) in ("0", "1"))

    bad = [(fn.name, node.lineno) for fn in handlers for node in ast.walk(fn)
           if isinstance(node, ast.Return) and not allowed(node.value)]
    assert bad == []


@settings(max_examples=200)
@given(st.floats(0.05, 6.0), st.sampled_from(METHODS), st.integers(2, 32))
def test_example_exits_0_or_3_with_one_json_line(tmp_path_factory, h, method, half_n):
    """A long step can overshoot the target so far that a repair finds the halfplane
    intersection empty: that is exit 3, named by curve, and nothing is written."""
    out, err = tmp_path_factory.mktemp("example") / "demo", io.StringIO()
    argv = ["example", str(out), "--h", repr(h), "--method", method, "--grid-n", str(2 * half_n)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 3)
    if code == 0:
        assert err.getvalue() == ""
        return
    line, = err.getvalue().splitlines()
    report = json.loads(line)
    assert sorted(report) == ["error", "message"] and report["error"] == "integration"
    t = re.fullmatch(r"curve [123]: empty halfplane intersection at t = (\S+)", report["message"])
    assert t and 0.0 < float(t[1]) <= 4.0
    assert not out.exists()
