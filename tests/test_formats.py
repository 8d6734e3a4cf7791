import json
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

import setflow as sf
from setflow import formats, svg

G64 = sf.DirectionGrid(64)
Q = sf.ConvexPolygon.box((-1, 1), (-1, 1))


def test_box_shorthand():
    p = formats.parse_set({"box": [[2, 3], [1, 2]]})
    assert sf.hausdorff_exact(p, sf.ConvexPolygon.box((2, 3), (1, 2))) < 1e-12


def test_bad_set_rejected():
    with pytest.raises(sf.ConfigError):
        formats.parse_set({"circle": 1})


def test_trajectory_csv_layout(tmp_path):
    f = sf.relax_to(sf.support_of_polygon(Q, G64))
    traj = sf.integrate(f, sf.support_of_polygon(Q, G64), T=0.2, h=0.1)
    path = tmp_path / "traj.csv"
    formats.write_trajectory_csv(traj, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",")[:3] == ["t", "residual", "regularized"]
    assert len(lines) == len(traj) + 1
    assert len(lines[1].split(",")) == 3 + 64


def test_scenario_validation(tmp_path):
    good = {
        "grid_n": 16,
        "T": 1.0,
        "h": 0.1,
        "rhs": {"kind": "relax_to", "target": {"box": [[-1, 1], [-1, 1]]}},
        "initial": {"box": [[0, 1], [0, 1]]},
    }
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(good))
    cfg = formats.load_scenario(path)
    assert cfg.grid.n == 16 and cfg.method == "rk4"

    for mutation, code in [
        ({"grid_n": 15}, "bad_value"),
        ({"h": -0.1}, "bad_value"),
        ({"T": 0}, "bad_value"),
        ({"method": "rk9"}, "bad_value"),
        ({"rhs": {"kind": "mystery"}}, "bad_value"),
    ]:
        bad = dict(good, **mutation)
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(bad))
        with pytest.raises(sf.ConfigError) as exc:
            formats.load_scenario(bad_path)
        assert exc.value.code == code


def test_integral_floats_are_integers(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "grid_n": 16.0, "T": 1.0, "h": 0.1, "rhs": {"kind": "expand"}, "samples": 5.0, "seed": 7.0
    }))
    cfg = formats.load_scenario(path)
    assert (cfg.grid.n, cfg.samples, cfg.seed) == (16, 5, 7)
    assert all(type(v) is int for v in (cfg.grid.n, cfg.samples, cfg.seed))


def test_scenario_missing_key(tmp_path):
    path = tmp_path / "missing.json"
    path.write_text(json.dumps({"grid_n": 16}))
    with pytest.raises(sf.ConfigError) as exc:
        formats.load_scenario(path)
    assert exc.value.code == "missing_key"


def test_seed_resolution(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "grid_n": 16,
                "T": 1.0,
                "h": 0.1,
                "rhs": {"kind": "expand", "rate": 1.0},
                "seed": 5,
            }
        )
    )
    cfg = formats.load_scenario(cfg_path)
    assert formats.resolve_seed(cfg) == 5
    monkeypatch.setenv("SETFLOW_SEED", "99")
    assert formats.resolve_seed(cfg) == 99


# -------------------------------------------------------------------------- svg

def test_filmstrip_one_polygon_per_frame(tmp_path):
    frames = [
        (t, sf.reconstruct_polygon(sf.relaxation_closed_form(
            sf.ConvexPolygon.box((2, 3), (1, 2)), Q, t, G64)))
        for t in (0.0, 0.5, 1.0)
    ]
    path = tmp_path / "film.svg"
    svg.polygon_filmstrip(frames, path, title="demo")
    root = ET.parse(path).getroot()
    polys = root.findall(".//{http://www.w3.org/2000/svg}polygon")
    assert len(polys) == 3


def test_profiles_one_polyline_per_frame(tmp_path):
    s = sf.support_of_polygon(Q, G64)
    frames = [(0.0, s.values), (1.0, s.values)]
    path = tmp_path / "prof.svg"
    svg.support_profiles(frames, G64.angles, path)
    root = ET.parse(path).getroot()
    lines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
    assert len(lines) == 2


def test_profiles_of_a_set_spanning_the_float_range(tmp_path):
    # values from -1.1e308 to 1.8e308: their span overflowed, and numpy warned
    grid = sf.DirectionGrid(16)
    s = sf.support_of_polygon(sf.ConvexPolygon.box((1e308, 1.5e308), (-1e308, -0.5e308)), grid)
    path = tmp_path / "prof.svg"
    svg.support_profiles([(0.0, s.values)], grid.angles, path)
    root = ET.parse(path).getroot()
    (line,) = root.findall(".//{http://www.w3.org/2000/svg}polyline")
    ys = [float(p.split(",")[1]) for p in line.get("points").split()]
    top, height = 34.0, 272.0  # the plot box: y0 and plot_h
    assert len(ys) == 16 and min(ys) == top and max(ys) == top + height
    # the zero line sits where 0 falls between the least and the greatest value
    (zero,) = root.findall(".//{http://www.w3.org/2000/svg}line")
    lo, hi = Fraction(float(s.values.min())), Fraction(float(s.values.max()))
    assert abs(float(zero.get("y1")) - (top + height * float(hi / (hi - lo)))) <= 0.05
