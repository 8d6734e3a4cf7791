"""File formats: JSON set exchange, CSV trajectories and value tables, scenarios."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    METHODS,
    POLICIES,
    GrowthFunction,
    RhsField,
    Trajectory,
    constant_field,
    expansion_field,
    linear_growth,
    relax_to,
    zero_growth,
)
from .errors import ConfigError, GridMismatch
from .sampling import DEFAULT_SEED
from .support import (
    ConvexPolygon,
    DirectionGrid,
    SupportDelta,
    support_of_polygon,
)

FLOAT_FMT = "%.17g"
# Most steps, ceil(T / h), and SVG frames, T / frame_spacing, a scenario or the
# demo may ask for: integrate stores every state, so this bounds time and memory.
MAX_STEPS = 1_000_000
# Largest grid_n of a scenario, example --grid-n and hausdorff --n, and most floats
# integrate may allocate up front, (ceil(T / h) + 1) * grid_n * curves (256 MiB).
MAX_GRID_N = 65_536
MAX_STORED_FLOATS = 1 << 25
# Most samples a check may draw; samples * grid_n is also capped by MAX_STORED_FLOATS.
# The subtangent, osl, horizon and lipschitz checks hold a few stacks of that many floats at
# once (tracemalloc: 6x subtangent and osl, 4x horizon, 3x lipschitz): 1-1.5 GiB at the cap.
MAX_SAMPLES = 100_000
# Largest magnitude of a set coordinate, of r and of a field parameter (rhs.rate,
# rhs.delta, omega.rate): far below the float range, so the sums, differences,
# squares and field values built from them cannot overflow.
MAX_MAGNITUDE = 1e100
_CAPPED = f"at most MAX_MAGNITUDE = {MAX_MAGNITUDE:g} in size"


# ---------------------------------------------------------------- JSON payloads

def _points(values) -> np.ndarray:
    """values as a (k, 2) float array; each coordinate passes _number(capped=True)."""
    pts = np.asarray(values, dtype=object)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"need shape (k, 2), got {pts.shape}")
    return np.array([_number(x, "set coordinate", capped=True) for x in pts.flat]).reshape(-1, 2)


def parse_set(obj) -> ConvexPolygon:
    """Build a polygon from {"vertices": [[x,y],...]} or {"box": [[a,b],[c,d]]}."""
    if not isinstance(obj, dict):
        raise ConfigError("bad_set", f"set descriptor must be an object, got {type(obj).__name__}")
    if "vertices" in obj:
        try:
            return ConvexPolygon.from_points(_points(obj["vertices"]))
        except (ValueError, TypeError) as exc:
            raise ConfigError("bad_set", f"bad vertex list: {exc}") from exc
    if "box" in obj:
        box = obj["box"]
        try:
            xr, yr = _points(box)
            return ConvexPolygon.box(xr, yr)
        except (ValueError, TypeError) as exc:
            raise ConfigError("bad_set", f"bad box descriptor {box!r}: {exc}") from exc
    raise ConfigError("bad_set", "set descriptor needs 'vertices' or 'box'")


def _read_json(path, what: str):
    """The JSON document at path; a file that cannot be read or parsed is a ConfigError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError("io", f"cannot read {what} {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nested too deep
        raise ConfigError("bad_json", f"{path}: {exc}") from exc


def load_set(path) -> ConvexPolygon:
    return parse_set(_read_json(path, "set file"))


# ------------------------------------------------------------------- CSV output

def _write_table(path, header, specs, rows) -> None:
    """Stream a CSV table: the header, then each row tuple printed with the %-specs.

    csv's default dialect less the quoting no field needs (FLOAT_FMT prints no
    comma or quote): comma-separated, CRLF line ends.  Lines are written as
    they are formatted, so the text of the whole table is never in memory.
    """
    line = ",".join(specs) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(line % row for row in rows)


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """One row per stored step: t, residual, regularized, v0..v{n-1}."""
    n = traj.grid.n
    steps = zip(
        traj.times.tolist(), traj.residuals.tolist(), traj.regularized.tolist(), traj.states
    )
    _write_table(
        path,
        ["t", "residual", "regularized"] + [f"v{i}" for i in range(n)],
        [FLOAT_FMT, FLOAT_FMT, "%d"] + [FLOAT_FMT] * n,
        ((t, r, g, *v.tolist()) for t, r, g, v in steps),
    )


def write_values_csv(times, rows, path) -> None:
    """Generic t, v0..v{n-1} table for deltas and differentials, rows of one length."""
    rows = [np.asarray(getattr(r, "values", r), dtype=float) for r in rows]
    n = len(rows[0]) if rows else 0
    _write_table(
        path,
        ["t"] + [f"v{i}" for i in range(n)],
        [FLOAT_FMT] * (n + 1),
        ((float(t), *r.tolist()) for t, r in zip(times, rows)),
    )


# -------------------------------------------------------------- scenario config

@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario file parsed into the objects it names, driving the CLI front end."""

    grid: DirectionGrid
    T: float
    h: float
    method: str
    policy: str
    field: RhsField
    omega: GrowthFunction
    initial: ConvexPolygon | None
    output: dict
    seed: int | None
    samples: int
    r: float


def _require(obj: dict, key: str):
    if key not in obj:
        raise ConfigError("missing_key", f"config needs '{key}'")
    return obj[key]


def _integer(value, name: str) -> int:
    """value as an int: a JSON integer, or a float with an integral value; never a bool."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError("bad_value", f"{name} must be an integer, got {value!r}")
    return value


def _number(value, name: str, positive: bool = False, capped: bool = False) -> float:
    """value as a finite float from a JSON number (never a bool or a string).

    Also > 0 when positive, and at most MAX_MAGNITUDE in size when capped.
    """
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError("bad_value", f"{name} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError as exc:  # an integer beyond the float range
        raise ConfigError("bad_value", f"{name} must be finite, got {value!r}") from exc
    if not math.isfinite(x) or (positive and x <= 0):
        rule = "positive and finite" if positive else "finite"
        raise ConfigError("bad_value", f"{name} must be {rule}, got {value!r}")
    if capped and abs(x) > MAX_MAGNITUDE:
        raise ConfigError("bad_value", f"{name} must be {_CAPPED}, got {value!r}")
    return x


def _seed(value, name: str) -> int:
    """value as a seed: a non-negative integer."""
    seed = _integer(value, name)
    if seed < 0:
        raise ConfigError("bad_value", f"{name} must be non-negative, got {seed}")
    return seed


def _check_steps(T: float, h: float, name: str = "h") -> None:
    """Reject a grid on [0, T] with spacing h of more than MAX_STEPS steps, ceil(T/h)."""
    if T / h > MAX_STEPS:
        message = f"T/{name} = {T / h:.6g} exceeds MAX_STEPS = {MAX_STEPS}"
        raise ConfigError("bad_value", message)


def _check_storage(T: float, h: float, grid_n: int, curves: int = 1) -> None:
    """_check_steps, then reject storing (ceil(T/h) + 1) * grid_n * curves > MAX_STORED_FLOATS."""
    _check_steps(T, h)
    if (stored := (math.ceil(T / h) + 1) * grid_n * curves) > MAX_STORED_FLOATS:
        message = f"a run storing {stored} floats exceeds MAX_STORED_FLOATS = {MAX_STORED_FLOATS}"
        raise ConfigError("bad_value", message)


def parse_grid_n(value) -> int:
    """Grid size of a scenario or the demo: even (antipodes are used), 4..MAX_GRID_N."""
    n = _integer(value, "grid_n")
    if not 4 <= n <= MAX_GRID_N or n % 2 != 0:
        raise ConfigError("bad_value", f"grid_n must be even and in [4, {MAX_GRID_N}], got {n}")
    return n


def load_scenario(path) -> ScenarioConfig:
    obj = _read_json(path, "config")
    if not isinstance(obj, dict):
        raise ConfigError("bad_json", "config root must be an object")

    grid_n = parse_grid_n(_require(obj, "grid_n"))
    T = _number(_require(obj, "T"), "T", positive=True)
    h = _number(_require(obj, "h"), "h", positive=True)
    _check_steps(T, h)
    method = str(obj.get("method", "rk4"))
    if method not in METHODS:
        raise ConfigError("bad_value", f"method must be one of {METHODS}")
    policy = str(obj.get("policy", "on_violation"))
    if policy not in POLICIES:
        raise ConfigError("bad_value", f"policy must be one of {POLICIES}")
    rhs = _require(obj, "rhs")
    if not isinstance(rhs, dict) or "kind" not in rhs:
        raise ConfigError("bad_value", "rhs needs a 'kind'")
    initial = parse_set(obj["initial"]) if "initial" in obj else None
    seed = _seed(obj["seed"], "seed") if "seed" in obj else None
    output = obj.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError("bad_value", "output must be an object")
    for key in ("trajectory", "filmstrip", "support", "witnesses"):
        if key in output and not isinstance(output[key], str):
            raise ConfigError("bad_value", f"output.{key} must be a path string")
    if "frame_spacing" in output:
        spacing = _number(output["frame_spacing"], "output.frame_spacing", positive=True)
        _check_steps(T, spacing, "output.frame_spacing")
        output = dict(output, frame_spacing=spacing)
    samples = _integer(obj.get("samples", 200), "samples")
    if not 1 <= samples <= MAX_SAMPLES:
        raise ConfigError("bad_value", f"samples must be in [1, {MAX_SAMPLES}], got {samples}")
    if (held := samples * grid_n) > MAX_STORED_FLOATS:
        message = f"samples * grid_n = {held} exceeds MAX_STORED_FLOATS = {MAX_STORED_FLOATS}"
        raise ConfigError("bad_value", message)
    r = _number(obj.get("r", 1.0), "r", positive=True, capped=True)
    grid = DirectionGrid(grid_n)
    return ScenarioConfig(
        grid=grid,
        T=T,
        h=h,
        method=method,
        policy=policy,
        field=build_field(rhs, grid),
        omega=build_omega(obj.get("omega", {})),
        initial=initial,
        output=output,
        seed=seed,
        samples=samples,
        r=r,
    )


def build_field(rhs: dict, grid: DirectionGrid) -> RhsField:
    """Instantiate the rhs descriptor on the grid."""
    kind = rhs.get("kind")
    if kind == "relax_to":
        if "target" not in rhs:
            raise ConfigError("bad_value", "relax_to rhs needs a 'target' set")
        return relax_to(support_of_polygon(parse_set(rhs["target"]), grid))
    if kind == "constant":
        values = rhs.get("delta", [])
        if not isinstance(values, list):
            raise ConfigError("bad_value", f"constant rhs delta must be a list, got {values!r}")
        entries = [_number(x, "rhs.delta entry", capped=True) for x in values]
        try:
            delta = SupportDelta(grid, entries)
        except GridMismatch as exc:
            raise ConfigError("bad_value", f"constant rhs delta: {exc}") from exc
        return constant_field(delta)
    if kind == "expand":
        return expansion_field(grid, _number(rhs.get("rate", 1.0), "rhs.rate", capped=True))
    raise ConfigError("bad_value", f"unknown rhs kind {kind!r}")


def build_omega(omega) -> GrowthFunction:
    """Instantiate the omega descriptor, linear with rate 1 by default."""
    if not isinstance(omega, dict):
        raise ConfigError("bad_value", "omega must be an object")
    kind = omega.get("kind", "linear")
    if kind == "linear":
        return linear_growth(_number(omega.get("rate", 1.0), "omega.rate", capped=True))
    if kind == "zero":
        return zero_growth()
    raise ConfigError("bad_value", f"unknown omega kind {kind!r}")


def resolve_seed(cfg: ScenarioConfig) -> int:
    """Config seed, overridden by SETFLOW_SEED, defaulting to a fixed constant."""
    env = os.environ.get("SETFLOW_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError as exc:
            message = f"SETFLOW_SEED must be an integer, got {env!r}"
            raise ConfigError("bad_value", message) from exc
        return _seed(seed, "SETFLOW_SEED")
    if cfg.seed is not None:
        return cfg.seed
    return DEFAULT_SEED
