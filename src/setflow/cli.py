"""Command-line front end: scenario runs, the built-in demo, and diagnostics."""

from __future__ import annotations

import argparse
import json
import sys
from itertools import count
from pathlib import Path

import numpy as np

from . import formats, svg
from .dynamics import (
    METHODS,
    RhsField,
    Trajectory,
    _drift_limit,
    exact_flow,
    existence_horizon,
    integrate,
    integrate_stack,
    lipschitz_estimate,
    osl_rows,
    relax_to,
    subtangent_feasible,
)
from .errors import ConfigError, SetflowError
from .hukuhara import (
    HukuharaClass,
    SetCurve,
    classify_curve,
    second_type_differential,
)
from .sampling import ball_draws, rectangle_pairs
from .support import (
    ConvexPolygon,
    DirectionGrid,
    SupportDelta,
    SupportSample,
    hausdorff_exact,
    hausdorff_grid,
    is_in_cone,
    reconstruct_polygon,
    support_of_polygon,
)

EXAMPLE_RECTS = {
    1: ((2.0, 3.0), (1.0, 2.0)),
    2: ((0.0, 3.5), (-1.5, 2.5)),
    3: ((-1.5, 3.5), (-0.5, 0.0)),
}
EXAMPLE_TARGET = ((-1.0, 1.0), (-1.0, 1.0))
EXAMPLE_T = 4.0
FRAME_SPACING = 0.25


def _error(code: str, message: str) -> None:
    print(json.dumps({"error": code, "message": message}), file=sys.stderr)


def _frame_indices(times: np.ndarray, spacing: float) -> list[int]:
    """Sorted distinct indices of the stored times nearest to 0, spacing, 2 spacing, ...

    times is increasing, so the nearest one is the first at or after the
    wanted time or the one before it; the lower index wins a tie.  The
    picks are then non-decreasing, so equal ones are neighbours.
    """
    wanted = np.arange(0.0, times[-1] + spacing / 2, spacing)
    hi = np.minimum(np.searchsorted(times, wanted), len(times) - 1)
    lo = np.maximum(hi - 1, 0)
    near = np.where(np.abs(times[lo] - wanted) <= np.abs(times[hi] - wanted), lo, hi)
    return near[np.r_[True, near[1:] != near[:-1]]].tolist()


def cmd_integrate(args) -> int:
    cfg = formats.load_scenario(args.config)
    if cfg.initial is None:
        raise ConfigError("missing_key", "integrate needs an 'initial' set")
    formats._check_storage(cfg.T, cfg.h, cfg.grid.n)
    sigma0 = support_of_polygon(cfg.initial, cfg.grid)
    traj = integrate(cfg.field, sigma0, cfg.T, cfg.h, cfg.method, cfg.policy)
    out = cfg.output
    traj_path = out.get("trajectory", "trajectory.csv")
    formats.write_trajectory_csv(traj, traj_path)
    print(f"wrote {traj_path} ({len(traj) - 1} steps, method={cfg.method})")
    frames = _frame_indices(traj.times, out.get("frame_spacing", FRAME_SPACING))
    if "filmstrip" in out:
        # a state stored under policy "never" past the drift limit raises NotInCone here
        polys = [(traj.times[k], reconstruct_polygon(traj.sample(k))) for k in frames]
        svg.polygon_filmstrip(polys, out["filmstrip"], title=f"{cfg.field.name}: sets")
        print(f"wrote {out['filmstrip']}")
    if "support" in out:
        vals = [(traj.times[k], traj.states[k]) for k in frames]
        svg.support_profiles(
            vals, cfg.grid.angles, out["support"], title=f"{cfg.field.name}: support values"
        )
        print(f"wrote {out['support']}")
    if not traj.completed:
        raise SetflowError(traj.failure)
    return 0


def _example_one(k: int, field: RhsField, traj: Trajectory,
                 outdir: Path) -> tuple[HukuharaClass, float]:
    """Demo curve k: classify its frames, take the mean of the two quotients around
    each interior frame as the derivative, and write its tables and figures.

    Returns the class of the whole curve and max |numeric - closed form|.
    """
    grid = traj.grid
    err = float(np.max(np.abs(traj.states - exact_flow(field, traj.states[0], traj.times))))
    frames = _frame_indices(traj.times, FRAME_SPACING)
    states = traj.states[frames]
    curve = SetCurve(grid, traj.times[frames], states, _drift_limit(states))
    whole, steps = classify_curve(curve)
    quotients, inner = curve.quotients, curve.times[1:-1]
    deltas = 0.5 * (quotients[1:] + quotients[:-1])
    deltas.setflags(write=False)
    gaps = np.max(np.abs(quotients[1:] - quotients[:-1]), axis=-1)
    first = [(t, SupportSample._checked(grid, d))  # rows of the stacked cone test
             for t, d, ok in zip(inner, deltas, is_in_cone(deltas, grid)) if ok]
    second = [(t, s) for t, d in zip(inner, deltas)
              if (s := second_type_differential(SupportDelta(grid, d))) is not None]
    formats.write_trajectory_csv(traj, outdir / f"curve{k}_trajectory.csv")
    formats._write_table(
        outdir / f"curve{k}_classification.csv",
        ["step", "t", "class", "quotient_gap"],
        ["%d", formats.FLOAT_FMT, "%s", formats.FLOAT_FMT],
        zip(count(1), inner.tolist(), steps, gaps.tolist()),
    )
    formats.write_values_csv(inner, deltas, outdir / f"curve{k}_frechet_delta.csv")
    for kind, rows in (("hukuhara", first), ("second_type", second)):
        if rows:
            formats.write_values_csv(*zip(*rows), outdir / f"curve{k}_{kind}_differentials.csv")
    films = (("sets", "states", list(zip(curve.times, curve.samples))),
             ("differentials", "differentials", first + second))
    for name, what, film in films:
        if film:
            polys = [(t, reconstruct_polygon(s)) for t, s in film]
            svg.polygon_filmstrip(polys, outdir / f"curve{k}_{name}.svg", f"curve {k}: {what}")
    profiles = (("support", "support values", zip(curve.times, curve.values)),
                ("delta_support", "derivative values", zip(inner, deltas)))
    for name, what, profile in profiles:
        path = outdir / f"curve{k}_{name}.svg"
        svg.support_profiles(profile, grid.angles, path, f"curve {k}: {what}")
    return whole, err


def cmd_example(args) -> int:
    n, h = formats.parse_grid_n(args.grid_n), formats._number(args.h, "h", positive=True)
    formats._check_storage(EXAMPLE_T, h, n, len(EXAMPLE_RECTS))
    grid = DirectionGrid(n)
    q = ConvexPolygon.box(*EXAMPLE_TARGET)
    starts = [ConvexPolygon.box(*rect) for rect in EXAMPLE_RECTS.values()]
    field = relax_to(support_of_polygon(q, grid))
    sigmas = [support_of_polygon(a0, grid) for a0 in starts]
    trajs = integrate_stack(field, sigmas, EXAMPLE_T, h, args.method)
    for k, traj in zip(EXAMPLE_RECTS, trajs):
        if not traj.completed:
            raise SetflowError(f"curve {k}: {traj.failure}")
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    results = [_example_one(k, field, traj, outdir) for k, traj in zip(EXAMPLE_RECTS, trajs)]
    for k, (whole, _) in zip(EXAMPLE_RECTS, results):
        print(f"curve {k}: {whole}")
    for k, (_, err) in zip(EXAMPLE_RECTS, results):
        print(f"curve {k} max |numeric - closed form| = {err:.3e}")
    return 0


def _ball_centre(cfg) -> SupportSample:
    """Centre of a sampled check's cone ball: the initial set, else the origin point."""
    initial = cfg.initial if cfg.initial is not None else ConvexPolygon.point((0.0, 0.0))
    return support_of_polygon(initial, cfg.grid)


def _check_subtangent(cfg, rng) -> int:
    sigma0 = _ball_centre(cfg)
    points = np.vstack([sigma0.values, ball_draws(sigma0, cfg.r, cfg.samples - 1, rng)])
    v = np.empty_like(points)
    for t, k in cfg.field._evaluations(rng.uniform(0.0, cfg.T, len(points)).tolist()):
        v[k] = cfg.field.eval(t, points[k])
    ok, lam_min, lam_max = subtangent_feasible(v, points, cfg.grid)
    feasible = int(ok.sum())
    if feasible:
        print(f"subtangent: {feasible}/{len(ok)} feasible; common lambda interval "
              f"[{lam_min[ok].max():.6g}, {lam_max[ok].min():.6g}]")  # inf prints as "inf"
    if feasible < len(ok):
        print(f"subtangent: {len(ok) - feasible} infeasible points witnessed")
        return 1
    return 0


def _check_osl(cfg, rng) -> int:
    checked = []  # (t, distance, direction_index, lhs, bound, satisfied) of each pair
    while len(checked) < cfg.samples:  # skipped pairs are drawn again
        pairs, ts = rectangle_pairs(cfg.grid, cfg.T, cfg.samples - len(checked), rng)
        checked += osl_rows(cfg.field, pairs, ts.tolist(), cfg.omega)
    witnesses = [row[:5] for row in checked if not row[5]]
    print(f"osl: {len(checked) - len(witnesses)}/{len(checked)} pairs satisfied")
    if witnesses and "witnesses" in cfg.output:
        header = ["t", "distance", "direction_index", "lhs", "bound"]
        specs = [formats.FLOAT_FMT] * 2 + ["%d"] + [formats.FLOAT_FMT] * 2
        formats._write_table(cfg.output["witnesses"], header, specs, witnesses)
        print(f"wrote {cfg.output['witnesses']}")
    if witnesses:
        print("osl witness: distance=%.6g index=%d lhs=%.6g bound=%.6g" % witnesses[0][1:])
        return 1
    return 0


def _check_lipschitz(cfg, rng) -> int:
    est = lipschitz_estimate(cfg.field, _ball_centre(cfg), cfg.r, cfg.T, budget=cfg.samples,
                             seed=int(rng.integers(2**31)))
    declared = cfg.field.lipschitz
    extra = f" (declared {declared:g})" if declared is not None else ""
    print(f"lipschitz estimate: {est:.9g}{extra}")
    return 0


def _check_horizon(cfg, rng) -> int:
    if cfg.initial is None:
        raise ConfigError("missing_key", "horizon check needs an 'initial' set")
    c, b = existence_horizon(cfg.field, _ball_centre(cfg), cfg.r, cfg.T, budget=cfg.samples,
                             seed=int(rng.integers(2**31)))
    if c == 0.0:
        print(f"horizon: field degenerate (c = 0), b = {b:g}")
    else:
        print(f"horizon: c = {c:.9g}, b = min(T, r/c) = {b:.9g}")
    return 0


CHECKS = {"subtangent": _check_subtangent, "osl": _check_osl,
          "lipschitz": _check_lipschitz, "horizon": _check_horizon}


def cmd_check(args) -> int:
    cfg = formats.load_scenario(args.config)
    rng = np.random.default_rng(formats.resolve_seed(cfg))
    return CHECKS[args.diagnostic](cfg, rng)


def cmd_hausdorff(args) -> int:
    a = formats.load_set(args.set_a)
    b = formats.load_set(args.set_b)
    if not 3 <= args.n <= formats.MAX_GRID_N:
        raise ConfigError("bad_value", f"--n must be 3..{formats.MAX_GRID_N}, got {args.n}")
    grid = DirectionGrid(args.n)
    est = hausdorff_grid(support_of_polygon(a, grid), support_of_polygon(b, grid))
    exact = hausdorff_exact(a, b)
    print(f"grid estimate (n={args.n}): {est:.12g}")
    print(f"exact: {exact:.12g}")
    print(f"gap: {exact - est:.3e}")
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setflow",
        description="Set-valued dynamics via support functions on a direction grid",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_int = sub.add_parser("integrate", help="run a scenario config")
    p_int.add_argument("config")
    p_int.set_defaults(fn=cmd_integrate)

    p_ex = sub.add_parser("example", help="run the three-rectangle relaxation demo")
    p_ex.add_argument("outdir")
    p_ex.add_argument("--h", type=float, default=0.01)
    p_ex.add_argument("--method", choices=METHODS, default="rk4")
    p_ex.add_argument("--grid-n", type=int, default=64, dest="grid_n")
    p_ex.set_defaults(fn=cmd_example)

    p_chk = sub.add_parser("check", help="run a diagnostic over a scenario")
    p_chk.add_argument("diagnostic", choices=tuple(CHECKS))
    p_chk.add_argument("config")
    p_chk.set_defaults(fn=cmd_check)

    p_hd = sub.add_parser("hausdorff", help="compare two sets")
    p_hd.add_argument("set_a")
    p_hd.add_argument("set_b")
    p_hd.add_argument("--n", type=int, default=256)
    p_hd.set_defaults(fn=cmd_hausdorff)
    return parser


_PARSER = _parser()  # built once: a process may call main for many commands


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    # the one place an error becomes an exit code: 1 (a violation) is returned, never raised
    try:
        return args.fn(args)
    except ConfigError as exc:
        _error(exc.code, str(exc))
        return 2
    except OSError as exc:
        _error("filesystem", str(exc))
        return 4
    except SetflowError as exc:
        _error("integration", str(exc))
        return 3


if __name__ == "__main__":
    sys.exit(main())
