"""Command-line front end: configure, run, and export benchmark data.

Subcommands: ``exact`` (analytic profile CSV), ``solve`` (one numerical run),
``bench`` (22-method RMSE table), ``waves`` (wave-property report of the
exact solution), ``timing`` (relative runtimes).  Defaults reproduce the
benchmark configuration: 200 cells on [0, 1], jump at 0.5, gamma 1.4,
dt 0.001, final time 0.2, Courant target 0.4 with wave speed estimate 2.
"""

from __future__ import annotations

import argparse
import sys

from . import bench, riemann, solver
from .errors import InvalidConfig, SodbenchError
from .fluxes import FluxMethod
from .gas import GasModel
from .riemann import RiemannInput
from .solver import Grid1D, RunConfig

EXIT_OK = 0
EXIT_INVALID_CONFIG = 2
EXIT_NUMERICAL_FAILURE = 3


def _add_problem_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cells", type=int, default=200, help="number of grid cells")
    p.add_argument("--x-min", type=float, default=0.0, help="left end of the domain")
    p.add_argument("--x-max", type=float, default=1.0, help="right end of the domain")
    p.add_argument("--jump", type=float, default=0.5, help="initial jump position")
    p.add_argument("--gamma", type=float, default=1.4, help="ratio of specific heats")
    p.add_argument("--time", type=float, default=0.2, help="final simulation time")


def _add_marching_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--dt",
        type=float,
        default=None,
        help="time step; defaults to co-max * dx / s-max",
    )
    p.add_argument("--co-max", type=float, default=0.4, help="target Courant number")
    p.add_argument("--s-max", type=float, default=2.0, help="maximum wave speed estimate")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sodbench",
        description="1D Euler shock-tube solver and flux-method benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exact = sub.add_parser("exact", help="export the exact solution profile")
    _add_problem_flags(p_exact)
    p_exact.add_argument("--out", required=True, help="output CSV path")

    p_solve = sub.add_parser("solve", help="run one flux method")
    _add_problem_flags(p_solve)
    _add_marching_flags(p_solve)
    p_solve.add_argument(
        "--flux",
        default="riemann",
        help="flux method name, or 'list' to print all 22",
    )
    p_solve.add_argument("--out", default=None, help="output CSV path")

    p_bench = sub.add_parser("bench", help="RMSE table over all 22 methods")
    _add_problem_flags(p_bench)
    _add_marching_flags(p_bench)
    p_bench.add_argument("--out", required=True, help="output CSV path")

    p_waves = sub.add_parser("waves", help="wave properties of the exact solution")
    p_waves.add_argument("--gamma", type=float, default=1.4)

    p_timing = sub.add_parser("timing", help="relative runtime of all 22 methods")
    _add_problem_flags(p_timing)
    _add_marching_flags(p_timing)
    p_timing.add_argument("--reps", type=int, default=3, help="repetitions per method")
    p_timing.add_argument("--out", required=True, help="output CSV path")

    return parser


_PROFILE_HEADER = "x,density,velocity,pressure,internal_energy"


def _write_csv(path: str, header: str, rows) -> None:
    """One line per row after ``header``: strings as they are, numbers at 12
    significant digits."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else f"{v:.12g}" for v in row) + "\n")


def _run_config(args: argparse.Namespace, method: FluxMethod) -> RunConfig:
    grid = Grid1D(x_min=args.x_min, x_max=args.x_max, n_cells=args.cells)
    dt = args.dt
    if dt is None:
        dt = solver.derive_dt(args.co_max, grid.dx, args.s_max)
    cfg = RunConfig(
        method=method,
        grid=grid,
        gas=GasModel(gamma=args.gamma),
        dt=dt,
        t_final=args.time,
        jump_position=args.jump,
    )
    solver.step_count(cfg)
    _check_courant(cfg)
    return cfg


def _check_courant(cfg: RunConfig) -> None:
    """Reject a dt whose Courant number on the exact solution reaches 1.  The
    fastest signal is the largest |wave speed| or |u*| + a*: 2.19 for Sod,
    behind the shock.  ``solver.run`` does not check this, so that no run's
    set-up pays for a Newton solve."""
    s = riemann.solve_star(RiemannInput(cfg.left, cfg.right, cfg.gas)).speeds
    signal = max(
        abs(s.left_head),
        abs(s.left_tail),
        abs(s.right_tail),
        abs(s.right_head),
        abs(s.contact) + max(s.a_star_left, s.a_star_right),
    )
    courant = signal * cfg.dt / cfg.grid.dx
    if courant >= 1.0:
        raise InvalidConfig(
            f"dt={cfg.dt:g} gives Courant number {courant:.3f} >= 1 on the exact "
            f"solution (fastest signal {signal:.5g}); use dt < {cfg.grid.dx / signal:.4g}"
        )


def _cmd_exact(args: argparse.Namespace) -> int:
    grid = Grid1D(x_min=args.x_min, x_max=args.x_max, n_cells=args.cells)
    gas = GasModel(gamma=args.gamma)
    problem = RiemannInput(left=solver.SOD_LEFT, right=solver.SOD_RIGHT, gas=gas)
    profile = riemann.exact_profile(problem, grid.centers(), args.jump, args.time)
    e = bench.export_profile(profile, gas)
    rows = zip(e.x, e.density, e.velocity, e.pressure, e.internal_energy)
    _write_csv(args.out, _PROFILE_HEADER, rows)
    print(f"wrote exact profile ({args.cells} cells, t={args.time}) to {args.out}")
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.flux == "list":
        for method in FluxMethod:
            print(method.value)
        return EXIT_OK
    try:
        method = FluxMethod(args.flux)
    except ValueError:
        raise InvalidConfig(
            f"unknown flux method {args.flux!r}; use --flux list to see all 22"
        ) from None
    cfg = _run_config(args, method)
    field = solver.run(cfg)
    if args.out:
        e = bench.export_profile(field, cfg.gas, cfg.grid)
        rows = zip(e.x, e.density, e.velocity, e.pressure, e.internal_energy)
        _write_csv(args.out, _PROFILE_HEADER, rows)
    print(
        f"{method.value}: {solver.step_count(cfg)} steps to t={field.time:.6g}, "
        f"max Courant {field.max_courant_observed:.5f}"
        + (f", profile written to {args.out}" if args.out else "")
    )
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    cfg = _run_config(args, FluxMethod.RIEMANN)
    reports = bench.run_all_methods(cfg)
    _write_csv(
        args.out,
        "index,method,rmse_density,rmse_velocity,rmse_pressure,rmse_total",
        (
            (r.method.table_index, r.method.value, r.rmse_density, r.rmse_velocity,
             r.rmse_pressure, r.rmse_total)
            for r in reports
        ),
    )
    failures = [r for r in reports if r.error]
    for failure in failures:
        print(f"{failure.method.value}: FAILED ({failure.error})", file=sys.stderr)
    print(f"wrote {len(reports)}-method RMSE table to {args.out}")
    return EXIT_OK


def _cmd_waves(args: argparse.Namespace) -> int:
    gas = GasModel(gamma=args.gamma)
    problem = RiemannInput(left=solver.SOD_LEFT, right=solver.SOD_RIGHT, gas=gas)
    report = bench.wave_report(problem)
    for line in report.lines():
        print(line)
    return EXIT_OK


def _cmd_timing(args: argparse.Namespace) -> int:
    cfg = _run_config(args, FluxMethod.RIEMANN)
    reports = bench.timing_sweep(cfg, repetitions=args.reps)
    _write_csv(
        args.out,
        "method,elapsed_seconds,pct_over_fastest",
        ((r.method.value, r.elapsed, r.pct_over_fastest) for r in reports),
    )
    fastest, slowest = reports[0], reports[-1]
    print(
        f"fastest {fastest.method.value} ({fastest.elapsed:.4f} s), "
        f"slowest {slowest.method.value} (+{slowest.pct_over_fastest:.1f}%), "
        f"table written to {args.out}"
    )
    return EXIT_OK


_COMMANDS = {
    "exact": _cmd_exact,
    "solve": _cmd_solve,
    "bench": _cmd_bench,
    "waves": _cmd_waves,
    "timing": _cmd_timing,
}


def parse_and_run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the diagnostic
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except InvalidConfig as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG
    except SodbenchError as exc:  # every other solver failure is numerical
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE


def main() -> None:
    sys.exit(parse_and_run(sys.argv[1:]))


if __name__ == "__main__":
    main()
