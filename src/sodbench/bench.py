"""Benchmark harness: wave report, RMSE sweep, timing sweep.

Produces the quantitative benchmark artifacts: the wave-property table of the
exact solution (with both shock-speed validity checks), the 22-method RMSE
table and the relative-runtime comparison.
"""

from __future__ import annotations

import operator
import statistics
import time
from dataclasses import dataclass

import numpy as np

from . import riemann, solver
from .errors import InvalidConfig, SodbenchError
from .fluxes import FluxMethod
from .gas import GasModel, PrimitiveState, internal_energy_array, sound_speed_array
from .riemann import ExactProfile, RiemannInput, WaveKind
from .solver import RunConfig

__all__ = [
    "RmseReport",
    "TimingReport",
    "WaveReport",
    "rmse",
    "rmse_report",
    "run_all_methods",
    "timing_sweep",
    "wave_report",
]


@dataclass(frozen=True)
class RmseReport:
    """Per-variable RMSE of one method against the exact profile.

    ``error`` is set (and the numbers are NaN) when that run blew up; a sweep
    never aborts because of one method.
    """

    method: FluxMethod
    rmse_density: float
    rmse_velocity: float
    rmse_pressure: float
    error: str | None = None

    @property
    def rmse_total(self) -> float:
        return self.rmse_density + self.rmse_velocity + self.rmse_pressure


@dataclass(frozen=True)
class TimingReport:
    method: FluxMethod
    elapsed: float
    pct_over_fastest: float


@dataclass(frozen=True)
class SideReport:
    """One outer wave of the exact solution."""

    kind: WaveKind
    head: float
    tail: float
    rho_star: float
    a_star: float
    e_star: float
    h_star: float
    mach_unshocked: float | None = None
    mach_shocked: float | None = None
    rankine_hugoniot: float | None = None


@dataclass(frozen=True)
class WaveReport:
    """Structured rendering of the wave-property table for one problem."""

    p_star: float
    u_star: float
    left: SideReport
    right: SideReport

    def lines(self) -> list[str]:
        def side(tag: str, s: SideReport) -> list[str]:
            out = []
            if s.kind is WaveKind.FAN:
                out.append(f"{tag} expansion fan: head {s.head:.5f}, tail {s.tail:.5f}")
            else:
                out.append(f"{tag} shock wave: speed {s.head:.5f}")
                out.append(
                    f"  shock-relative Mach: unshocked {s.mach_unshocked:.5f}, "
                    f"shocked {s.mach_shocked:.5f}"
                )
                out.append(f"  mass-jump cross-check speed: {s.rankine_hugoniot:.5f}")
            out.append(
                f"  star side: rho {s.rho_star:.5f}, a {s.a_star:.5f}, "
                f"e {s.e_star:.5f}, h {s.h_star:.5f}"
            )
            return out

        header = [
            f"contact discontinuity: velocity {self.u_star:.5f}, pressure {self.p_star:.5f}"
        ]
        return side("left", self.left) + header + side("right", self.right)


def rmse(numerical: np.ndarray, exact: np.ndarray) -> tuple[float, float, float]:
    """Root mean square deviation per primitive variable over all cells.

    Both profiles are (3, n) primitive rows with n >= 1.  Each row is
    scored in turn in one (n,) buffer, so no (3, n) difference is built.
    For C-contiguous profiles, as the solver's and the exact solver's are,
    the result is bitwise that of the whole-array form
    ``sqrt(mean((numerical - exact) ** 2, axis=-1))``: a reduce along the
    last axis sums each row pairwise as a 1-D reduce does, and ``mean``
    divides by n (``notes/decisions.md`` section 24).  On a
    Fortran-ordered pair the whole-array form summed each row in order.
    """
    numerical = np.asarray(numerical, dtype=float)
    exact = np.asarray(exact, dtype=float)
    if numerical.shape != exact.shape:
        raise InvalidConfig(
            f"profile shapes differ: {numerical.shape} vs {exact.shape}"
        )
    if numerical.ndim != 2 or numerical.shape[0] != 3 or numerical.shape[1] < 1:
        raise InvalidConfig(
            f"profiles must be (3, n) primitive rows with n >= 1, got shape {numerical.shape}"
        )
    n = numerical.shape[1]
    scores = []
    diff = np.empty(n)
    for numerical_row, exact_row in zip(numerical, exact):
        np.subtract(numerical_row, exact_row, out=diff)
        diff *= diff  # bitwise x ** 2, without a second temporary
        scores.append(float(np.sqrt(np.add.reduce(diff) / n)))
    return tuple(scores)


def _exact_reference(cfg: RunConfig) -> ExactProfile:
    problem = RiemannInput(left=cfg.left, right=cfg.right, gas=cfg.gas)
    return riemann.exact_profile(problem, cfg.grid.centers(), cfg.jump_position, cfg.t_final)


def rmse_report(cfg: RunConfig, reference: ExactProfile | None = None) -> RmseReport:
    """Run one method and compare it with the exact profile on the same grid."""
    if reference is None:
        reference = _exact_reference(cfg)
    try:
        final = solver.run(cfg)
    except SodbenchError as exc:
        return RmseReport(
            method=cfg.method,
            rmse_density=float("nan"),
            rmse_velocity=float("nan"),
            rmse_pressure=float("nan"),
            error=f"{type(exc).__name__}: {exc}",
        )
    r_rho, r_u, r_p = rmse(final.primitives(cfg.gas), reference.w)
    return RmseReport(cfg.method, r_rho, r_u, r_p)


def run_all_methods(base_cfg: RunConfig) -> list[RmseReport]:
    """All 22 methods under identical settings, in report order."""
    reference = _exact_reference(base_cfg)
    return [
        rmse_report(solver.sweep_config(base_cfg, method), reference)
        for method in FluxMethod
    ]


def timing_sweep(base_cfg: RunConfig, repetitions: int = 3) -> list[TimingReport]:
    """Median wall time of ``solver.run`` per method, sorted ascending.

    The timed call is the one every other caller makes, so the set-up of
    the step data is inside the timed region: about 16 µs, against 9 ms for
    the fastest method's Sod-200 run on a 2-core Xeon.  The exact reference
    is not.  Runs stay sequential on one thread so the comparison is not
    skewed by contention.
    """
    try:
        repetitions = operator.index(repetitions)
    except TypeError:
        raise InvalidConfig(f"repetitions must be an integer, got {repetitions!r}") from None
    if repetitions < 3:
        raise InvalidConfig(f"need at least 3 repetitions, got {repetitions}")
    timings = []
    for method in FluxMethod:
        cfg = solver.sweep_config(base_cfg, method)
        samples = []
        for _ in range(repetitions):
            start = time.perf_counter()
            solver.run(cfg)
            samples.append(time.perf_counter() - start)
        timings.append((method, statistics.median(samples)))
    timings.sort(key=lambda pair: pair[1])
    fastest = timings[0][1]
    return [
        TimingReport(method, elapsed, 100.0 * (elapsed - fastest) / fastest)
        for method, elapsed in timings
    ]


def wave_report(problem: RiemannInput) -> WaveReport:
    """All wave properties of the exact solution of one Riemann problem."""
    star = riemann.solve_star(problem)
    s = star.speeds
    gas = problem.gas

    def side(kind, head, tail, rho_star, a_star, outer: PrimitiveState) -> SideReport:
        star_side = PrimitiveState(rho=rho_star, u=star.u_star, p=star.p_star)
        e_star = float(internal_energy_array(star_side.array, gas.gamma))
        shock = {}
        if kind is WaveKind.SHOCK:
            a_outer = float(sound_speed_array(outer.array, gas.gamma))
            shock = dict(
                # Mach numbers relative to the shock, ahead of it and behind it
                mach_unshocked=abs(head - outer.u) / a_outer,
                mach_shocked=abs(head - star.u_star) / a_star,
                rankine_hugoniot=riemann.rankine_hugoniot_speed(star_side, outer),
            )
        h_star = e_star + star.p_star / rho_star
        return SideReport(kind, head, tail, rho_star, a_star, e_star, h_star, **shock)

    left = side(
        star.left_wave, s.left_head, s.left_tail, star.rho_star_left, s.a_star_left, problem.left
    )
    right = side(
        star.right_wave,
        s.right_head,
        s.right_tail,
        star.rho_star_right,
        s.a_star_right,
        problem.right,
    )
    return WaveReport(p_star=star.p_star, u_star=star.u_star, left=left, right=right)

