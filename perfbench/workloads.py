"""The benchmark's three workloads: run configurations, exact references and
the check each run's output must pass.

Every workload is a list of independent runs of ``solver.run``.  The inputs
are fixed; the benchmark seed only shuffles the order in which a pass visits
them (see ``run.py``).
"""

from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from sodbench import riemann, solver
from sodbench.fluxes import FluxMethod
from sodbench.gas import PrimitiveState
from sodbench.riemann import ExactProfile, RiemannInput
from sodbench.solver import Grid1D, RunConfig, SolutionField

SEED_TABLE = Path(__file__).with_name("sod200_seed_table.csv")

# The seed table is printed with 12 significant digits; 1e-8 accepts a
# round-off-level change in a kernel and rejects any change of algorithm.
RMSE_RTOL = 1e-8
# Mass, momentum and energy totals are O(1); the seed drifts by ~1e-16.
CONSERVATION_ATOL = 1e-12

COURANT_TARGET = 0.4
BULK_CELLS = 20_000
BULK_STEPS = 20

# Toro, Riemann Solvers and Numerical Methods for Fluid Dynamics (3rd ed.),
# Table 4.1: left state, right state, initial jump position, final time.
TORO_TESTS = {
    1: (PrimitiveState(1.0, 0.75, 1.0), PrimitiveState(0.125, 0.0, 0.1), 0.3, 0.2),
    2: (PrimitiveState(1.0, -2.0, 0.4), PrimitiveState(1.0, 2.0, 0.4), 0.5, 0.15),
    3: (PrimitiveState(1.0, 0.0, 1000.0), PrimitiveState(1.0, 0.0, 0.01), 0.5, 0.012),
    4: (
        PrimitiveState(5.99924, 19.5975, 460.894),
        PrimitiveState(5.99242, -6.19633, 46.0950),
        0.4,
        0.035,
    ),
    5: (PrimitiveState(1.0, -19.59745, 1000.0), PrimitiveState(1.0, -19.59745, 0.01), 0.8, 0.012),
}

# Runs that die with NonPhysicalState at the seed.  A failure outside this set
# is a defect; a run in it that completes is reported as a fix.
TORO_PINNED_FAILURES = {
    2: {"roe", "aufs", "hll-roe", "hll-einfeldt", "hllc-roe", "hllc-einfeldt"},
    3: {"ausm", "ausm-plus", "ausm-plus-up"},
    4: {"ausm-plus", "hll-davis1", "hllc-davis1"},
    5: {"aufs"},
}


@dataclass(frozen=True)
class Run:
    label: str
    cfg: RunConfig
    reference: ExactProfile
    pinned_failure: bool = False

    @property
    def cell_steps(self) -> int:
        return solver.step_count(self.cfg) * self.cfg.grid.n_cells


@dataclass(frozen=True)
class Workload:
    name: str
    runs: list[Run]
    # (run, final field, (rmse rho, u, p)) -> None when correct, else the reason
    check: Callable[[Run, SolutionField, tuple], str | None]
    # argument tuples of riemann.exact_profile, kept to time the reference build
    reference_calls: list[tuple]


def _reference_call(cfg: RunConfig) -> tuple:
    problem = RiemannInput(left=cfg.left, right=cfg.right, gas=cfg.gas)
    return (problem, cfg.grid.centers(), cfg.jump_position, cfg.t_final)


def _sweep(base: RunConfig, reference: ExactProfile, label: str = "", pinned=frozenset()):
    return [
        Run(label + m.value, solver.sweep_config(base, m), reference, m.value in pinned)
        for m in FluxMethod
    ]


def read_seed_table(path: Path = SEED_TABLE) -> dict[str, tuple[float, float, float]]:
    with open(path, newline="") as fh:
        return {
            row["method"]: (
                float(row["rmse_density"]),
                float(row["rmse_velocity"]),
                float(row["rmse_pressure"]),
            )
            for row in csv.DictReader(fh)
        }


def table_mismatch(expected: tuple, got: tuple) -> bool:
    return not np.allclose(got, expected, rtol=RMSE_RTOL, atol=0.0)


def sod200_sweep() -> Workload:
    base = RunConfig()  # the paper's configuration
    call = _reference_call(base)
    reference = riemann.exact_profile(*call)
    table = read_seed_table()

    def check(run: Run, final: SolutionField, scores: tuple) -> str | None:
        expected = table[run.cfg.method.value]
        if table_mismatch(expected, scores):
            return f"RMSE {scores} differs from the seed table row {expected}"
        return None

    return Workload("sod200-sweep", _sweep(base, reference), check, [call])


def sod20k_bulk() -> Workload:
    grid = Grid1D(n_cells=BULK_CELLS)
    dt = solver.derive_dt(COURANT_TARGET, grid.dx, 2.0)
    base = RunConfig(grid=grid, dt=dt, t_final=BULK_STEPS * dt)
    call = _reference_call(base)
    reference = riemann.exact_profile(*call)
    totals0 = solver.initialize_sod(base).cells.sum(axis=1) * grid.dx
    # The waves stay far from both ends, so only the boundary pressure flux
    # changes a total: momentum gains (p_L - p_R) t, mass and energy hold.
    expected = totals0 + np.array([0.0, (base.left.p - base.right.p) * base.t_final, 0.0])

    def check(run: Run, final: SolutionField, scores: tuple) -> str | None:
        w = final.primitives(run.cfg.gas)
        if not (np.isfinite(w).all() and (w[0] > 0.0).all() and (w[2] > 0.0).all()):
            return "state is not finite and positive"
        drift = final.cells.sum(axis=1) * grid.dx - expected
        if np.abs(drift).max() > CONSERVATION_ATOL:
            return f"mass/momentum/energy drift {drift.tolist()} beyond {CONSERVATION_ATOL}"
        return None

    return Workload("sod20k-bulk", _sweep(base, reference), check, [call])


def toro_dt(problem: RiemannInput, dx: float, t_final: float) -> float:
    """Courant-target step from the exact solution's fastest wave, shortened
    so that t_final is a whole number of steps."""
    s = riemann.solve_star(problem).speeds
    s_max = max(abs(v) for v in (s.left_head, s.left_tail, s.contact, s.right_tail, s.right_head))
    return t_final / math.ceil(t_final * s_max / (COURANT_TARGET * dx))


def toro_suite() -> Workload:
    runs, calls = [], []
    for test, (left, right, x0, t_final) in TORO_TESTS.items():
        cfg = RunConfig(left=left, right=right, jump_position=x0, t_final=t_final)
        problem = RiemannInput(left=left, right=right, gas=cfg.gas)
        cfg = dataclasses.replace(cfg, dt=toro_dt(problem, cfg.grid.dx, t_final))
        call = _reference_call(cfg)
        calls.append(call)
        runs += _sweep(cfg, riemann.exact_profile(*call), f"test{test}/", TORO_PINNED_FAILURES.get(test, ()))

    def check(run: Run, final: SolutionField, scores: tuple) -> str | None:
        return None if all(map(math.isfinite, scores)) else f"non-finite RMSE {scores}"

    return Workload("toro-suite", runs, check, calls)


FACTORIES = {"sod200-sweep": sod200_sweep, "sod20k-bulk": sod20k_bulk, "toro-suite": toro_suite}
