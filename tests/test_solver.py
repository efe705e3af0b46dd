"""Godunov time integration: setup, stepping, conservation, reproducibility."""

import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ROOT, load_script, sides
from sodbench import bench, fluxes, riemann, solver
from sodbench.errors import (
    InvalidConfig,
    NoConvergence,
    NonPhysicalState,
    SodbenchError,
    VacuumGenerated,
)
from sodbench.fluxes import FluxMethod, compute_face_flux
from sodbench.gas import GasModel, PrimitiveState, conserved_array, flux_array, primitive_array, sound_speed_array
from sodbench.muscl import reconstruct_faces
from sodbench.riemann import RiemannInput, exact_profile
from sodbench.solver import (
    SOD_LEFT,
    SOD_RIGHT,
    Grid1D,
    RunConfig,
    derive_dt,
    initialize_sod,
    run,
    step_count,
    sweep_config,
)

GAS = GasModel()


def small_cfg(method=FluxMethod.RIEMANN, n=50, dt=0.004, t_final=0.2):
    return RunConfig(method=method, grid=Grid1D(0.0, 1.0, n), dt=dt, t_final=t_final)


class TestGrid:
    def test_spacing_and_centers(self):
        grid = Grid1D(0.0, 1.0, 200)
        assert grid.dx == pytest.approx(0.005, rel=1e-14)
        centers = grid.centers()
        assert centers[0] == pytest.approx(0.0025, rel=1e-14)
        assert centers[-1] == pytest.approx(0.9975, rel=1e-14)

    def test_too_few_cells(self):
        with pytest.raises(InvalidConfig):
            Grid1D(0.0, 1.0, 3)

    def test_inverted_domain(self):
        with pytest.raises(InvalidConfig):
            Grid1D(1.0, 0.0, 10)

    @pytest.mark.parametrize("n_cells", [10.5, 10.0, "10", None])
    def test_cell_count_must_be_an_integer(self, n_cells):
        with pytest.raises(InvalidConfig, match="cell count must be an integer"):
            Grid1D(0.0, 1.0, n_cells)

    @pytest.mark.parametrize("n_cells", [np.int64(10), np.int32(10), np.uint16(10)])
    def test_numpy_integer_cell_count(self, n_cells):
        cfg = RunConfig(grid=Grid1D(0.0, 1.0, n_cells))
        expected = initialize_sod(RunConfig(grid=Grid1D(0.0, 1.0, 10))).cells
        assert initialize_sod(cfg).cells.tobytes() == expected.tobytes()


class TestDeriveDt:
    def test_benchmark_value(self):
        assert derive_dt(0.4, 0.005, 2.0) == pytest.approx(0.001, rel=1e-14)

    def test_direct_substitution(self):
        assert derive_dt(0.5, 0.01, 2.0) == pytest.approx(0.0025, rel=1e-14)

    @pytest.mark.parametrize("co", [1.1, 1.0, 0.0, -0.3])
    def test_courant_target_bounds(self, co):
        with pytest.raises(InvalidConfig):
            derive_dt(co, 0.005, 2.0)

    def test_wave_speed_positive(self):
        with pytest.raises(InvalidConfig):
            derive_dt(0.4, 0.005, 0.0)

    @pytest.mark.parametrize(
        ("dx", "s_max", "match"),
        [
            (0.005, math.nan, "s_max must be positive and finite, got nan"),
            (0.005, math.inf, "s_max must be positive and finite, got inf"),
            (math.nan, 2.0, "dx must be positive and finite, got nan"),
            (math.inf, 2.0, "dx must be positive and finite, got inf"),
            # finite arguments whose dt overflows or underflows
            (0.005, 1e-320, "derived dt must be positive and finite, got inf"),
            (1e300, 1e-10, "derived dt must be positive and finite, got inf"),
            (5e-324, 2.0, "derived dt must be positive and finite, got 0.0"),
        ],
    )
    def test_non_finite_arguments_and_dt_rejected(self, dx, s_max, match):
        with pytest.raises(InvalidConfig, match=match):
            derive_dt(0.4, dx, s_max)


class TestInitialization:
    def test_benchmark_layout(self):
        field = initialize_sod(RunConfig())
        w = field.primitives(GAS)
        assert np.all(w[:, :100] == SOD_LEFT.array[:, None])
        assert np.all(w[:, 100:] == SOD_RIGHT.array[:, None])
        assert field.time == 0.0

    def test_jump_at_left_edge(self):
        cfg = dataclasses.replace(RunConfig(), jump_position=0.0)
        w = initialize_sod(cfg).primitives(GAS)
        assert np.all(w == SOD_RIGHT.array[:, None])

    def test_four_cells(self):
        cfg = dataclasses.replace(RunConfig(), grid=Grid1D(0.0, 1.0, 4))
        w = initialize_sod(cfg).primitives(GAS)
        assert np.all(w[:, :2] == SOD_LEFT.array[:, None])
        assert np.all(w[:, 2:] == SOD_RIGHT.array[:, None])

    @pytest.mark.parametrize(
        "grid, jump",
        [
            (Grid1D(), -0.25),  # left of the domain: every cell right
            (Grid1D(), 1.25),  # right of it: every cell left
            (Grid1D(), "center 37"),  # exactly on a cell center
            (Grid1D(), 0.5),  # between two centers
            (Grid1D(-1.0, 2.0, 7), "center 3"),
            (Grid1D(-1.0, 2.0, 7), 0.123456789),
        ],
    )
    def test_matches_where_construction_bitwise(self, grid, jump):
        if isinstance(jump, str):
            jump = float(grid.centers()[int(jump.split()[1])])
        cfg = RunConfig(grid=grid, jump_position=jump, left=PrimitiveState(1.3, -0.7, 2.9))
        on_left = cfg.grid.centers() < cfg.jump_position
        w = np.where(on_left, cfg.left.array[:, None], cfg.right.array[:, None])
        expected = conserved_array(w, cfg.gas.gamma)
        got = initialize_sod(cfg).cells
        assert (got.shape, got.dtype) == (expected.shape, expected.dtype)
        assert got.tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(4, 10**5),
        x_min=st.floats(-1e16, 1e16),
        width=st.floats(1e-6, 1e6),
        at=st.floats(0.0, 1.0, exclude_max=True),
        where=st.sampled_from(["on a center", "between centers", "left", "right"]),
    )
    @example(n=10**5, x_min=1e16, width=1e3, at=0.5, where="on a center")
    @example(n=10**5, x_min=-1e16, width=1e3, at=0.25, where="between centers")
    def test_jump_cell_is_the_centers_searchsorted(self, n, x_min, width, at, where):
        # Near |x_min| = 1e16 the spacing of doubles (2) exceeds dx, so
        # neighbouring centers tie
        x_max = x_min + width
        if not x_max > x_min:
            x_max = math.nextafter(x_min, math.inf)
        grid = Grid1D(x_min, x_max, n)
        centers = grid.centers()
        k = int(at * (n - 1))
        x0 = {
            "on a center": centers[k],
            "between centers": (centers[k] + centers[k + 1]) / 2,
            "left": x_min - width,
            "right": x_max + width,
        }[where]
        cfg = RunConfig(grid=grid, jump_position=float(x0))
        assert solver._step_data(cfg)[1] == np.searchsorted(centers, x0)


class TestStep:
    def test_uniform_field_is_unchanged(self):
        cfg = dataclasses.replace(
            small_cfg(), left=PrimitiveState(1.0, 0.3, 1.0), right=PrimitiveState(1.0, 0.3, 1.0)
        )
        field = initialize_sod(cfg)
        stepped = solver.advance(field, cfg, 1)
        assert np.array_equal(stepped.cells, field.cells)
        assert stepped.time == pytest.approx(cfg.dt)

    def test_uniform_exact_step_keeps_riemann_call_counts(self, newton_iterations):
        # no face has waves, yet the step still reaches the star-state solve
        # once, and Newton's first iteration converges on the empty batch
        cfg = dataclasses.replace(
            small_cfg(), left=PrimitiveState(1.0, 0.3, 1.0), right=PrimitiveState(1.0, 0.3, 1.0)
        )
        field = initialize_sod(cfg)
        assert np.array_equal(solver.advance(field, cfg, 1).cells, field.cells)
        assert newton_iterations == [1]

    def test_single_step_conserves_mass(self):
        cfg = RunConfig()
        field = initialize_sod(cfg)
        stepped = solver.advance(field, cfg, 1)
        dx = cfg.grid.dx
        assert np.sum(stepped.cells[0]) * dx == pytest.approx(
            np.sum(field.cells[0]) * dx, rel=1e-14
        )

    def test_nan_cell_reports_cell_and_step(self):
        cfg = RunConfig()
        field = initialize_sod(cfg)
        cells = field.cells.copy()
        cells[1, 37] = np.nan
        with pytest.raises(NonPhysicalState) as excinfo:
            solver.advance(dataclasses.replace(field, cells=cells), cfg, 1)
        assert (excinfo.value.cell, excinfo.value.step) == (37, 0)

    def test_reconstruction_failure_reports_face_and_step(self, monkeypatch):
        # the third reconstruction of the run sees a negative pressure in cell
        # 100, which face 101 takes as its left state, as on the whole grid.
        # That step's window starts two cells left of its first jump, and
        # muscl counts faces from there; advance reports the grid's face and
        # stamps the step on the exception muscl raised.  MUSCL's input
        # starts one cell left of the window
        cfg = RunConfig()
        q = solver.advance(initialize_sod(cfg), cfg, 2).cells
        window_start = int(np.argmax((q[:, 1:] != q[:, :-1]).any(axis=0))) - 1
        real = solver.reconstruct_faces
        calls = []

        def poisoned(w):
            calls.append(1)
            if len(calls) == 3:
                w = w.copy()
                w[2, 101 - window_start] = -1.0
            return real(w)

        monkeypatch.setattr(solver, "reconstruct_faces", poisoned)
        with pytest.raises(NonPhysicalState) as excinfo:
            solver.advance(initialize_sod(cfg), cfg, 5)
        exc = excinfo.value
        assert (exc.face, exc.step, exc.cell) == (101, 2, None)
        assert str(exc).endswith("at face 101 at step 2")
        assert excinfo.traceback[-1].path.name == "muscl.py"

    def test_flux_failure_reports_face_and_step(self, monkeypatch):
        # one Newton iteration leaves the jump face of the first step
        # unconverged; advance stamps the step on the exception riemann raised
        monkeypatch.setattr(riemann, "NEWTON_MAX_ITER", 1)
        with pytest.raises(NoConvergence) as excinfo:
            run(RunConfig())
        exc = excinfo.value
        assert (exc.face, exc.step) == (100, 0)
        assert str(exc).endswith("face 100 stopped at |dp|/p = 1.205e-02 at step 0")
        assert excinfo.traceback[-1].path.name == "riemann.py"

    def test_vacuum_reports_step(self):
        # the window starts two cells left of the jump face 100, and riemann
        # counts faces from there; advance reports the grid's face
        cfg = dataclasses.replace(
            RunConfig(), left=PrimitiveState(1.0, -20.0, 1.0), right=PrimitiveState(1.0, 20.0, 1.0)
        )
        with pytest.raises(VacuumGenerated) as excinfo:
            solver.advance(initialize_sod(cfg), cfg, 3)
        assert (excinfo.value.face, excinfo.value.step) == (100, 0)
        assert str(excinfo.value).endswith("vacuum at face 100 at step 0")
        assert excinfo.traceback[-1].path.name == "riemann.py"

    def test_blowup_reports_cell_and_step(self):
        # a time step far beyond the stability limit must fail loudly
        cfg = small_cfg(method=FluxMethod.ROE, dt=0.02, t_final=0.2)
        with pytest.raises(NonPhysicalState) as excinfo:
            run(cfg)
        assert excinfo.value.cell is not None
        assert excinfo.value.step is not None


class TestRun:
    def test_zero_final_time_returns_initial_field(self):
        cfg = small_cfg(t_final=0.0)
        field = run(cfg)
        assert field.time == 0.0
        assert np.array_equal(field.cells, initialize_sod(cfg).cells)

    def test_negative_step_count_rejected(self):
        cfg = small_cfg()
        with pytest.raises(InvalidConfig, match="got -3"):
            solver.advance(initialize_sod(cfg), cfg, -3)

    @pytest.mark.parametrize("n_steps", [2.5, float("nan"), 3.0, "3", None, np.int64(3), np.uint8(3)])
    def test_step_count_must_be_an_integer(self, n_steps):
        # as Grid1D's cell count: numpy integers pass, anything else is
        # rejected before range() sees it
        cfg = small_cfg()
        field = initialize_sod(cfg)
        if isinstance(n_steps, np.integer):
            expected = solver.advance(field, cfg, 3)
            assert solver.advance(field, cfg, n_steps).cells.tobytes() == expected.cells.tobytes()
        else:
            with pytest.raises(InvalidConfig, match="number of steps must be an integer"):
                solver.advance(field, cfg, n_steps)

    def test_non_multiple_final_time_rejected(self):
        with pytest.raises(InvalidConfig):
            run(small_cfg(dt=0.001, t_final=0.0015))

    def test_step_count(self):
        assert step_count(RunConfig()) == 200

    @pytest.mark.parametrize("dt, match", [(1e300, "no step"), (5e-324, "not a finite step count")])
    def test_dt_without_a_step_count_rejected(self, dt, match):
        # t_final / dt rounds to 0 steps although time is asked to pass, or
        # overflows to inf
        with pytest.raises(InvalidConfig, match=match):
            step_count(RunConfig(dt=dt))

    def test_run_equals_repeated_steps_bitwise(self):
        cfg = small_cfg(method=FluxMethod.HLLC_ROE, n=40, dt=0.005, t_final=0.05)
        field = initialize_sod(cfg)
        for _ in range(step_count(cfg)):
            field = solver.advance(field, cfg, 1)
        assert np.array_equal(run(cfg).cells, field.cells)

    def test_determinism_bitwise(self):
        cfg = small_cfg(method=FluxMethod.AUSM_PLUS_UP)
        a = run(cfg)
        b = run(cfg)
        assert np.array_equal(a.cells, b.cells)
        assert a.max_courant_observed == b.max_courant_observed

    def test_riemann_density_rmse_matches_benchmark(self):
        cfg = RunConfig(method=FluxMethod.RIEMANN)
        final = run(cfg)
        reference = exact_profile(
            RiemannInput(cfg.left, cfg.right, cfg.gas),
            cfg.grid.centers(),
            cfg.jump_position,
            cfg.t_final,
        )
        rmse_density = float(
            np.sqrt(np.mean((final.primitives(GAS)[0] - reference.w[0]) ** 2))
        )
        assert rmse_density == pytest.approx(0.00798, rel=0.15)

    def test_conservation_telescoping_with_boundary_fluxes(self):
        # interior fluxes telescope; with frozen edge states the boundary
        # fluxes are the physical fluxes of the initial edge cells
        cfg = RunConfig(method=FluxMethod.HLL_EINFELDT)
        field = run(cfg)
        dx = cfg.grid.dx
        n_steps = step_count(cfg)
        totals_initial = np.sum(initialize_sod(cfg).cells, axis=1) * dx
        totals_final = np.sum(field.cells, axis=1) * dx
        flux_left = np.array([0.0, cfg.left.p, 0.0])
        flux_right = np.array([0.0, cfg.right.p, 0.0])
        expected_change = n_steps * cfg.dt * (flux_left - flux_right)
        assert totals_final - totals_initial == pytest.approx(expected_change, abs=1e-12)

    def test_waves_never_reach_boundaries(self):
        # transmissive ghosts are result-neutral: edge cells stay untouched
        field = run(RunConfig(method=FluxMethod.ROE))
        w = field.primitives(GAS)
        assert w[:, 0] == pytest.approx(SOD_LEFT.array, rel=1e-12)
        assert w[:, -1] == pytest.approx(SOD_RIGHT.array, rel=1e-12)

    def test_positivity_maintained(self):
        field = run(RunConfig(method=FluxMethod.LF))
        w = field.primitives(GAS)
        assert np.all(w[0] > 0.0)
        assert np.all(w[2] > 0.0)

    def test_observed_courant_tracks_exact_solution(self):
        # the exact solution's fastest signal is u* + a*_right = 2.19156,
        # i.e. Co = 0.4383 with the benchmark mesh ratio; schemes overshoot
        # it slightly (the stated [0.35, 0.42] band stems from the slower
        # star-left plateau -- see the decisions ledger)
        field = run(RunConfig(method=FluxMethod.RIEMANN))
        assert 0.42 <= field.max_courant_observed <= 0.48

    def test_grid_refinement_rates(self):
        # Each method's three rates pinned to their measured values.  The
        # discontinuities keep them well below 2: most lie in 0.50-0.72.
        # AUSM's last rate, 0.165, is pinned as observed: its star-region
        # velocity error grows with the grid, and the stall needs MUSCL
        # (test_first_order_refinement_rates)
        rates = {}
        for method in FluxMethod:
            rates[method.value], total_rmse = refinement(method)
            # and the total RMSE of the three primitives falls
            assert total_rmse[2] < total_rmse[1], method
        assert rates.keys() == REFINEMENT_RATES.keys()
        for method, measured in REFINEMENT_RATES.items():
            assert rates[method] == pytest.approx(measured, abs=0.005), method

    def test_first_order_refinement_rates(self, monkeypatch):
        # With zero slopes AUSM converges as AUSM+ and HLLC-Roe do, where
        # with MUSCL its last rate falls to 0.165: the stall needs MUSCL,
        # not the Liou-Steffen splitting alone (notes/decisions.md
        # section 27)
        monkeypatch.setattr(solver, "reconstruct_faces", first_order_faces)
        for method, measured in FIRST_ORDER_RATES.items():
            assert refinement(FluxMethod(method))[0] == pytest.approx(measured, abs=0.005), method

    def test_lax_friedrichs_cells_pair_up(self, monkeypatch):
        # Lax-Friedrichs with the dissipation speed dx/dt updates a cell
        # from its two neighbours alone, so on Sod-200 its cells pair up.
        # Every cell then sits next to a difference at rounding level, and
        # its van Leer half-slope is no larger: the MUSCL run is its
        # first-order run to 7.4e-14, though not bit for bit
        cfg = RunConfig(method=FluxMethod.LF)
        half_slopes = record_half_slopes(monkeypatch)
        final = run(cfg)
        monkeypatch.setattr(solver, "reconstruct_faces", first_order_faces)
        first_order = run(cfg).cells
        assert len(half_slopes) == 200
        # 1.61e-13 over the steps, 8.57e-14 on the last one
        assert max(half_slopes) < 2e-13
        # and 100 of the final field's 199 differences in each row
        w = final.primitives(GAS)
        assert (np.abs(np.diff(w, axis=1)) < 1e-12).sum(axis=1).tolist() == [100, 100, 100]
        assert 0.0 < np.abs(final.cells - first_order).max() < 1e-13


def refinement(method):
    """Sod at 100, 200, 400 and 800 cells with dt = 0.001 * 200 / n: the
    three rates log2(E_n / E_2n) of the density L1 error E against the
    exact profile, and the total RMSE of the three primitives at each n."""
    errors, total_rmse = [], []
    for n in (100, 200, 400, 800):
        cfg = RunConfig(method=method, grid=Grid1D(0.0, 1.0, n), dt=0.001 * 200 / n)
        w = run(cfg).primitives(GAS)
        reference = exact_profile(
            RiemannInput(cfg.left, cfg.right, cfg.gas), cfg.grid.centers(), cfg.jump_position, cfg.t_final
        )
        errors.append(float(np.mean(np.abs(w[0] - reference.w[0]))))
        total_rmse.append(sum(bench.rmse(w, reference.w)))
    return [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])], total_rmse


def record_half_slopes(monkeypatch):
    """The largest |half-slope| of each reconstruction the solver makes
    while the test runs, as MUSCL's face-left states less their cells."""
    half_slopes = []

    def recording(wp):
        faces = reconstruct_faces(wp)
        half_slopes.append(float(np.abs(faces[:, 0, 1:] - wp[:, 1:-1]).max()))
        return faces

    monkeypatch.setattr(solver, "reconstruct_faces", recording)
    return half_slopes


def first_order_faces(wp):
    """``reconstruct_faces`` with zero slopes: the two sides of each face
    are its two adjacent cells, checked as MUSCL checks its faces, so a bad
    cell raises as it does there."""
    faces = np.empty((3, 2, wp.shape[1] - 1))
    faces[:, 0], faces[:, 1] = wp[:, :-1], wp[:, 1:]
    if np.minimum.reduce(faces[::2], axis=None) > 0.0:
        return faces
    bad = ~((faces[0] > 0.0) & (faces[2] > 0.0))
    side, face = divmod(int(bad.argmax()), bad.shape[1])
    raise NonPhysicalState(
        f"reconstructed face-{('left', 'right')[side]} state has non-positive density or pressure",
        face=face,
    )


# Each method's density L1 rates per doubling from 100 to 800 cells,
# measured on Sod (TestRun.test_grid_refinement_rates)
REFINEMENT_RATES = {
    "riemann": (0.545, 0.559, 0.560),
    "roe": (0.618, 0.541, 0.553),
    "knp": (0.627, 0.606, 0.619),
    "kt": (0.723, 0.679, 0.658),
    "sw": (0.684, 0.635, 0.640),
    "van-leer": (0.589, 0.568, 0.543),
    "ausm": (0.523, 0.510, 0.165),
    "ausm-plus": (0.669, 0.587, 0.500),
    "ausm-plus-up": (1.163, 0.831, 0.680),
    "aufs": (0.613, 0.591, 0.601),
    "hll-davis1": (0.603, 0.599, 0.616),
    "hll-davis2": (0.627, 0.606, 0.619),
    "hll-roe": (0.617, 0.593, 0.604),
    "hll-einfeldt": (0.617, 0.593, 0.605),
    "hll-pbased": (0.617, 0.600, 0.621),
    "hllc-davis1": (0.609, 0.568, 0.568),
    "hllc-davis2": (0.622, 0.573, 0.592),
    "hllc-roe": (0.621, 0.563, 0.571),
    "hllc-einfeldt": (0.621, 0.563, 0.571),
    "hllc-pbased": (0.607, 0.564, 0.582),
    "lf": (0.406, 0.500, 0.587),
    "rusanov": (0.723, 0.679, 0.658),
}
# and with zero slopes (TestRun.test_first_order_refinement_rates)
FIRST_ORDER_RATES = {
    "ausm": (0.671, 0.660, 0.660),
    "ausm-plus": (0.658, 0.652, 0.658),
    "hllc-roe": (0.654, 0.654, 0.659),
}


class TestOneLoop:
    """run, step and timing_sweep all go through solver._march, the one
    stepping loop, which looks up these three entry points as module
    attributes on every call (wrappers installed on the module must see
    every step)."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"primitive_array": 0, "reconstruct_faces": 0, "compute_face_flux": 0}
        for name in counts:
            original = getattr(solver, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(solver, name, counted)
        return counts

    def test_run(self, calls):
        cfg = small_cfg(t_final=0.02)
        run(cfg)
        n = step_count(cfg)
        assert calls == {"primitive_array": n + 1, "reconstruct_faces": n, "compute_face_flux": n}

    def test_step(self, calls):
        cfg = small_cfg()
        solver.advance(initialize_sod(cfg), cfg, 1)
        assert calls == {"primitive_array": 2, "reconstruct_faces": 1, "compute_face_flux": 1}

    def test_timing_sweep(self, calls):
        cfg = small_cfg(t_final=0.02)
        bench.timing_sweep(cfg, repetitions=3)
        advances = 3 * len(FluxMethod)
        n = advances * step_count(cfg)
        assert calls == {
            "primitive_array": n + advances,
            "reconstruct_faces": n,
            "compute_face_flux": n,
        }


def whole_grid_check(w, step_index):
    """Raise for the first cell of the grid whose density or pressure is not
    positive and finite (a NaN is neither), as solver.advance words it."""
    bad = ~((w[0] > 0.0) & (w[2] > 0.0) & (w[0] < np.inf) & (w[2] < np.inf))
    if bad.any():
        raise NonPhysicalState(
            "solver produced non-positive density/pressure", cell=int(bad.argmax()), step=step_index
        )


def full_domain_advance(field, cfg, n_steps, flux_of=compute_face_flux):
    """The stepping loop without a window: every step reconstructs, fluxes,
    updates, checks and monitors the whole grid, in the arithmetic of
    solver.advance.  The cells are checked after every step."""
    gamma, dx = cfg.gas.gamma, cfg.grid.dx
    q = field.cells
    w = primitive_array(q, gamma)
    whole_grid_check(w, 0)
    time, max_courant = field.time, field.max_courant_observed
    for k in range(n_steps):
        faces = reconstruct_faces(np.pad(w, ((0, 0), (1, 1)), mode="edge"))
        flux = flux_of(cfg.method, faces, cfg.gas, dx=dx, dt=cfg.dt)
        q = q - (cfg.dt / dx) * (flux[:, 1:] - flux[:, :-1])
        w = primitive_array(q, gamma)
        whole_grid_check(w, k)
        signal = np.abs(w[1]) + sound_speed_array(w, gamma)
        max_courant = max(max_courant, float(signal.max()) * cfg.dt / dx)
        time += cfg.dt
    return solver.SolutionField(time=time, cells=q, max_courant_observed=max_courant)


def layered_field(cfg, states, starts):
    """Piecewise-constant field: states[j] from cell starts[j] on."""
    w = np.empty((3, cfg.grid.n_cells))
    for state, start in zip(states, starts):
        w[:, start:] = state.array[:, None]
    return solver.SolutionField(time=0.0, cells=conserved_array(w, cfg.gas.gamma))


def assert_same_field(got, expected):
    assert np.array_equal(got.cells, expected.cells)
    assert got.max_courant_observed == expected.max_courant_observed
    assert got.time == expected.time


def check_growth_against_rescan(monkeypatch):
    """Check every window solver._grow returns against the rule it stands
    for: the union of the window the step marched and the window of a rescan
    of cells lo - 1 ... hi, wherever that rescan finds a jump.  Also check
    the invariant the rule rests on: each end cell of the marched window
    away from a wall still equals its block, cell 0 or cell n - 1, and no
    end grows by more than one cell.  Returns two lists: one gets each
    marched window whose rescan finds a narrower one, the other the cells
    each check grows the left and the right end by."""
    grow = solver._grow
    narrowing, growth = [], []

    def checked(q, lo, hi):
        n = q.shape[1]
        assert lo == 0 or not (q[:, lo] != q[:, 0]).any()
        assert hi == n or not (q[:, hi - 1] != q[:, -1]).any()
        got = grow(q, lo, hi)
        growth.append((lo - got[0], got[1] - hi))
        assert max(growth[-1]) <= 1
        start, stop = max(lo - 1, 0), min(hi + 1, n)
        if (q[:, start + 1 : stop] != q[:, start : stop - 1]).any():
            scan_lo, scan_hi = solver._window(q, start, stop)
            assert got == (min(lo, scan_lo), max(hi, scan_hi))
            if scan_lo > lo or scan_hi < hi:
                narrowing.append((lo, hi))
        else:
            assert got == (lo, hi)
        return got

    monkeypatch.setattr(solver, "_grow", checked)
    return narrowing, growth


def outcome(march, *args):
    """The field a march returns, or the type, cell and face of the error it
    raises (full_domain_advance leaves a kernel's error without its step)."""
    try:
        return march(*args)
    except SodbenchError as exc:
        return type(exc), exc.cell, exc.face


# Moderate states, some moving, for random piecewise-constant fields
BLOCK_STATES = (
    SOD_LEFT,
    SOD_RIGHT,
    PrimitiveState(0.5, 0.0, 0.5),
    PrimitiveState(0.8, -0.4, 0.6),
    PrimitiveState(1.0, 0.3, 1.0),
)


@st.composite
def blocks_on_a_background(draw, n_cells):
    """(states, starts) for layered_field: a background state with 2-4
    blocks of 1-6 cells on it, uniform gaps of 0-6 background cells between
    them, and the first block touching the left wall, the last touching the
    right wall, or the blocks anywhere between.  A state may repeat, so a
    field may have fewer jumps, or none."""
    state = st.sampled_from(BLOCK_STATES)
    widths = draw(st.lists(st.integers(1, 6), min_size=2, max_size=4))
    gaps = [draw(st.integers(0, 6)) for _ in widths[1:]]
    room = n_cells - sum(widths) - sum(gaps)
    start = draw(st.one_of(st.just(0), st.just(room), st.integers(0, room)))
    background = draw(state)
    states, starts = [background], [0]
    for width, gap in zip(widths, [0] + gaps):
        start += gap
        states += [draw(state), background]
        starts += [start, start + width]
        start += width
    return states, starts


class TestWindow:
    """advance marches only the cells within two cells of a jump; the rest
    of the grid has a zero update, so every result equals the whole-grid
    loop's bit for bit (notes/decisions.md section 10)."""

    @pytest.mark.parametrize("method", list(FluxMethod))
    def test_sod(self, method, monkeypatch):
        check_growth_against_rescan(monkeypatch)
        cfg = RunConfig(method=method)
        expected = full_domain_advance(initialize_sod(cfg), cfg, step_count(cfg))
        assert_same_field(run(cfg), expected)

    @pytest.mark.parametrize("method", list(FluxMethod))
    @pytest.mark.parametrize("cells_from_wall", [2, 48])
    def test_jump_two_cells_from_a_wall(self, method, cells_from_wall):
        # the window reaches the wall at once, and the waves run into it
        cfg = dataclasses.replace(small_cfg(method), jump_position=cells_from_wall / 50)
        field = initialize_sod(cfg)
        assert_same_field(run(cfg), full_domain_advance(field, cfg, step_count(cfg)))

    @pytest.mark.parametrize("jump", [0.1, 0.9])
    def test_a_window_at_a_wall_reads_the_ghost_of_the_edge_cell(self, monkeypatch, jump):
        # MUSCL reads one cell beyond each end of the window; at a wall that
        # is the ghost column, which must copy the edge cell as the last
        # step left it.  Lax-Friedrichs at 50 cells reaches the near wall
        # first, the far one later, and moves the edge cells on every step
        # after
        cfg = dataclasses.replace(small_cfg(FluxMethod.LF, t_final=0.4), jump_position=jump)
        grow, walls = solver._grow, []

        def spied(q, lo, hi):
            got = grow(q, lo, hi)
            walls.append((got[0] == 0, got[1] == q.shape[1]))
            return got

        monkeypatch.setattr(solver, "_grow", spied)
        field, n_steps = initialize_sod(cfg), step_count(cfg)
        got = solver.advance(field, cfg, n_steps)
        near = walls.index((True, False) if jump < 0.5 else (False, True))
        assert 0 < near < walls.index((True, True)) < n_steps - 10
        assert_same_field(got, full_domain_advance(field, cfg, n_steps))

    @pytest.mark.parametrize("method", list(FluxMethod))
    def test_two_jumps_with_a_uniform_gap_inside_the_window(self, method):
        cfg = small_cfg(method, n=60)
        field = layered_field(cfg, (SOD_LEFT, PrimitiveState(0.5, 0.0, 0.5), SOD_RIGHT), (0, 15, 45))
        got = solver.advance(field, cfg, 10)
        # the waves of the two jumps have not met: the gap is still uniform
        assert (got.cells[:, 28:32] == field.cells[:, 28:29]).all()
        assert_same_field(got, full_domain_advance(field, cfg, 10))

    @pytest.mark.parametrize("method", list(FluxMethod))
    def test_uniform_field(self, method):
        cfg = dataclasses.replace(
            small_cfg(method), left=PrimitiveState(1.0, 0.3, 1.0), right=PrimitiveState(1.0, 0.3, 1.0)
        )
        field = initialize_sod(cfg)
        got = solver.advance(field, cfg, 5)
        assert np.array_equal(got.cells, field.cells)
        assert_same_field(got, full_domain_advance(field, cfg, 5))

    @pytest.mark.parametrize("method", list(FluxMethod))
    def test_run_split_into_steps(self, method):
        cfg = small_cfg(method)
        field = initialize_sod(cfg)
        for _ in range(step_count(cfg)):
            field = solver.advance(field, cfg, 1)
        assert_same_field(field, full_domain_advance(initialize_sod(cfg), cfg, step_count(cfg)))

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-3.0, 3.0), st.floats(-5.0, 5.0), st.floats(-3.0, 3.0))
    def test_a_step_leaves_any_uniform_field_bitwise_unchanged(self, log_rho, mach, log_p):
        # the property the window rests on: identical face states give
        # identical fluxes, so their difference is exactly zero
        rho, p = 10.0**log_rho, 10.0**log_p
        state = PrimitiveState(rho, mach * math.sqrt(GAS.gamma * p / rho), p)
        for method in FluxMethod:
            cfg = dataclasses.replace(small_cfg(method), left=state, right=state)
            field = initialize_sod(cfg)
            assert np.array_equal(solver.advance(field, cfg, 1).cells, field.cells), method

    def test_growth_matches_the_rescan_and_the_whole_grid(self):
        # An end grows by at most one cell a step, and the march must grow
        # each end somewhere, or that branch of solver._grow goes unchecked
        grown = set()

        @settings(max_examples=60, deadline=None)
        @given(blocks_on_a_background(48), st.sampled_from(list(FluxMethod)), st.integers(1, 12))
        def march(layout, method, n_steps):
            cfg = RunConfig(method=method, grid=Grid1D(0.0, 1.0, 48), dt=0.4 / 96)
            field = layered_field(cfg, *layout)
            with pytest.MonkeyPatch.context() as patch:
                _, growth = check_growth_against_rescan(patch)
                got = outcome(solver.advance, field, cfg, n_steps)
            expected = outcome(full_domain_advance, field, cfg, n_steps)
            assert type(got) is type(expected)
            if isinstance(expected, tuple):
                assert got == expected
            else:
                assert got.cells.tobytes() == expected.cells.tobytes()
                assert_same_field(got, expected)
            for cells in growth:
                assert set(cells) <= {0, 1}
                grown.update(end for end, n in zip(("left", "right"), cells) if n == 1)

        march()
        assert grown == {"left", "right"}

    @staticmethod
    def assert_courant_of_the_fast_block(states):
        cfg = small_cfg(FluxMethod.HLL_DAVIS1, n=60, dt=0.001)
        field = layered_field(cfg, states, (0, 30))
        got = solver.advance(field, cfg, 3)
        assert got.max_courant_observed == pytest.approx((3.0 + math.sqrt(1.4)) * 0.06, rel=1e-14)
        assert_same_field(got, full_domain_advance(field, cfg, 3))

    def test_courant_monitor_counts_the_right_block(self):
        # Supersonic flow speeding up across a jump: every fast cell the
        # flux reaches slows down, so only the copies of the right block at
        # the window's end keep the fast block's signal for the monitor
        slow, fast = PrimitiveState(1.0, 2.0, 1.0), PrimitiveState(1.0, 3.0, 1.0)
        self.assert_courant_of_the_fast_block((slow, fast))

    def test_courant_monitor_counts_the_left_block(self):
        # The mirror image (x -> -x, u -> -u) of the test above: the fast
        # block lies left of the jump
        slow, fast = PrimitiveState(1.0, -2.0, 1.0), PrimitiveState(1.0, -3.0, 1.0)
        self.assert_courant_of_the_fast_block((fast, slow))

    def test_a_narrower_rescan_still_checks_every_updated_cell(self, monkeypatch):
        # The first window is [0, 4).  This flux makes cells 0-2 equal and of
        # negative density, so the rescan finds [1, 5); the window keeps
        # cell 0, the first bad cell of the grid.  dt / dx = 1/4 and the
        # states are exact in binary, so the update is exact
        def flux(method, faces, gas, dx, dt):
            assert faces.shape[2] == 5
            return np.array([[0.0, 8.0, 16.0, 20.5, 20.5], [0.0] * 5, [0.0, 0.0, 0.0, -7.0, -7.0]])

        monkeypatch.setattr(solver, "compute_face_flux", flux)
        cfg = small_cfg(n=64, dt=1 / 256)
        cells = np.array([[1.0] * 2 + [0.125] * 62, [0.0] * 64, [2.0] * 2 + [0.25] * 62])
        field = solver.SolutionField(time=0.0, cells=cells)
        with pytest.raises(NonPhysicalState) as excinfo:
            solver.advance(field, cfg, 1)
        assert (excinfo.value.cell, excinfo.value.step) == (0, 0)

    @pytest.mark.parametrize("method", [FluxMethod.RIEMANN, FluxMethod.HLLC_ROE, FluxMethod.RUSANOV])
    def test_no_whole_grid_primitive_array(self, method):
        # The copy of the cells is the only (3, n) array a call allocates:
        # the primitives are kept on the window alone (about 16 cells here)
        cfg = bulk_config(method)
        field = initialize_sod(cfg)
        tracemalloc.start()
        try:
            solver.advance(field, cfg, step_count(cfg))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * field.cells.nbytes

    @pytest.mark.parametrize("method", [FluxMethod.RIEMANN, FluxMethod.HLLC_ROE, FluxMethod.RUSANOV])
    def test_a_run_builds_its_cells_once(self, method):
        # run marches the step data it builds: no copy of the cells and no
        # centers array
        cfg = bulk_config(method)
        tracemalloc.start()
        try:
            final = run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * final.cells.nbytes


def bad_cell_flux(call, row, change):
    """compute_face_flux on a 20-cell window spanning the grid, where the
    call-th call adds change * dx / dt to row ``row`` of face 10's flux.
    That takes change from cell 9's row and gives it to cell 10."""
    calls = []

    def flux(method, faces, gas, dx, dt):
        assert faces.shape[2] == 21
        f = compute_face_flux(method, faces, gas, dx=dx, dt=dt)
        calls.append(None)
        if len(calls) == call:
            f[row, 10] += change * dx / dt
        return f

    return flux


def frame_local(exc, function, name):
    """A local variable of ``function``'s frame in the traceback of ``exc``."""
    tb = exc.__traceback__
    while tb.tb_frame.f_code is not function.__code__:
        tb = tb.tb_next
    return tb.tb_frame.f_locals[name]


class TestOneCheckPerStep:
    """A step's cells are checked by the next step's face check (see
    reconstruct_faces), and the last step's cells once, after it.  The
    Courant signal of the checked windows is taken in batches.  Failures and
    Courant maxima equal those of a check and a signal after every step
    (notes/decisions.md section 13)."""

    # Cell 9's mass or energy taken away, or its momentum made NaN (so its
    # pressure is NaN): (flux row, change)
    BAD = {
        "non-positive density": (0, 10.0),
        "negative pressure": (2, 100.0),
        "nan": (1, np.nan),
    }

    @pytest.mark.parametrize("call", [1, 3, 5], ids=["first step", "middle step", "last step"])
    @pytest.mark.parametrize("bad", list(BAD))
    def test_a_bad_cell_reports_as_a_check_after_every_step(self, monkeypatch, bad, call):
        # Jumps two cells from each wall: every window spans the grid, so
        # both marches flux the same 21 faces
        cfg = small_cfg(FluxMethod.LF, n=20)
        field = layered_field(cfg, (SOD_LEFT, SOD_RIGHT, SOD_LEFT), (0, 2, 18))
        monkeypatch.setattr(solver, "compute_face_flux", bad_cell_flux(call, *self.BAD[bad]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonPhysicalState) as expected:
                full_domain_advance(field, cfg, 5, flux_of=bad_cell_flux(call, *self.BAD[bad]))
            with pytest.raises(NonPhysicalState) as got:
                solver.advance(field, cfg, 5)
        exc = got.value
        assert (exc.args, exc.cell, exc.step) == (
            expected.value.args,
            expected.value.cell,
            expected.value.step,
        )
        assert (exc.cell, exc.step, exc.face) == (9, call - 1, None)
        # The face check that found the cell stays out of the report
        assert exc.__context__ is None and exc.__cause__ is None
        assert got.traceback[-1].path.name == "solver.py"
        assert frame_local(exc, solver._march, "batch") is None

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("call", [1, 3, 5], ids=["first step", "middle step", "last step"])
    @pytest.mark.parametrize("row", [0, 2], ids=["mass", "energy"])
    def test_an_infinite_cell_is_named_before_the_negative_one_after_it(self, monkeypatch, row, call):
        # An infinite flux at face 10 makes cell 9's row +inf and cell 10's
        # -inf.  MUSCL's face check fails on both (NaN half-slopes, with
        # RuntimeWarnings), and the report names cell 9, the first cell
        # that is not positive and finite, as a check after every step does
        cfg = small_cfg(FluxMethod.LF, n=20)
        field = layered_field(cfg, (SOD_LEFT, SOD_RIGHT, SOD_LEFT), (0, 2, 18))
        monkeypatch.setattr(solver, "compute_face_flux", bad_cell_flux(call, row, -np.inf))
        with pytest.raises(NonPhysicalState) as expected:
            full_domain_advance(field, cfg, 5, flux_of=bad_cell_flux(call, row, -np.inf))
        with pytest.raises(NonPhysicalState) as got:
            solver.advance(field, cfg, 5)
        exc = got.value
        assert (exc.args, exc.cell, exc.step) == (
            expected.value.args,
            expected.value.cell,
            expected.value.step,
        )
        assert (exc.cell, exc.step, exc.face) == (9, call - 1, None)

    def test_a_kernel_failure_drops_the_batch(self, monkeypatch):
        # The third step's flux fails on good cells: the error is the
        # kernel's, and a traceback that keeps the frame does not keep the
        # batch of the windows checked so far
        calls = []

        def flux(method, faces, gas, dx, dt):
            calls.append(None)
            if len(calls) == 3:
                raise VacuumGenerated("vacuum", face=2)
            return compute_face_flux(method, faces, gas, dx=dx, dt=dt)

        monkeypatch.setattr(solver, "compute_face_flux", flux)
        cfg = small_cfg(FluxMethod.LF, n=20)
        field = layered_field(cfg, (SOD_LEFT, SOD_RIGHT, SOD_LEFT), (0, 2, 18))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(VacuumGenerated) as excinfo:
                solver.advance(field, cfg, 5)
        exc = excinfo.value
        assert (exc.args, exc.face, exc.step) == (("vacuum",), 2, 2)
        assert str(exc) == "vacuum at face 2 at step 2"
        assert excinfo.traceback[-1].path.name == "test_solver.py"
        assert frame_local(exc, solver._march, "batch") is None

    # (method, Toro test or None for Sod)
    COURANT_RUNS = [(FluxMethod.LF, None), (FluxMethod.RUSANOV, None), (FluxMethod.ROE, 1)]

    @pytest.mark.parametrize("cap", [1, 3, 101, 2048])
    @pytest.mark.parametrize(("method", "test"), COURANT_RUNS)
    def test_courant_maximum_for_any_batch(self, monkeypatch, cap, method, test):
        # 101 cells lie between the first windows (4 cells) and the last
        # (well over 101 on all three runs)
        monkeypatch.setattr(solver, "_SIGNAL_BATCH", cap)
        widths = []
        signal_peak = solver._signal_peak

        def counted(w, gamma):
            widths.append(w.shape[1])
            return signal_peak(w, gamma)

        monkeypatch.setattr(solver, "_signal_peak", counted)
        cfg = RunConfig(method=method) if test is None else toro_config(test, method)
        field = initialize_sod(cfg)
        # At B = 2048 the whole runs reach their maximum in an early batch;
        # after 50 steps, Rusanov's and Roe's lie in the last one
        assert_same_field(solver.advance(field, cfg, 50), full_domain_advance(field, cfg, 50))
        widths.clear()
        got = run(cfg)
        assert_same_field(got, full_domain_advance(field, cfg, step_count(cfg)))
        if cap < 2048:
            # some window was reduced alone
            assert max(widths[:-1]) > cap
        else:
            # a batch is flushed when the next window does not fit (a window
            # is at most 200 cells), then the last batch and the last window
            assert len(widths) < step_count(cfg) / 10
            assert all(width > cap - 200 for width in widths[:-2])


class TestIncomingField:
    """Outside its first window the incoming field is two uniform blocks, and
    advance reads them from the window's end cells; checks, reports and
    results equal the whole grid's (notes/decisions.md section 11)."""

    # Conserved states: a NaN in q, non-positive density and pressure,
    # infinities whose primitives are NaN (u = inf / inf), and an infinite
    # density or pressure
    BAD = {
        "nan": (np.nan, 0.0, 1.0),
        "zero density": (0.0, 0.0, 1.0),
        "negative pressure": (1.0, 0.0, -1.0),
        "nan primitives": (np.inf, np.inf, 1.0),
        "infinite mass": (np.inf, 0.0, 1.0),
        "infinite energy": (1.0, 0.0, np.inf),
    }
    # Cells that get the bad state, in a Sod field of 60 cells whose jump
    # lies between cells 29 and 30 (first window [28, 32)); a bad block
    # moves the window's ends to its own jump
    WHERE = {"left block": (0, 10), "window": (30, 31), "right block": (50, 60)}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("where", list(WHERE))
    @pytest.mark.parametrize("bad", list(BAD))
    def test_bad_state_reports_the_whole_grids_cell(self, bad, where):
        cfg = small_cfg(n=60)
        cells = initialize_sod(cfg).cells.copy()
        start, stop = self.WHERE[where]
        cells[:, start:stop] = np.array(self.BAD[bad])[:, None]
        field = solver.SolutionField(time=0.0, cells=cells)
        with pytest.raises(NonPhysicalState) as expected:
            full_domain_advance(field, cfg, 2)
        with pytest.raises(NonPhysicalState) as got:
            solver.advance(field, cfg, 2)
        assert (got.value.args, got.value.cell, got.value.step) == (
            expected.value.args,
            expected.value.cell,
            expected.value.step,
        )
        assert got.value.cell == start

    @pytest.mark.parametrize("row", [0, 2], ids=["mass", "energy"])
    def test_an_infinite_cell_is_named_without_a_warning(self, row):
        # inf > 0 passes a check of positivity alone, and MUSCL would then
        # report face 31 after three RuntimeWarnings
        cfg = small_cfg()
        cells = initialize_sod(cfg).cells.copy()
        cells[row, 30] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonPhysicalState) as excinfo:
                solver.advance(solver.SolutionField(time=0.0, cells=cells), cfg, 1)
        assert str(excinfo.value) == "solver produced non-positive density/pressure in cell 30 at step 0"

    @pytest.mark.parametrize("shape", [(3, 50), (2, 10), (3, 0)])
    def test_cells_not_of_the_grid_are_rejected(self, shape):
        # Under the 200-cell default a 50-cell field marched with dx = 1/200
        # and reported a Courant maximum for a grid it never had; (2, 10)
        # died in numpy broadcasting, and (3, 0) raised IndexError
        with pytest.raises(InvalidConfig) as excinfo:
            solver.advance(solver.SolutionField(time=0.0, cells=np.ones(shape)), RunConfig(), 1)
        assert str(excinfo.value) == f"field cells must be a (3, 200) array for the grid, got shape {shape}"

    def test_a_window_spanning_the_grid_is_not_checked_again(self, monkeypatch):
        # it cannot grow, and a window wider than needed is exact
        checks, widths = [], []
        grow, reconstruct = solver._grow, solver.reconstruct_faces

        def counted_grow(q, lo, hi):
            grown = grow(q, lo, hi)
            checks.append(((lo, hi), grown))
            return grown

        def counted_reconstruct(w):
            # the window's cells, between a cell at each end
            widths.append(w.shape[1] - 2)
            return reconstruct(w)

        monkeypatch.setattr(solver, "_grow", counted_grow)
        monkeypatch.setattr(solver, "reconstruct_faces", counted_reconstruct)
        cfg = small_cfg(FluxMethod.LF)
        field = initialize_sod(cfg)
        got = solver.advance(field, cfg, 30)
        # Lax-Friedrichs widens the window by a cell a step on each side;
        # its last check, after step 22, grows [1, 49) to the whole grid,
        # which the last seven steps march unchecked
        assert checks == [((23 - k, 27 + k), (22 - k, 28 + k)) for k in range(23)]
        assert widths == [min(4 + 2 * k, 50) for k in range(30)]
        assert_same_field(got, full_domain_advance(field, cfg, 30))

    @pytest.mark.parametrize("method", [FluxMethod.RIEMANN, FluxMethod.LF])
    def test_the_incoming_field_is_the_only_scan(self, monkeypatch, method):
        scans = []
        window = solver._window

        def counted(*args):
            scans.append(args[1:])
            return window(*args)

        monkeypatch.setattr(solver, "_window", counted)
        cfg = small_cfg(method)
        field = initialize_sod(cfg)
        for n_steps in (0, 1, 30):
            scans.clear()
            solver.advance(field, cfg, n_steps)
            assert scans == [(0, 50)]


class TestNoStack:
    """np.stack is a Python-level wrapper, several times slower than np.array
    at 200 cells, so no step and no exact profile may call it
    (notes/decisions.md section 5)."""

    def test_no_call_reaches_np_stack(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.stack called")

        monkeypatch.setattr(np, "stack", refuse)
        for method in FluxMethod:
            run(RunConfig(method=method, t_final=0.002))
        exact_profile(RiemannInput(SOD_LEFT, SOD_RIGHT), Grid1D().centers(), 0.5, 0.2)


# The benchmark's workloads: Toro's Table 4.1, and the runs of toro-suite
# and sod20k-bulk
WORKLOADS = load_script(ROOT / "perfbench" / "workloads.py")
TORO_TESTS = WORKLOADS.TORO_TESTS
TORO_RUNS = {run.label: run for run in WORKLOADS.toro_suite().runs}
BULK = WORKLOADS.sod20k_bulk()

# (test, method) -> (cell, step) of the NonPhysicalState each run dies with
# at 200 cells.  The other 97 runs of the 5 x 22 matrix complete.
TORO_FAILURES = {
    (2, "roe"): (99, 1),
    (2, "aufs"): (99, 0),
    (2, "hll-roe"): (99, 1),
    (2, "hll-einfeldt"): (99, 1),
    (2, "hllc-roe"): (99, 1),
    (2, "hllc-einfeldt"): (99, 1),
    (3, "ausm"): (100, 0),
    (3, "ausm-plus"): (100, 0),
    (3, "ausm-plus-up"): (99, 0),
    (4, "ausm-plus"): (148, 213),
    (4, "hll-davis1"): (83, 33),
    (4, "hllc-davis1"): (84, 34),
    (5, "aufs"): (159, 239),
}
# The pinned runs that complete with zero slopes
TORO_FIRST_ORDER_COMPLETES = {(4, "ausm-plus"), (4, "hll-davis1"), (4, "hllc-davis1"), (5, "aufs")}
# The nine that do not, the early deaths: the density and pressure of the
# bad cell after the failing step, and the face of that cell whose flux,
# alone, makes them so (notes/decisions.md sections 27 and 28)
TORO_EARLY_DEATHS = {
    (2, "roe"): ((0.46927916, -0.31095486), "right"),
    (2, "aufs"): ((0.71014493, -0.08963089), "right"),
    (2, "hll-roe"): ((0.46927916, -0.31095486), "right"),
    (2, "hll-einfeldt"): ((0.48750263, -0.03189005), "right"),
    (2, "hllc-roe"): ((0.46927916, -0.31095486), "right"),
    (2, "hllc-einfeldt"): ((0.48750263, -0.03189005), "right"),
    (3, "ausm"): ((1.0, -5.67877511), "left"),
    (3, "ausm-plus"): ((1.0, -5.67877511), "left"),
    (3, "ausm-plus-up"): ((-128.938364, -180913.665), "right"),
}


def toro_config(test: int, method: FluxMethod) -> RunConfig:
    """Toro's test on 200 cells, as the benchmark's toro-suite runs it."""
    return TORO_RUNS[f"test{test}/{method.value}"].cfg


def bulk_config(method: FluxMethod) -> RunConfig:
    """Sod on 20 000 cells for 20 steps, as the benchmark's sod20k-bulk."""
    return solver.sweep_config(BULK.runs[0].cfg, method)


class TestOneProblemIsABatchOfOne:
    """A single problem is solved as a batch of one face, so its star region
    is the exact flux's for the same face (notes/decisions.md section 22)."""

    @pytest.mark.parametrize("test", [0, *TORO_TESTS])
    def test_solve_star_equals_the_face_in_a_batch(self, test):
        left, right = (SOD_LEFT, SOD_RIGHT) if test == 0 else TORO_TESTS[test][:2]
        star = riemann.solve_star(RiemannInput(left, right))
        # the face as the window hands it over: strided rows of (3, 2, 1) faces
        faces = np.array([left.array, right.array]).T[:, :, None]
        batch = riemann.star_state_arrays(faces[:, 0], faces[:, 1], GAS.gamma)
        got = (star.p_star, star.u_star, star.rho_star_left, star.rho_star_right)
        assert np.array(got).tobytes() == np.concatenate(batch).tobytes()


class TestBulkReferenceProfile:
    def test_its_peak_is_the_result_and_one_block(self):
        # The reference profile on sod20k-bulk's 20 000 centres is sampled
        # in blocks of 2 048 positions (notes/decisions.md section 23): its
        # tracemalloc peak, 919 120 bytes, is the 480 000-byte result and
        # one block's temporaries.  One sampler call over every position
        # read 4 244 736, and blocks cut from the whole grid's xi 1 062 848
        (call,) = BULK.reference_calls
        exact_profile(*call)  # warm
        tracemalloc.start()
        try:
            exact_profile(*call)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.9 * 2**20


class TestToroFailures:
    def test_the_pinned_runs_are_the_benchmarks(self):
        # the pinned runs here carry their cell and step; the benchmark's
        # carry only the runs
        pinned = WORKLOADS.TORO_PINNED_FAILURES
        assert set(TORO_FAILURES) == {(test, m) for test, methods in pinned.items() for m in methods}

    # A step's bad cells reach the next step's reconstruction before they
    # are reported; in these runs that raises no warning either
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(("test", "method"), list(TORO_FAILURES))
    def test_pinned_failure(self, test, method):
        assert_pinned_failure(test, method)

    # With zero slopes the nine early deaths die alike, so their flux makes
    # the bad cell; the four late ones complete, so MUSCL is implicated
    # (notes/decisions.md section 27)
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(("test", "method"), list(TORO_FAILURES))
    def test_first_order_control(self, test, method, monkeypatch):
        monkeypatch.setattr(solver, "reconstruct_faces", first_order_faces)
        if (test, method) in TORO_FIRST_ORDER_COMPLETES:
            w = run(toro_config(test, FluxMethod(method))).primitives(GAS)
            assert np.all(w[::2] > 0.0)
        else:
            assert_pinned_failure(test, method)

    # Each early death is first order already: every face MUSCL builds in
    # the run is its cell's value
    @pytest.mark.parametrize(
        ("test", "method"), [pin for pin in TORO_FAILURES if pin not in TORO_FIRST_ORDER_COMPLETES]
    )
    def test_early_deaths_see_no_slope(self, test, method, monkeypatch):
        half_slopes = record_half_slopes(monkeypatch)
        assert_pinned_failure(test, method)
        assert half_slopes == [0.0] * (TORO_FAILURES[test, method][1] + 1)

    # Toro 2's six lose pressure, not density, through the jump face on
    # their right; Toro 3's AUSM and AUSM+ gain momentum but no mass through
    # the jump face on their left (the mass flux is 0 at M = 0); AUSM+-up
    # loses both through the jump face on its right
    @pytest.mark.parametrize(
        ("test", "method"), [pin for pin in TORO_FAILURES if pin not in TORO_FIRST_ORDER_COMPLETES]
    )
    def test_which_value_and_face_fail_in_an_early_death(self, test, method, monkeypatch):
        windows, fluxes = [], []
        for name, results in (("_window", windows), ("_grow", windows), ("compute_face_flux", fluxes)):

            def recorded(*args, _f=getattr(solver, name), _results=results, **kwargs):
                _results.append(_f(*args, **kwargs))
                return _results[-1]

            monkeypatch.setattr(solver, name, recorded)
        exc = assert_pinned_failure(test, method)
        cell, step_index = TORO_FAILURES[test, method]
        # The failing step's own window, not the one _grow widened after it
        lo = windows[step_index][0]
        left, right = fluxes[step_index][:, cell - lo : cell - lo + 2].T
        cfg = toro_config(test, FluxMethod(method))
        monkeypatch.undo()
        q = solver.advance(initialize_sod(cfg), cfg, step_index).cells[:, cell]
        dt_dx = cfg.dt / cfg.grid.dx
        bad = q - dt_dx * (right - left)
        assert bad.tobytes() == frame_local(exc, solver._march, "cells")[:, cell].tobytes()
        (rho, p), face = TORO_EARLY_DEATHS[test, method]
        assert primitive_array(bad[:, None], GAS.gamma)[::2, 0] == pytest.approx((rho, p), rel=1e-6)
        # Each face's flux alone, the other face passing the cell's own
        # Euler flux, as in a uniform flow
        own = flux_array(primitive_array(q[:, None], GAS.gamma), GAS.gamma)[:, 0]
        alone = {"left": q - dt_dx * (own - left), "right": q - dt_dx * (right - own)}
        rho_p = {side: primitive_array(c[:, None], GAS.gamma)[::2, 0] for side, c in alone.items()}
        assert [side for side, w in rho_p.items() if not np.all(w > 0.0)] == [face]

    def test_toro2_deaths_are_the_estimates_inside_the_exact_waves(self):
        # The face every Toro 2 death fluxes first, with zero slopes, holds
        # the two data states.  Their exact outer waves are the fans' heads
        # at -+2.74833.  Roe's u~ -+ a~, Einfeldt's speeds and AUFS's
        # u_avg -+ mean(a) lie strictly inside them; Davis-1, Davis-2 and
        # p-based reach them exactly.  The six Toro 2 pins are exactly the
        # methods built on the three inside estimates: the linearised-solver
        # mechanism of Einfeldt, Munz, Roe and Sjogreen, J. Comput. Phys. 92
        # (1991) (notes/decisions.md section 27)
        left, right = TORO_TESTS[2][:2]
        waves = riemann.solve_star(RiemannInput(left, right)).speeds
        heads = (waves.left_head, waves.right_head)
        assert heads == pytest.approx((-2.74833, 2.74833), abs=5e-6)
        estimates = {
            speeds: tuple(float(s) for s in speeds(sides(left, right), GAS.gamma))
            for speeds in {entry[1] for entry in fluxes._KERNELS.values() if len(entry) == 2}
        }
        assert len(estimates) == 6
        inside = {f: s for f, s in estimates.items() if heads[0] < s[0] and s[1] < heads[1]}
        assert {f.__name__: s for f, s in inside.items()} == {
            "roe_speeds": pytest.approx((-1.16619, 1.16619), abs=5e-6),
            "einfeldt_speeds": pytest.approx((-1.6, 1.6), abs=1e-12),
            "aufs_speeds": pytest.approx((-0.74833, 0.74833), abs=5e-6),
        }
        assert {f.__name__ for f, s in estimates.items() if s == heads} == {
            "davis1_speeds",
            "davis2_speeds",
            "pbased_speeds",
        }
        # Roe's own flux upwinds on the same Roe-average eigenvalues u~ -+ a~
        users = {m.value for m, entry in fluxes._KERNELS.items() if entry[1:] and entry[1] in inside}
        assert users | {"roe"} == {method for test, method in TORO_FAILURES if test == 2}


def assert_pinned_failure(test, method):
    """The run dies as TORO_FAILURES pins it; returns the error."""
    with pytest.raises(NonPhysicalState) as excinfo:
        run(toro_config(test, FluxMethod(method)))
    cell, step_index = TORO_FAILURES[test, method]
    exc = excinfo.value
    assert (exc.cell, exc.face, exc.step) == (cell, None, step_index)
    assert str(exc) == f"solver produced non-positive density/pressure in cell {cell} at step {step_index}"
    return exc


# The runs of Toro's matrix in which a rescan of cells lo - 1 ... hi after
# some step finds a narrower window than the one the step marched
TORO_NARROWING = {
    (2, "sw"),
    (4, "roe"),
    (4, "knp"),
    (4, "van-leer"),
    (4, "ausm"),
    (4, "aufs"),
    (4, "hll-davis2"),
    (4, "hll-roe"),
    (4, "hll-einfeldt"),
    (4, "hll-pbased"),
    (4, "hllc-roe"),
    (4, "hllc-einfeldt"),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestToroMatrix:
    """The 97 runs of Toro's 5 x 22 matrix that are not pinned failures
    complete with a finite RMSE, and every window grows as the rescan rule
    does.  In 12 of them a rescan finds a narrower window than the one its
    step marched; the window keeps its width, and all 97 runs end bitwise
    equal to the whole-grid loop (notes/decisions.md section 10)."""

    def test_runs_complete_and_narrowing_windows_are_exact(self, monkeypatch):
        narrowing, _ = check_growth_against_rescan(monkeypatch)
        narrowed = set()
        for test in TORO_TESTS:
            for method in FluxMethod:
                if (test, method.value) in TORO_FAILURES:
                    continue
                toro_run = TORO_RUNS[f"test{test}/{method.value}"]
                cfg = toro_run.cfg
                narrowing.clear()
                final = run(cfg)
                rmse = bench.rmse(final.primitives(GAS), toro_run.reference.w)
                assert all(math.isfinite(r) for r in rmse), (test, method)
                if narrowing:
                    narrowed.add((test, method.value))
                expected = full_domain_advance(initialize_sod(cfg), cfg, step_count(cfg))
                assert final.cells.tobytes() == expected.cells.tobytes(), (test, method)
                assert_same_field(final, expected)
        assert narrowed == TORO_NARROWING


def run_bytes(march, *args):
    """The bytes of the final cells, the time and the Courant maximum of a
    march, or the type, message, cell, face and step of the error it raises."""
    try:
        final = march(*args)
    except SodbenchError as exc:
        return type(exc), exc.args, exc.cell, exc.face, exc.step
    return final.cells.tobytes(), final.time, final.max_courant_observed


# The Sod-200 benchmark run (None) and Toro's tests 1-5
PROBLEMS = [None, *TORO_TESTS]


class TestRunIsAdvance:
    """run marches the step data it builds in place, and takes its first
    window from the one interface between the two blocks; advance copies a
    caller's field and scans every interface.  Both drive the one stepping
    loop, so a run is advance's march of the step data, byte for byte
    (notes/decisions.md section 19)."""

    @pytest.mark.parametrize("method", list(FluxMethod), ids=lambda m: m.value)
    @pytest.mark.parametrize("test", PROBLEMS, ids=lambda t: "sod" if t is None else f"toro{t}")
    def test_run_is_advance_of_the_step_data(self, test, method):
        cfg = RunConfig(method=method) if test is None else toro_config(test, method)
        got = run_bytes(run, cfg)
        assert got == run_bytes(solver.advance, initialize_sod(cfg), cfg, step_count(cfg))
        # the 13 pinned failures compare their errors
        assert isinstance(got[0], type) == ((test, method.value) in TORO_FAILURES)

    # RunConfig fields on a 50-cell grid, and the number of left cells
    FIRST_WINDOWS = {
        "jump at cell 0": ({"jump_position": -0.25}, 0),
        "jump at cell n": ({"jump_position": 1.25}, 50),
        "jump on a center": ({"jump_position": float(Grid1D(0.0, 1.0, 50).centers()[20])}, 20),
        "equal states": ({"right": SOD_LEFT}, 25),
        "signed zeros": (
            {"left": PrimitiveState(1.0, 0.0, 1.0), "right": PrimitiveState(1.0, -0.0, 1.0)},
            25,
        ),
    }

    @pytest.mark.parametrize("method", [FluxMethod.RIEMANN, FluxMethod.LF, FluxMethod.HLLC_ROE])
    @pytest.mark.parametrize("case", list(FIRST_WINDOWS))
    def test_first_window_is_the_full_scans(self, monkeypatch, case, method):
        fields, n_left = self.FIRST_WINDOWS[case]
        cfg = dataclasses.replace(small_cfg(method, t_final=0.04), **fields)
        cells = initialize_sod(cfg).cells
        n = cells.shape[1]
        assert solver._step_data(cfg)[1] == n_left
        if case == "signed zeros":
            # one block, under !=, whose momenta differ in their bytes
            assert not np.signbit(cells[1, :n_left]).any() and np.signbit(cells[1, n_left:]).all()
        scans = []
        window = solver._window

        def counted(q, start, stop):
            scans.append(((start, stop), window(q, start, stop)))
            return scans[-1][1]

        monkeypatch.setattr(solver, "_window", counted)
        got = run_bytes(run, cfg)
        assert scans == [((max(n_left - 1, 0), min(n_left + 1, n)), window(cells, 0, n))]
        assert got == run_bytes(solver.advance, initialize_sod(cfg), cfg, step_count(cfg))


class TestNewtonWork:
    """Newton iterations per step of the exact flux (notes/decisions.md, sec. 9)."""

    def test_sod_steps_take_at_most_four(self, newton_iterations):
        cfg = RunConfig()
        run(cfg)
        assert len(newton_iterations) == step_count(cfg)
        assert max(newton_iterations) <= 4

    def test_toro5_steps_take_at_most_six(self, newton_iterations):
        # the two-rarefaction start overshot to the pressure floor here and
        # took up to 15 iterations
        cfg = toro_config(5, FluxMethod.RIEMANN)
        run(cfg)
        assert len(newton_iterations) == step_count(cfg)
        assert max(newton_iterations) <= 6

    def test_each_exact_run_takes_the_pinned_iterations(self, newton_iterations):
        # Newton's total over each run of the exact flux, the same whether
        # counted from two pressure-function calls per iteration or from one
        # (notes/decisions.md section 22)
        configs = {
            "sod200": RunConfig(method=FluxMethod.RIEMANN),
            "sod20k": bulk_config(FluxMethod.RIEMANN),
            **{f"toro{test}": toro_config(test, FluxMethod.RIEMANN) for test in TORO_TESTS},
        }
        totals = {}
        for name, cfg in configs.items():
            newton_iterations.clear()
            run(cfg)
            assert len(newton_iterations) == step_count(cfg)
            totals[name] = sum(newton_iterations)
        assert totals == {
            "sod200": 603,
            "sod20k": 64,
            "toro1": 682,
            "toro2": 507,
            "toro3": 954,
            "toro4": 860,
            "toro5": 1444,
        }

    def test_toro3_undisturbed_left_state_stays_bitwise(self):
        # faces whose velocities differ by round-off keep p* = p bitwise, so
        # no ulp of momentum flux leaks into the state ahead of the fan
        cfg = toro_config(3, FluxMethod.RIEMANN)
        initial = initialize_sod(cfg).cells
        final = run(cfg).cells
        assert np.array_equal(final[:, :10], initial[:, :10])


class TestSweepConfig:
    def test_swaps_method_only(self):
        base = RunConfig(method=FluxMethod.RIEMANN)
        swapped = sweep_config(base, FluxMethod.LF)
        assert swapped.method is FluxMethod.LF
        assert swapped.grid == base.grid
        assert swapped.dt == base.dt


class TestConfigValidation:
    def test_positive_dt_required(self):
        with pytest.raises(InvalidConfig):
            RunConfig(dt=0.0)

    def test_non_negative_final_time_required(self):
        with pytest.raises(InvalidConfig):
            RunConfig(t_final=-0.1)

    def test_method_must_be_a_flux_method(self):
        # a name passed set-up and failed at step 0, which bench.rmse_report
        # turned into a table row
        with pytest.raises(InvalidConfig, match="method must be a FluxMethod, got 'roe'"):
            RunConfig(method="roe")

    @pytest.mark.parametrize(
        "field, value, kind",
        [
            ("left", (1.0, 0.0, 1.0), "PrimitiveState"),
            ("right", (0.125, 0.0, 0.1), "PrimitiveState"),
            ("grid", 200, "Grid1D"),
            ("gas", 1.4, "GasModel"),
        ],
    )
    def test_fields_must_have_their_types(self, field, value, kind):
        # each passed set-up, and bench.rmse_report died with a bare
        # AttributeError on the first attribute it read
        with pytest.raises(InvalidConfig, match=re.escape(f"{field} must be a {kind}, got {value!r}")):
            RunConfig(**{field: value})
