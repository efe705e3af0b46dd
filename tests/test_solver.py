"""Godunov time integration: setup, stepping, conservation, reproducibility."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sodbench import bench, riemann, solver
from sodbench.errors import (
    InvalidConfig,
    NoConvergence,
    NonPhysicalState,
    SodbenchError,
    VacuumGenerated,
)
from sodbench.fluxes import FluxMethod, compute_face_flux
from sodbench.gas import GasModel, PrimitiveState, conserved_array, primitive_array, sound_speed_array
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
        # stamps the step on the exception muscl raised
        cfg = RunConfig()
        q = solver.advance(initialize_sod(cfg), cfg, 2).cells
        window_start = int(np.argmax((q[:, 1:] != q[:, :-1]).any(axis=0))) - 1
        real = solver.reconstruct_faces
        calls = []

        def poisoned(w):
            calls.append(1)
            if len(calls) == 3:
                w = w.copy()
                w[2, 100 - window_start] = -1.0
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

    def test_dt_beyond_final_time_rejected(self):
        # t_final / dt rounds to 0 steps although time is asked to pass
        with pytest.raises(InvalidConfig, match="no step"):
            step_count(RunConfig(dt=1e300))

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

    def test_grid_refinement_reduces_total_rmse(self):
        def total_rmse(n_cells, dt):
            cfg = RunConfig(method=FluxMethod.RIEMANN, grid=Grid1D(0.0, 1.0, n_cells), dt=dt)
            final = run(cfg)
            reference = exact_profile(
                RiemannInput(cfg.left, cfg.right, cfg.gas),
                cfg.grid.centers(),
                cfg.jump_position,
                cfg.t_final,
            )
            return float(
                np.sum(np.sqrt(np.mean((final.primitives(GAS) - reference.w) ** 2, axis=1)))
            )

        assert total_rmse(400, 0.0005) < total_rmse(200, 0.001)


class TestOneLoop:
    """run, step and timing_sweep all go through solver.advance, which looks
    up these three entry points as module attributes on every call (wrappers
    installed on the module must see every step)."""

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
    positive (or is NaN), as solver.advance words it."""
    bad = ~((w[0] > 0.0) & (w[2] > 0.0))
    if bad.any():
        cell = int(bad.argmax())
        raise NonPhysicalState(
            f"solver produced non-positive density/pressure in cell {cell} at step {step_index}",
            cell=cell,
            step=step_index,
        )


def full_domain_advance(
    field, cfg, n_steps, reconstruct=reconstruct_faces, flux_of=compute_face_flux
):
    """The stepping loop without a window: every step reconstructs, fluxes,
    updates, checks and monitors the whole grid, in the arithmetic of
    solver.advance.  The cells are checked after every step."""
    gamma, dx = cfg.gas.gamma, cfg.grid.dx
    q = field.cells
    w = primitive_array(q, gamma)
    whole_grid_check(w, 0)
    time, max_courant = field.time, field.max_courant_observed
    for k in range(n_steps):
        faces = reconstruct(w)
        flux = flux_of(cfg.method, faces, cfg.gas, dx=dx, dt=cfg.dt)
        q = q - (cfg.dt / dx) * (flux[:, 1:] - flux[:, :-1])
        w = primitive_array(q, gamma)
        whole_grid_check(w, k)
        signal = np.abs(w[1]) + sound_speed_array(w, gamma)
        max_courant = max(max_courant, float(signal.max()) * cfg.dt / dx)
        time += cfg.dt
    return solver.SolutionField(time=time, cells=q, max_courant_observed=max_courant)


def mirrored(reconstruct):
    """The reconstruction applied to the mirror image x -> -x, u -> -u.  A
    failure names its face in the order of the faces handed back."""
    flip = np.array([1.0, -1.0, 1.0])[:, None]

    def run(w):
        try:
            faces = reconstruct(flip * w[:, ::-1])
        except NonPhysicalState as exc:
            face = w.shape[1] - exc.face
            message = f"mirrored reconstruction fails at face {face}"
            raise NonPhysicalState(message, face=face) from None
        # Mirroring swaps the two sides of every face and reverses the faces
        return flip[:, :, None] * faces[:, ::-1, ::-1]

    return run


def one_slope(phi):
    """MUSCL as reconstruct_faces builds it, w +- phi(r) d_m / 2 with
    r = d_p / d_m (0 where either difference is 0), for a phi other than
    van Leer's.  A failure names the first face with a non-positive density
    or pressure on either side."""

    def reconstruct(w):
        ext = np.concatenate([w[:, :1], w, w[:, -1:]], axis=1)
        d = ext[:, 1:] - ext[:, :-1]
        d_m, d_p = d[:, :-1], d[:, 1:]
        r = np.divide(d_p, d_m, out=np.zeros_like(d_m), where=(d_m != 0.0) & (d_p != 0.0))
        half = 0.5 * phi(r) * d_m
        faces = np.empty((3, 2, d.shape[1]))
        faces[:, 0, 0], faces[:, 0, 1:] = w[:, 0], w + half
        faces[:, 1, :-1], faces[:, 1, -1] = w - half, w[:, -1]
        bad = ~((faces[0] > 0.0) & (faces[2] > 0.0)).all(axis=0)
        if bad.any():
            face = int(bad.argmax())
            raise NonPhysicalState(f"non-positive reconstructed state at face {face}", face=face)
        return faces

    return reconstruct


# phi = 1/5: the slope of a cell whose left difference is a jump stays open,
# so the flux moves the cell right of it as well
open_limiter = one_slope(lambda r: np.full_like(r, 0.2))

# Van Leer's phi(0) = 0 leaves a window's end cells unchanged, so an end
# grows by one cell a step at most; phi = 1/5 moves the right end cell and
# its mirror image the left one, and each grows that end by two
RECONSTRUCTIONS = (reconstruct_faces, open_limiter, mirrored(open_limiter))


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
    of cells lo - 1 ... hi, wherever that rescan finds a jump.  Returns two
    lists: one gets each marched window whose rescan finds a narrower one,
    the other the cells each check grows the left and the right end by."""
    grow = solver._grow
    narrowing, growth = [], []

    def checked(q, lo, hi):
        got = grow(q, lo, hi)
        growth.append((lo - got[0], got[1] - hi))
        start, stop = max(lo - 1, 0), min(hi + 1, q.shape[1])
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
        return type(exc), getattr(exc, "cell", None), exc.face


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
    def test_sod(self, method):
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
        # Only phi = 1/5 and its mirror image grow an end by two cells, so
        # the march must meet both cases or those branches of solver._grow
        # go unchecked
        grown_by_two = set()

        @settings(max_examples=60, deadline=None)
        @given(
            blocks_on_a_background(48),
            st.sampled_from(list(FluxMethod)),
            st.sampled_from(RECONSTRUCTIONS),
            st.integers(1, 12),
        )
        def march(layout, method, reconstruct, n_steps):
            cfg = RunConfig(method=method, grid=Grid1D(0.0, 1.0, 48), dt=0.4 / 96)
            field = layered_field(cfg, *layout)
            with pytest.MonkeyPatch.context() as patch:
                _, growth = check_growth_against_rescan(patch)
                patch.setattr(solver, "reconstruct_faces", reconstruct)
                got = outcome(solver.advance, field, cfg, n_steps)
            expected = outcome(full_domain_advance, field, cfg, n_steps, reconstruct)
            assert type(got) is type(expected)
            if isinstance(expected, tuple):
                assert got == expected
            else:
                assert got.cells.tobytes() == expected.cells.tobytes()
                assert_same_field(got, expected)
            for cells in growth:
                grown_by_two.update(end for end, n in zip(("left", "right"), cells) if n == 2)

        march()
        assert grown_by_two == {"left", "right"}

    limiter_minus_one = staticmethod(one_slope(lambda r: -np.ones_like(r)))

    def assert_courant_of_the_fast_block(self, monkeypatch, reconstruct, states):
        monkeypatch.setattr(solver, "reconstruct_faces", reconstruct)
        cfg = small_cfg(FluxMethod.HLL_DAVIS1, n=60, dt=0.001)
        field = layered_field(cfg, states, (0, 30))
        got = solver.advance(field, cfg, 3)
        assert got.max_courant_observed == pytest.approx((3.0 + math.sqrt(1.4)) * 0.06, rel=1e-14)
        assert_same_field(got, full_domain_advance(field, cfg, 3, reconstruct))

    def test_courant_monitor_counts_cells_outside_the_first_window(self, monkeypatch):
        # Supersonic flow speeding up across a jump: the fast cells right of
        # it set the Courant maximum.  With van Leer's phi(0) = 0 the window
        # keeps an unchanged copy of each side's state.  A limiter with
        # phi(0) = -1 slows every right cell of the window down instead, so
        # only the incoming state outside it holds the maximum
        slow, fast = PrimitiveState(1.0, 2.0, 1.0), PrimitiveState(1.0, 3.0, 1.0)
        self.assert_courant_of_the_fast_block(monkeypatch, self.limiter_minus_one, (slow, fast))

    def test_courant_monitor_counts_the_left_block(self, monkeypatch):
        # The mirror image (x -> -x, u -> -u) of the test above: the fast
        # block lies left of the jump.  The one-slope reconstruction keeps
        # the window's left end cell unchanged for any limiter; only the
        # mirrored one changes it, leaving the maximum to the left block
        slow, fast = PrimitiveState(1.0, -2.0, 1.0), PrimitiveState(1.0, -3.0, 1.0)
        reconstruct = mirrored(self.limiter_minus_one)
        self.assert_courant_of_the_fast_block(monkeypatch, reconstruct, (fast, slow))

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
        grid = Grid1D(0.0, 1.0, 20_000)
        cfg = RunConfig(method=method, grid=grid, dt=0.4 * grid.dx / 2)
        field = initialize_sod(cfg)
        tracemalloc.start()
        try:
            solver.advance(field, cfg, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * field.cells.nbytes


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
        assert frame_local(exc, solver.advance, "batch") is None

    def test_a_kernel_failure_drops_the_batch(self, monkeypatch):
        # The third step's flux fails on good cells: the error is the
        # kernel's, and a traceback that keeps the frame does not keep the
        # batch of the windows checked so far
        calls = []

        def flux(method, faces, gas, dx, dt):
            calls.append(None)
            if len(calls) == 3:
                raise VacuumGenerated("vacuum at face 2", face=2)
            return compute_face_flux(method, faces, gas, dx=dx, dt=dt)

        monkeypatch.setattr(solver, "compute_face_flux", flux)
        cfg = small_cfg(FluxMethod.LF, n=20)
        field = layered_field(cfg, (SOD_LEFT, SOD_RIGHT, SOD_LEFT), (0, 2, 18))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(VacuumGenerated) as excinfo:
                solver.advance(field, cfg, 5)
        exc = excinfo.value
        assert (exc.args, exc.face, exc.step) == (("vacuum at face 2 at step 2",), 2, 2)
        assert excinfo.traceback[-1].path.name == "test_solver.py"
        assert frame_local(exc, solver.advance, "batch") is None

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

    # Conserved states: a NaN in q, non-positive density and pressure, and
    # infinities whose primitives are NaN (u = inf / inf)
    BAD = {
        "nan": (np.nan, 0.0, 1.0),
        "zero density": (0.0, 0.0, 1.0),
        "negative pressure": (1.0, 0.0, -1.0),
        "nan primitives": (np.inf, np.inf, 1.0),
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

    def test_a_window_spanning_the_grid_is_not_checked_again(self, monkeypatch):
        # it cannot grow, and a window wider than needed is exact
        checks, widths = [], []
        grow, reconstruct = solver._grow, solver.reconstruct_faces

        def counted_grow(q, lo, hi):
            grown = grow(q, lo, hi)
            checks.append(((lo, hi), grown))
            return grown

        def counted_reconstruct(w):
            widths.append(w.shape[1])
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


def toro_config(test: int, method: FluxMethod) -> RunConfig:
    """Toro's test on 200 cells, dt from Courant 0.4 on the exact solution's
    fastest wave, shortened so that t_final is a whole number of steps."""
    left, right, x0, t_final = TORO_TESTS[test]
    cfg = RunConfig(method=method, left=left, right=right, jump_position=x0, t_final=t_final)
    s = riemann.solve_star(RiemannInput(left, right, cfg.gas)).speeds
    s_max = max(abs(v) for v in (s.left_head, s.left_tail, s.contact, s.right_tail, s.right_head))
    return dataclasses.replace(cfg, dt=t_final / math.ceil(t_final * s_max / (0.4 * cfg.grid.dx)))


class TestToroFailures:
    # A step's bad cells reach the next step's reconstruction before they
    # are reported; in these runs that raises no warning either
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(("test", "method"), list(TORO_FAILURES))
    def test_pinned_failure(self, test, method):
        with pytest.raises(NonPhysicalState) as excinfo:
            run(toro_config(test, FluxMethod(method)))
        cell, step_index = TORO_FAILURES[test, method]
        exc = excinfo.value
        assert (exc.cell, exc.face, exc.step) == (cell, None, step_index)
        assert str(exc) == (
            f"solver produced non-positive density/pressure in cell {cell} at step {step_index}"
        )


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
                cfg = toro_config(test, method)
                narrowing.clear()
                final = run(cfg)
                problem = RiemannInput(cfg.left, cfg.right, cfg.gas)
                reference = exact_profile(problem, cfg.grid.centers(), cfg.jump_position, cfg.t_final)
                rmse = bench.rmse(final.primitives(GAS), reference.w)
                assert all(math.isfinite(r) for r in rmse), (test, method)
                if narrowing:
                    narrowed.add((test, method.value))
                expected = full_domain_advance(initialize_sod(cfg), cfg, step_count(cfg))
                assert final.cells.tobytes() == expected.cells.tobytes(), (test, method)
                assert_same_field(final, expected)
        assert narrowed == TORO_NARROWING


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
        newton_iterations.clear()  # drop the solve that sized dt
        run(cfg)
        assert len(newton_iterations) == step_count(cfg)
        assert max(newton_iterations) <= 6

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
