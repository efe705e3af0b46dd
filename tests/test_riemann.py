"""Exact Riemann solver: star region, wave speeds, sampling, profiles."""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import sodbench.riemann as riemann
from conftest import ROOT, assert_same_bytes, load_script
from sodbench import bench
from sodbench.errors import DegenerateJump, InvalidConfig, NoConvergence, VacuumGenerated
from sodbench.gas import GasModel, PrimitiveState, sound_speed_array
from sodbench.riemann import (
    RiemannInput,
    WaveKind,
    exact_profile,
    pressure_function,
    rankine_hugoniot_speed,
    solve_star,
)

GAS = GasModel()
SOD = RiemannInput(PrimitiveState(1.0, 0.0, 1.0), PrimitiveState(0.125, 0.0, 0.1))

# Wave-property table of the exact Sod solution
P_STAR = 0.30313
U_STAR = 0.92745
RHO_STAR_L = 0.42632
RHO_STAR_R = 0.26557
FAN_HEAD = -1.18322
FAN_TAIL = -0.07027
SHOCK_SPEED = 1.75216
A_STAR_L = 0.99773
MACH_UNSHOCKED = 1.65563
MACH_SHOCKED = 0.65240


def pfun(p, side):
    """pressure_function of one side, a state or (3,) primitive rows, in GAS,
    as two floats; the side's constants are those of a batch of one face."""
    rows = side.array if isinstance(side, PrimitiveState) else side
    f, df = pressure_function(p, riemann._side(rows[:, None], GAS.gamma))
    return f.item(), df.item()


def sample(star, problem, xi):
    """The (3,) primitive state at similarity speed xi = x/t of one solved
    problem, from the sampling kernel."""
    return riemann._sample_arrays(
        problem.left.array,
        problem.right.array,
        star.p_star,
        star.u_star,
        star.rho_star_left,
        star.rho_star_right,
        float(xi),
        problem.gas.gamma,
    )


def random_inputs(n, seed=11):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        left = PrimitiveState(rng.uniform(0.05, 5.0), rng.uniform(-2, 2), rng.uniform(0.05, 5.0))
        right = PrimitiveState(rng.uniform(0.05, 5.0), rng.uniform(-2, 2), rng.uniform(0.05, 5.0))
        g = GAS.gamma
        a_sum = sound_speed_array(left.array, g) + sound_speed_array(right.array, g)
        if 2.0 * a_sum / (g - 1.0) > right.u - left.u:
            out.append(RiemannInput(left, right))
    return out


class TestPressureFunction:
    def test_zero_at_own_pressure_both_branches(self):
        for side in (SOD.left, SOD.right):
            f, _ = pfun(side.p, side)
            assert f == 0.0

    def test_sod_branch_values_cancel_at_star_pressure(self):
        # Brute-force check: f_L + f_R + (u_R - u_L) = 0 at the star pressure
        # (P_STAR itself is rounded to 5 decimals, hence the tolerances)
        f_l, _ = pfun(P_STAR, SOD.left)
        f_r, _ = pfun(P_STAR, SOD.right)
        assert f_l == pytest.approx(-0.92744, abs=5e-5)  # rarefaction branch
        assert f_r == pytest.approx(+0.92744, abs=5e-5)  # shock branch
        assert f_l + f_r + (SOD.right.u - SOD.left.u) == pytest.approx(0.0, abs=1e-4)

    @pytest.mark.parametrize("p", [0.05, 0.3, 0.9, 1.5, 4.0])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_derivative_matches_finite_difference(self, p, side):
        state = getattr(SOD, side)
        h = 1e-7 * p
        _, df = pfun(p, state)
        f_hi, _ = pfun(p + h, state)
        f_lo, _ = pfun(p - h, state)
        assert df == pytest.approx((f_hi - f_lo) / (2.0 * h), rel=1e-6)

    def test_a_batch_of_faces_gives_each_face_its_own_value(self):
        # the constants of many faces at once, as the exact flux makes them
        rng = np.random.default_rng(3)
        rows = np.array([rng.uniform(0.1, 5.0, 50), rng.uniform(-2.0, 2.0, 50), rng.uniform(0.1, 5.0, 50)])
        p = rng.uniform(0.05, 6.0, 50)
        f, df = pressure_function(p, riemann._side(rows, GAS.gamma))
        for k in range(50):
            assert (f[k], df[k]) == pytest.approx(pfun(p[k], rows[:, k]), rel=1e-14)


class TestSolveStar:
    def test_sod_star_region(self):
        star = solve_star(SOD)
        assert star.p_star == pytest.approx(P_STAR, abs=1e-5)
        assert star.u_star == pytest.approx(U_STAR, abs=1e-5)
        assert star.rho_star_left == pytest.approx(RHO_STAR_L, abs=1e-5)
        assert star.rho_star_right == pytest.approx(RHO_STAR_R, abs=1e-5)
        assert star.left_wave is WaveKind.FAN
        assert star.right_wave is WaveKind.SHOCK

    def test_identical_states_degenerate(self):
        w = PrimitiveState(0.7, 0.3, 1.2)
        star = solve_star(RiemannInput(w, w))
        # Newton's exact start returns p* = p_k (notes/decisions.md, sec. 9),
        # so p* > p_k fails on both sides: zero-strength waves are fans of
        # zero width, exactly
        assert (star.p_star, star.u_star) == (w.p, w.u)
        assert (star.rho_star_left, star.rho_star_right) == (w.rho, w.rho)
        assert star.left_wave is star.right_wave is WaveKind.FAN
        assert star.speeds.left_head == star.speeds.left_tail
        assert star.speeds.right_head == star.speeds.right_tail

    def test_mirror_symmetry(self):
        for problem in random_inputs(50):
            star = solve_star(problem)
            mirrored = solve_star(
                RiemannInput(
                    PrimitiveState(problem.right.rho, -problem.right.u, problem.right.p),
                    PrimitiveState(problem.left.rho, -problem.left.u, problem.left.p),
                )
            )
            assert mirrored.p_star == pytest.approx(star.p_star, rel=1e-9)
            assert mirrored.u_star == pytest.approx(-star.u_star, rel=1e-9, abs=1e-11)
            assert mirrored.rho_star_left == pytest.approx(star.rho_star_right, rel=1e-9)
            assert mirrored.rho_star_right == pytest.approx(star.rho_star_left, rel=1e-9)

    def test_residual_below_tolerance(self):
        for problem in random_inputs(200, seed=23):
            star = solve_star(problem)
            f_l, _ = pfun(star.p_star, problem.left)
            f_r, _ = pfun(star.p_star, problem.right)
            assert abs(f_l + f_r + problem.right.u - problem.left.u) < 1e-10

    def test_vacuum_generation_rejected(self):
        # receding states beyond the positivity condition
        left = PrimitiveState(1.0, -10.0, 1.0)
        right = PrimitiveState(1.0, 10.0, 1.0)
        with pytest.raises(VacuumGenerated):
            solve_star(RiemannInput(left, right))
        # among many faces the first receding pair is named
        wl = np.array([SOD.left.array, left.array, SOD.left.array, left.array]).T
        wr = np.array([SOD.right.array, right.array, SOD.right.array, right.array]).T
        with pytest.raises(VacuumGenerated, match="vacuum at face 1$") as excinfo:
            riemann.interface_states(wl, wr, GAS.gamma)
        assert excinfo.value.face == 1

    def test_iteration_cap_reported(self, monkeypatch):
        monkeypatch.setattr(riemann, "NEWTON_MAX_ITER", 1)
        with pytest.raises(NoConvergence):
            solve_star(SOD)

    def test_iteration_cap_names_face_residual_and_count(self, monkeypatch):
        # faces 0-2 and 4 carry no jump; the index is the caller's face 3,
        # not the position among the faces that were solved
        monkeypatch.setattr(riemann, "NEWTON_MAX_ITER", 1)
        wl = np.tile(SOD.left.array[:, None], (1, 5))
        wr = wl.copy()
        wr[:, 3] = SOD.right.array
        with pytest.raises(NoConvergence) as excinfo:
            riemann.interface_states(wl, wr, GAS.gamma)
        exc = excinfo.value
        assert (exc.face, exc.iterations) == (3, 1)
        assert exc.residual > riemann.NEWTON_RTOL
        message = str(exc)
        assert "within 1 steps" in message
        assert "face 3" in message
        assert f"{exc.residual:.3e}" in message


# Toro's test 5, exact flux, step 14, face 161: its two-rarefaction guess
# is 559 against p* = 156.42, and Newton from there fell to the pressure
# floor and took 15 iterations.  P_STAR_161 is what that solve returned.
FACE_161 = (
    np.array([2.9508760673258183, -9.4182895110872, 188.332765590966]),
    np.array([1.0, -19.59745, 0.010000000000002271]),
)
P_STAR_161 = 156.41960437952207


def _side_state(log_rho, u, log_p):
    return np.array([10.0**log_rho, u, 10.0**log_p])


# densities over two decades, pressures over six (ratios up to 1e6)
_FUZZ_SIDE = st.builds(
    _side_state, st.floats(-1.0, 1.0), st.floats(-20.0, 20.0), st.floats(-3.0, 3.0)
)


class TestNewtonStart:
    def test_toro5_face_161_converges_in_five_iterations(self, newton_iterations):
        p_star, *_ = riemann.star_state_arrays(*FACE_161, GAS.gamma)
        assert len(newton_iterations) == 1 and newton_iterations[0] <= 5
        assert abs(p_star - P_STAR_161) <= 1e-12

    def test_round_off_velocity_jump_keeps_the_pressure_bitwise(self):
        # Toro 3: the uniform left state next to a cell whose velocity
        # differs by round-off; p* = p and the star density stay exact
        wl = np.array([1.0, 0.0, 1000.0])
        wr = np.array([1.0, 1.2126596023639043e-15, 1000.0])
        p_star, u_star, rho_l, rho_r = riemann.star_state_arrays(wl, wr, GAS.gamma)
        assert (p_star, u_star, rho_l, rho_r) == (1000.0, 0.5 * wr[1], 1.0, 1.0)

    def test_star_pressure_below_the_floor_is_reached(self, newton_iterations):
        # two fans at 0.985 of the vacuum jump: p* = 8.0e-15 lies below
        # PRESSURE_FLOOR, which Newton's steps no longer clamp to
        wl = np.array([0.3494709118882218, 8.339338082465027, 0.024854104594409298])
        wr = np.array([5.35061518175178, 11.01393332936307, 0.1975240201301637])
        p_star, *_ = riemann.star_state_arrays(wl, wr, GAS.gamma)
        assert p_star == pytest.approx(8.0262e-15, rel=1e-4)
        assert len(newton_iterations) == 1 and newton_iterations[0] <= 6

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],  # the list only grows
    )
    @given(_FUZZ_SIDE, _FUZZ_SIDE)
    def test_root_of_random_problems(self, newton_iterations, wl, wr):
        # non-vacuum: the velocity jump stays below 0.99 of the vacuum limit;
        # within 0.2% of it round-off alone moves p by more than Newton's
        # 1e-12 tolerance (notes/decisions.md, sec. 9)
        a_l, a_r = sound_speed_array(wl, GAS.gamma), sound_speed_array(wr, GAS.gamma)
        du = wr[1] - wl[1]
        assume(du < 0.99 * 2.0 * (a_l + a_r) / (GAS.gamma - 1.0))
        p_star, *_ = riemann.star_state_arrays(wl, wr, GAS.gamma)
        assert newton_iterations[-1] < riemann.NEWTON_MAX_ITER
        assert 0.0 < p_star < np.inf
        f_l, _ = pfun(p_star, wl)
        f_r, _ = pfun(p_star, wr)
        assert abs(f_l + f_r + du) <= 1e-12 * (abs(f_l) + abs(f_r) + abs(du) + a_l + a_r)


class TestNearVacuum:
    """At 0.9995 of the vacuum jump the residual's round-off alone moves p* by
    2.4e-12, so Newton cannot meet NEWTON_RTOL; at the iteration cap a face
    whose residual is at the round-off of its terms is accepted."""

    WL = np.array([9.077, 0.0, 0.4276])
    WR = np.array([0.8836, 2.483, 0.03637])

    def test_stalled_face_is_accepted(self):
        p_star, *_ = riemann.star_state_arrays(self.WL, self.WR, GAS.gamma)
        f_l, _ = pfun(p_star, self.WL)
        f_r, _ = pfun(p_star, self.WR)
        du = self.WR[1] - self.WL[1]
        assert p_star == pytest.approx(1.3668e-24, rel=1e-4)
        assert abs(f_l + f_r + du) <= 1e-15 * (abs(f_l) + abs(f_r) + abs(du))

    def test_face_still_moving_at_the_cap_raises(self, monkeypatch):
        # Newton reaches the round-off after 15 iterations
        monkeypatch.setattr(riemann, "NEWTON_MAX_ITER", 12)
        with pytest.raises(NoConvergence) as excinfo:
            riemann.star_state_arrays(self.WL, self.WR, GAS.gamma)
        assert excinfo.value.face == 0
        monkeypatch.setattr(riemann, "NEWTON_MAX_ITER", 16)
        riemann.star_state_arrays(self.WL, self.WR, GAS.gamma)


class TestWaveSpeeds:
    def test_sod_speeds(self):
        speeds = solve_star(SOD).speeds
        assert speeds.left_head == pytest.approx(FAN_HEAD, abs=1e-5)
        assert speeds.left_tail == pytest.approx(FAN_TAIL, abs=1e-5)
        assert speeds.contact == pytest.approx(U_STAR, abs=1e-5)
        assert speeds.right_head == pytest.approx(SHOCK_SPEED, abs=1e-5)
        assert speeds.a_star_left == pytest.approx(A_STAR_L, abs=1e-5)

    def test_speeds_ordered(self):
        for problem in random_inputs(100, seed=29):
            s = solve_star(problem).speeds
            assert s.left_head <= s.left_tail <= s.contact + 1e-12
            assert s.contact <= s.right_tail + 1e-12
            assert s.right_tail <= s.right_head + 1e-12

    def test_sod_shock_relative_machs(self):
        report = bench.wave_report(SOD)
        machs = (report.right.mach_unshocked, report.right.mach_shocked)
        assert machs == pytest.approx((MACH_UNSHOCKED, MACH_SHOCKED), abs=1e-5)
        assert report.left.mach_unshocked is None  # fan side

    def test_entropy_admissibility(self):
        right = bench.wave_report(SOD).right
        assert right.mach_unshocked > 1.0
        assert right.mach_shocked < 1.0

    @settings(max_examples=300, deadline=None)
    @given(_FUZZ_SIDE, _FUZZ_SIDE)
    def test_pattern_is_the_sampled_one(self, wl, wr):
        # The speeds come from the sampling's kernel under its rule, so the
        # sampled state at a head is the outer state.  Heads only: a fan tail
        # can differ by an ulp, since numpy's ** on 0-d values and on arrays
        # may round differently
        a_l, a_r = sound_speed_array(wl, GAS.gamma), sound_speed_array(wr, GAS.gamma)
        assume(wr[1] - wl[1] < 0.99 * 2.0 * (a_l + a_r) / (GAS.gamma - 1.0))
        problem = RiemannInput(PrimitiveState(*wl), PrimitiveState(*wr))
        star = solve_star(problem)
        for kind, outer in ((star.left_wave, problem.left), (star.right_wave, problem.right)):
            assert (kind is WaveKind.SHOCK) == (star.p_star > outer.p)
        assert np.array_equal(sample(star, problem, star.speeds.left_head), problem.left.array)
        assert np.array_equal(sample(star, problem, star.speeds.right_head), problem.right.array)


class TestRankineHugoniot:
    def test_sod_shock_speed(self):
        shocked = PrimitiveState(0.26557, 0.92745, 0.30313)
        assert rankine_hugoniot_speed(shocked, SOD.right) == pytest.approx(
            SHOCK_SPEED, abs=1e-4
        )

    def test_degenerate_jump(self):
        with pytest.raises(DegenerateJump):
            rankine_hugoniot_speed(PrimitiveState(1.0, 2.0, 1.0), PrimitiveState(1.0, 0.0, 2.0))

    def test_states_at_rest(self):
        assert rankine_hugoniot_speed(
            PrimitiveState(2.0, 0.0, 1.0), PrimitiveState(1.0, 0.0, 1.0)
        ) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(_FUZZ_SIDE, _FUZZ_SIDE)
    def test_cross_check_against_pressure_based_speed(self, wl, wr):
        # mass-jump speed across either shock must match the wave speed.
        # Below a strength p*/p_k - 1 of 1e-6 the density jump cancels: the
        # gap is 4.3e-10 at 5e-7 and 4.8e-8 at 5e-9, so weaker shocks are skipped
        a_l, a_r = sound_speed_array(wl, GAS.gamma), sound_speed_array(wr, GAS.gamma)
        assume(wr[1] - wl[1] < 0.99 * 2.0 * (a_l + a_r) / (GAS.gamma - 1.0))
        problem = RiemannInput(PrimitiveState(*wl), PrimitiveState(*wr))
        star = solve_star(problem)
        sides = (
            (star.left_wave, star.rho_star_left, problem.left, star.speeds.left_head),
            (star.right_wave, star.rho_star_right, problem.right, star.speeds.right_head),
        )
        shocks = [
            (rho_star, outer, speed)
            for wave, rho_star, outer, speed in sides
            if wave is WaveKind.SHOCK and star.p_star / outer.p - 1.0 >= 1e-6
        ]
        assume(shocks)
        for rho_star, outer, speed in shocks:
            shocked = PrimitiveState(rho_star, star.u_star, star.p_star)
            rh = rankine_hugoniot_speed(shocked, outer)
            assert rh == pytest.approx(speed, rel=1e-8, abs=1e-10)


class TestSampling:
    def test_sod_face_ray_hits_star_left(self):
        star = solve_star(SOD)
        w = sample(star, SOD, 0.0)
        assert tuple(w) == pytest.approx((RHO_STAR_L, U_STAR, P_STAR), abs=1e-5)

    def test_undisturbed_sides(self):
        star = solve_star(SOD)
        assert sample(star, SOD, -2.0).tolist() == [1.0, 0.0, 1.0]
        assert sample(star, SOD, 1.9).tolist() == [0.125, 0.0, 0.1]

    def test_continuity_across_fan_edges(self):
        star = solve_star(SOD)
        eps = 1e-11
        for edge in (star.speeds.left_head, star.speeds.left_tail):
            lo = sample(star, SOD, edge - eps)
            hi = sample(star, SOD, edge + eps)
            assert lo == pytest.approx(hi, abs=1e-10)

    def test_reflection_symmetry(self):
        star = solve_star(SOD)
        mirrored_input = RiemannInput(
            PrimitiveState(SOD.right.rho, -SOD.right.u, SOD.right.p),
            PrimitiveState(SOD.left.rho, -SOD.left.u, SOD.left.p),
        )
        mirrored = solve_star(mirrored_input)
        for xi in np.linspace(-2.0, 2.0, 41):
            rho, u, p = sample(star, SOD, xi)
            m_rho, m_u, m_p = sample(mirrored, mirrored_input, -xi)
            assert m_rho == pytest.approx(rho, rel=1e-9)
            assert m_u == pytest.approx(-u, rel=1e-9, abs=1e-11)
            assert m_p == pytest.approx(p, rel=1e-9)


# Non-vacuum states: every sound speed is at least 0.118, so the vacuum
# bound 2 (a_l + a_r) / (gamma - 1) >= 1.18 exceeds any velocity jump of 1.
_STATE = st.tuples(
    st.floats(0.1, 10.0), st.floats(-0.5, 0.5), st.floats(0.1, 10.0)
)


class TestInterfaceStates:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],  # the list only grows
    )
    @given(st.lists(st.tuples(_STATE, _STATE, st.booleans()), min_size=1, max_size=24))
    def test_equal_faces_pass_through_and_the_rest_are_solved(self, newton_iterations, faces):
        wl = np.array([left for left, _, _ in faces]).T
        wr = np.array([left if same else right for left, right, same in faces]).T
        equal = (wl == wr).all(axis=0)
        w0 = riemann.interface_states(wl, wr, GAS.gamma)
        batch_iterations = newton_iterations[-1]
        # a face with equal states is solved too: Newton's exact start
        # returns its state (+0.0 for a velocity of -0.0, equal under ==)
        assert np.array_equal(w0[:, equal], wl[:, equal])
        # equal faces converge in the first iteration and add none, so the
        # rest match one batch solve of exactly those faces ...
        a_l, a_r = wl[:, ~equal], wr[:, ~equal]
        star = riemann.star_state_arrays(a_l, a_r, GAS.gamma)
        batch = riemann._sample_arrays(a_l, a_r, *star, 0.0, GAS.gamma)
        assert np.array_equal(w0[:, ~equal], batch)
        # ... and equal each face solved alone, a batch of one, bit for bit
        # where Newton stops at the batch's iteration.  Newton runs until
        # every face of a batch has converged, and the iterations a face
        # takes past its own stop move it within Newton's tolerance
        for i in np.flatnonzero(~equal):
            alone = riemann.interface_states(wl[:, i], wr[:, i], GAS.gamma)
            assert alone.shape == (3,)
            if newton_iterations[-1] == batch_iterations:
                assert np.array_equal(alone, w0[:, i])
            else:
                assert w0[:, i] == pytest.approx(alone, rel=1e-12, abs=1e-12)


def former_sample_arrays(wl, wr, p_star, u_star, rho_star_l, rho_star_r, xi, gamma):
    """The sampler as it was before it skipped the fan state in a batch
    with no ray inside a fan (notes/decisions.md section 18)."""
    g = gamma
    on_left = xi <= u_star
    sign = np.where(on_left, 1.0, -1.0)
    rho_k = np.where(on_left, wl[0], wr[0])
    u_k = sign * np.where(on_left, wl[1], wr[1])
    p_k = np.where(on_left, wl[2], wr[2])
    rho_star = np.where(on_left, rho_star_l, rho_star_r)
    u_star = sign * u_star
    xi = sign * xi
    a_k, s_shock, head, tail = riemann._outer_wave(rho_k, u_k, p_k, p_star, u_star, g)
    mu2 = (g - 1.0) / (g + 1.0)
    shock = p_star > p_k
    outer = np.where(shock, xi <= s_shock, xi <= head)
    star = shock | (xi >= tail)
    fan_fac = 2.0 / (g + 1.0) + mu2 / a_k * (u_k - xi)
    fan_fac = np.maximum(fan_fac, 1e-300)
    rho_fan = rho_k * fan_fac ** (2.0 / (g - 1.0))
    u_fan = 2.0 / (g + 1.0) * (a_k + 0.5 * (g - 1.0) * u_k + xi)
    p_fan = p_k * fan_fac ** (2.0 * g / (g - 1.0))

    def pick(v_outer, v_star, v_fan):
        return np.where(outer, v_outer, np.where(star, v_star, v_fan))

    return np.array(
        [
            pick(rho_k, rho_star, rho_fan),
            sign * pick(u_k, u_star, u_fan),
            pick(p_k, p_star, p_fan),
        ]
    )


# Toro's tests 1-5 from his Table 4.1, as the benchmark's toro-suite has
# them: the problem, jump position and final time
WORKLOADS = load_script(ROOT / "perfbench" / "workloads.py")
TORO = {test: (RiemannInput(left, right), x0, t) for test, (left, right, x0, t) in WORKLOADS.TORO_TESTS.items()}
# tests 1 (a transonic fan on the left) and 4 (two shocks, no fan)
TORO_1, TORO_4 = TORO[1][0], TORO[4][0]


class TestSamplerMatchesItsFormerExpression:
    """The sampler gives its former expression's bytes in a batch with a ray
    inside a fan and in one without."""

    @staticmethod
    def face_ray(wl, wr):
        # one face's (3,) states give (1,) star values and its (3,) state
        star = riemann.star_state_arrays(wl, wr, GAS.gamma)
        got = riemann.interface_states(wl, wr, GAS.gamma)
        assert_same_bytes(got, former_sample_arrays(wl, wr, *star, 0.0, GAS.gamma).reshape(wl.shape))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(_FUZZ_SIDE, _FUZZ_SIDE), min_size=1, max_size=12))
    def test_face_rays(self, faces):
        wl = np.array([left for left, _ in faces]).T
        wr = np.array([right for _, right in faces]).T
        a_l, a_r = sound_speed_array(wl, GAS.gamma), sound_speed_array(wr, GAS.gamma)
        assume(np.all(wr[1] - wl[1] < 0.99 * 2.0 * (a_l + a_r) / (GAS.gamma - 1.0)))
        self.face_ray(wl, wr)

    def test_face_ray_in_a_transonic_fan_and_outside_any(self):
        for problem, in_fan in ((TORO_1, True), (SOD, False)):
            speeds = solve_star(problem).speeds
            assert (speeds.left_head < 0.0 < speeds.left_tail) is in_fan
            self.face_ray(problem.left.array, problem.right.array)
        # both faces in one batch
        wl = np.stack([TORO_1.left.array, SOD.left.array], axis=1)
        wr = np.stack([TORO_1.right.array, SOD.right.array], axis=1)
        self.face_ray(wl, wr)

    def test_profiles_with_and_without_a_fan(self):
        x = (np.arange(200) + 0.5) / 200
        for test, fans in ((1, 1), (4, 0)):
            problem, x0, t = TORO[test]
            star = solve_star(problem)
            assert [star.left_wave, star.right_wave].count(WaveKind.FAN) == fans
            profile = exact_profile(problem, x, x0, t)
            expected = former_sample_arrays(
                problem.left.array[:, None],
                problem.right.array[:, None],
                star.p_star,
                star.u_star,
                star.rho_star_left,
                star.rho_star_right,
                ((x - x0) / t)[None, :],
                GAS.gamma,
            )
            assert_same_bytes(profile.w, expected.reshape(3, x.size))

    def test_a_nan_ray_takes_the_fan_state(self):
        # Rays outside the fan of Sod's mirror image, whose fan is on the
        # right, and one of NaN speed, which is sampled right of the contact:
        # there it is in no region, so the batch builds the fan state that
        # the full expression picks
        problem = RiemannInput(SOD.right, SOD.left)
        star = solve_star(problem)
        args = (problem.left.array[:, None], problem.right.array[:, None], star.p_star, star.u_star)
        args += (star.rho_star_left, star.rho_star_right, np.array([-1.9, np.nan, 2.0]), GAS.gamma)
        got = riemann._sample_arrays(*args)
        assert_same_bytes(got, former_sample_arrays(*args))
        assert np.isnan(got[:, 1]).all()


class TestExactProfile:
    def grid(self, n=200):
        return (np.arange(n) + 0.5) / n

    def test_region_boundaries_at_final_time(self):
        # discontinuity positions are jump + t * wave speed
        t = 0.2
        profile = exact_profile(SOD, self.grid(), 0.5, t)
        positions = {
            "head": 0.5 + t * FAN_HEAD,
            "tail": 0.5 + t * FAN_TAIL,
            "contact": 0.5 + t * U_STAR,
            "shock": 0.5 + t * SHOCK_SPEED,
        }
        x = profile.x
        assert np.all(profile.w[0][x < positions["head"]] == 1.0)
        plateau_left = (x > positions["tail"]) & (x < positions["contact"])
        assert profile.w[0][plateau_left] == pytest.approx(RHO_STAR_L, abs=1e-5)
        plateau_right = (x > positions["contact"]) & (x < positions["shock"])
        assert profile.w[0][plateau_right] == pytest.approx(RHO_STAR_R, abs=1e-5)
        assert np.all(profile.w[0][x > positions["shock"]] == 0.125)
        # pressure and velocity are continuous across the contact
        assert profile.w[2][plateau_left | plateau_right] == pytest.approx(
            P_STAR, abs=1e-5
        )
        assert profile.w[1][plateau_left | plateau_right] == pytest.approx(
            U_STAR, abs=1e-5
        )

    def test_initial_time_is_step_data(self):
        profile = exact_profile(SOD, self.grid(), 0.5, 0.0)
        assert np.all(profile.w[0][:100] == 1.0)
        assert np.all(profile.w[0][100:] == 0.125)
        assert np.all(profile.w[1] == 0.0)

    def test_uniform_input_gives_uniform_profile(self):
        w = PrimitiveState(0.9, 0.1, 1.1)
        profile = exact_profile(RiemannInput(w, w), self.grid(), 0.5, 0.15)
        assert profile.w[0] == pytest.approx(0.9, rel=1e-12)
        assert profile.w[1] == pytest.approx(0.1, rel=1e-12)
        assert profile.w[2] == pytest.approx(1.1, rel=1e-12)

    def test_rejects_unsorted_positions(self):
        with pytest.raises(ValueError):
            exact_profile(SOD, np.array([0.3, 0.2, 0.5]), 0.5, 0.1)

    def test_rejects_a_signed_zero_pair(self):
        # -0.0 == 0.0, so the two positions are not strictly increasing
        with pytest.raises(InvalidConfig, match="positions must be strictly increasing$"):
            exact_profile(SOD, np.array([0.0, -0.0]), 0.5, 0.1)

    @pytest.mark.parametrize("x", [np.float64(0.5), np.full((2, 3), 0.5)], ids=["0-d", "2-d"])
    def test_rejects_positions_that_are_not_one_dimensional(self, x):
        # numpy's own errors came first: "diff requires input that is at
        # least one dimensional" or "operands could not be broadcast"
        with pytest.raises(InvalidConfig, match=re.escape(f"one-dimensional, got shape {x.shape}")):
            exact_profile(SOD, x, 0.5, 0.1)

    @pytest.mark.parametrize(
        ("x", "bad"),
        [([0.1, np.nan, 0.9], "nan"), ([0.1, 0.5, np.inf], "inf"), ([-np.inf, 0.5, 0.9], "-inf")],
    )
    def test_rejects_non_finite_positions(self, x, bad):
        # a comparison with a NaN is False: without its own check the NaN
        # position took the star state
        with pytest.raises(InvalidConfig, match=f"positions must be finite, got {bad}$"):
            exact_profile(SOD, np.array(x), 0.5, 0.2)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            exact_profile(SOD, self.grid(), 0.5, -0.1)


# Sod's problem and Toro's tests 1-5: the problem, jump position and final
# time
PROFILE_PROBLEMS = {"sod": (SOD, 0.5, 0.2), **{f"toro{test}": problem for test, problem in TORO.items()}}
BLOCK = riemann._PROFILE_BLOCK
TORO_1_SPEEDS = solve_star(TORO_1).speeds


def one_pass_profile(problem, x, x0, t):
    """The exact profile as one sampler call over every position."""
    star = solve_star(problem)
    return riemann._sample_arrays(
        problem.left.array[:, None],
        problem.right.array[:, None],
        star.p_star,
        star.u_star,
        star.rho_star_left,
        star.rho_star_right,
        (x - x0) / t,
        problem.gas.gamma,
    )


class TestBlockedProfile:
    """The profile, sampled in blocks of positions, has the bytes of one
    sampler call over all of them: the sampler is elementwise, and a block
    with no ray inside a fan leaves the fan state out."""

    @staticmethod
    def check(problem, x, x0, t, block=BLOCK):
        with mock.patch.object(riemann, "_PROFILE_BLOCK", block):
            got = exact_profile(problem, x, x0, t).w
        assert_same_bytes(got, one_pass_profile(problem, x, x0, t))

    @pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17])
    @pytest.mark.parametrize("name", list(PROFILE_PROBLEMS))
    def test_the_module_block(self, name, n):
        problem, x0, t = PROFILE_PROBLEMS[name]
        self.check(problem, (np.arange(n) + 0.5) / max(n, 1), x0, t)

    @pytest.mark.parametrize("block", [1, 3])
    @pytest.mark.parametrize("name", list(PROFILE_PROBLEMS))
    def test_small_blocks(self, name, block):
        problem, x0, t = PROFILE_PROBLEMS[name]
        for n in (1, 2, 3, 4, 7, 200):
            self.check(problem, (np.arange(n) + 0.5) / n, x0, t, block)

    @settings(max_examples=200, deadline=None)
    @given(
        name=st.sampled_from(list(PROFILE_PROBLEMS)),
        x=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=40, unique=True).map(sorted),
        x0=st.sampled_from([0.0, 0.5]),
        t=st.sampled_from([1.0, 0.2]),
        block=st.integers(1, 5),
    )
    # blocks of 2 on Toro 1's rays: the first ends exactly on the left fan's
    # head, the next two lie inside the fan, the edge between them too, and
    # the third ends exactly on its tail
    @example(
        name="toro1",
        x=[TORO_1_SPEEDS.left_head - 0.1, TORO_1_SPEEDS.left_head, -0.3, -0.1, 0.1, TORO_1_SPEEDS.left_tail, 0.5],
        x0=0.0,
        t=1.0,
        block=2,
    )
    def test_any_positions(self, name, x, x0, t, block):
        self.check(PROFILE_PROBLEMS[name][0], np.array(x), x0, t, block)
