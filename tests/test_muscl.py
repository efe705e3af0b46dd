"""MUSCL reconstruction and the van Leer limiter."""

import numpy as np
import pytest

from sodbench.errors import NonPhysicalState
from sodbench.muscl import EPSILON, reconstruct_faces, van_leer_limiter


def zero_limiter(r):
    return np.zeros_like(np.asarray(r, dtype=float))


def unit_limiter(r):
    return np.ones_like(np.asarray(r, dtype=float))


def velocity_stencil(v_mm, v_m, v_p, v_pp):
    """Four cells whose velocity row holds the samples; density and pressure
    are flat, so only the velocity row (which has no positivity check) varies.
    Face 2 sits between the middle two cells and sees exactly these samples."""
    return np.stack([np.ones(4), np.array([v_mm, v_m, v_p, v_pp]), np.ones(4)])


def sides_of(faces):
    """The face-left and face-right states, each (3, n+1), of the one
    (3, 2, n+1) array that reconstruct_faces returns."""
    return faces[:, 0], faces[:, 1]


def face_pair(*samples):
    """(v_L, v_R) at the face between the two middle samples."""
    left, right = sides_of(reconstruct_faces(velocity_stencil(*samples)))
    return float(left[1, 2]), float(right[1, 2])


def gradient_ratios(*samples):
    """(r_m, r_p): the ratios that the reconstruction hands the limiter for the
    two cells on either side of that face, cells 1 and 2 of the stencil.  Each
    cell has one ratio, its right difference over its left one."""
    seen = []

    def recording_limiter(r):
        seen.append(r)
        return van_leer_limiter(r)

    reconstruct_faces(velocity_stencil(*samples), limiter=recording_limiter)
    (r,) = seen
    return float(r[1, 1]), float(r[1, 2])


def minmod_limiter(r):
    return np.maximum(0.0, np.minimum(1.0, r))


def two_ratio_reconstruction(w, limiter):
    """Oracle: two-ratio MUSCL.  Each face gets a ratio per side, guarded on
    its denominator only, and a limiter call per side, from two ghost cells
    per end; it holds for any limiter, symmetric or not."""
    n = w.shape[1]
    ext = np.concatenate([w[:, :1], w[:, :1], w, w[:, -1:], w[:, -1:]], axis=1)
    d = ext[:, 1:] - ext[:, :-1]
    d_m = d[:, 0 : n + 1]
    d_c = d[:, 1 : n + 2]
    d_p = d[:, 2 : n + 3]
    dead = np.abs(d) <= EPSILON
    safe = np.where(dead, 1.0, d)
    r_l = np.where(dead[:, 0 : n + 1], 0.0, d_c / safe[:, 0 : n + 1])
    r_r = np.where(dead[:, 2 : n + 3], 0.0, d_c / safe[:, 2 : n + 3])
    face_l = ext[:, 1 : n + 2] + 0.5 * limiter(r_l) * d_m
    face_r = ext[:, 2 : n + 3] - 0.5 * limiter(r_r) * d_p
    return face_l, face_r


def guard_exercising_field(rng, n):
    """Positive density and pressure with repeated values (dead differences),
    and a velocity row that mixes O(1) steps with differences of 1e-17 to
    3e-16, on both sides of the EPSILON guard."""
    rho = rng.choice([0.5, 1.0, 1.5, 2.0], n) + rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.5)
    u = rng.choice([0.0, 1e-17, 1e-16, 2.2e-16, 3e-16, 0.5, -1.0], n)
    p = rng.uniform(0.5, 3.0, n)
    return np.array([rho, u, p])


class TestGradientRatios:
    def test_linear_data(self):
        assert gradient_ratios(0.0, 1.0, 2.0, 3.0) == (1.0, 1.0)

    def test_flat_one_sided_differences_zero_the_ratios(self):
        assert gradient_ratios(1.0, 1.0, 0.0, 0.0) == (0.0, 0.0)

    def test_mixed_slopes(self):
        r_m, r_p = gradient_ratios(0.0, 1.0, 0.5, 2.0)
        assert r_m == pytest.approx(-0.5, rel=1e-14)
        assert r_p == pytest.approx(-3.0, rel=1e-14)

    def test_tiny_difference_guard(self):
        # |d| at or below the guard threshold counts as flat
        r_m, _ = gradient_ratios(0.0, 1e-16, 2.0, 3.0)
        assert r_m == 0.0
        _, r_p = gradient_ratios(0.0, 1.0, 2.0, 2.0 + 1e-16)
        assert r_p == 0.0

    def test_tiny_difference_guard_on_the_numerator(self):
        # a flat right difference zeroes the ratio as a flat left one does
        r_m, r_p = gradient_ratios(-1.0, 0.0, 1e-16, 1.0)
        assert (r_m, r_p) == (0.0, 0.0)

    def test_limiter_is_called_once_on_the_cells(self):
        shapes = []

        def recording_limiter(r):
            shapes.append(np.shape(r))
            return van_leer_limiter(r)

        w = np.tile(np.array([[1.0], [0.5], [2.0]]), (1, 7))
        reconstruct_faces(w, limiter=recording_limiter)
        assert shapes == [(3, 7)]


class TestVanLeerLimiter:
    def test_unity_at_one(self):
        assert van_leer_limiter(1.0) == 1.0

    def test_vanishes_for_nonpositive_ratio(self):
        for r in (-1.0, -0.5, 0.0, -100.0):
            assert van_leer_limiter(r) == 0.0

    def test_value_at_three(self):
        assert van_leer_limiter(3.0) == pytest.approx(1.5, rel=1e-14)

    def test_range(self):
        r = np.linspace(-50.0, 50.0, 10001)
        phi = van_leer_limiter(r)
        assert np.all(phi >= 0.0)
        assert np.all(phi < 2.0)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        r = rng.uniform(0.01, 100.0, 1000)
        assert van_leer_limiter(r) / r == pytest.approx(van_leer_limiter(1.0 / r), rel=1e-14)


class TestFacePair:
    def test_linear_data_reconstructs_midpoint(self):
        assert face_pair(0.0, 1.0, 2.0, 3.0) == pytest.approx((1.5, 1.5))

    def test_discontinuity_falls_back_to_first_order(self):
        assert face_pair(1.0, 1.0, 0.0, 0.0) == (1.0, 0.0)

    def test_negative_ratios_shut_the_limiter(self):
        assert face_pair(0.0, 1.0, 0.5, 2.0) == (1.0, 0.5)


class TestReconstructFaces:
    def test_uniform_field(self):
        w = np.tile(np.array([[1.0], [0.5], [2.0]]), (1, 10))
        left, right = sides_of(reconstruct_faces(w))
        assert left.shape == (3, 11)
        assert np.array_equal(left, right)
        assert np.all(left == w[:, :1])

    def test_step_data_keeps_the_jump_sharp(self):
        w = np.tile(np.array([[1.0], [0.0], [1.0]]), (1, 8))
        w[:, 4:] = np.array([[0.125], [0.0], [0.1]])
        left, right = sides_of(reconstruct_faces(w))
        # face 4 sits on the jump; zero one-sided differences turn limiting off
        assert left[:, 4] == pytest.approx([1.0, 0.0, 1.0])
        assert right[:, 4] == pytest.approx([0.125, 0.0, 0.1])

    def test_linear_ramp_hits_midpoints(self):
        n = 16
        rho = 1.0 + 0.05 * np.arange(n)
        w = np.stack([rho, np.full(n, 0.3), np.full(n, 2.0)])
        left, right = sides_of(reconstruct_faces(w))
        midpoints = 0.5 * (rho[:-1] + rho[1:])  # analytic interpolant at faces
        assert left[0, 2:-2] == pytest.approx(midpoints[1:-1], rel=1e-14)
        assert right[0, 2:-2] == pytest.approx(midpoints[1:-1], rel=1e-14)

    def test_boundary_faces_copy_edge_cells(self):
        rng = np.random.default_rng(4)
        w = np.stack([rng.uniform(1, 2, 6), rng.uniform(-1, 1, 6), rng.uniform(1, 2, 6)])
        left, right = sides_of(reconstruct_faces(w))
        assert np.array_equal(left[:, 0], w[:, 0])
        assert np.array_equal(right[:, 0], w[:, 0])
        assert np.array_equal(left[:, -1], w[:, -1])
        assert np.array_equal(right[:, -1], w[:, -1])

    def test_zero_limiter_reduces_to_nearest_cell(self):
        rng = np.random.default_rng(5)
        w = np.stack([rng.uniform(1, 2, 9), rng.uniform(-1, 1, 9), rng.uniform(1, 2, 9)])
        left, right = sides_of(reconstruct_faces(w, limiter=zero_limiter))
        assert np.array_equal(left[:, 1:], w)
        assert np.array_equal(right[:, :-1], w)

    def test_unit_limiter_reduces_to_linear_extrapolation(self):
        rng = np.random.default_rng(6)
        n = 9
        w = np.stack([rng.uniform(1, 2, n), rng.uniform(-1, 1, n), rng.uniform(1, 2, n)])
        left, _ = sides_of(reconstruct_faces(w, limiter=unit_limiter))
        # second-order upwind: extrapolate from the two nearest left-side
        # cells; faces 2..n are ghost-free
        expected_left = w[:, 1:n] + 0.5 * (w[:, 1:n] - w[:, 0 : n - 1])
        assert left[:, 2:] == pytest.approx(expected_left, rel=1e-14)

    @pytest.mark.parametrize("limiter", [van_leer_limiter, minmod_limiter])
    def test_symmetric_limiter_matches_two_ratio_oracle(self, limiter):
        # For a symmetric limiter phi(r) d_m = phi(1/r) d_p, so one slope per
        # cell gives the faces of the two-ratio oracle up to round-off in that
        # product, and up to the numerator guard, which zeroes a slope of at
        # most 2 EPSILON (phi(r) <= 2r).  Faces move by at most 4 EPSILON
        # times the field's largest magnitude.
        rng = np.random.default_rng(8)
        for _ in range(50):
            w = guard_exercising_field(rng, 64)
            left, right = sides_of(reconstruct_faces(w, limiter=limiter))
            oracle_left, oracle_right = two_ratio_reconstruction(w, limiter)
            bound = 4.0 * EPSILON * np.abs(w).max()
            assert np.abs(left - oracle_left).max() <= bound
            assert np.abs(right - oracle_right).max() <= bound

    def test_monotone_data_creates_no_new_extrema(self):
        rng = np.random.default_rng(7)
        values = np.cumsum(rng.uniform(0.0, 1.0, 20)) + 1.0
        w = np.stack([values, values, values])
        left, right = sides_of(reconstruct_faces(w))
        lo = np.concatenate([[values[0]], np.minimum(values[:-1], values[1:]), [values[-1]]])
        hi = np.concatenate([[values[0]], np.maximum(values[:-1], values[1:]), [values[-1]]])
        for face in (left, right):
            assert np.all(face[0] >= lo - 1e-13)
            assert np.all(face[0] <= hi + 1e-13)

    def test_nonphysical_input_is_reported(self):
        w = np.tile(np.array([[1.0], [0.0], [1.0]]), (1, 8))
        w[2, 3] = -0.5
        with pytest.raises(NonPhysicalState):
            reconstruct_faces(w)

    def test_nan_input_is_reported(self):
        w = np.tile(np.array([[1.0], [0.0], [1.0]]), (1, 8))
        w[0, 5] = np.nan
        with pytest.raises(NonPhysicalState) as excinfo:
            reconstruct_faces(w)
        assert excinfo.value.face == 6  # face 6 takes its left state from cell 5
        # faces 5 and 6 fail on their right side too; the left side is named
        assert "face-left" in str(excinfo.value)
        assert str(excinfo.value).endswith("at face 6")

    def test_a_failing_right_state_alone_is_named(self):
        # A slope of 4 d_m in cell 4 (density 1 -> 3) gives face 4 the right
        # density 3 - 4 = -1 and face 5 the left density 7; no other cell
        # has a slope
        w = np.tile(np.array([[1.0], [0.0], [1.0]]), (1, 8))
        w[0, 4:] = 3.0
        with pytest.raises(NonPhysicalState) as excinfo:
            reconstruct_faces(w, limiter=lambda r: np.full_like(r, 4.0))
        assert excinfo.value.face == 4
        assert "face-right" in str(excinfo.value)
        assert str(excinfo.value).endswith("at face 4")

    def test_both_sides_come_in_one_contiguous_array(self):
        rng = np.random.default_rng(9)
        w = np.stack([rng.uniform(1, 2, 7), rng.uniform(-1, 1, 7), rng.uniform(1, 2, 7)])
        faces = reconstruct_faces(w)
        assert faces.shape == (3, 2, 8)
        assert faces.flags.c_contiguous
