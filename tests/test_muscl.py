"""MUSCL reconstruction with van Leer's limited slope."""

import collections
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sodbench.errors import NonPhysicalState
from sodbench.muscl import reconstruct_faces

def faces_of(w):
    """reconstruct_faces on cells ``w`` between ghost cells that copy the
    edge cells."""
    return reconstruct_faces(np.pad(w, ((0, 0), (1, 1)), mode="edge"))


# The ratio form's zero-gradient guard: a difference at or below it counted
# as flat.  reconstruct_faces has no guard; the oracle below keeps it.
EPSILON = 2.22e-16


def van_leer(r):
    """phi(r) = (r + |r|) / (1 + |r|); zero for r <= 0, approaches 2 at large r."""
    abs_r = np.abs(r)
    return (r + abs_r) / (1.0 + abs_r)


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
    left, right = sides_of(faces_of(velocity_stencil(*samples)))
    return float(left[1, 2]), float(right[1, 2])


def two_ratio_reconstruction(w):
    """Oracle: two-ratio MUSCL with van Leer's phi.  Each face gets a ratio
    per side, guarded on its denominator only, and a limiter call per side,
    from two ghost cells per end; no difference is multiplied by another."""
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
    face_l = ext[:, 1 : n + 2] + 0.5 * van_leer(r_l) * d_m
    face_r = ext[:, 2 : n + 3] - 0.5 * van_leer(r_r) * d_p
    return face_l, face_r


def guard_exercising_field(rng, n):
    """Positive density and pressure with repeated values (dead differences),
    and a velocity row that mixes O(1) steps with differences of 1e-17 to
    3e-16, on both sides of the ratio form's EPSILON guard."""
    rho = rng.choice([0.5, 1.0, 1.5, 2.0], n) + rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.5)
    u = rng.choice([0.0, 1e-17, 1e-16, 2.2e-16, 3e-16, 0.5, -1.0], n)
    p = rng.uniform(0.5, 3.0, n)
    return np.array([rho, u, p])


class TestVanLeerSlope:
    """van Leer's identities phi(1) = 1, phi(r <= 0) = 0, phi(3) = 3/2 and
    phi(r) / r = phi(1 / r), read from the faces."""

    def test_linear_data_reconstructs_midpoint(self):
        assert face_pair(0.0, 1.0, 2.0, 3.0) == (1.5, 1.5)

    def test_discontinuity_falls_back_to_first_order(self):
        assert face_pair(1.0, 1.0, 0.0, 0.0) == (1.0, 0.0)

    def test_negative_ratios_shut_the_limiter(self):
        assert face_pair(0.0, 1.0, 0.5, 2.0) == (1.0, 0.5)

    def test_value_at_three(self):
        # cell 1: d_m = 1, d_p = 3, half-slope phi(3) / 2 = 3/4; cell 2:
        # d_m = 3, d_p = 1, half-slope phi(1/3) 3 / 2 = 3/4
        assert face_pair(0.0, 1.0, 4.0, 5.0) == (1.75, 3.25)

    # The ratio form shut the slope for a difference at or below EPSILON on
    # either side; the closed form gives a half-slope of at most that
    # difference

    def test_a_tiny_left_difference_gives_a_slope_no_larger(self):
        v_l, _ = face_pair(0.0, 1e-16, 2.0, 3.0)
        assert 1e-16 < v_l <= 2e-16

    def test_a_tiny_right_difference_gives_a_slope_no_larger(self):
        ulp = 2.0**-51  # of 2.0
        _, v_r = face_pair(0.0, 1.0, 2.0, 2.0 + ulp)
        assert 2.0 - ulp <= v_r < 2.0

    def test_slope_stays_within_both_differences(self):
        # 0 <= phi(r) <= 2 min(1, r): the half-slope has the sign of the two
        # differences and is at most the smaller one, up to round-off
        rng = np.random.default_rng(2)
        u = rng.uniform(-1.0, 1.0, 500)
        left, right = sides_of(faces_of(np.array([np.ones(500), u, np.ones(500)])))
        d = np.diff(u, prepend=u[0], append=u[-1])
        d_m, d_p = d[:-1], d[1:]
        for half in (left[1, 1:] - u, u - right[1, :-1]):
            assert (half * d_m >= 0.0).all() and (half * d_p >= 0.0).all()
            assert (np.abs(half) <= np.minimum(np.abs(d_m), np.abs(d_p)) + 4.0 * EPSILON).all()

    def test_mirror_image_gives_the_mirrored_faces(self):
        # phi(r) d_m = phi(1/r) d_p: the slope seen from either side agrees
        rng = np.random.default_rng(1)
        w = np.stack([np.ones(200), rng.uniform(-1.0, 1.0, 200), np.ones(200)])
        left, right = sides_of(faces_of(w))
        m_left, m_right = sides_of(faces_of(w[:, ::-1]))
        assert left == pytest.approx(m_right[:, ::-1], rel=1e-14, abs=1e-15)
        assert right == pytest.approx(m_left[:, ::-1], rel=1e-14, abs=1e-15)


class TestReconstructFaces:
    def test_uniform_field(self):
        w = np.tile(np.array([[1.0], [0.5], [2.0]]), (1, 10))
        left, right = sides_of(faces_of(w))
        assert left.shape == (3, 11)
        assert np.array_equal(left, right)
        assert np.all(left == w[:, :1])

    def test_step_data_keeps_the_jump_sharp(self):
        w = np.tile(np.array([[1.0], [0.0], [1.0]]), (1, 8))
        w[:, 4:] = np.array([[0.125], [0.0], [0.1]])
        left, right = sides_of(faces_of(w))
        # face 4 sits on the jump; zero one-sided differences turn limiting off
        assert left[:, 4] == pytest.approx([1.0, 0.0, 1.0])
        assert right[:, 4] == pytest.approx([0.125, 0.0, 0.1])

    def test_linear_ramp_hits_midpoints(self):
        n = 16
        rho = 1.0 + 0.05 * np.arange(n)
        w = np.stack([rho, np.full(n, 0.3), np.full(n, 2.0)])
        left, right = sides_of(faces_of(w))
        midpoints = 0.5 * (rho[:-1] + rho[1:])  # analytic interpolant at faces
        assert left[0, 2:-2] == pytest.approx(midpoints[1:-1], rel=1e-14)
        assert right[0, 2:-2] == pytest.approx(midpoints[1:-1], rel=1e-14)

    def test_boundary_faces_copy_edge_cells(self):
        rng = np.random.default_rng(4)
        w = np.stack([rng.uniform(1, 2, 6), rng.uniform(-1, 1, 6), rng.uniform(1, 2, 6)])
        left, right = sides_of(faces_of(w))
        assert np.array_equal(left[:, 0], w[:, 0])
        assert np.array_equal(right[:, 0], w[:, 0])
        assert np.array_equal(left[:, -1], w[:, -1])
        assert np.array_equal(right[:, -1], w[:, -1])

    def test_matches_the_two_ratio_oracle(self):
        # phi(r) d_m = phi(1/r) d_p, so one slope per cell gives the faces of
        # the two-ratio oracle up to round-off, and up to the oracle's guard,
        # which zeroes a half-slope of at most EPSILON.  Faces move by at
        # most 4 EPSILON times the field's largest magnitude.
        rng = np.random.default_rng(8)
        for _ in range(50):
            w = guard_exercising_field(rng, 64)
            left, right = sides_of(faces_of(w))
            oracle_left, oracle_right = two_ratio_reconstruction(w)
            bound = 4.0 * EPSILON * np.abs(w).max()
            assert np.abs(left - oracle_left).max() <= bound
            assert np.abs(right - oracle_right).max() <= bound

    def test_slope_is_exactly_zero_where_the_differences_disagree(self):
        # At an extremum or next to a flat difference both faces of the
        # cell take its value bit for bit, as the oracle's phi(r <= 0) = 0
        rng = np.random.default_rng(10)
        w = guard_exercising_field(rng, 400)
        d = np.diff(w, axis=1, prepend=w[:, :1], append=w[:, -1:])
        shut = np.sign(d[:, :-1]) * np.sign(d[:, 1:]) <= 0.0
        left, right = sides_of(faces_of(w))
        assert shut.mean() > 0.3
        assert np.array_equal(left[:, 1:][shut], w[shut])
        assert np.array_equal(right[:, :-1][shut], w[shut])

    # d_m d_p overflows in the mask; its sign, and so the slope, holds
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_differences_near_1e154_do_not_overflow(self):
        # A pressure ramp 1, 1e160, 2e160, ... and a velocity row whose
        # differences of either sign range over 1e154 to 1e160: d_m d_p
        # overflows, d_m d_p / (d_m + d_p) would too, and the faces must
        # still be the ratio form's to round-off
        rng = np.random.default_rng(11)
        n = 40
        u = np.cumsum(10.0 ** rng.uniform(154.0, 160.0, n) * rng.choice([-1.0, 1.0], n))
        w = np.array([np.ones(n), u, np.concatenate([[1.0], np.arange(1, n) * 1e160])])
        left, right = sides_of(faces_of(w))
        oracle_left, oracle_right = two_ratio_reconstruction(w)
        assert np.isfinite(left).all() and np.isfinite(right).all()
        for got, expected in ((left, oracle_left), (right, oracle_right)):
            bound = 4.0 * EPSILON * np.abs(w).max(axis=1, keepdims=True)
            assert (np.abs(got - expected) <= bound).all()

    def test_monotone_data_creates_no_new_extrema(self):
        rng = np.random.default_rng(7)
        values = np.cumsum(rng.uniform(0.0, 1.0, 20)) + 1.0
        w = np.stack([values, values, values])
        left, right = sides_of(faces_of(w))
        lo = np.concatenate([[values[0]], np.minimum(values[:-1], values[1:]), [values[-1]]])
        hi = np.concatenate([[values[0]], np.maximum(values[:-1], values[1:]), [values[-1]]])
        for face in (left, right):
            assert np.all(face[0] >= lo - 1e-13)
            assert np.all(face[0] <= hi + 1e-13)

    def test_nonphysical_input_is_reported(self):
        w = np.tile(np.array([[1.0], [0.0], [1.0]]), (1, 8))
        w[2, 3] = -0.5
        with pytest.raises(NonPhysicalState):
            faces_of(w)

    def test_nan_input_is_reported(self):
        w = np.tile(np.array([[1.0], [0.0], [1.0]]), (1, 8))
        w[0, 5] = np.nan
        with pytest.raises(NonPhysicalState) as excinfo:
            faces_of(w)
        assert excinfo.value.face == 6  # face 6 takes its left state from cell 5
        # faces 5 and 6 fail on their right side too; the left side is named
        assert "face-left" in str(excinfo.value)
        assert str(excinfo.value).endswith("at face 6")

    def test_a_failing_right_state_alone_is_named(self):
        # Cell 2 (density 1) has d_m = 1 - 1e-300, which rounds to 1, and
        # d_p = 1e20, so its half-slope rounds to 1 as well: face 2 gets the
        # right density 0 while cell 1's 1e-300 keeps every left state
        # positive
        w = np.ones((3, 8))
        w[0] = [1.0, 1e-300, 1.0] + [1e20] * 5
        with pytest.raises(NonPhysicalState) as excinfo:
            faces_of(w)
        assert excinfo.value.face == 2
        assert "face-right" in str(excinfo.value)
        assert str(excinfo.value).endswith("at face 2")

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 10).flatmap(
            lambda n: st.tuples(
                st.lists(st.floats(allow_nan=True), min_size=3 * n, max_size=3 * n),
                st.integers(0, n - 1),
            )
        ),
        st.sampled_from([0, 2]),
        st.one_of(st.floats(max_value=0.0), st.just(np.nan)),
    )
    def test_any_bad_cell_fails_the_face_check(self, cells, row, bad):
        # The contract the solver's cell check rests on: cell i is the
        # face-left state w_i + h_i and the face-right state w_i - h_i, one
        # of which is at most w_i, so a non-positive or NaN density or
        # pressure always reaches a face, whatever the other cells hold
        values, cell = cells
        w = np.array(values).reshape(3, -1)
        w[row, cell] = bad
        with np.errstate(all="ignore"), pytest.raises(NonPhysicalState):
            faces_of(w)

    def test_both_sides_come_in_one_contiguous_array(self):
        rng = np.random.default_rng(9)
        w = np.stack([rng.uniform(1, 2, 7), rng.uniform(-1, 1, 7), rng.uniform(1, 2, 7)])
        faces = faces_of(w)
        assert faces.shape == (3, 2, 8)
        assert faces.flags.c_contiguous


def concatenated_reconstruction(w):
    """Oracle: the reconstruction as it was written before the differences
    went into one array: ghost cells copied by np.concatenate, d_m and d_p
    as (3, n) slices, and the same positivity check."""
    w = np.asarray(w, dtype=float)
    ext = np.concatenate([w[:, :1], w, w[:, -1:]], axis=1)
    d = ext[:, 1:] - ext[:, :-1]
    d_m, d_p = d[:, :-1], d[:, 1:]
    half = d_m * np.divide(d_p, d_m + d_p, out=np.zeros(d_m.shape), where=d_m * d_p > 0.0)
    faces = np.empty((3, 2, d.shape[1]))
    faces[:, 0, 0] = w[:, 0]
    np.add(w, half, out=faces[:, 0, 1:])
    np.subtract(w, half, out=faces[:, 1, :-1])
    faces[:, 1, -1] = w[:, -1]
    if np.minimum.reduce(faces[::2], axis=None) > 0.0:
        return faces
    bad = ~((faces[0] > 0.0) & (faces[2] > 0.0))
    side, face = divmod(int(bad.argmax()), bad.shape[1])
    raise NonPhysicalState(
        f"reconstructed face-{('left', 'right')[side]} state has non-positive density or pressure",
        face=face,
    )


def outcome(reconstruct, w):
    """The faces' bytes, or the error's type, message and face."""
    try:
        return reconstruct(w).tobytes()
    except NonPhysicalState as exc:
        return type(exc), str(exc), exc.face


# Cell values that the differences treat apart: signed zeros, NaN,
# infinities, equal neighbours, and differences near 1e154 whose product
# overflows
CELL = st.one_of(
    st.floats(0.5, 2.0),
    st.floats(-1e3, 1e3),
    st.sampled_from([0.0, -0.0, 1.0, np.nan, np.inf, -np.inf, 1e154, -1e154]),
)


class TestOneContiguousPass:
    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.lists(CELL, min_size=3 * n, max_size=3 * n)))
    def test_bitwise_the_concatenated_form(self, values):
        w = np.array(values).reshape(3, -1)
        with np.errstate(all="ignore"):
            assert outcome(faces_of, w) == outcome(concatenated_reconstruction, w)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("special", [np.inf, -np.inf, np.nan, -0.0])
    def test_one_and_two_cells_with_a_special_value(self, n, special):
        base = np.array([[1.0, 0.5], [-0.0, 2.0], [3.0, 1.0]])[:, :n]
        for row in range(3):
            for cell in range(n):
                w = base.copy()
                w[row, cell] = special
                with np.errstate(all="ignore"):
                    assert outcome(faces_of, w) == outcome(concatenated_reconstruction, w)

    def test_a_strided_window_is_read_without_being_changed(self):
        # The kernel gets the strided window with its ghost cells, cells 1
        # and 25 of the grid, which copy the window's edge cells 3 and 23
        rng = np.random.default_rng(5)
        grid = np.stack([rng.uniform(1, 2, 30), rng.uniform(-1, 1, 30), rng.uniform(1, 2, 30)])
        grid[:, [1, 25]] = grid[:, [3, 23]]
        window = grid[:, 3:25:2]
        before = grid.tobytes()
        assert outcome(reconstruct_faces, grid[:, 1:27:2]) == outcome(concatenated_reconstruction, window)
        assert grid.tobytes() == before


def former_reconstruction(w):
    """Oracle: reconstruct_faces as it was before it took ghost cells, on
    (3, n) cells: the end columns of the differences by a subtraction of
    their own, and the boundary faces copied from the edge cells."""
    w = np.asarray(w, dtype=float)
    n = w.shape[1]
    d = np.empty((3, n + 1))
    np.subtract(w[:, 1:], w[:, :-1], out=d[:, 1:-1])
    ends = w[:, :: max(n - 1, 1)]
    np.subtract(ends, ends, out=d[:, ::n])
    d_m, d_p = d.ravel()[:-1], d.ravel()[1:]
    half = np.zeros((3, n + 1))
    q = half.ravel()[:-1]
    np.divide(d_p, d_m + d_p, out=q, where=d_m * d_p > 0.0)
    np.multiply(d_m, q, out=q)
    half = half[:, :n]

    faces = np.empty((3, 2, n + 1))
    faces[:, 0, 0] = w[:, 0]
    np.add(w, half, out=faces[:, 0, 1:])
    np.subtract(w, half, out=faces[:, 1, :-1])
    faces[:, 1, -1] = w[:, -1]

    if np.minimum.reduce(faces[::2], axis=None) > 0.0:
        return faces
    bad = ~((faces[0] > 0.0) & (faces[2] > 0.0))
    side, face = divmod(int(bad.argmax()), bad.shape[1])
    raise NonPhysicalState(
        f"reconstructed face-{('left', 'right')[side]} state has non-positive density or pressure",
        face=face,
    )


def warned_outcome(reconstruct, w):
    """outcome(reconstruct, w), and the messages of the RuntimeWarnings it
    raised, every occurrence counted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        result = outcome(reconstruct, w)
    return result, collections.Counter(str(c.message) for c in caught if c.category is RuntimeWarning)


def check_against_the_former_kernel(w):
    """The faces' bytes, or the error's type, message and face, are the
    former kernel's, and so are the RuntimeWarnings, but for one: where both
    of its subtractions met inf - inf, an infinite edge cell and a same-signed
    infinite neighbour, it warned twice of that, and the one subtraction
    over the ghost cells warns once."""
    got, got_warnings = warned_outcome(faces_of, w)
    expected, expected_warnings = warned_outcome(former_reconstruction, w)
    assert got == expected
    inf = np.isinf(w)
    twice = inf[:, [0, -1]].any() and (inf[:, 1:] & (w[:, 1:] == w[:, :-1])).any()
    expected_warnings["invalid value encountered in subtract"] -= int(twice)
    assert got_warnings == +expected_warnings


class TestTheFormerKernel:
    """reconstruct_faces reads its ghost cells where the former kernel made
    them; on edge-padded cells it gives that kernel's faces bit for bit,
    its error and its warnings (notes/decisions.md section 21)."""

    @settings(max_examples=500, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.lists(CELL, min_size=3 * n, max_size=3 * n)))
    def test_bitwise_on_edge_padded_blocks(self, values):
        check_against_the_former_kernel(np.array(values).reshape(3, -1))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("special", [0.0, -0.0, np.nan, np.inf, -np.inf])
    def test_a_special_value_at_an_end(self, n, special):
        base = np.array([[1.0, 0.5, 2.0], [-0.0, 2.0, 0.0], [3.0, 1.0, 0.5]])[:, :n]
        for row in range(3):
            for cells in ([0], [n - 1], [0, n - 1]):
                w = base.copy()
                w[row, cells] = special
                check_against_the_former_kernel(w)

    def test_signed_zero_velocities_at_both_ends(self):
        # The ghosts' half-slopes, -0.0 on the left and +0.0 on the right,
        # keep the sign of a zero velocity on both sides of both boundary
        # faces; a half-slope of +0.0 on the left would turn -0.0 into +0.0
        w = np.array([[1.0, 2.0, 1.5], [-0.0, 0.3, -0.0], [1.0, 1.0, 1.0]])
        faces = faces_of(w)
        assert np.signbit(faces[1][:, [0, -1]]).all()
        check_against_the_former_kernel(w)
        w[1, [0, -1]] = 0.0
        assert not np.signbit(faces_of(w)[1][:, [0, -1]]).any()

    def test_differences_near_1e154(self):
        # d_m d_p overflows in the mask, which warns of it once, as before
        rng = np.random.default_rng(12)
        n = 40
        u = np.cumsum(10.0 ** rng.uniform(154.0, 160.0, n) * rng.choice([-1.0, 1.0], n))
        w = np.array([np.ones(n), u, np.concatenate([[1.0], np.arange(1, n) * 1e160])])
        check_against_the_former_kernel(w)
        assert warned_outcome(faces_of, w)[1] == {"overflow encountered in multiply": 1}

    def test_a_strided_padded_window(self):
        # A (3, n + 2) view with a stride of three cells whose ghost columns
        # copy its edge cells, as the solver's buffer would hold them
        rng = np.random.default_rng(13)
        grid = np.stack([rng.uniform(1, 2, 40), rng.uniform(-1, 1, 40), rng.uniform(1, 2, 40)])
        grid[:, [0, 36]] = grid[:, [3, 33]]
        before = grid.tobytes()
        got = warned_outcome(reconstruct_faces, grid[:, 0:37:3])
        assert got == warned_outcome(former_reconstruction, grid[:, 3:34:3])
        assert grid.tobytes() == before
