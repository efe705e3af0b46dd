"""The 22 face-flux methods: point values, limits, identities, properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_same_bytes, sides
from sodbench.errors import InvalidConfig
from sodbench import bench, fluxes, solver
from sodbench.fluxes import (
    FluxMethod,
    aufs_speeds,
    compute_face_flux,
    davis1_speeds,
    davis2_speeds,
    einfeldt_speeds,
    flux_ausm,
    flux_ausm_plus,
    flux_ausm_plus_up,
    flux_exact,
    flux_hll,
    flux_hllc,
    flux_lf,
    flux_roe,
    flux_rusanov,
    flux_sw_fvs,
    flux_vanleer_fvs,
    pbased_speeds,
    roe_average,
    roe_speeds,
)
from sodbench.gas import (
    GasModel,
    PrimitiveState,
    conserved_array,
    enthalpy_array,
    flux_array,
    sound_speed_array,
    state_and_flux_array,
)
from sodbench.solver import RunConfig

GAS = GasModel()
G = 1.4

SOD_L = np.array([1.0, 0.0, 1.0])
SOD_R = np.array([0.125, 0.0, 0.1])
# physical flux of the star-left state of the exact Sod solution
SOD_EXACT_FLUX = np.array([0.39539, 0.66985, 1.15404])

# Methods whose signal speeds come straight from the face data; for these the
# supersonic upwind limit holds for arbitrary pairs.  The remaining methods
# derive speeds from averages or the star pressure, where a strong enough
# collision legitimately sends a wave upstream (see the decisions ledger).
DATA_SPEED_METHODS = {
    FluxMethod.KNP,
    FluxMethod.SW,
    FluxMethod.VAN_LEER,
    FluxMethod.AUSM,
    FluxMethod.AUSM_PLUS,
    FluxMethod.AUSM_PLUS_UP,
    FluxMethod.AUFS,
    FluxMethod.HLL_DAVIS1,
    FluxMethod.HLL_DAVIS2,
    FluxMethod.HLLC_DAVIS1,
    FluxMethod.HLLC_DAVIS2,
}
CENTRAL_METHODS = {FluxMethod.LF, FluxMethod.KT, FluxMethod.RUSANOV}

# The six signal-speed estimates (S_L, S_R) and the three AUSM kernels
ESTIMATES = [davis1_speeds, davis2_speeds, roe_speeds, einfeldt_speeds, pbased_speeds, aufs_speeds]
AUSM_KERNELS = [flux_ausm, flux_ausm_plus, flux_ausm_plus_up]

# Each method's kernel and, for the two-wave and HLLC families, its estimate,
# written out apart from the dispatcher's table
KERNEL_OF = {
    FluxMethod.RIEMANN: (flux_exact,),
    FluxMethod.ROE: (flux_roe,),
    FluxMethod.KNP: (flux_hll, davis2_speeds),
    FluxMethod.KT: (flux_rusanov,),
    FluxMethod.SW: (flux_sw_fvs,),
    FluxMethod.VAN_LEER: (flux_vanleer_fvs,),
    FluxMethod.AUSM: (flux_ausm,),
    FluxMethod.AUSM_PLUS: (flux_ausm_plus,),
    FluxMethod.AUSM_PLUS_UP: (flux_ausm_plus_up,),
    FluxMethod.AUFS: (flux_hll, aufs_speeds),
    FluxMethod.HLL_DAVIS1: (flux_hll, davis1_speeds),
    FluxMethod.HLL_DAVIS2: (flux_hll, davis2_speeds),
    FluxMethod.HLL_ROE: (flux_hll, roe_speeds),
    FluxMethod.HLL_EINFELDT: (flux_hll, einfeldt_speeds),
    FluxMethod.HLL_PBASED: (flux_hll, pbased_speeds),
    FluxMethod.HLLC_DAVIS1: (flux_hllc, davis1_speeds),
    FluxMethod.HLLC_DAVIS2: (flux_hllc, davis2_speeds),
    FluxMethod.HLLC_ROE: (flux_hllc, roe_speeds),
    FluxMethod.HLLC_EINFELDT: (flux_hllc, einfeldt_speeds),
    FluxMethod.HLLC_PBASED: (flux_hllc, pbased_speeds),
    FluxMethod.RUSANOV: (flux_rusanov,),
}


def dispatch(method, wl, wr):
    return compute_face_flux(method, sides(wl, wr), GAS, dx=0.005, dt=0.001)


def random_primitives(n, seed):
    rng = np.random.default_rng(seed)
    return np.stack(
        [
            rng.uniform(0.01, 10.0, n),
            rng.uniform(-3.0, 3.0, n),
            rng.uniform(0.01, 10.0, n),
        ]
    )


def random_pairs(n, seed):
    """Non-vacuum face pairs with moderate jumps."""
    rng = np.random.default_rng(seed)
    wl = random_primitives(n, seed)
    wr = np.stack(
        [
            wl[0] * rng.uniform(0.5, 2.0, n),
            wl[1] + rng.uniform(-0.5, 0.5, n),
            wl[2] * rng.uniform(0.5, 2.0, n),
        ]
    )
    a_l = np.sqrt(G * wl[2] / wl[0])
    a_r = np.sqrt(G * wr[2] / wr[0])
    keep = 2.0 * (a_l + a_r) / (G - 1.0) > wr[1] - wl[1]
    return wl[:, keep], wr[:, keep]


def subsonic_pairs(n, seed):
    """Face pairs with |u| < 0.3 and every sound speed above 0.59, so that
    every signal-speed estimate has S_L < 0 < S_R."""
    rng = np.random.default_rng(seed)
    wl, wr = (
        np.stack([rng.uniform(0.5, 2.0, n), rng.uniform(-0.3, 0.3, n), rng.uniform(0.5, 2.0, n)])
        for _ in range(2)
    )
    return wl, wr


def jacobian(u, h):
    """Euler flux Jacobian in conserved variables at velocity u, enthalpy h."""
    return np.array(
        [
            [0.0, 1.0, 0.0],
            [0.5 * (G - 3.0) * u * u, (3.0 - G) * u, G - 1.0],
            [(0.5 * (G - 1.0) * u * u - h) * u, h - (G - 1.0) * u * u, G * u],
        ]
    )


class TestMethodEnum:
    def test_twenty_two_members_in_report_order(self):
        names = [m.value for m in FluxMethod]
        assert len(names) == 22
        assert names[0] == "riemann"
        assert names[4] == "sw"
        assert names[9] == "aufs"
        assert names[10:15] == [f"hll-{v}" for v in ("davis1", "davis2", "roe", "einfeldt", "pbased")]
        assert names[-2:] == ["lf", "rusanov"]

    def test_table_index(self):
        assert FluxMethod.RIEMANN.table_index == 1
        assert FluxMethod.RUSANOV.table_index == 22

    def test_lookup_by_cli_name(self):
        assert FluxMethod("hllc-einfeldt") is FluxMethod.HLLC_EINFELDT


class TestAusmConstants:
    def test_defaults(self):
        assert fluxes.AUSM_PLUS_ALPHA == pytest.approx(3.0 / 16.0)
        assert fluxes.AUSM_PLUS_BETA == pytest.approx(1.0 / 8.0)
        assert fluxes.AUSM_UP_KP == 0.25
        assert fluxes.AUSM_UP_KU == 0.75
        assert fluxes.AUSM_UP_SIGMA == 1.0
        assert fluxes.AUSM_UP_CUTOFF_MACH == 0.1


class TestRoeAverage:
    def test_collapses_for_identical_states(self):
        w = np.array([0.8, 1.3, 2.1])
        u, h, a = roe_average(sides(w, w), G)
        assert float(u) == pytest.approx(w[1], rel=1e-14)
        assert float(h) == pytest.approx(0.5 * w[1] ** 2 + G / (G - 1.0) * w[2] / w[0], rel=1e-14)
        assert float(a) == pytest.approx(np.sqrt(G * w[2] / w[0]), rel=1e-14)

    def test_sod_values(self):
        # direct arithmetic with sqrt-density weights 1 and sqrt(0.125)
        s_l, s_r = 1.0, np.sqrt(0.125)
        h_expected = (3.5 * s_l + 2.8 * s_r) / (s_l + s_r)
        u, h, a = roe_average(sides(SOD_L, SOD_R), G)
        assert float(u) == 0.0
        assert float(h) == pytest.approx(h_expected, rel=1e-14)
        assert float(h) == pytest.approx(3.31716, abs=1e-5)
        assert float(a) == pytest.approx(np.sqrt(0.4 * h_expected), rel=1e-14)
        assert float(a) == pytest.approx(1.15190, abs=1e-5)

    def test_density_swap_leaves_velocity_average(self):
        wl = np.array([2.0, 0.7, 1.0])
        wr = np.array([0.5, 0.7, 1.0])
        assert float(roe_average(sides(wl, wr), G)[0]) == pytest.approx(
            float(roe_average(sides(wr, wl), G)[0]), rel=1e-14
        )


class TestWaveSpeedEstimates:
    def test_davis1_sod(self):
        s_l, s_r = davis1_speeds(sides(SOD_L, SOD_R), G)
        assert (float(s_l), float(s_r)) == pytest.approx(
            (-1.18322, 1.05830), abs=1e-5
        )

    def test_davis2_sod(self):
        s_l, s_r = davis2_speeds(sides(SOD_L, SOD_R), G)
        assert (float(s_l), float(s_r)) == pytest.approx((-1.18322, 1.18322), abs=1e-5)

    def test_pbased_sod(self):
        # Sod faces are at rest, so the estimate is the plain pressure average
        # and only the right side is flagged as compressed.
        s_l, s_r = pbased_speeds(sides(SOD_L, SOD_R), G)
        f_r = np.sqrt(1.0 + (0.55 / 0.1 - 1.0) * 2.4 / 2.8)
        assert f_r == pytest.approx(2.20389, abs=1e-5)
        assert float(s_l) == pytest.approx(-1.18322, abs=1e-5)
        assert float(s_r) == pytest.approx(1.05830 * f_r, abs=1e-4)
        assert float(s_r) == pytest.approx(2.33239, abs=1e-4)

    def test_roe_and_einfeldt_sod(self):
        s_l, s_r = roe_speeds(sides(SOD_L, SOD_R), G)
        assert (float(s_l), float(s_r)) == pytest.approx((-1.15190, 1.15190), abs=1e-5)
        # with equal velocities the Einfeldt spread reduces to the averaged a^2
        s_l, s_r = einfeldt_speeds(sides(SOD_L, SOD_R), G)
        assert (float(s_l), float(s_r)) == pytest.approx((-1.15190, 1.15190), abs=1e-4)

    def test_aufs_sod(self):
        # the faces are at rest: -+ the mean of the two sound speeds
        s_l, s_r = aufs_speeds(sides(SOD_L, SOD_R), G)
        assert (float(s_l), float(s_r)) == pytest.approx((-1.12076, 1.12076), abs=1e-5)

    @pytest.mark.parametrize("speeds", [davis2_speeds, roe_speeds, einfeldt_speeds, aufs_speeds])
    def test_ordering_unconditional(self, speeds):
        wl, wr = random_pairs(500, 17)
        s_l, s_r = speeds(sides(wl, wr), G)
        assert np.all(s_l < s_r)

    @pytest.mark.parametrize("speeds", [davis1_speeds, pbased_speeds])
    def test_ordering_where_acoustics_dominate(self, speeds):
        # one-sided estimates invert only when u_l - u_r outruns a_l + a_r
        wl, wr = random_pairs(500, 19)
        a_l = np.sqrt(G * wl[2] / wl[0])
        a_r = np.sqrt(G * wr[2] / wr[0])
        keep = wl[1] - wr[1] < a_l + a_r
        wl, wr = wl[:, keep], wr[:, keep]
        s_l, s_r = speeds(sides(wl, wr), G)
        assert np.all(s_l < s_r)


class TestExactFlux:
    def test_identical_states(self):
        w = np.array([0.6, -0.4, 1.7])
        assert flux_exact(sides(w, w), G) == pytest.approx(flux_array(w, G), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(1e-3, 1e3), st.floats(-50.0, 50.0), st.floats(1e-3, 1e3)),
            min_size=1,
            max_size=16,
        )
    )
    def test_identical_states_give_the_physical_flux_bitwise(self, states):
        # no waves: Newton starts at exactly p, stops with dp = 0, and the
        # face state is the input itself (a velocity of -0.0 as +0.0)
        w = np.array(states).T
        assert np.array_equal(flux_exact(sides(w, w.copy()), G), flux_array(w, G))
        assert np.array_equal(flux_exact(sides(w[:, 0], w[:, 0]), G), flux_array(w[:, 0], G))

    def test_sod_pair_matches_star_left_flux(self):
        f = flux_exact(sides(SOD_L, SOD_R), G)
        assert f == pytest.approx(SOD_EXACT_FLUX, abs=1e-4)

    def test_supersonic_pair_upwinds_fully(self):
        wl = np.array([1.0, 3.0, 1.0])
        wr = np.array([1.05, 3.1, 1.02])
        assert flux_exact(sides(wl, wr), G) == pytest.approx(flux_array(wl, G), rel=1e-12)


class TestRoeFlux:
    def test_identical_states(self):
        w = np.array([2.0, 0.5, 0.8])
        assert flux_roe(sides(w, w), G) == pytest.approx(flux_array(w, G), rel=1e-13)

    def test_matches_eigendecomposition_oracle(self):
        wl, wr = random_pairs(100, 23)
        for i in range(wl.shape[1]):
            l, r = wl[:, i], wr[:, i]
            u, h, _ = roe_average(sides(l, r), G)
            mat = jacobian(float(u), float(h))
            vals, vecs = np.linalg.eig(mat)
            absa = vecs @ np.diag(np.abs(vals)) @ np.linalg.inv(vecs)
            dq = conserved_array(r, G) - conserved_array(l, G)
            expected = 0.5 * (flux_array(l, G) + flux_array(r, G)) - 0.5 * absa @ dq
            assert flux_roe(sides(l, r), G) == pytest.approx(expected, rel=1e-9, abs=1e-10)

    def test_mild_supersonic_pair_upwinds(self):
        wl = np.array([1.0, 3.0, 1.0])
        wr = np.array([1.02, 3.05, 1.01])
        assert flux_roe(sides(wl, wr), G) == pytest.approx(flux_array(wl, G), rel=1e-10)


class TestTwoWaveFamilies:
    def test_hll_davis1_sod_direct_arithmetic(self):
        s_l, s_r = -1.1832159566199232, 1.0583005244258363  # u -+ a of the two sides
        f_l, f_r = np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.1, 0.0])
        dq = np.array([-0.875, 0.0, -2.25])
        expected = (s_r * f_l - s_l * f_r + s_l * s_r * dq) / (s_r - s_l)
        f = flux_hll(sides(SOD_L, SOD_R), G, davis1_speeds)
        assert f == pytest.approx(expected, rel=1e-12)
        assert f == pytest.approx([0.48881, 0.52492, 1.25694], abs=1e-5)

    def test_hll_supersonic_branch(self):
        wl = np.array([1.0, 3.0, 1.0])
        wr = np.array([0.5, 2.9, 0.7])
        for speeds in ESTIMATES:
            f = flux_hll(sides(wl, wr), G, speeds)
            assert f == pytest.approx(flux_array(wl, G), rel=1e-10)

    def test_hll_degenerate_guard_returns_average(self):
        # colliding supersonic streams invert the Davis1 estimates
        wl = np.array([1.0, 3.0, 1.0])
        wr = np.array([1.0, -3.0, 1.0])
        f = flux_hll(sides(wl, wr), G, davis1_speeds)
        assert f == pytest.approx(0.5 * (flux_array(wl, G) + flux_array(wr, G)), rel=1e-12)

    def test_a_batch_with_some_degenerate_faces(self):
        # Colliding supersonic streams cross the Davis-1 speeds on faces 1
        # and 3; the Sod faces and the slow face 4 keep their spread
        wl = np.array([SOD_L, [1.0, 3.0, 1.0], SOD_R, [0.5, 4.0, 0.7], [1.0, 0.2, 1.1]]).T
        wr = np.array([SOD_R, [1.0, -3.0, 1.0], SOD_L, [0.4, -5.0, 0.3], [0.9, 0.1, 1.0]]).T
        faces = sides(wl, wr)
        s_l, s_r = davis1_speeds(faces, G)
        degenerate = np.maximum(s_r, 0.0) - np.minimum(s_l, 0.0) < 1e-12
        assert degenerate.tolist() == [False, True, False, True, False]
        batch = flux_hll(faces, G, davis1_speeds)
        average = 0.5 * (flux_array(wl, G) + flux_array(wr, G))
        assert batch[:, degenerate].tobytes() == average[:, degenerate].tobytes()
        for i in range(faces.shape[2]):
            alone = flux_hll(faces[:, :, i], G, davis1_speeds)
            assert alone.tobytes() == batch[:, i].tobytes()

    def test_knp_identical_to_hll_davis2_bitwise(self):
        wl, wr = random_pairs(1000, 29)
        assert np.array_equal(
            dispatch(FluxMethod.KNP, wl, wr), flux_hll(sides(wl, wr), G, davis2_speeds)
        )

    def test_knp_rest_state(self):
        w = np.array([1.0, 0.0, 1.0])
        assert dispatch(FluxMethod.KNP, w, w) == pytest.approx(flux_array(w, G), rel=1e-14)


def hllc_both_star_states(speeds, wl, wr):
    """HLLC that builds both star states and then selects one."""
    s_l, s_r = speeds(sides(wl, wr), G)
    ql, qr = conserved_array(wl, G), conserved_array(wr, G)
    fl, fr = flux_array(wl, G), flux_array(wr, G)
    m_l = wl[0] * (s_l - wl[1])
    m_r = wr[0] * (s_r - wr[1])
    den = m_l - m_r
    den = np.where(np.abs(den) < 1e-300, 1e-300, den)
    s_star = (wr[2] - wl[2] + wl[1] * m_l - wr[1] * m_r) / den

    def star_flux(w, q, f, s_k, m_k):
        factor = m_k / np.where(np.abs(s_k - s_star) < 1e-300, 1e-300, s_k - s_star)
        energy = q[2] / w[0] + (s_star - w[1]) * (s_star + w[2] / m_k)
        q_star = np.stack([factor * np.ones_like(s_star), factor * s_star, factor * energy])
        return f + s_k * (q_star - q)

    f_star_l = star_flux(wl, ql, fl, s_l, m_l)
    f_star_r = star_flux(wr, qr, fr, s_r, m_r)
    return np.where(
        s_l >= 0.0, fl, np.where(s_r <= 0.0, fr, np.where(s_star >= 0.0, f_star_l, f_star_r))
    )


class TestHllc:
    @pytest.mark.parametrize("speeds", ESTIMATES)
    def test_one_star_state_matches_both_star_states_bitwise(self, speeds):
        wl, wr = random_pairs(400, 29)
        # add equal, moving-contact, resting-contact (s* = 0) and supersonic faces
        extra_l = [SOD_L, [1.0, 0.8, 1.5], [1.0, 0.0, 1.5], [1.3, 0.0, 0.7], [1.0, 3.0, 1.0]]
        extra_r = [SOD_L, [0.3, 0.8, 1.5], [0.3, 0.0, 1.5], [0.2, 0.0, 0.7], [1.05, 3.1, 1.02]]
        wl = np.concatenate([wl, np.array(extra_l).T], axis=1)
        wr = np.concatenate([wr, np.array(extra_r).T], axis=1)
        expected = hllc_both_star_states(speeds, wl, wr)
        assert np.array_equal(flux_hllc(sides(wl, wr), G, speeds), expected)
        assert np.array_equal(
            flux_hllc(sides(SOD_L, SOD_R), G, speeds), hllc_both_star_states(speeds, SOD_L, SOD_R)
        )

    @pytest.mark.parametrize("speeds", ESTIMATES)
    def test_upwind_selects_only_in_a_batch_that_needs_them(self, speeds):
        # A subsonic block skips the selects; one face supersonic to the
        # right, or to the left, added to it needs them
        wl, wr = subsonic_pairs(40, 67)
        s_l, s_r = speeds(sides(wl, wr), G)
        assert s_l.max() < 0.0 < s_r.min()
        assert_same_bytes(flux_hllc(sides(wl, wr), G, speeds), hllc_both_star_states(speeds, wl, wr))
        for u in (3.0, -3.0):
            l = np.concatenate([wl, [[1.0], [u], [1.0]]], axis=1)
            r = np.concatenate([wr, [[1.05], [1.03 * u], [1.02]]], axis=1)
            got = flux_hllc(sides(l, r), G, speeds)
            assert_same_bytes(got, hllc_both_star_states(speeds, l, r))
            assert_same_bytes(got[:, -1], flux_array(l[:, -1] if u > 0.0 else r[:, -1], G))

    @pytest.mark.parametrize("side", [0, 1])
    def test_a_nan_speed_hides_no_face_that_needs_a_select(self, side):
        # A NaN S_L next to a face supersonic to the right, or a NaN S_R next
        # to one supersonic to the left: a reduction that propagated the NaN
        # would skip the select that face needs
        u = 3.0 if side == 0 else -3.0
        wl, wr = subsonic_pairs(8, 71)
        wl = np.concatenate([wl, [[1.0], [u], [1.0]]], axis=1)
        wr = np.concatenate([wr, [[1.05], [1.03 * u], [1.02]]], axis=1)

        def speeds(faces, g):
            both = davis1_speeds(faces, g)
            both[side][0] = np.nan
            return both

        got = flux_hllc(sides(wl, wr), G, speeds)
        assert_same_bytes(got, hllc_both_star_states(speeds, wl, wr))
        assert np.isnan(got[:, 0]).all()
        assert_same_bytes(got[:, -1], flux_array((wl, wr)[side][:, -1], G))

    def test_zero_denominators_are_guarded(self):
        # Speeds chosen per face: on face 0, den = m_L - m_R is exactly 0;
        # on face 1, |S_L - s*| = 1e-301; both lie in the star region, so
        # their flux is the guarded value.  On face 2, S_L = s* = 0 and the
        # upwind flux is taken, with no division by 0 on the way.  Sod's
        # face needs no guard, and a NaN S_L on a second one must not hide
        # the others' need.
        wl = np.array([[1.5, -2.0, 1.0], [1.0, 0.0, 1.0], [1.0, -1.0, 2.0], SOD_L, SOD_L]).T
        wr = np.array([[1.0, -1.0, 2.5], [1.0, 0.0, 1.0], [1.0, -1.0, 1.0], SOD_R, SOD_R]).T

        def speeds(faces, g):
            s_l, s_r = davis1_speeds(faces, g)
            s_l[:3], s_l[4] = (-1.0, -1e-301, 0.0), np.nan
            s_r[:3] = 0.5, 1.0, 1.0
            return s_l, s_r

        with np.errstate(divide="raise", over="raise", invalid="raise"):
            got = flux_hllc(sides(wl, wr), G, speeds)
            assert_same_bytes(got, hllc_both_star_states(speeds, wl, wr))
        assert np.isfinite(got[:, :4]).all()
        assert_same_bytes(got[:, 2], flux_array(wl[:, 2], G))

    def test_identical_states(self):
        w = np.array([1.1, 0.4, 0.9])
        for speeds in ESTIMATES:
            assert flux_hllc(sides(w, w), G, speeds) == pytest.approx(flux_array(w, G), rel=1e-12)

    def test_isolated_contact_resolved_exactly_but_not_by_hll(self):
        wl = np.array([1.0, 0.8, 1.5])
        wr = np.array([0.3, 0.8, 1.5])
        expected = flux_array(wl, G)
        for speeds in ESTIMATES:
            hllc = flux_hllc(sides(wl, wr), G, speeds)
            assert hllc == pytest.approx(expected, rel=1e-12)
            hll = flux_hll(sides(wl, wr), G, speeds)
            assert abs(hll[0] - expected[0]) > 1e-3  # extra mass dissipation

    def test_sod_roe_variant_within_accuracy_class_of_exact(self):
        # the raw initial jump is a strong Riemann problem; the three-wave
        # model stays within the same accuracy class but not within a few
        # percent there (see ledger) -- percent-level agreement is a property
        # of the mild face jumps the reconstruction actually produces
        f = flux_hllc(sides(SOD_L, SOD_R), G, roe_speeds)
        assert np.all(np.abs(f - SOD_EXACT_FLUX) < 0.2)

    def test_roe_variant_tracks_exact_flux_on_mild_pairs(self):
        rng = np.random.default_rng(61)
        n = 200
        wl = np.stack(
            [rng.uniform(0.1, 5.0, n), rng.uniform(-1.5, 1.5, n), rng.uniform(0.1, 5.0, n)]
        )
        wr = np.stack(
            [
                wl[0] * rng.uniform(0.95, 1.05, n),
                wl[1] + rng.uniform(-0.02, 0.02, n),
                wl[2] * rng.uniform(0.95, 1.05, n),
            ]
        )
        f = flux_hllc(sides(wl, wr), G, roe_speeds)
        f_exact = flux_exact(sides(wl, wr), G)
        assert np.max(np.abs(f - f_exact) / (np.abs(f_exact) + 0.05)) < 0.05


class TestCentralFluxes:
    def test_kt_sod_direct_arithmetic(self):
        a_max = 1.1832159566199232
        expected = np.array([0.0, 0.55, 0.0]) - 0.5 * a_max * np.array([-0.875, 0.0, -2.25])
        f = dispatch(FluxMethod.KT, SOD_L, SOD_R)
        assert f == pytest.approx(expected, rel=1e-12)
        assert f == pytest.approx([0.51766, 0.55, 1.33112], abs=1e-5)

    def test_rusanov_equals_kt_bitwise(self):
        wl, wr = random_pairs(1000, 31)
        assert np.array_equal(flux_rusanov(sides(wl, wr), G), dispatch(FluxMethod.KT, wl, wr))

    def test_lf_sod_value(self):
        f = flux_lf(sides(SOD_L, SOD_R), G, dx=0.005, dt=0.001)
        assert f == pytest.approx([2.1875, 0.55, 5.625], rel=1e-12)

    def test_lf_dissipation_linear_in_mesh_ratio(self):
        f1 = flux_lf(sides(SOD_L, SOD_R), G, dx=0.005, dt=0.001)
        f2 = flux_lf(sides(SOD_L, SOD_R), G, dx=0.005, dt=0.0005)
        central = np.array([0.0, 0.55, 0.0])
        assert f2 - central == pytest.approx(2.0 * (f1 - central), rel=1e-12)

    def test_lf_identical_states(self):
        w = np.array([1.0, 0.7, 2.0])
        assert flux_lf(sides(w, w), G, dx=0.01, dt=0.002) == pytest.approx(
            flux_array(w, G), rel=1e-14
        )

    @pytest.mark.parametrize(
        "dx, dt",
        [
            (0.005, 0.0),
            (0.005, -1.0),
            (None, 0.001),
            (0.005, None),
            (np.nan, 0.001),
            (0.005, np.nan),
            (np.inf, 0.001),
            (0.005, np.inf),
            (1e300, 1e-10),  # both finite, their ratio is not
        ],
    )
    def test_lf_requires_mesh_ratio(self, dx, dt):
        with pytest.raises(InvalidConfig):
            flux_lf(sides(SOD_L, SOD_R), G, dx=dx, dt=dt)


class TestFluxVectorSplittings:
    def test_sw_plus_part_matches_eigen_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            w = np.array(
                [rng.uniform(0.1, 5.0), rng.uniform(-3.0, 3.0), rng.uniform(0.1, 5.0)]
            )
            a = np.sqrt(G * w[2] / w[0])
            h = 0.5 * w[1] ** 2 + G / (G - 1.0) * w[2] / w[0]
            mat = jacobian(w[1], h)
            vals, vecs = np.linalg.eig(mat)
            plus = vecs @ np.diag(0.5 * (vals + np.abs(vals))) @ np.linalg.inv(vecs)
            expected = plus @ conserved_array(w, G)
            # F+(w) recovered by feeding a zero-contribution right state
            supersonic_right = np.array([w[0], 10.0 * a + abs(w[1]), w[2]])
            f_plus = flux_sw_fvs(sides(w, supersonic_right), G) - 0.0
            assert f_plus == pytest.approx(expected, rel=1e-9, abs=1e-10)

    def test_sw_consistency_and_upwind(self):
        w = np.array([1.3, 0.2, 0.7])
        assert flux_sw_fvs(sides(w, w), G) == pytest.approx(flux_array(w, G), rel=1e-12)
        wl = np.array([1.0, 3.0, 1.0])
        wr = np.array([0.4, 2.5, 0.6])
        assert flux_sw_fvs(sides(wl, wr), G) == pytest.approx(flux_array(wl, G), rel=1e-12)

    def test_sw_sod_flux_near_exact(self):
        f = flux_sw_fvs(sides(SOD_L, SOD_R), G)
        assert np.all(np.abs(f - SOD_EXACT_FLUX) < 0.2)

    def test_van_leer_subsonic_mass_split(self):
        # left Sod state: f_mass+ = rho a (M+1)^2 / 4 with M = 0
        f = flux_vanleer_fvs(sides(SOD_L, np.array([1.0, 10.0, 1.0])), G)
        assert f[0] == pytest.approx(1.0 * 1.1832159566199232 / 4.0, rel=1e-12)
        assert f[0] == pytest.approx(0.295804, abs=1e-6)

    def test_van_leer_consistency_and_seam(self):
        w = np.array([0.9, 0.3, 1.4])
        assert flux_vanleer_fvs(sides(w, w), G) == pytest.approx(flux_array(w, G), rel=1e-12)
        # C1 seam: the subsonic polynomial meets the full flux at M = 1
        a = np.sqrt(G * 1.4 / 0.9)
        below = np.array([0.9, a * (1.0 - 1e-9), 1.4])
        above = np.array([0.9, a * (1.0 + 1e-9), 1.4])
        f_below = flux_vanleer_fvs(sides(below, np.array([1.0, 20.0, 1.0])), G)
        f_above = flux_vanleer_fvs(sides(above, np.array([1.0, 20.0, 1.0])), G)
        assert f_below == pytest.approx(f_above, rel=1e-6)


def slipped_sw(faces, g):
    """flux_sw_fvs with H' = u^2 + a^2/(g - 1) where the total enthalpy
    H = u^2/2 + a^2/(g - 1) belongs: the slip that reproduces the reference
    table's Steger-Warming row (notes/decisions.md section 1)."""
    sign = fluxes._side_sign(faces)
    rho, u = faces[0], faces[1]
    a = sound_speed_array(faces, g)
    h = enthalpy_array(faces, g) + 0.5 * u * u
    lam = (u - a, u, u + a)
    l1, l2, l3 = (0.5 * (x + sign * np.abs(x)) for x in lam)
    c = rho / (2.0 * g)
    parts = np.array(
        [
            c * (l1 + 2.0 * (g - 1.0) * l2 + l3),
            c * (l1 * (u - a) + 2.0 * (g - 1.0) * l2 * u + l3 * (u + a)),
            c * (l1 * (h - u * a) + (g - 1.0) * l2 * u * u + l3 * (h + u * a)),
        ]
    )
    return parts[:, 0] + parts[:, 1]


class TestStegerWarmingRow:
    """The reference row of Steger-Warming (total 0.17921) is what the
    split gives with u^2 in place of u^2/2 in its enthalpy.  That split is
    not consistent, so src keeps the canonical one (notes/decisions.md
    section 1)."""

    def test_the_slipped_split_gives_the_reference_total(self, monkeypatch):
        monkeypatch.setitem(fluxes._KERNELS, FluxMethod.SW, (slipped_sw,))
        report = bench.rmse_report(RunConfig(method=FluxMethod.SW))
        assert round(report.rmse_total, 5) == 0.17921
        # the canonical split's total, as the acceptance criteria read it
        monkeypatch.undo()
        assert round(bench.rmse_report(RunConfig(method=FluxMethod.SW)).rmse_total, 5) == 0.04101

    def test_the_slip_adds_rho_u_cubed_over_two_gamma_to_the_energy_flux(self):
        # F+ + F- of one state: (l1 + l3) summed over the split is 2u, and
        # the energy row carries (rho / 2 gamma) (l1 + l3) (H' - H)
        w = random_primitives(500, 71)
        excess = slipped_sw(sides(w, w), G) - flux_array(w, G)
        expected = np.array([np.zeros(500), np.zeros(500), w[0] * w[1] ** 3 / (2.0 * G)])
        assert excess == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_the_canonical_split_stays_consistent(self):
        w = random_primitives(500, 71)
        assert flux_sw_fvs(sides(w, w), G) == pytest.approx(flux_array(w, G), rel=1e-12, abs=1e-12)


class TestAusmFamily:
    @pytest.mark.parametrize("kernel", AUSM_KERNELS)
    def test_consistency(self, kernel):
        w = np.array([1.2, 0.4, 0.9])
        f = kernel(sides(w, w), G)
        assert f == pytest.approx(flux_array(w, G), rel=1e-12)

    @pytest.mark.parametrize("kernel", AUSM_KERNELS)
    def test_supersonic_upwinding(self, kernel):
        wl = np.array([1.0, 3.0, 1.0])
        wr = np.array([0.6, 2.8, 0.5])
        assert kernel(sides(wl, wr), G) == pytest.approx(
            flux_array(wl, G), rel=1e-10
        )

    def test_basic_sod_is_pure_pressure_average(self):
        # both face Mach numbers vanish: split Machs cancel, pressure halves add
        f = flux_ausm(sides(SOD_L, SOD_R), G)
        assert f == pytest.approx([0.0, 0.55, 0.0], abs=1e-14)

    def test_plus_up_pressure_diffusion_acts_at_low_mach(self):
        # a pressure jump at rest must drive a mass flux through the up-term
        wl = np.array([1.0, 0.0, 1.2])
        wr = np.array([1.0, 0.0, 0.8])
        f_up = flux_ausm_plus_up(sides(wl, wr), G)
        f_plus = flux_ausm_plus(sides(wl, wr), G)
        assert f_plus[0] == pytest.approx(0.0, abs=1e-14)
        assert f_up[0] > 1e-3


class TestAufs:
    def test_consistency(self):
        w = np.array([0.7, -0.2, 1.1])
        assert dispatch(FluxMethod.AUFS, w, w) == pytest.approx(flux_array(w, G), rel=1e-13)

    def test_supersonic_upwinding(self):
        wl = np.array([1.0, 3.0, 1.0])
        wr = np.array([0.5, 2.6, 0.9])
        assert dispatch(FluxMethod.AUFS, wl, wr) == pytest.approx(flux_array(wl, G), rel=1e-10)

    def test_sod_pair_within_accuracy_class_of_exact(self):
        f = dispatch(FluxMethod.AUFS, SOD_L, SOD_R)
        assert np.all(np.abs(f - SOD_EXACT_FLUX) < 0.15)


class TestDispatcher:
    def test_riemann_dispatch_consistency(self):
        w = np.array([1.0, 0.2, 1.0])
        assert dispatch(FluxMethod.RIEMANN, w, w) == pytest.approx(
            flux_array(w, G), rel=1e-12
        )

    def test_lf_dispatch_value(self):
        assert dispatch(FluxMethod.LF, SOD_L, SOD_R) == pytest.approx(
            [2.1875, 0.55, 5.625], rel=1e-12
        )

    def test_hllc_dispatch_identity(self):
        wl, wr = random_pairs(50, 41)
        assert np.array_equal(
            dispatch(FluxMethod.HLLC_DAVIS2, wl, wr),
            flux_hllc(sides(wl, wr), G, davis2_speeds),
        )

    def test_lf_without_mesh_ratio_rejected(self):
        with pytest.raises(InvalidConfig):
            compute_face_flux(FluxMethod.LF, sides(SOD_L, SOD_R), GAS)

    def test_accepts_primitive_state_inputs(self):
        f = compute_face_flux(
            FluxMethod.ROE, sides(PrimitiveState(1.0, 0.0, 1.0), PrimitiveState(0.125, 0.0, 0.1)), GAS
        )
        assert f == pytest.approx(flux_roe(sides(SOD_L, SOD_R), G), rel=1e-14)

    def test_mesh_ratio_is_keyword_only(self):
        with pytest.raises(TypeError):
            compute_face_flux(FluxMethod.LF, sides(SOD_L, SOD_R), GAS, object())

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidConfig):
            compute_face_flux("roe", sides(SOD_L, SOD_R), GAS)

    def test_each_method_runs_its_kernel_and_estimate(self):
        # Lax-Friedrichs, the one kernel taking dx and dt, is pinned above
        assert set(KERNEL_OF) == set(FluxMethod) - {FluxMethod.LF}
        faces = sides(*random_pairs(200, 71))
        for method, (kernel, *speeds) in KERNEL_OF.items():
            got = compute_face_flux(method, faces, GAS)
            assert got.tobytes() == kernel(faces, G, *speeds).tobytes(), method


class TestSharedProperties:
    """Contract invariants every method must satisfy."""

    @pytest.mark.parametrize("method", list(FluxMethod))
    def test_one_face_a_row_and_a_block_of_faces_agree(self, method):
        # faces (3, 2), (3, 2, m) and (3, 2, 1, m) give fluxes (3,), (3, m)
        # and (3, 1, m); this pins the broadcasting of the +-1 side column
        faces = sides(*random_pairs(60, 67))
        m = faces.shape[2]
        row = compute_face_flux(method, faces, GAS, dx=0.005, dt=0.001)
        assert row.shape == (3, m)
        block = compute_face_flux(method, faces[:, :, None], GAS, dx=0.005, dt=0.001)
        assert block.shape == (3, 1, m)
        assert block[:, 0] == pytest.approx(row, rel=1e-14)
        for i in range(m):
            one = compute_face_flux(method, faces[:, :, i], GAS, dx=0.005, dt=0.001)
            assert one.shape == (3,)
            assert one == pytest.approx(row[:, i], rel=1e-14)

    def test_consistency_all_methods(self):
        w = random_primitives(1000, 43)
        reference = flux_array(w, G)
        scale = np.abs(reference) + 1.0
        for method in FluxMethod:
            f = dispatch(method, w, w)
            assert np.max(np.abs(f - reference) / scale) < 1e-12, method

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(-3.0, 3.0), st.floats(-5.0, 5.0), st.floats(-3.0, 3.0)),
            min_size=1,
            max_size=16,
        )
    )
    def test_identical_states_give_the_physical_flux_to_a_few_ulps(self, states):
        # F(w, w) = f(w) is what lets solver.advance skip every cell whose
        # stencil is uniform (notes/decisions.md section 10).  Density and
        # pressure span 10^[-3, 3], the Mach number [-5, 5]; the error is
        # measured against the size of the terms each kernel upwinds or splits,
        # rho s (1, s, H) with s = |u| + a
        log_rho, mach, log_p = np.array(states).T
        rho, p = 10.0**log_rho, 10.0**log_p
        a = np.sqrt(G * p / rho)
        w = np.array([rho, mach * a, p])
        reference = flux_array(w, G)
        s = np.abs(w[1]) + a
        scale = rho * s * np.array([np.ones_like(s), s, enthalpy_array(w, G)])
        for method in FluxMethod:
            f = dispatch(method, w, w.copy())
            ulps = np.max(np.abs(f - reference) / (np.finfo(float).eps * scale))
            assert ulps <= 4.0, (method, ulps)

    def test_upwind_limit_data_speed_methods(self):
        rng = np.random.default_rng(47)
        n = 500
        rho = rng.uniform(0.01, 10.0, n)
        p = rng.uniform(0.01, 10.0, n)
        a = np.sqrt(G * p / rho)
        wl = np.stack([rho, a * rng.uniform(1.001, 3.0, n), p])
        wr = wl[:, rng.permutation(n)]
        reference = flux_array(wl, G)
        scale = np.abs(reference) + 1.0
        for method in DATA_SPEED_METHODS:
            f = dispatch(method, wl, wr)
            assert np.max(np.abs(f - reference) / scale) < 1e-10, method

    def test_upwind_limit_solution_speed_methods_mild_jumps(self):
        rng = np.random.default_rng(53)
        n = 500
        rho = rng.uniform(0.05, 5.0, n)
        p = rng.uniform(0.05, 5.0, n)
        a = np.sqrt(G * p / rho)
        wl = np.stack([rho, a * rng.uniform(1.05, 3.0, n), p])
        wr = np.stack(
            [
                wl[0] * rng.uniform(0.95, 1.05, n),
                wl[1] * rng.uniform(1.0, 1.05, n),
                wl[2] * rng.uniform(0.95, 1.05, n),
            ]
        )
        reference = flux_array(wl, G)
        scale = np.abs(reference) + 1.0
        solution_speed = set(FluxMethod) - DATA_SPEED_METHODS - CENTRAL_METHODS
        for method in solution_speed:
            f = dispatch(method, wl, wr)
            assert np.max(np.abs(f - reference) / scale) < 1e-10, method

    def test_mirror_symmetry_all_methods(self):
        wl, wr = random_pairs(1000, 59)

        def mirrored(w):
            return np.stack([w[0], -w[1], w[2]])

        for method in FluxMethod:
            f = dispatch(method, wl, wr)
            f_mirror = dispatch(method, mirrored(wr), mirrored(wl))
            expected = np.stack([-f[0], f[1], -f[2]])
            err = np.max(np.abs(f_mirror - expected) / (np.abs(expected) + 1.0))
            assert err < 1e-12, method


# ---------------------------------------------------------------------------
# Oracles: the shared kernels as they were written before each was cut to
# fewer array operations (notes/decisions.md section 15)
# ---------------------------------------------------------------------------

def former_state_and_flux(w, gamma):
    rho, u, p = w[0], w[1], w[2]
    mom = rho * u
    energy = p / (gamma - 1.0) + 0.5 * rho * u * u
    return np.array([rho, mom, energy]), np.array([mom, mom * u + p, (energy + p) * u])


def former_fluxes_and_jump(faces, g):
    q, f = former_state_and_flux(faces, g)
    return f[:, 0], f[:, 1], q[:, 1] - q[:, 0]


def former_two_wave_flux(faces, s_left, s_right, g):
    sl = np.minimum(s_left, 0.0)
    sr = np.maximum(s_right, 0.0)
    fl, fr, dq = former_fluxes_and_jump(faces, g)
    spread = sr - sl
    degenerate = spread < 1e-12
    safe = np.where(degenerate, 1.0, spread)
    blended = (sr * fl - sl * fr + sl * sr * dq) / safe
    return np.where(degenerate, 0.5 * (fl + fr), blended)


def former_flux_roe(faces, g):
    u, h, a = roe_average(faces, g)
    fl, fr, dq = former_fluxes_and_jump(faces, g)
    alpha2 = (g - 1.0) / (a * a) * (dq[0] * (h - u * u) + u * dq[1] - dq[2])
    alpha1 = (dq[0] * (u + a) - dq[1] - a * alpha2) / (2.0 * a)
    alpha3 = dq[0] - alpha1 - alpha2
    lam1, lam2, lam3 = np.abs(u - a), np.abs(u), np.abs(u + a)
    diss = np.array(
        [
            lam1 * alpha1 + lam2 * alpha2 + lam3 * alpha3,
            lam1 * alpha1 * (u - a) + lam2 * alpha2 * u + lam3 * alpha3 * (u + a),
            lam1 * alpha1 * (h - u * a)
            + lam2 * alpha2 * 0.5 * u * u
            + lam3 * alpha3 * (h + u * a),
        ]
    )
    return 0.5 * (fl + fr) - 0.5 * diss


def former_mach_split_1(mach, sign):
    sub = sign * 0.25 * (mach + sign) ** 2
    sup = 0.5 * (mach + sign * np.abs(mach))
    return np.where(np.abs(mach) <= 1.0, sub, sup)


def former_pressure_split_1(mach, sign):
    sub = 0.25 * (mach + sign) ** 2 * (2.0 - sign * mach)
    sup = 0.5 * (1.0 + sign * np.sign(mach))
    return np.where(np.abs(mach) <= 1.0, sub, sup)


def former_mach_split_4(mach, sign, beta):
    sub = sign * 0.25 * (mach + sign) ** 2 + sign * beta * (mach * mach - 1.0) ** 2
    sup = 0.5 * (mach + sign * np.abs(mach))
    return np.where(np.abs(mach) <= 1.0, sub, sup)


def former_pressure_split_5(mach, sign, alpha):
    sub = 0.25 * (mach + sign) ** 2 * (2.0 - sign * mach) + sign * alpha * mach * (
        mach * mach - 1.0
    ) ** 2
    sup = 0.5 * (1.0 + sign * np.sign(mach))
    return np.where(np.abs(mach) <= 1.0, sub, sup)


def former_ausm_splits(mach, sign, alpha=None):
    if alpha is None:
        return former_mach_split_1(mach, sign), former_pressure_split_1(mach, sign)
    return (
        former_mach_split_4(mach, sign, fluxes.AUSM_PLUS_BETA),
        former_pressure_split_5(mach, sign, alpha),
    )


def former_flux_ausm(kernel, faces, g):
    sign = fluxes._side_sign(faces)
    rho, u, p = faces[0], faces[1], faces[2]
    h = enthalpy_array(faces, g)

    if kernel is flux_ausm:
        a = np.sqrt(g * p / rho)
        mach = u / a
        m_split = former_mach_split_1(mach, sign)
        m_half = m_split[0] + m_split[1]
        p_split = former_pressure_split_1(mach, sign) * p
        p_half = p_split[0] + p_split[1]
        ra = rho * a
        flux = m_half * fluxes._upwind(m_half, np.array([ra, ra * u, ra * h]))
        flux[1] = flux[1] + p_half
        return flux

    a_half = fluxes._interface_sound_speed(u, h, sign, g)
    mach = u / a_half
    m_split = former_mach_split_4(mach, sign, fluxes.AUSM_PLUS_BETA)

    if kernel is flux_ausm_plus:
        m_half = m_split[0] + m_split[1]
        p_split = former_pressure_split_5(mach, sign, fluxes.AUSM_PLUS_ALPHA) * p
        p_half = p_split[0] + p_split[1]
    else:
        uu = u * u
        mach_bar_sq = (uu[0] + uu[1]) / (2.0 * a_half * a_half)
        mach_ref = np.sqrt(np.minimum(np.maximum(mach_bar_sq, fluxes.AUSM_UP_CUTOFF_MACH**2), 1.0))
        fa = mach_ref * (2.0 - mach_ref)
        alpha = fluxes.AUSM_PLUS_ALPHA * (-4.0 + 5.0 * fa * fa)
        rho_half = 0.5 * (rho[0] + rho[1])
        m_p = (
            -fluxes.AUSM_UP_KP
            / fa
            * np.maximum(1.0 - fluxes.AUSM_UP_SIGMA * mach_bar_sq, 0.0)
            * (p[1] - p[0])
            / (rho_half * a_half * a_half)
        )
        m_half = m_split[0] + m_split[1] + m_p
        p_plus, p_minus = former_pressure_split_5(mach, sign, alpha)
        p_u = -fluxes.AUSM_UP_KU * p_plus * p_minus * (rho[0] + rho[1]) * fa * a_half * (u[1] - u[0])
        p_half = p_plus * p[0] + p_minus * p[1] + p_u

    rho_up, u_up, h_up = fluxes._upwind(m_half, np.array([rho, u, h]))
    mdot = a_half * m_half * rho_up
    return np.array([mdot, mdot * u_up + p_half, mdot * h_up])


def former_flux_vanleer(faces, g):
    sign = fluxes._side_sign(faces)
    rho, u = faces[0], faces[1]
    a = np.sqrt(g * faces[2] / rho)
    mach = u / a
    full = flux_array(faces, g)
    f_mass = sign * 0.25 * rho * a * (mach + sign) ** 2
    t = (g - 1.0) * u + sign * 2.0 * a
    sub = np.array([f_mass, f_mass * t / g, f_mass * t * t / (2.0 * (g * g - 1.0))])
    take_full = sign * mach >= 1.0
    take_zero = sign * mach <= -1.0
    parts = np.where(take_full, full, np.where(take_zero, 0.0, sub))
    return parts[:, 0] + parts[:, 1]


# A face: log10 of both densities, both Mach numbers, log10 of both
# pressures, and how the two streams are turned.  Mach numbers are signed
# zeros or at least 1e-3 in size, so that no rho u^2 is subnormal, where
# halving it is not exact.
MACH = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(1e-3, 5.0), st.floats(-5.0, -1e-3))
FACE = st.tuples(
    st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0),
    MACH,
    MACH,
    st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0),
    st.sampled_from(["as drawn", "colliding", "supersonic right", "supersonic left"]),
)
# A face whose two sides are subsonic, |M| <= 0.9, with the same bounds
SUBSONIC_MACH = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(1e-3, 0.9), st.floats(-0.9, -1e-3))
SUBSONIC_FACE = st.tuples(
    st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0),
    SUBSONIC_MACH,
    SUBSONIC_MACH,
    st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0),
    st.just("as drawn"),
)


@st.composite
def face_arrays(draw):
    """A (3, 2, m) block of faces, or one (3, 2) face; half the blocks are
    subsonic on every side, which the kernels' supersonic and upwind
    branches skip."""
    face = FACE if draw(st.booleans()) else SUBSONIC_FACE
    drawn = draw(st.lists(face, min_size=1, max_size=12))
    log_rho_l, log_rho_r, mach_l, mach_r, log_p_l, log_p_r = np.array([f[:6] for f in drawn]).T
    rho = 10.0 ** np.array([log_rho_l, log_rho_r])
    p = 10.0 ** np.array([log_p_l, log_p_r])
    mach = np.array([mach_l, mach_r])
    for i, (*_, turn) in enumerate(drawn):
        speed = np.abs(mach[:, i]) + 1.5
        if turn == "colliding":
            mach[:, i] = speed * [1.0, -1.0]
        elif turn == "supersonic right":
            mach[:, i] = speed
        elif turn == "supersonic left":
            mach[:, i] = -speed
    faces = np.array([rho, mach * np.sqrt(G * p / rho), p])
    return faces[:, :, 0] if draw(st.booleans()) else faces


class TestSharedKernelsMatchTheirFormerExpressions:
    """Each rewritten kernel gives its former expression's bytes on single
    faces and blocks of faces with signed-zero, supersonic and colliding
    streams."""

    @settings(max_examples=150, deadline=None)
    @given(face_arrays())
    def test_state_and_flux(self, faces):
        q, f = state_and_flux_array(faces, G)
        expected_q, expected_f = former_state_and_flux(faces, G)
        assert_same_bytes(q, expected_q)
        assert_same_bytes(f, expected_f)
        assert_same_bytes(flux_array(faces, G), expected_f)

    @settings(max_examples=150, deadline=None)
    @given(face_arrays())
    def test_two_wave_flux(self, faces):
        with np.errstate(all="ignore"):
            for speeds in ESTIMATES:
                s_l, s_r = speeds(faces, G)
                expected = former_two_wave_flux(faces, s_l, s_r, G)
                assert_same_bytes(flux_hll(faces, G, speeds), expected)
            u_avg = 0.5 * (faces[1, 0] + faces[1, 1])
            a = np.sqrt(G * faces[2] / faces[0])
            s2 = 0.5 * (a[0] + a[1])
            expected = former_two_wave_flux(faces, u_avg - s2, u_avg + s2, G)
            assert_same_bytes(compute_face_flux(FluxMethod.AUFS, faces, GAS), expected)

    @settings(max_examples=150, deadline=None)
    @given(face_arrays())
    def test_roe(self, faces):
        with np.errstate(all="ignore"):
            assert_same_bytes(flux_roe(faces, G), former_flux_roe(faces, G))

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.one_of(MACH, st.sampled_from([1.0, -1.0])), min_size=2, max_size=24),
        st.one_of(st.just(fluxes.AUSM_PLUS_ALPHA), st.floats(-0.75, 0.1875)),
    )
    def test_ausm_splittings(self, machs, alpha):
        # Both sides' Mach numbers as (2, m) rows, the side sign as a column;
        # AUSM's splittings, then AUSM+'s with alpha as one value and, as
        # AUSM+-up has it, one value per face
        mach = np.array(machs[: len(machs) // 2 * 2]).reshape(2, -1)
        sign = np.array([[1.0], [-1.0]])
        for a in (None, alpha, np.full(mach.shape[1], alpha)):
            got = fluxes._ausm_splits(mach, sign, a)
            for g, e in zip(got, former_ausm_splits(mach, sign, a)):
                assert_same_bytes(g, e)

    @settings(max_examples=150, deadline=None)
    @given(face_arrays())
    def test_hllc(self, faces):
        with np.errstate(all="ignore"):
            for speeds in ESTIMATES:
                expected = hllc_both_star_states(speeds, faces[:, 0], faces[:, 1])
                assert_same_bytes(flux_hllc(faces, G, speeds), expected)

    @settings(max_examples=150, deadline=None)
    @given(face_arrays())
    def test_vanleer(self, faces):
        with np.errstate(all="ignore"):
            assert_same_bytes(flux_vanleer_fvs(faces, G), former_flux_vanleer(faces, G))

    @settings(max_examples=150, deadline=None)
    @given(face_arrays())
    def test_ausm_family(self, faces):
        with np.errstate(all="ignore"):
            for kernel in AUSM_KERNELS:
                assert_same_bytes(kernel(faces, G), former_flux_ausm(kernel, faces, G))


# ---------------------------------------------------------------------------
# Oracles: the kernels as they were written before each value was formed
# once (notes/decisions.md sections 25 and 26)
# ---------------------------------------------------------------------------

def repeated_pbased_speeds(faces, g):
    u = faces[1]
    a = sound_speed_array(faces, g)
    rho, p = faces[0], faces[2]
    p_star = 0.5 * (p[0] + p[1]) - 0.125 * (u[1] - u[0]) * (a[1] + a[0]) * (rho[1] + rho[0])
    p_floor = np.maximum(p_star, 0.0)
    shock_factor = (g + 1.0) / (2.0 * g)
    f = np.where(p_star <= p, 1.0, np.sqrt(1.0 + (p_floor / p - 1.0) * shock_factor))
    fa = f * a
    return u[0] - fa[0], u[1] + fa[1]


def repeated_flux_sw(faces, g):
    sign = fluxes._side_sign(faces)
    rho, u = faces[0], faces[1]
    a = sound_speed_array(faces, g)
    h = enthalpy_array(faces, g)
    lam = (u - a, u, u + a)
    l1, l2, l3 = (0.5 * (x + sign * np.abs(x)) for x in lam)
    c = rho / (2.0 * g)
    parts = np.array(
        [
            c * (l1 + 2.0 * (g - 1.0) * l2 + l3),
            c * (l1 * (u - a) + 2.0 * (g - 1.0) * l2 * u + l3 * (u + a)),
            c * (l1 * (h - u * a) + (g - 1.0) * l2 * u * u + l3 * (h + u * a)),
        ]
    )
    return parts[:, 0] + parts[:, 1]


def repeated_flux_vanleer(faces, g):
    sign = fluxes._side_sign(faces)
    rho, u = faces[0], faces[1]
    a = sound_speed_array(faces, g)
    mach = u / a
    f_mass = sign * 0.25 * rho * a * (mach + sign) ** 2
    t = (g - 1.0) * u + sign * 2.0 * a
    parts = np.array([f_mass, f_mass * t / g, f_mass * t * t / (2.0 * (g * g - 1.0))])
    if np.fmax.reduce(np.abs(mach), axis=None, initial=0.0) >= 1.0:
        sign_mach = sign * mach
        take_full = sign_mach >= 1.0
        parts = np.where(take_full, flux_array(faces, g), np.where(sign_mach <= -1.0, 0.0, parts))
    return parts[:, 0] + parts[:, 1]


def repeated_ausm_splits(mach, sign, alpha=None):
    sq = (mach + sign) ** 2
    m_sub = sign * 0.25 * sq
    p_sub = 0.25 * sq * (2.0 - sign * mach)
    if alpha is not None:
        bump = (mach * mach - 1.0) ** 2
        m_sub = m_sub + sign * fluxes.AUSM_PLUS_BETA * bump
        p_sub = p_sub + sign * alpha * mach * bump
    abs_mach = np.abs(mach)
    if np.maximum.reduce(abs_mach, axis=None, initial=0.0) <= 1.0:
        return m_sub, p_sub
    subsonic = abs_mach <= 1.0
    m_split = np.where(subsonic, m_sub, 0.5 * (mach + sign * abs_mach))
    return m_split, np.where(subsonic, p_sub, 0.5 * (1.0 + sign * np.sign(mach)))


def repeated_flux_ausm_plus_up(faces, g):
    sign = fluxes._side_sign(faces)
    rho, u, p = faces[0], faces[1], faces[2]
    h = enthalpy_array(faces, g)
    a_half = fluxes._interface_sound_speed(u, h, sign, g)
    uu = u * u
    mach_bar_sq = (uu[0] + uu[1]) / (2.0 * a_half * a_half)
    mach_ref = np.sqrt(np.minimum(np.maximum(mach_bar_sq, fluxes.AUSM_UP_CUTOFF_MACH**2), 1.0))
    fa = mach_ref * (2.0 - mach_ref)
    alpha = fluxes.AUSM_PLUS_ALPHA * (-4.0 + 5.0 * fa * fa)
    m_split, p_weight = repeated_ausm_splits(u / a_half, sign, alpha)
    p_split = p_weight * p

    rho_half = 0.5 * (rho[0] + rho[1])
    m_p = (
        -fluxes.AUSM_UP_KP
        / fa
        * np.maximum(1.0 - fluxes.AUSM_UP_SIGMA * mach_bar_sq, 0.0)
        * (p[1] - p[0])
        / (rho_half * a_half * a_half)
    )
    p_plus, p_minus = p_weight
    p_u = -fluxes.AUSM_UP_KU * p_plus * p_minus * (rho[0] + rho[1]) * fa * a_half * (u[1] - u[0])
    m_half = m_split[0] + m_split[1] + m_p
    p_half = p_split[0] + p_split[1] + p_u
    return fluxes._upwind_mass_flux(m_half, p_half, a_half, rho, u, h)


def repeated_flux_hll(faces, g, speeds):
    # The guard's mask formed in every batch, and tested with an OR of it
    s_left, s_right = speeds(faces, g)
    sl = np.minimum(s_left, 0.0)
    sr = np.maximum(s_right, 0.0)
    fl, fr, dq = fluxes._fluxes_and_jump(faces, g)
    spread = sr - sl
    degenerate = spread < 1e-12
    guarded = np.logical_or.reduce(degenerate, axis=None)
    if guarded:
        spread = np.where(degenerate, 1.0, spread)
    flux = (sr * fl - sl * fr + sl * sr * dq) / spread
    return np.where(degenerate, 0.5 * (fl + fr), flux) if guarded else flux


def repeated_signal_peak(w, gamma):
    # The sound speed formed a second time, in w's own rows, as p gamma
    a = w[2]
    a *= gamma
    a /= w[0]
    np.sqrt(a, out=a)
    s = np.abs(w[1], out=w[1])
    s += a
    return float(np.maximum.reduce(s))


# Special values: signed zeros, infinities, NaN, the smallest subnormal and
# magnitudes whose products, or sums, overflow or underflow
SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e-300, 1e300, -1e300, 1.7e308]
# Those a face's density and pressure can take: the kernels run on faces
# that passed the face check, rho > 0 and p > 0 (muscl.reconstruct_faces)
POSITIVE_SPECIAL = [np.inf, 5e-324, 1e-300, 1e300, 1.7e308]


@st.composite
def special_face_arrays(draw, positive=True):
    """A (3, 2) face or a (3, 2, m) block of 1 to 24 faces: densities and
    pressures in 10^[-3, 3], Mach numbers in [-3, 3], and some entries
    replaced by special values; with ``positive``, a density or pressure
    only by a positive one."""
    m = draw(st.integers(1, 24))
    drawn = draw(st.lists(st.floats(-3.0, 3.0), min_size=6 * m, max_size=6 * m))
    log_rho, mach, log_p = np.array(drawn).reshape(3, 2, m)
    rho, p = 10.0**log_rho, 10.0**log_p
    faces = np.array([rho, mach * np.sqrt(G * p / rho), p])
    flat = faces.reshape(-1)
    for i in draw(st.lists(st.integers(0, flat.size - 1), max_size=flat.size)):
        row = i // (2 * m)
        values = POSITIVE_SPECIAL if positive and row != 1 else SPECIAL
        flat[i] = draw(st.sampled_from(values))
    return faces[:, :, 0] if m == 1 and draw(st.booleans()) else faces


class TestEachValueOnceMatchesTheRepeatedForms:
    """The kernels that form each value once give the bytes of their former
    forms, which formed some twice, on single faces and blocks of 1 to 24
    faces with special values; so does the Courant signal, on such cells
    and in Sod-200 runs."""

    @settings(max_examples=200, deadline=None)
    @given(special_face_arrays())
    def test_pbased_speeds(self, faces):
        # The one difference: a side where p = p* = +inf, for which the
        # select gave the factor 1 and the square root's argument is now
        # inf / inf, NaN
        with np.errstate(all="ignore"):
            got = pbased_speeds(faces, G)
            expected = [np.array(s) for s in repeated_pbased_speeds(faces, G)]
            rho, u, p = faces
            a = sound_speed_array(faces, G)
            p_star = 0.5 * (p[0] + p[1]) - 0.125 * (u[1] - u[0]) * (a[1] + a[0]) * (rho[1] + rho[0])
        for side, (g, e) in enumerate(zip(got, expected)):
            changed = (p[side] == np.inf) & (p_star == np.inf)
            assert np.isnan(g[changed]).all()
            e[changed] = g[changed]
            assert_same_bytes(g, e)

    def test_pbased_a_side_at_infinite_pressure_and_estimate(self):
        # Compression at an infinite left pressure and sound speed: p* = inf
        faces = sides([1.0, 1.0, np.inf], [1.0, 0.0, 1.0])
        with np.errstate(all="ignore"):
            got = pbased_speeds(faces, G)
            before = repeated_pbased_speeds(faces, G)
        # The left side's factor is NaN, where the select gave 1 and
        # S_L = 1 - 1 * inf; the right side is shocked either way
        assert np.isnan(got[0]) and before[0] == -np.inf
        assert_same_bytes(got[1], before[1])
        assert got[1] == np.inf

    @settings(max_examples=200, deadline=None)
    @given(special_face_arrays(positive=False))
    def test_steger_warming(self, faces):
        with np.errstate(all="ignore"):
            assert_same_bytes(flux_sw_fvs(faces, G), repeated_flux_sw(faces, G))

    @settings(max_examples=200, deadline=None)
    @given(special_face_arrays(positive=False))
    def test_van_leer(self, faces):
        with np.errstate(all="ignore"):
            assert_same_bytes(flux_vanleer_fvs(faces, G), repeated_flux_vanleer(faces, G))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(st.sampled_from(SPECIAL + [1.0, -1.0]), st.floats(-3.0, 3.0)), min_size=1, max_size=24
        ),
        st.one_of(st.just(fluxes.AUSM_PLUS_ALPHA), st.sampled_from(SPECIAL), st.floats(-0.75, 0.1875)),
    )
    def test_ausm_splits(self, machs, alpha):
        # One face's (2,) Mach numbers, or both sides of a block as (2, m)
        # rows with the side sign as a column; AUSM's splittings, then
        # AUSM+'s with alpha as one value and, as AUSM+-up has it, one per face
        mach = np.array(machs * 2).reshape(2, -1)
        single = len(machs) == 1
        sign = np.array([1.0, -1.0]) if single else np.array([[1.0], [-1.0]])
        if single:
            mach = mach[:, 0]
        with np.errstate(all="ignore"):
            for a in (None, alpha, np.full(mach.shape[1:], alpha)):
                got = fluxes._ausm_splits(mach, sign, a)
                for g, e in zip(got, repeated_ausm_splits(mach, sign, a)):
                    assert_same_bytes(g, e)

    @settings(max_examples=200, deadline=None)
    @given(special_face_arrays(positive=False))
    def test_ausm_plus_up(self, faces):
        with np.errstate(all="ignore"):
            assert_same_bytes(flux_ausm_plus_up(faces, G), repeated_flux_ausm_plus_up(faces, G))

    @settings(max_examples=200, deadline=None)
    @given(special_face_arrays(positive=False), st.data())
    def test_hll_guard(self, faces, data):
        # The six estimates, and speeds drawn from the special values and
        # magnitudes about the 1e-12 threshold, so that the guard fires on
        # some faces and NaN spreads lie beside them
        shape = faces.shape[2:]
        values = st.one_of(st.sampled_from(SPECIAL + [1e-12, 1.0, -1.0]), st.floats(-2e-12, 2e-12))
        n = 2 * int(np.prod(shape))
        drawn = np.array(data.draw(st.lists(values, min_size=n, max_size=n))).reshape(2, *shape)
        with np.errstate(all="ignore"):
            for speeds in [*ESTIMATES, lambda faces, g: tuple(drawn)]:
                assert_same_bytes(flux_hll(faces, G, speeds), repeated_flux_hll(faces, G, speeds))

    def test_hll_guard_fires_beside_a_nan_spread(self):
        # Spreads NaN, 0 (S_L >= 0 >= S_R: degenerate) and 2
        faces = np.stack([sides(SOD_L, SOD_R)] * 3, axis=-1)
        speeds = lambda faces, g: (np.array([np.nan, 0.5, -1.0]), np.array([1.0, -0.5, 1.0]))
        fl, fr = flux_array(faces[:, 0], G), flux_array(faces[:, 1], G)
        with np.errstate(all="ignore"):
            got = flux_hll(faces, G, speeds)
            assert_same_bytes(got, repeated_flux_hll(faces, G, speeds))
        assert np.isnan(got[:, 0]).all()
        assert_same_bytes(got[:, 1], 0.5 * (fl[:, 1] + fr[:, 1]))
        assert np.isfinite(got[:, 2]).all()

    def test_hll_all_spreads_nan(self):
        faces = np.stack([sides(SOD_L, SOD_R)] * 3, axis=-1)
        speeds = lambda faces, g: (np.full(3, np.nan), np.ones(3))
        with np.errstate(all="ignore"):
            got = flux_hll(faces, G, speeds)
            assert_same_bytes(got, repeated_flux_hll(faces, G, speeds))
        assert np.isnan(got).all()

    @settings(max_examples=200, deadline=None)
    @given(special_face_arrays(positive=False))
    def test_signal_peak(self, faces):
        # 2 to 48 primitive cells; the argument is left as it was
        w = faces.reshape(3, -1)
        before = w.copy()
        with np.errstate(all="ignore"):
            got = solver._signal_peak(w, G)
            expected = repeated_signal_peak(w.copy(), G)
        assert_same_bytes(w, before)
        assert_same_bytes(got, expected)

    @pytest.mark.parametrize("method", [FluxMethod.RIEMANN, FluxMethod.HLL_DAVIS1, FluxMethod.SW])
    def test_signal_peak_of_windows_wider_than_the_batch(self, monkeypatch, method):
        # With a batch of 8 cells the Sod-200 windows outgrow it within a
        # few steps, and each is reduced alone, where the former form wrote
        # into the live window.  Each call gives the former form's bytes
        # and leaves its window as it was, and the run ends as under the
        # former form, Courant maximum included.
        monkeypatch.setattr(solver, "_SIGNAL_BATCH", 8)
        cfg = RunConfig(method=method)
        widths = []
        signal_peak = solver._signal_peak

        def compared(w, gamma):
            before = w.copy()
            got = signal_peak(w, gamma)
            assert_same_bytes(w, before)
            assert_same_bytes(got, repeated_signal_peak(w.copy(), gamma))
            widths.append(w.shape[1])
            return got

        monkeypatch.setattr(solver, "_signal_peak", compared)
        got = solver.run(cfg)
        assert max(widths) > 8
        monkeypatch.setattr(solver, "_signal_peak", repeated_signal_peak)
        expected = solver.run(cfg)
        assert_same_bytes(got.cells, expected.cells)
        assert_same_bytes(got.max_courant_observed, expected.max_courant_observed)
