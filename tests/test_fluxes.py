"""The 22 face-flux methods: point values, limits, identities, properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sodbench.errors import InvalidConfig
from sodbench import fluxes
from sodbench.fluxes import (
    AusmVariant,
    FluxMethod,
    WaveSpeedEstimate,
    compute_face_flux,
    flux_ausm,
    flux_aufs,
    flux_exact,
    flux_hll,
    flux_hllc,
    flux_lf,
    flux_roe,
    flux_rusanov,
    flux_sw_fvs,
    flux_vanleer_fvs,
    roe_average,
    wave_speed_estimate,
)
from sodbench.gas import GasModel, PrimitiveState, conserved_array, enthalpy_array, flux_array

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


def sides(wl, wr):
    """Two face states, single (a length-3 array or a PrimitiveState) or
    (3, m), as the one (3, 2, ...) array the flux kernels take."""
    return np.stack([np.asarray(getattr(w, "array", w), dtype=float) for w in (wl, wr)], axis=1)


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


class TestSchemeConfig:
    def test_defaults(self):
        assert fluxes.AUSM_PLUS_ALPHA == pytest.approx(3.0 / 16.0)
        assert fluxes.AUSM_PLUS_BETA == pytest.approx(1.0 / 8.0)
        assert fluxes.AUSM_UP_CUTOFF_MACH == 0.1


class TestRoeAverage:
    def test_collapses_for_identical_states(self):
        w = np.array([0.8, 1.3, 2.1])
        avg = roe_average(sides(w, w), GAS)
        a = np.sqrt(G * w[2] / w[0])
        h = 0.5 * w[1] ** 2 + G / (G - 1.0) * w[2] / w[0]
        assert float(avg.u) == pytest.approx(w[1], rel=1e-14)
        assert float(avg.h_total) == pytest.approx(h, rel=1e-14)
        assert float(avg.a) == pytest.approx(a, rel=1e-14)

    def test_sod_values(self):
        # direct arithmetic with sqrt-density weights 1 and sqrt(0.125)
        s_l, s_r = 1.0, np.sqrt(0.125)
        h_expected = (3.5 * s_l + 2.8 * s_r) / (s_l + s_r)
        avg = roe_average(sides(SOD_L, SOD_R), GAS)
        assert float(avg.u) == 0.0
        assert float(avg.h_total) == pytest.approx(h_expected, rel=1e-14)
        assert float(avg.h_total) == pytest.approx(3.31716, abs=1e-5)
        assert float(avg.a) == pytest.approx(np.sqrt(0.4 * h_expected), rel=1e-14)
        assert float(avg.a) == pytest.approx(1.15190, abs=1e-5)

    def test_density_swap_leaves_velocity_average(self):
        wl = np.array([2.0, 0.7, 1.0])
        wr = np.array([0.5, 0.7, 1.0])
        assert float(roe_average(sides(wl, wr), GAS).u) == pytest.approx(
            float(roe_average(sides(wr, wl), GAS).u), rel=1e-14
        )


class TestWaveSpeedEstimates:
    def test_davis1_sod(self):
        pair = wave_speed_estimate(WaveSpeedEstimate.DAVIS1, sides(SOD_L, SOD_R), GAS)
        assert (float(pair.s_left), float(pair.s_right)) == pytest.approx(
            (-1.18322, 1.05830), abs=1e-5
        )

    def test_davis2_sod(self):
        s_l, s_r = wave_speed_estimate(WaveSpeedEstimate.DAVIS2, sides(SOD_L, SOD_R), GAS)
        assert (float(s_l), float(s_r)) == pytest.approx((-1.18322, 1.18322), abs=1e-5)

    def test_pbased_sod(self):
        # Sod faces are at rest, so the estimate is the plain pressure average
        # and only the right side is flagged as compressed.
        s_l, s_r = wave_speed_estimate(WaveSpeedEstimate.P_BASED, sides(SOD_L, SOD_R), GAS)
        f_r = np.sqrt(1.0 + (0.55 / 0.1 - 1.0) * 2.4 / 2.8)
        assert f_r == pytest.approx(2.20389, abs=1e-5)
        assert float(s_l) == pytest.approx(-1.18322, abs=1e-5)
        assert float(s_r) == pytest.approx(1.05830 * f_r, abs=1e-4)
        assert float(s_r) == pytest.approx(2.33239, abs=1e-4)

    def test_roe_and_einfeldt_sod(self):
        s_l, s_r = wave_speed_estimate(WaveSpeedEstimate.ROE, sides(SOD_L, SOD_R), GAS)
        assert (float(s_l), float(s_r)) == pytest.approx((-1.15190, 1.15190), abs=1e-5)
        # with equal velocities the Einfeldt spread reduces to the averaged a^2
        s_l, s_r = wave_speed_estimate(WaveSpeedEstimate.EINFELDT, sides(SOD_L, SOD_R), GAS)
        assert (float(s_l), float(s_r)) == pytest.approx((-1.15190, 1.15190), abs=1e-4)

    @pytest.mark.parametrize(
        "variant",
        [WaveSpeedEstimate.DAVIS2, WaveSpeedEstimate.ROE, WaveSpeedEstimate.EINFELDT],
    )
    def test_ordering_unconditional(self, variant):
        wl, wr = random_pairs(500, 17)
        s_l, s_r = wave_speed_estimate(variant, sides(wl, wr), GAS)
        assert np.all(s_l < s_r)

    @pytest.mark.parametrize(
        "variant", [WaveSpeedEstimate.DAVIS1, WaveSpeedEstimate.P_BASED]
    )
    def test_ordering_where_acoustics_dominate(self, variant):
        # one-sided estimates invert only when u_l - u_r outruns a_l + a_r
        wl, wr = random_pairs(500, 19)
        a_l = np.sqrt(G * wl[2] / wl[0])
        a_r = np.sqrt(G * wr[2] / wr[0])
        keep = wl[1] - wr[1] < a_l + a_r
        wl, wr = wl[:, keep], wr[:, keep]
        s_l, s_r = wave_speed_estimate(variant, sides(wl, wr), GAS)
        assert np.all(s_l < s_r)


class TestExactFlux:
    def test_identical_states(self):
        w = np.array([0.6, -0.4, 1.7])
        assert flux_exact(sides(w, w), GAS) == pytest.approx(flux_array(w, G), rel=1e-12)

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
        assert np.array_equal(flux_exact(sides(w, w.copy()), GAS), flux_array(w, G))
        assert np.array_equal(flux_exact(sides(w[:, 0], w[:, 0]), GAS), flux_array(w[:, 0], G))

    def test_sod_pair_matches_star_left_flux(self):
        f = flux_exact(sides(SOD_L, SOD_R), GAS)
        assert f == pytest.approx(SOD_EXACT_FLUX, abs=1e-4)

    def test_supersonic_pair_upwinds_fully(self):
        wl = np.array([1.0, 3.0, 1.0])
        wr = np.array([1.05, 3.1, 1.02])
        assert flux_exact(sides(wl, wr), GAS) == pytest.approx(flux_array(wl, G), rel=1e-12)


class TestRoeFlux:
    def test_identical_states(self):
        w = np.array([2.0, 0.5, 0.8])
        assert flux_roe(sides(w, w), GAS) == pytest.approx(flux_array(w, G), rel=1e-13)

    def test_matches_eigendecomposition_oracle(self):
        wl, wr = random_pairs(100, 23)
        for i in range(wl.shape[1]):
            l, r = wl[:, i], wr[:, i]
            avg = roe_average(sides(l, r), GAS)
            mat = jacobian(float(avg.u), float(avg.h_total))
            vals, vecs = np.linalg.eig(mat)
            absa = vecs @ np.diag(np.abs(vals)) @ np.linalg.inv(vecs)
            dq = conserved_array(r, G) - conserved_array(l, G)
            expected = 0.5 * (flux_array(l, G) + flux_array(r, G)) - 0.5 * absa @ dq
            assert flux_roe(sides(l, r), GAS) == pytest.approx(expected, rel=1e-9, abs=1e-10)

    def test_mild_supersonic_pair_upwinds(self):
        wl = np.array([1.0, 3.0, 1.0])
        wr = np.array([1.02, 3.05, 1.01])
        assert flux_roe(sides(wl, wr), GAS) == pytest.approx(flux_array(wl, G), rel=1e-10)


class TestTwoWaveFamilies:
    def test_hll_davis1_sod_direct_arithmetic(self):
        s_l, s_r = -1.1832159566199232, 1.0583005244258363  # u -+ a of the two sides
        f_l, f_r = np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.1, 0.0])
        dq = np.array([-0.875, 0.0, -2.25])
        expected = (s_r * f_l - s_l * f_r + s_l * s_r * dq) / (s_r - s_l)
        f = flux_hll(WaveSpeedEstimate.DAVIS1, sides(SOD_L, SOD_R), GAS)
        assert f == pytest.approx(expected, rel=1e-12)
        assert f == pytest.approx([0.48881, 0.52492, 1.25694], abs=1e-5)

    def test_hll_supersonic_branch(self):
        wl = np.array([1.0, 3.0, 1.0])
        wr = np.array([0.5, 2.9, 0.7])
        for variant in WaveSpeedEstimate:
            f = flux_hll(variant, sides(wl, wr), GAS)
            assert f == pytest.approx(flux_array(wl, G), rel=1e-10)

    def test_hll_degenerate_guard_returns_average(self):
        # colliding supersonic streams invert the Davis1 estimates
        wl = np.array([1.0, 3.0, 1.0])
        wr = np.array([1.0, -3.0, 1.0])
        f = flux_hll(WaveSpeedEstimate.DAVIS1, sides(wl, wr), GAS)
        assert f == pytest.approx(0.5 * (flux_array(wl, G) + flux_array(wr, G)), rel=1e-12)

    def test_knp_identical_to_hll_davis2_bitwise(self):
        wl, wr = random_pairs(1000, 29)
        assert np.array_equal(
            dispatch(FluxMethod.KNP, wl, wr), flux_hll(WaveSpeedEstimate.DAVIS2, sides(wl, wr), GAS)
        )

    def test_knp_rest_state(self):
        w = np.array([1.0, 0.0, 1.0])
        assert dispatch(FluxMethod.KNP, w, w) == pytest.approx(flux_array(w, G), rel=1e-14)


def hllc_both_star_states(variant, wl, wr):
    """HLLC that builds both star states and then selects one."""
    s_l, s_r = wave_speed_estimate(variant, sides(wl, wr), GAS)
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
    @pytest.mark.parametrize("variant", list(WaveSpeedEstimate))
    def test_one_star_state_matches_both_star_states_bitwise(self, variant):
        wl, wr = random_pairs(400, 29)
        # add equal, moving-contact, resting-contact (s* = 0) and supersonic faces
        extra_l = [SOD_L, [1.0, 0.8, 1.5], [1.0, 0.0, 1.5], [1.3, 0.0, 0.7], [1.0, 3.0, 1.0]]
        extra_r = [SOD_L, [0.3, 0.8, 1.5], [0.3, 0.0, 1.5], [0.2, 0.0, 0.7], [1.05, 3.1, 1.02]]
        wl = np.concatenate([wl, np.array(extra_l).T], axis=1)
        wr = np.concatenate([wr, np.array(extra_r).T], axis=1)
        expected = hllc_both_star_states(variant, wl, wr)
        assert np.array_equal(flux_hllc(variant, sides(wl, wr), GAS), expected)
        assert np.array_equal(
            flux_hllc(variant, sides(SOD_L, SOD_R), GAS), hllc_both_star_states(variant, SOD_L, SOD_R)
        )

    def test_identical_states(self):
        w = np.array([1.1, 0.4, 0.9])
        for variant in WaveSpeedEstimate:
            assert flux_hllc(variant, sides(w, w), GAS) == pytest.approx(flux_array(w, G), rel=1e-12)

    def test_isolated_contact_resolved_exactly_but_not_by_hll(self):
        wl = np.array([1.0, 0.8, 1.5])
        wr = np.array([0.3, 0.8, 1.5])
        expected = flux_array(wl, G)
        for variant in WaveSpeedEstimate:
            hllc = flux_hllc(variant, sides(wl, wr), GAS)
            assert hllc == pytest.approx(expected, rel=1e-12)
            hll = flux_hll(variant, sides(wl, wr), GAS)
            assert abs(hll[0] - expected[0]) > 1e-3  # extra mass dissipation

    def test_sod_roe_variant_within_accuracy_class_of_exact(self):
        # the raw initial jump is a strong Riemann problem; the three-wave
        # model stays within the same accuracy class but not within a few
        # percent there (see ledger) -- percent-level agreement is a property
        # of the mild face jumps the reconstruction actually produces
        f = flux_hllc(WaveSpeedEstimate.ROE, sides(SOD_L, SOD_R), GAS)
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
        f = flux_hllc(WaveSpeedEstimate.ROE, sides(wl, wr), GAS)
        f_exact = flux_exact(sides(wl, wr), GAS)
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
        assert np.array_equal(flux_rusanov(sides(wl, wr), GAS), dispatch(FluxMethod.KT, wl, wr))

    def test_lf_sod_value(self):
        f = flux_lf(sides(SOD_L, SOD_R), GAS, dx=0.005, dt=0.001)
        assert f == pytest.approx([2.1875, 0.55, 5.625], rel=1e-12)

    def test_lf_dissipation_linear_in_mesh_ratio(self):
        f1 = flux_lf(sides(SOD_L, SOD_R), GAS, dx=0.005, dt=0.001)
        f2 = flux_lf(sides(SOD_L, SOD_R), GAS, dx=0.005, dt=0.0005)
        central = np.array([0.0, 0.55, 0.0])
        assert f2 - central == pytest.approx(2.0 * (f1 - central), rel=1e-12)

    def test_lf_identical_states(self):
        w = np.array([1.0, 0.7, 2.0])
        assert flux_lf(sides(w, w), GAS, dx=0.01, dt=0.002) == pytest.approx(
            flux_array(w, G), rel=1e-14
        )

    @pytest.mark.parametrize("dx, dt", [(0.005, 0.0), (0.005, -1.0), (None, 0.001), (0.005, None)])
    def test_lf_requires_mesh_ratio(self, dx, dt):
        with pytest.raises(InvalidConfig):
            flux_lf(sides(SOD_L, SOD_R), GAS, dx=dx, dt=dt)


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
            f_plus = flux_sw_fvs(sides(w, supersonic_right), GAS) - 0.0
            assert f_plus == pytest.approx(expected, rel=1e-9, abs=1e-10)

    def test_sw_consistency_and_upwind(self):
        w = np.array([1.3, 0.2, 0.7])
        assert flux_sw_fvs(sides(w, w), GAS) == pytest.approx(flux_array(w, G), rel=1e-12)
        wl = np.array([1.0, 3.0, 1.0])
        wr = np.array([0.4, 2.5, 0.6])
        assert flux_sw_fvs(sides(wl, wr), GAS) == pytest.approx(flux_array(wl, G), rel=1e-12)

    def test_sw_sod_flux_near_exact(self):
        f = flux_sw_fvs(sides(SOD_L, SOD_R), GAS)
        assert np.all(np.abs(f - SOD_EXACT_FLUX) < 0.2)

    def test_van_leer_subsonic_mass_split(self):
        # left Sod state: f_mass+ = rho a (M+1)^2 / 4 with M = 0
        f = flux_vanleer_fvs(sides(SOD_L, np.array([1.0, 10.0, 1.0])), GAS)
        assert f[0] == pytest.approx(1.0 * 1.1832159566199232 / 4.0, rel=1e-12)
        assert f[0] == pytest.approx(0.295804, abs=1e-6)

    def test_van_leer_consistency_and_seam(self):
        w = np.array([0.9, 0.3, 1.4])
        assert flux_vanleer_fvs(sides(w, w), GAS) == pytest.approx(flux_array(w, G), rel=1e-12)
        # C1 seam: the subsonic polynomial meets the full flux at M = 1
        a = np.sqrt(G * 1.4 / 0.9)
        below = np.array([0.9, a * (1.0 - 1e-9), 1.4])
        above = np.array([0.9, a * (1.0 + 1e-9), 1.4])
        f_below = flux_vanleer_fvs(sides(below, np.array([1.0, 20.0, 1.0])), GAS)
        f_above = flux_vanleer_fvs(sides(above, np.array([1.0, 20.0, 1.0])), GAS)
        assert f_below == pytest.approx(f_above, rel=1e-6)


class TestAusmFamily:
    @pytest.mark.parametrize("variant", list(AusmVariant))
    def test_consistency(self, variant):
        w = np.array([1.2, 0.4, 0.9])
        f = flux_ausm(variant, sides(w, w), GAS)
        assert f == pytest.approx(flux_array(w, G), rel=1e-12)

    @pytest.mark.parametrize("variant", list(AusmVariant))
    def test_supersonic_upwinding(self, variant):
        wl = np.array([1.0, 3.0, 1.0])
        wr = np.array([0.6, 2.8, 0.5])
        assert flux_ausm(variant, sides(wl, wr), GAS) == pytest.approx(
            flux_array(wl, G), rel=1e-10
        )

    def test_basic_sod_is_pure_pressure_average(self):
        # both face Mach numbers vanish: split Machs cancel, pressure halves add
        f = flux_ausm(AusmVariant.BASIC, sides(SOD_L, SOD_R), GAS)
        assert f == pytest.approx([0.0, 0.55, 0.0], abs=1e-14)

    def test_plus_up_pressure_diffusion_acts_at_low_mach(self):
        # a pressure jump at rest must drive a mass flux through the up-term
        wl = np.array([1.0, 0.0, 1.2])
        wr = np.array([1.0, 0.0, 0.8])
        f_up = flux_ausm(AusmVariant.PLUS_UP, sides(wl, wr), GAS)
        f_plus = flux_ausm(AusmVariant.PLUS, sides(wl, wr), GAS)
        assert f_plus[0] == pytest.approx(0.0, abs=1e-14)
        assert f_up[0] > 1e-3


class TestAufs:
    def test_consistency(self):
        w = np.array([0.7, -0.2, 1.1])
        assert flux_aufs(sides(w, w), GAS) == pytest.approx(flux_array(w, G), rel=1e-13)

    def test_supersonic_upwinding(self):
        wl = np.array([1.0, 3.0, 1.0])
        wr = np.array([0.5, 2.6, 0.9])
        assert flux_aufs(sides(wl, wr), GAS) == pytest.approx(flux_array(wl, G), rel=1e-10)

    def test_sod_pair_within_accuracy_class_of_exact(self):
        f = flux_aufs(sides(SOD_L, SOD_R), GAS)
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
            flux_hllc(WaveSpeedEstimate.DAVIS2, sides(wl, wr), GAS),
        )

    def test_lf_without_mesh_ratio_rejected(self):
        with pytest.raises(InvalidConfig):
            compute_face_flux(FluxMethod.LF, sides(SOD_L, SOD_R), GAS)

    def test_accepts_primitive_state_inputs(self):
        f = compute_face_flux(
            FluxMethod.ROE, sides(PrimitiveState(1.0, 0.0, 1.0), PrimitiveState(0.125, 0.0, 0.1)), GAS
        )
        assert f == pytest.approx(flux_roe(sides(SOD_L, SOD_R), GAS), rel=1e-14)

    def test_mesh_ratio_is_keyword_only(self):
        with pytest.raises(TypeError):
            compute_face_flux(FluxMethod.LF, sides(SOD_L, SOD_R), GAS, object())

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidConfig):
            compute_face_flux("roe", sides(SOD_L, SOD_R), GAS)


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
