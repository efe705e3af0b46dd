"""Gas model, state validation, and the array kernels of the physics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sodbench.errors import InvalidConfig
from sodbench.gas import (
    GasModel,
    PrimitiveState,
    conserved_array,
    enthalpy_array,
    flux_array,
    internal_energy_array,
    primitive_array,
    sound_speed_array,
    state_and_flux_array,
)

GAS = GasModel()
G = GAS.gamma
SOD_LEFT = PrimitiveState(1.0, 0.0, 1.0)
SOD_RIGHT = PrimitiveState(0.125, 0.0, 0.1)


def random_rows(n, seed=0, u_range=(-5.0, 5.0)):
    """(3, n) primitive rows of positive density and pressure."""
    rng = np.random.default_rng(seed)
    return np.array(
        [rng.uniform(0.01, 10.0, n), rng.uniform(*u_range, n), rng.uniform(0.01, 10.0, n)]
    )


class TestGasModel:
    def test_default_gamma(self):
        assert GasModel().gamma == 1.4

    @pytest.mark.parametrize("gamma", [1.0, 0.9, -2.0])
    def test_rejects_gamma_at_or_below_one(self, gamma):
        with pytest.raises(ValueError):
            GasModel(gamma=gamma)


class TestStateValidation:
    def test_rejects_nonpositive_density_or_pressure(self):
        with pytest.raises(InvalidConfig):
            PrimitiveState(0.0, 1.0, 1.0)
        with pytest.raises(InvalidConfig):
            PrimitiveState(1.0, 1.0, -0.5)
        with pytest.raises(InvalidConfig):
            PrimitiveState(1.0, 1.0, 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidConfig):
            PrimitiveState(1.0, math.inf, 1.0)


class TestSoundSpeed:
    def test_sod_left(self):
        assert sound_speed_array(SOD_LEFT.array, G) == pytest.approx(1.18322, abs=1e-5)

    def test_sod_right(self):
        assert sound_speed_array(SOD_RIGHT.array, G) == pytest.approx(1.05830, abs=1e-5)

    def test_unit_speed_when_density_equals_gamma(self):
        assert sound_speed_array(np.array([1.4, 0.0, 1.0]), G) == pytest.approx(1.0, rel=1e-14)

    def test_squared_speed_identity(self):
        w = random_rows(200)
        a = sound_speed_array(w, G)
        assert a * a * w[0] / G == pytest.approx(w[2], rel=1e-14)


class TestConversions:
    def test_sod_left_conserved(self):
        q = conserved_array(SOD_LEFT.array, G)
        assert tuple(q) == pytest.approx((1.0, 0.0, 2.5))

    def test_sod_right_conserved(self):
        q = conserved_array(SOD_RIGHT.array, G)
        assert tuple(q) == pytest.approx((0.125, 0.0, 0.25))

    def test_direct_substitution(self):
        q = conserved_array(np.array([2.0, 3.0, 0.4]), G)
        assert tuple(q) == pytest.approx((2.0, 6.0, 10.0))

    @pytest.mark.parametrize(
        "q, expected",
        [
            ((1.0, 0.0, 2.5), (1.0, 0.0, 1.0)),
            ((0.125, 0.0, 0.25), (0.125, 0.0, 0.1)),
        ],
    )
    def test_inverse(self, q, expected):
        w = primitive_array(np.array(q), G)
        assert tuple(w) == pytest.approx(expected)

    def test_round_trip_to_machine_precision(self):
        # Mach-bounded draw: the pressure identity degrades past ~Mach 10
        # because the kinetic term dominates the stored total energy
        rng = np.random.default_rng(3)
        for _ in range(500):
            rho = rng.uniform(0.01, 10.0)
            p = rng.uniform(0.01, 10.0)
            u = rng.uniform(-5.0, 5.0) * math.sqrt(GAS.gamma * p / rho)
            back_rho, back_u, back_p = primitive_array(conserved_array(np.array([rho, u, p]), G), G)
            assert back_rho == pytest.approx(rho, rel=1e-14, abs=0.0)
            assert back_u == pytest.approx(u, rel=1e-14, abs=1e-15)
            assert back_p == pytest.approx(p, rel=1e-14, abs=0.0)


def primitive_rows(q, gamma):
    """Oracle: the conversion as it was written before it filled one copy of
    q in place, three row arrays packed by np.array."""
    rho = q[0]
    u = q[1] / rho
    p = (gamma - 1.0) * (q[2] - 0.5 * q[1] * u)
    return np.array([rho, u, p])


# Finite values of any size and sign, and the ones the arithmetic treats
# apart: signed zeros, NaN, infinities
ENTRY = st.one_of(
    st.floats(-1e6, 1e6),
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324]),
)


class TestPrimitiveArray:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 12).flatmap(lambda n: st.lists(ENTRY, min_size=3 * n, max_size=3 * n)),
        st.sampled_from(["(3,)", "(3, n)", "window", "every other cell"]),
        st.sampled_from([1.4, 5.0 / 3.0, 1.0000001]),
    )
    def test_bitwise_the_old_formula(self, values, layout, gamma):
        grid = np.array(values).reshape(3, -1)
        q = {
            "(3,)": grid[:, 0],
            "(3, n)": grid,
            # strided views into a larger grid, as the solver's window is
            "window": grid[:, 1:-1] if grid.shape[1] > 2 else grid[:, :1],
            "every other cell": grid[:, ::2],
        }[layout]
        before = q.tobytes()
        with np.errstate(all="ignore"):
            expected = primitive_rows(q, gamma)
            got = primitive_array(q, gamma)
        assert (got.shape, got.dtype) == (expected.shape, expected.dtype)
        assert got.tobytes() == expected.tobytes()
        assert not np.shares_memory(got, q)
        assert q.tobytes() == before


def state_and_flux_rows(w, gamma):
    """Oracle: the conserved state and the Euler flux as two separate
    kernels wrote them, each forming its own E."""
    rho, u, p = w[0], w[1], w[2]
    energy = p / (gamma - 1.0) + 0.5 * rho * u * u
    q = np.array([rho, rho * u, energy])
    f = np.array([rho * u, rho * u * u + p, (energy + p) * u])
    return q, f


class TestStateAndFlux:
    def test_bitwise_the_written_formulas(self):
        w = random_rows(300, 31, u_range=(-40.0, 40.0))
        # one state, a row of cells, and both sides of a row of faces
        for sample in (w[:, 0], w, w.reshape(3, 2, 150)):
            q, f = state_and_flux_array(sample, G)
            expected_q, expected_f = state_and_flux_rows(sample, G)
            assert q.tobytes() == expected_q.tobytes()
            assert f.tobytes() == expected_f.tobytes()
            assert conserved_array(sample, G).tobytes() == q.tobytes()
            assert flux_array(sample, G).tobytes() == f.tobytes()


class TestFluxArray:
    def test_stationary_state_flux_is_pure_pressure(self):
        assert flux_array(SOD_LEFT.array, G).tolist() == [0.0, 1.0, 0.0]

    def test_star_left_state(self):
        # Direct arithmetic oracle on the star-left plateau values
        rho, u, p = 0.42632, 0.92745, 0.30313
        expected = (
            rho * u,
            rho * u * u + p,
            (p / 0.4 + 0.5 * rho * u * u + p) * u,
        )
        f = flux_array(np.array([rho, u, p]), G)
        assert tuple(f) == pytest.approx(expected, rel=1e-14)
        # quoted values carry the rounding of the 5-decimal plateau inputs
        assert tuple(f) == pytest.approx((0.39539, 0.66985, 1.15404), abs=5e-5)

    def test_energy_flux_is_mass_flux_times_total_enthalpy(self):
        w = random_rows(300, seed=5)
        f = flux_array(w, G)
        assert f[2] == pytest.approx(w[0] * w[1] * enthalpy_array(w, G), rel=1e-14, abs=1e-13)


class TestEnthalpyAndEnergy:
    def test_sod_values(self):
        assert enthalpy_array(SOD_LEFT.array, G) == pytest.approx(3.5, rel=1e-12)
        assert enthalpy_array(SOD_RIGHT.array, G) == pytest.approx(2.8, rel=1e-12)

    def test_unit_enthalpy(self):
        assert enthalpy_array(np.array([1.4 / 0.4, 0.0, 1.0]), G) == pytest.approx(1.0, rel=1e-14)

    def test_internal_energy_table_values(self):
        assert internal_energy_array(SOD_LEFT.array, G) == pytest.approx(2.5, rel=1e-12)
        assert internal_energy_array(SOD_RIGHT.array, G) == pytest.approx(2.0, rel=1e-12)
