"""Benchmark harness: RMSE, sweeps, wave report, profile columns, timing."""

import dataclasses

import numpy as np
import pytest

from sodbench.bench import (
    rmse,
    rmse_report,
    run_all_methods,
    timing_sweep,
    wave_report,
)
from sodbench.errors import InvalidConfig
from sodbench.fluxes import FluxMethod
from sodbench.gas import GasModel, PrimitiveState, internal_energy_array
from sodbench.riemann import RiemannInput, WaveKind, exact_profile
from sodbench.solver import Grid1D, RunConfig, run

GAS = GasModel()
SOD = RiemannInput(PrimitiveState(1.0, 0.0, 1.0), PrimitiveState(0.125, 0.0, 0.1))


@pytest.fixture(scope="module")
def sweep():
    return run_all_methods(RunConfig())


class TestRmse:
    def test_identical_profiles(self):
        w = np.random.default_rng(0).uniform(0.5, 2.0, (3, 50))
        assert rmse(w, w) == (0.0, 0.0, 0.0)

    def test_uniform_offset_is_recovered_exactly(self):
        w = np.random.default_rng(1).uniform(0.5, 2.0, (3, 50))
        assert rmse(w + 0.25, w) == pytest.approx((0.25, 0.25, 0.25), rel=1e-14)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidConfig):
            rmse(np.zeros((3, 10)), np.zeros((3, 11)))

    def test_roe_run_component_errors(self):
        report = rmse_report(RunConfig(method=FluxMethod.ROE))
        assert report.rmse_density == pytest.approx(0.00777, rel=0.15)
        assert report.rmse_velocity == pytest.approx(0.02216, rel=0.15)
        assert report.rmse_pressure == pytest.approx(0.00796, rel=0.15)
        assert report.rmse_total == report.rmse_density + report.rmse_velocity + report.rmse_pressure


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestSweep:
    def test_twenty_two_reports_in_order(self, sweep):
        assert [r.method for r in sweep] == list(FluxMethod)
        assert all(r.error is None for r in sweep)

    def test_kt_identical_to_rusanov(self, sweep):
        kt = next(r for r in sweep if r.method is FluxMethod.KT)
        rus = next(r for r in sweep if r.method is FluxMethod.RUSANOV)
        assert abs(kt.rmse_density - rus.rmse_density) < 1e-12
        assert abs(kt.rmse_velocity - rus.rmse_velocity) < 1e-12
        assert abs(kt.rmse_pressure - rus.rmse_pressure) < 1e-12

    def test_knp_identical_to_hll_davis2(self, sweep):
        knp = next(r for r in sweep if r.method is FluxMethod.KNP)
        hll = next(r for r in sweep if r.method is FluxMethod.HLL_DAVIS2)
        assert abs(knp.rmse_density - hll.rmse_density) < 1e-12
        assert abs(knp.rmse_velocity - hll.rmse_velocity) < 1e-12
        assert abs(knp.rmse_pressure - hll.rmse_pressure) < 1e-12

    def test_lf_stands_out_by_a_factor_of_four(self, sweep):
        totals = {r.method: r.rmse_total for r in sweep}
        assert totals[FluxMethod.LF] > 4.0 * min(totals.values())

    def test_sweep_reproducible_bitwise(self, sweep):
        again = run_all_methods(RunConfig())
        for first, second in zip(sweep, again):
            assert first.rmse_density == second.rmse_density
            assert first.rmse_velocity == second.rmse_velocity
            assert first.rmse_pressure == second.rmse_pressure

    def test_failed_run_yields_error_entry(self):
        # an unstable configuration must be reported, not raised
        cfg = RunConfig(method=FluxMethod.ROE, dt=0.02, t_final=0.2, grid=Grid1D(0.0, 1.0, 50))
        report = rmse_report(cfg)
        assert report.error is not None
        assert "NonPhysicalState" in report.error
        assert np.isnan(report.rmse_total)


class TestWaveReport:
    def test_sod_values(self):
        report = wave_report(SOD)
        assert report.left.kind is WaveKind.FAN
        assert report.right.kind is WaveKind.SHOCK
        assert report.left.head == pytest.approx(-1.18322, abs=1e-5)
        assert report.left.tail == pytest.approx(-0.07027, abs=1e-5)
        assert report.u_star == pytest.approx(0.92745, abs=1e-5)
        assert report.p_star == pytest.approx(0.30313, abs=1e-5)
        assert report.left.rho_star == pytest.approx(0.42632, abs=1e-5)
        assert report.right.rho_star == pytest.approx(0.26557, abs=1e-5)
        assert report.left.a_star == pytest.approx(0.99773, abs=1e-5)
        assert report.right.head == pytest.approx(1.75216, abs=1e-5)
        assert report.right.mach_unshocked == pytest.approx(1.65563, abs=1e-5)
        assert report.right.mach_shocked == pytest.approx(0.65240, abs=1e-5)

    def test_sod_star_side_thermodynamics(self):
        report = wave_report(SOD)
        assert report.left.e_star == pytest.approx(1.77760, abs=1e-5)
        assert report.left.h_star == pytest.approx(2.48864, abs=1e-5)
        assert report.right.a_star == pytest.approx(1.26411, abs=1e-5)
        assert report.right.e_star == pytest.approx(2.85354, abs=1e-5)
        assert report.right.h_star == pytest.approx(3.99496, abs=1e-5)

    def test_mass_jump_cross_check(self):
        report = wave_report(SOD)
        assert report.right.rankine_hugoniot == pytest.approx(report.right.head, rel=1e-8)
        assert report.left.rankine_hugoniot is None

    def test_mirrored_input_mirrors_report(self):
        mirrored = RiemannInput(
            PrimitiveState(SOD.right.rho, -SOD.right.u, SOD.right.p),
            PrimitiveState(SOD.left.rho, -SOD.left.u, SOD.left.p),
        )
        report = wave_report(mirrored)
        assert report.left.kind is WaveKind.SHOCK
        assert report.right.kind is WaveKind.FAN
        assert report.u_star == pytest.approx(-0.92745, abs=1e-5)
        assert report.left.head == pytest.approx(-1.75216, abs=1e-5)
        assert report.right.head == pytest.approx(1.18322, abs=1e-5)

    def test_text_rendering_mentions_all_waves(self):
        text = "\n".join(wave_report(SOD).lines())
        assert "expansion fan" in text
        assert "contact discontinuity" in text
        assert "shock wave" in text
        assert "0.92745" in text


class TestProfileColumns:
    """The columns of a profile CSV: the primitive rows and e = p / (rho (gamma - 1))."""

    def test_exact_profile_rows(self):
        cfg = RunConfig()
        profile = exact_profile(SOD, cfg.grid.centers(), 0.5, 0.2)
        columns = np.vstack([profile.w, internal_energy_array(profile.w, GAS.gamma)])
        # undisturbed edges carry the initial states and their energies
        np.testing.assert_allclose(columns[:, 0], [1.0, 0.0, 1.0, 2.5], rtol=1e-12)
        np.testing.assert_allclose(columns[:, -1], [0.125, 0.0, 0.1, 2.0], rtol=1e-12)
        # a cell on the star-left plateau (x = 0.55 is between tail and contact)
        i = int(np.argmin(np.abs(profile.x - 0.55)))
        np.testing.assert_allclose(columns[:, i], [0.42632, 0.92745, 0.30313, 1.77760], atol=1e-5)

    def test_energy_column_consistency(self):
        w = run(RunConfig(method=FluxMethod.KNP)).primitives(GAS)
        expected = w[2] / (w[0] * (GAS.gamma - 1.0))
        np.testing.assert_allclose(internal_energy_array(w, GAS.gamma), expected, rtol=1e-12)


class TestTimingSweep:
    def test_structure_and_ordering(self):
        cfg = RunConfig(grid=Grid1D(0.0, 1.0, 50), dt=0.004)
        reports = timing_sweep(cfg, repetitions=3)
        assert len(reports) == 22
        assert {r.method for r in reports} == set(FluxMethod)
        elapsed = [r.elapsed for r in reports]
        assert all(t > 0.0 for t in elapsed)
        assert elapsed == sorted(elapsed)
        assert reports[0].pct_over_fastest == 0.0
        assert all(r.pct_over_fastest >= 0.0 for r in reports)

    def test_minimum_repetitions(self):
        with pytest.raises(InvalidConfig):
            timing_sweep(RunConfig(), repetitions=2)

    @pytest.mark.parametrize("repetitions", [3.0, "3"])
    def test_repetitions_must_be_an_integer(self, repetitions):
        # 3.0 passed the minimum and failed in range() with a TypeError
        with pytest.raises(InvalidConfig, match="repetitions must be an integer"):
            timing_sweep(RunConfig(), repetitions=repetitions)
