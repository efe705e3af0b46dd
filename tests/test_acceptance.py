"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 3 (SW row), 5 (SW clause), and 6 are implemented exactly as stated
and are expected to fail: the SW benchmark target is not reachable by the
canonical Steger-Warming split this package implements, and the reference
wave properties themselves imply a peak Courant number of 0.4383, above the
stated band.  The analysis lives in the decisions ledger (notes/decisions.md,
outside the package).
"""

import time

import numpy as np
import pytest

from sodbench.bench import run_all_methods, timing_sweep, wave_report
from sodbench.fluxes import FluxMethod, compute_face_flux
from sodbench.gas import GasModel, PrimitiveState, conserved_array, flux_array, primitive_array
from sodbench.muscl import reconstruct_faces
from sodbench.riemann import RiemannInput
from sodbench.solver import RunConfig, initialize_sod, run, step_count, sweep_config

GAS = GasModel()
SOD = RiemannInput(PrimitiveState(1.0, 0.0, 1.0), PrimitiveState(0.125, 0.0, 0.1))

TARGET_TOTALS = {
    FluxMethod.RIEMANN: 0.03954,
    FluxMethod.ROE: 0.03789,
    FluxMethod.KNP: 0.04059,
    FluxMethod.KT: 0.04168,
    FluxMethod.SW: 0.17921,
    FluxMethod.VAN_LEER: 0.04149,
    FluxMethod.AUSM: 0.05037,
    FluxMethod.AUSM_PLUS: 0.04367,
    FluxMethod.AUSM_PLUS_UP: 0.04490,
    FluxMethod.AUFS: 0.03847,
    FluxMethod.HLL_DAVIS1: 0.03790,
    FluxMethod.HLL_DAVIS2: 0.04059,
    FluxMethod.HLL_ROE: 0.03830,
    FluxMethod.HLL_EINFELDT: 0.03837,
    FluxMethod.HLL_PBASED: 0.03935,
    FluxMethod.HLLC_DAVIS1: 0.03832,
    FluxMethod.HLLC_DAVIS2: 0.03971,
    FluxMethod.HLLC_ROE: 0.03790,
    FluxMethod.HLLC_EINFELDT: 0.03795,
    FluxMethod.HLLC_PBASED: 0.03907,
    FluxMethod.LF: 0.21040,
    FluxMethod.RUSANOV: 0.04168,
}
WIDE_BAND = {FluxMethod.AUSM, FluxMethod.AUSM_PLUS, FluxMethod.AUSM_PLUS_UP, FluxMethod.AUFS}


def sides(wl, wr):
    """Two face states as the one (3, 2, ...) array the flux kernels take."""
    return np.stack([wl, wr], axis=1)


def report_line(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def sweep():
    start = time.perf_counter()
    reports = run_all_methods(RunConfig())
    elapsed = time.perf_counter() - start
    return reports, elapsed


@pytest.fixture(scope="module")
def courant_by_method():
    return {
        method: run(sweep_config(RunConfig(), method)).max_courant_observed
        for method in FluxMethod
    }


def test_criterion_01_exact_solver_fidelity():
    start = time.perf_counter()
    report = wave_report(SOD)
    elapsed = time.perf_counter() - start
    values = {
        "fan head": (report.left.head, -1.18322),
        "fan tail": (report.left.tail, -0.07027),
        "contact velocity": (report.u_star, 0.92745),
        "contact pressure": (report.p_star, 0.30313),
        "rho star left": (report.left.rho_star, 0.42632),
        "rho star right": (report.right.rho_star, 0.26557),
        "a star left": (report.left.a_star, 0.99773),
        "shock speed": (report.right.head, 1.75216),
        "Mach unshocked": (report.right.mach_unshocked, 1.65563),
        "Mach shocked": (report.right.mach_shocked, 0.65240),
    }
    deviations = {k: abs(got - want) for k, (got, want) in values.items()}
    ok = max(deviations.values()) < 1e-5 and elapsed < 0.1
    report_line(
        1, ok, f"max deviation {max(deviations.values()):.2e}, runtime {elapsed * 1e3:.1f} ms"
    )
    assert max(deviations.values()) < 1e-5, deviations
    assert elapsed < 0.1


def test_criterion_02_rankine_hugoniot_cross_check():
    report = wave_report(SOD)
    eq1 = report.right.rankine_hugoniot
    eq2 = report.right.head
    ok = abs(eq1 - eq2) < 1e-4
    report_line(2, ok, f"mass-jump speed {eq1:.5f} vs pressure-based {eq2:.5f}")
    assert ok


def test_criterion_03_rmse_table_attainable_methods(sweep):
    reports, elapsed = sweep
    failures = []
    for report in reports:
        if report.method is FluxMethod.SW:
            continue
        target = TARGET_TOTALS[report.method]
        band = 0.30 if report.method in WIDE_BAND else 0.15
        if not abs(report.rmse_total - target) <= band * target:
            failures.append((report.method.value, report.rmse_total, target))
    ok = not failures and elapsed < 30.0
    report_line(3, ok, f"21 methods in band, sweep {elapsed:.1f} s" if ok else str(failures))
    assert not failures, failures
    assert elapsed < 30.0


def test_criterion_03_sw_total_rmse(sweep):
    reports, _ = sweep
    sw = next(r for r in reports if r.method is FluxMethod.SW)
    target = TARGET_TOTALS[FluxMethod.SW]
    ok = abs(sw.rmse_total - target) <= 0.15 * target
    report_line(3, ok, f"SW total {sw.rmse_total:.5f} vs target {target:.5f}")
    assert ok, (
        f"canonical Steger-Warming gives total RMSE {sw.rmse_total:.5f}; the "
        f"target {target:.5f} is not reachable by the reference split "
        f"(see notes/decisions.md)"
    )


def test_criterion_04_structural_identities(sweep):
    reports, _ = sweep
    by_method = {r.method: r for r in reports}
    pairs = [
        (FluxMethod.KT, FluxMethod.RUSANOV),
        (FluxMethod.KNP, FluxMethod.HLL_DAVIS2),
    ]
    worst = 0.0
    for a, b in pairs:
        for field in ("rmse_density", "rmse_velocity", "rmse_pressure"):
            worst = max(worst, abs(getattr(by_method[a], field) - getattr(by_method[b], field)))
    ok = worst < 1e-12
    report_line(4, ok, f"KT=Rusanov and KNP=HLL-Davis2 agree to {worst:.2e}")
    assert ok


def test_criterion_05_qualitative_ordering(sweep):
    reports, _ = sweep
    by_method = {r.method: r for r in reports}
    problems = []
    if not by_method[FluxMethod.LF].rmse_total > 0.15:
        problems.append("LF total not above 0.15")
    for method, report in by_method.items():
        if method in (FluxMethod.LF, FluxMethod.SW):
            continue
        if not report.rmse_total < 0.06:
            problems.append(f"{method.value} total {report.rmse_total:.5f} not below 0.06")
    for method, report in by_method.items():
        if not (
            report.rmse_velocity > report.rmse_density
            and report.rmse_velocity > report.rmse_pressure
        ):
            problems.append(f"{method.value}: velocity RMSE not the largest component")
    ok = not problems
    report_line(5, ok, "LF above 0.15, others below 0.06, velocity always largest"
                if ok else "; ".join(problems))
    assert ok, problems


def test_criterion_05_sw_exceeds_threshold(sweep):
    reports, _ = sweep
    sw = next(r for r in reports if r.method is FluxMethod.SW)
    ok = sw.rmse_total > 0.15
    report_line(5, ok, f"SW total {sw.rmse_total:.5f} vs required > 0.15")
    assert ok, (
        f"canonical Steger-Warming reaches total RMSE {sw.rmse_total:.5f} < 0.15; "
        f"the target outlier is not reproducible by the reference split "
        f"(see notes/decisions.md)"
    )


def test_criterion_06_courant_band(courant_by_method):
    out_of_band = {
        m.value: co for m, co in courant_by_method.items() if not 0.35 <= co <= 0.42
    }
    ok = not out_of_band
    lo = min(courant_by_method.values())
    hi = max(courant_by_method.values())
    report_line(6, ok, f"observed Courant range [{lo:.4f}, {hi:.4f}] vs stated [0.35, 0.42]")
    assert ok, (
        f"the exact solution itself implies max Co = 0.4383 (u* + a*_right = "
        f"2.19156 at dt/dx = 0.2), so the stated band cannot hold; observed "
        f"{out_of_band} (see notes/decisions.md)"
    )


class TestCriterion07PropertySuites:
    """Reference-data-independent property checks."""

    def test_flux_consistency_on_randomized_states(self):
        rng = np.random.default_rng(101)
        n = 1000
        w = np.stack(
            [rng.uniform(0.01, 10.0, n), rng.uniform(-3.0, 3.0, n), rng.uniform(0.01, 10.0, n)]
        )
        reference = flux_array(w, GAS.gamma)
        scale = np.abs(reference) + 1.0
        worst = 0.0
        for method in FluxMethod:
            f = compute_face_flux(method, sides(w, w), GAS, dx=0.005, dt=0.001)
            worst = max(worst, float(np.max(np.abs(f - reference) / scale)))
        ok = worst < 1e-12
        report_line(7, ok, f"consistency of all 22 methods over {n} states: {worst:.2e}")
        assert ok

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(103)
        n = 500
        wl = np.stack(
            [rng.uniform(0.05, 5.0, n), rng.uniform(-2.0, 2.0, n), rng.uniform(0.05, 5.0, n)]
        )
        wr = np.stack(
            [
                wl[0] * rng.uniform(0.5, 2.0, n),
                wl[1] + rng.uniform(-0.5, 0.5, n),
                wl[2] * rng.uniform(0.5, 2.0, n),
            ]
        )
        worst = 0.0
        for method in FluxMethod:
            f = compute_face_flux(method, sides(wl, wr), GAS, dx=0.005, dt=0.001)
            f_m = compute_face_flux(
                method,
                sides(np.stack([wr[0], -wr[1], wr[2]]), np.stack([wl[0], -wl[1], wl[2]])),
                GAS,
                dx=0.005,
                dt=0.001,
            )
            expected = np.stack([-f[0], f[1], -f[2]])
            worst = max(worst, float(np.max(np.abs(f_m - expected) / (np.abs(expected) + 1.0))))
        ok = worst < 1e-12
        report_line(7, ok, f"mirror symmetry of all 22 methods: {worst:.2e}")
        assert ok

    def test_contact_resolution_split(self):
        wl = np.array([1.0, 0.6, 1.2])
        wr = np.array([0.4, 0.6, 1.2])
        expected = flux_array(wl, GAS.gamma)
        exact_methods = [FluxMethod.RIEMANN] + [
            m for m in FluxMethod if m.value.startswith("hllc")
        ]
        hll_methods = [m for m in FluxMethod if m.value.startswith("hll-")]
        ok = True
        for method in exact_methods:
            f = compute_face_flux(method, sides(wl, wr), GAS)
            ok &= bool(np.max(np.abs(f - expected) / (np.abs(expected) + 1.0)) < 1e-12)
        for method in hll_methods:
            f = compute_face_flux(method, sides(wl, wr), GAS)
            ok &= bool(abs(f[0] - expected[0]) > 1e-3)
        report_line(7, ok, "Riemann/HLLC resolve isolated contacts exactly, HLL does not")
        assert ok

    def test_conservation_telescoping(self):
        cfg = RunConfig(method=FluxMethod.HLLC_DAVIS1)
        field = run(cfg)
        dx = cfg.grid.dx
        initial = np.sum(initialize_sod(cfg).cells, axis=1) * dx
        final = np.sum(field.cells, axis=1) * dx
        boundary = step_count(cfg) * cfg.dt * (
            np.array([0.0, cfg.left.p, 0.0]) - np.array([0.0, cfg.right.p, 0.0])
        )
        worst = float(np.max(np.abs(final - initial - boundary)))
        ok = worst < 1e-12
        report_line(7, ok, f"conservation telescoping over the full run: {worst:.2e}")
        assert ok

    def test_limiter_identities(self):
        # Read from the faces of a velocity row: equal differences (r = 1)
        # give midpoints, alternating ones (r < 0) keep each cell's value, and
        # the mirror image of a random row gives the mirrored faces
        rng = np.random.default_rng(107)
        n = 2000

        def velocity_faces(u):
            w = np.array([np.ones(n), u, np.ones(n)])
            return reconstruct_faces(np.pad(w, ((0, 0), (1, 1)), mode="edge"))[1]

        ramp = velocity_faces(0.5 * np.arange(n))
        alternating = rng.uniform(0.1, 1.0, n) * (-1.0) ** np.arange(n)
        shut = velocity_faces(alternating)
        u = rng.uniform(-1.0, 1.0, n)
        mirror_gap = np.max(np.abs(velocity_faces(u) - velocity_faces(u[::-1])[::-1, ::-1]))
        ok = (
            np.array_equal(ramp[:, 2 : n - 1], np.tile(0.5 * np.arange(2, n - 1) - 0.25, (2, 1)))
            and np.array_equal(shut[0, 1:], alternating)
            and np.array_equal(shut[1, :-1], alternating)
            and bool(mirror_gap < 1e-14)
        )
        report_line(7, ok, "van Leer identities phi(1)=1, phi(r<=0)=0, phi(r)/r=phi(1/r) on the faces")
        assert ok

    def test_state_round_trip(self):
        # states drawn up to Mach 5; beyond that the kinetic term dominates
        # the stored energy and the 1e-14 identity is lost to cancellation
        rng = np.random.default_rng(109)
        worst = 0.0
        for _ in range(1000):
            rho = rng.uniform(0.01, 10.0)
            p = rng.uniform(0.01, 10.0)
            u = rng.uniform(-5.0, 5.0) * np.sqrt(GAS.gamma * p / rho)
            back_rho, back_u, back_p = primitive_array(
                conserved_array(np.array([rho, u, p]), GAS.gamma), GAS.gamma
            )
            worst = max(
                worst,
                abs(back_rho - rho) / rho,
                abs(back_p - p) / p,
                abs(back_u - u) / max(abs(u), 1e-30),
            )
        ok = worst < 1e-14
        report_line(7, ok, f"conserved/primitive round trip: {worst:.2e}")
        assert ok


def test_criterion_08_timing_substitute():
    reports = timing_sweep(RunConfig(), repetitions=3)
    ok = len(reports) == 22 and all(r.elapsed < 1.0 for r in reports)
    slowest = max(r.elapsed for r in reports)
    report_line(8, ok, f"22 timing entries, slowest single run {slowest * 1e3:.0f} ms")
    # relative ordering is machine-specific: reported, never asserted
    order = ", ".join(f"{r.method.value} {r.elapsed * 1e3:.1f}ms" for r in reports[:5])
    print(f"    fastest five (informational): {order}")
    assert ok
