"""Command-line interface: subcommands, CSV contracts, exit codes."""

import csv
from pathlib import Path

import pytest

from sodbench.cli import parse_and_run
from sodbench.fluxes import FluxMethod


DATA = Path(__file__).with_name("data")


def assert_pinned(got: bytes, name: str, command: str):
    """Output of the default Sod problem, byte for byte as in tests/data."""
    assert got == (DATA / name).read_bytes(), (
        f"the output of `sodbench {command}` differs from {DATA / name}; if the "
        "change is intended, regenerate that file from it and say why in CHANGES.md"
    )


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestExact:
    def test_writes_profile_csv(self, tmp_path, capsys):
        out = tmp_path / "exact.csv"
        code = parse_and_run(["exact", "--cells", "200", "--time", "0.2", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == ["x", "density", "velocity", "pressure", "internal_energy"]
        assert len(rows) == 201  # header + one row per cell
        assert float(rows[1][1]) == pytest.approx(1.0)
        assert float(rows[-1][1]) == pytest.approx(0.125)

    def test_significant_digits(self, tmp_path):
        out = tmp_path / "exact.csv"
        parse_and_run(["exact", "--cells", "16", "--time", "0.2", "--out", str(out)])
        rows = read_csv(out)
        # star-left density carries >= 9 significant digits
        plateau = [float(r[1]) for r in rows[1:] if 0.48 < float(r[0]) < 0.6]
        assert plateau
        assert plateau[0] == pytest.approx(0.42631942817849516, rel=1e-9)

    def test_default_profile_is_pinned_byte_for_byte(self, tmp_path, capsys):
        out = tmp_path / "exact.csv"
        assert parse_and_run(["exact", "--out", str(out)]) == 0
        assert_pinned(out.read_bytes(), "sod200_exact.csv", "exact")


class TestSolve:
    def test_runs_and_reports_courant(self, tmp_path, capsys):
        out = tmp_path / "sol.csv"
        code = parse_and_run(
            [
                "solve",
                "--flux",
                "hllc-roe",
                "--cells",
                "200",
                "--dt",
                "0.001",
                "--time",
                "0.2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "max Courant" in captured
        rows = read_csv(out)
        assert len(rows) == 201

    def test_default_dt_is_derived_from_courant_target(self, capsys):
        code = parse_and_run(["solve", "--flux", "riemann"])
        assert code == 0
        assert "200 steps" in capsys.readouterr().out

    def test_flux_list_prints_all_methods(self, capsys):
        code = parse_and_run(["solve", "--flux", "list"])
        assert code == 0
        names = capsys.readouterr().out.split()
        assert names == [m.value for m in FluxMethod]

    def test_unknown_flux_name_is_config_error(self, capsys):
        assert parse_and_run(["solve", "--flux", "osher"]) == 2

    def test_non_multiple_final_time_is_config_error(self, capsys):
        code = parse_and_run(["solve", "--dt", "0.001", "--time", "0.0015"])
        assert code == 2

    @pytest.mark.parametrize(
        "flags", [["--dt", "nan"], ["--time", "nan"], ["--dt", "inf"]]
    )
    def test_non_finite_dt_or_time_is_config_error(self, flags, capsys):
        assert parse_and_run(["solve", *flags]) == 2
        assert "invalid configuration" in capsys.readouterr().err

    def test_dt_taking_no_step_is_config_error(self, capsys):
        assert parse_and_run(["solve", "--dt", "1e300"]) == 2
        captured = capsys.readouterr()
        assert "invalid configuration" in captured.err and "no step" in captured.err
        assert captured.out == ""

    def test_numerical_blowup_exit_code(self, capsys):
        # Courant 0.88 on the exact solution passes the guard; the run still
        # dies, which the guard at 1 does not promise to prevent
        code = parse_and_run(
            ["solve", "--flux", "roe", "--cells", "50", "--dt", "0.008", "--time", "0.2"]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "cell" in err and "step" in err

    @pytest.mark.parametrize("command", ["solve", "bench", "timing"])
    def test_courant_above_one_is_config_error(self, command, tmp_path, capsys):
        # u* + a*_R = 2.19157 behind Sod's shock: Co = 2.19157 * 0.004 / 0.005
        flags = ["--dt", "0.004"] + ([] if command == "solve" else ["--out", str(tmp_path / "x.csv")])
        assert parse_and_run([command, *flags]) == 2
        captured = capsys.readouterr()
        assert "invalid configuration" in captured.err and "Courant number 1.753" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "x.csv").exists()

    def test_courant_below_one_runs(self, capsys):
        # dx / 2.19157 = 0.002281 at 200 cells
        assert parse_and_run(["solve", "--flux", "lf", "--dt", "0.002", "--time", "0.01"]) == 0

    def test_van_leer_profile_is_pinned_byte_for_byte(self, tmp_path, capsys):
        # van Leer's splitting calls gas.flux_array on every step
        out = tmp_path / "van_leer.csv"
        assert parse_and_run(["solve", "--flux", "van-leer", "--out", str(out)]) == 0
        assert_pinned(out.read_bytes(), "sod200_van_leer.csv", "solve --flux van-leer")


class TestBench:
    def test_table_contract(self, tmp_path, capsys):
        out = tmp_path / "table3.csv"
        code = parse_and_run(
            ["bench", "--cells", "50", "--dt", "0.004", "--time", "0.2", "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == [
            "index",
            "method",
            "rmse_density",
            "rmse_velocity",
            "rmse_pressure",
            "rmse_total",
        ]
        assert len(rows) == 23
        assert [r[0] for r in rows[1:]] == [str(i) for i in range(1, 23)]
        assert [r[1] for r in rows[1:]] == [m.value for m in FluxMethod]
        for row in rows[1:]:
            assert float(row[5]) == pytest.approx(
                float(row[2]) + float(row[3]) + float(row[4]), rel=1e-12
            )

    def test_default_table_is_pinned_byte_for_byte(self, tmp_path, capsys):
        out = tmp_path / "table3.csv"
        assert parse_and_run(["bench", "--out", str(out)]) == 0
        assert_pinned(out.read_bytes(), "sod200_bench.csv", "bench")


class TestWaves:
    def test_report_contains_table_values(self, capsys):
        code = parse_and_run(["waves"])
        assert code == 0
        out = capsys.readouterr().out
        for value in ("-1.18322", "-0.07027", "0.92745", "0.30313", "0.42632",
                      "0.26557", "0.99773", "1.75216", "1.65563", "0.65240"):
            assert value in out

    def test_default_report_is_pinned_byte_for_byte(self, capsys):
        assert parse_and_run(["waves"]) == 0
        assert_pinned(capsys.readouterr().out.encode(), "sod_waves.txt", "waves")

    def test_degenerate_shock_is_numerical_failure(self, capsys):
        # at gamma 1e20 the shocked star density equals the unshocked one
        # within 1e-14, so the mass-jump shock speed is undefined
        assert parse_and_run(["waves", "--gamma", "1e20"]) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            "numerical failure: DegenerateJump: density jump below 1e-14; no shock present\n"
        )
        assert captured.out == ""


class TestTiming:
    def test_writes_sorted_table(self, tmp_path, capsys):
        out = tmp_path / "timing.csv"
        code = parse_and_run(
            ["timing", "--cells", "50", "--dt", "0.004", "--time", "0.2",
             "--reps", "3", "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == ["method", "elapsed_seconds", "pct_over_fastest"]
        assert len(rows) == 23
        elapsed = [float(r[1]) for r in rows[1:]]
        assert elapsed == sorted(elapsed)
        assert float(rows[1][2]) == 0.0


class TestInvalidInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["waves", "--gamma", "1"],
            ["waves", "--gamma", "nan"],
            ["waves", "--gamma", "inf"],
            ["solve", "--gamma", "0.9", "--out", "OUT"],
            ["bench", "--gamma", "0.9", "--out", "OUT"],
            ["exact", "--time", "-1", "--out", "OUT"],
            ["exact", "--time", "nan", "--out", "OUT"],
            ["exact", "--time", "inf", "--out", "OUT"],
            ["exact", "--x-max", "inf", "--out", "OUT"],
            ["solve", "--jump", "nan", "--out", "OUT"],
            ["solve", "--x-max", "inf", "--dt", "0.001", "--out", "OUT"],
            ["solve", "--x-min=-1e308", "--x-max", "1e308", "--dt", "0.001", "--out", "OUT"],
        ],
        ids=" ".join,
    )
    def test_rejected_with_exit_2(self, argv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert parse_and_run([str(out) if a == "OUT" else a for a in argv]) == 2
        assert "invalid configuration" in capsys.readouterr().err
        assert not out.exists()


class TestParser:
    def test_missing_subcommand_is_usage_error(self, capsys):
        assert parse_and_run([]) == 2

    def test_help_exits_cleanly(self, capsys):
        assert parse_and_run(["--help"]) == 0
