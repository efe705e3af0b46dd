"""Command-line interface: subcommands, CSV contracts, exit codes."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sodbench import cli
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

    def test_gamma_near_one_stops_the_exact_flux(self, capsys):
        # The fan branch's ratio**z - 1, z = (gamma - 1) / (2 gamma), rounds
        # at about eps / z: 4.4e-12 at 1.0001, above the Newton tolerance of
        # 1e-12, where 1.0002 still converges (notes/decisions.md section 9)
        assert parse_and_run(["solve", "--gamma", "1.0002"]) == 0
        capsys.readouterr()
        assert parse_and_run(["solve", "--gamma", "1.0001"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: NoConvergence: star pressure iteration")
        assert ": face 116 stopped at " in err and err.endswith(" at step 140\n")

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
            "error",
        ]
        assert len(rows) == 23
        assert [r[0] for r in rows[1:]] == [str(i) for i in range(1, 23)]
        assert [r[1] for r in rows[1:]] == [m.value for m in FluxMethod]
        for row in rows[1:]:
            assert float(row[5]) == pytest.approx(
                float(row[2]) + float(row[3]) + float(row[4]), rel=1e-12
            )
            assert row[6] == ""

    def test_failed_method_carries_its_reason(self, tmp_path, capsys):
        # At gamma 3 the three AUSM variants die on Sod; the table is still
        # written and the sweep exits 0
        out = tmp_path / "table3.csv"
        assert parse_and_run(["bench", "--gamma", "3", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = {row["method"]: row for row in csv.DictReader(fh)}
        failed = {m: row["error"] for m, row in rows.items() if row["error"]}
        assert list(failed) == ["ausm", "ausm-plus", "ausm-plus-up"]
        err = capsys.readouterr().err
        for method, reason in failed.items():
            assert reason.startswith("NonPhysicalState: solver produced non-positive")
            assert f"{method}: FAILED ({reason})" in err
            assert rows[method]["rmse_total"] == "nan"

    def test_a_reason_with_commas_and_quotes_reads_back_intact(self, tmp_path):
        path = tmp_path / "t.csv"
        reason = 'InvalidConfig: got dx=0.005, dt="0"'
        cli._write_csv(str(path), "index,error", [(1, reason), (2, "")])
        assert read_csv(path) == [["index", "error"], ["1", reason], ["2", ""]]

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
            # runs beyond the bound on cells x steps: 2e302 steps, and a
            # step count that overflows a float
            ["solve", "--x-max", "1e-300", "--out", "OUT"],
            ["solve", "--dt", "5e-324", "--out", "OUT"],
            # a wave speed estimate that gives no finite positive dt
            ["solve", "--s-max", "nan", "--out", "OUT"],
            ["solve", "--s-max", "inf", "--out", "OUT"],
            ["solve", "--s-max", "1e-320", "--out", "OUT"],
            # an output path that is a directory, or in a missing one
            ["exact", "--out", "DIR"],
            ["solve", "--out", "DIR"],
            ["exact", "--out", "NODIR"],
            ["solve", "--out", "NODIR"],
            ["bench", "--out", "NODIR"],
            ["timing", "--reps", "3", "--out", "NODIR"],
            # or empty
            ["exact", "--out", ""],
            ["solve", "--out", ""],
            ["bench", "--out", ""],
            ["timing", "--reps", "3", "--out", ""],
        ],
        ids=" ".join,
    )
    def test_rejected_with_exit_2(self, argv, tmp_path, capsys):
        paths = {"OUT": tmp_path / "out.csv", "DIR": tmp_path, "NODIR": tmp_path / "no" / "x.csv"}
        assert parse_and_run([str(paths.get(a, a)) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out", ["no/x.csv", ""], ids=["missing-directory", "empty"])
    @pytest.mark.parametrize("command", ["exact", "solve", "bench", "timing"])
    def test_an_unusable_out_is_rejected_before_any_run(self, command, out, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("ran before the output path was checked")

        for module, name in [
            (cli.riemann, "exact_profile"),
            (cli.solver, "run"),
            (cli.bench, "run_all_methods"),
            (cli.bench, "timing_sweep"),
        ]:
            monkeypatch.setattr(module, name, refuse)
        assert parse_and_run([command, "--out", str(tmp_path / out) if out else ""]) == 2
        assert "invalid configuration" in capsys.readouterr().err


class TestOutOfMemory:
    def test_memory_error_is_config_error(self, monkeypatch, capsys):
        def too_large(cfg):
            raise MemoryError("Unable to allocate 2.24 GiB")

        monkeypatch.setattr(cli.solver, "run", too_large)
        assert parse_and_run(["solve", "--cells", "100000000", "--time", "2e-9"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "invalid configuration: out of memory: Unable to allocate 2.24 GiB\n"
        assert captured.out == ""

    def test_a_grid_beyond_the_address_space(self):
        # A child limited to 1.5 GB of address space: 10^8 cells x 1 step
        # passes the bound on cell-steps, and its (3, 10^8) cells take
        # 2.4 GB.  The allocation fails before a page is touched
        pytest.importorskip("resource")
        limit = 1536 * 2**20
        code = (
            f"import resource, sys; resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
            "from sodbench.cli import parse_and_run\n"
            "sys.exit(parse_and_run(['solve', '--cells', '100000000', '--time', '2e-9']))"
        )
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("invalid configuration: out of memory: ")
        assert done.stderr.count("\n") == 1


class TestParser:
    def test_missing_subcommand_is_usage_error(self, capsys):
        assert parse_and_run([]) == 2

    def test_help_exits_cleanly(self, capsys):
        assert parse_and_run(["--help"]) == 0
