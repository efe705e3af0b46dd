"""Smoke tests of the scripts in tools/."""

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_ab_sweep(parent, change, suites):
    """tools/ab_sweep.py on two source trees, one rep of the given suites."""
    script = (
        f"import sys; import ab_sweep; ab_sweep.SUITES = {tuple(suites)!r};"
        " sys.exit(ab_sweep.main(sys.argv[1:]))"
    )
    return subprocess.run(
        [sys.executable, "-c", script, str(parent), str(change), "--reps", "1"],
        cwd=ROOT / "tools",
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )


def test_ab_sweep_same_tree_prints_a_ratio():
    src = ROOT / "src"
    # The full seven suites take minutes; Sod-200, Sod-20k and Toro 2 cover
    # the three kinds.
    result = run_ab_sweep(src, src, ("sod200", "sod20k", "toro2"))
    # Toro's test 2 kills six methods (tests/test_solver.py, TORO_FAILURES)
    lines = result.stdout.splitlines()
    assert lines[0].startswith("sod200: final cells differ in 0 of 22 runs (0 failing on both")
    assert lines[1].startswith("sod20k: final cells differ in 0 of 22 runs (0 failing on both")
    assert lines[2].startswith("toro2: final cells differ in 0 of 16 runs (6 failing on both")
    assert "fields differ" not in result.stdout
    assert "warnings differ" not in result.stdout
    for line in lines[:3]:
        assert line.endswith("; largest change of final cells 0.00e+00 absolute, 0.00e+00 relative")
    assert lines[3] == "wave reports differ in 0 of 6 problems"
    assert "ratio change/parent: median" in result.stdout
    assert re.fullmatch(
        r"method median ratio change/parent: lowest [a-z0-9-]+ \d\.\d{4}, highest [a-z0-9-]+ \d\.\d{4}",
        lines[-1],
    )


def test_ab_sweep_counts_runs_a_change_moves(tmp_path):
    # A negative control of the bitwise gate and of the warning count: a
    # looser Newton tolerance in the exact solver stops its iteration early,
    # which moves the Sod-200 result of the exact flux
    change = tmp_path / "src"
    shutil.copytree(ROOT / "src", change, ignore=shutil.ignore_patterns("__pycache__"))
    riemann = change / "sodbench" / "riemann.py"
    text, count = re.subn(r"^NEWTON_RTOL = .*$", "NEWTON_RTOL = 1e-3", riemann.read_text(), flags=re.M)
    assert count == 1
    riemann.write_text(text)
    # and a square root of -1 warns once per run of the 22
    solver = change / "sodbench" / "solver.py"
    old = "    return advance(initialize_sod(cfg), cfg, step_count(cfg))\n"
    assert solver.read_text().count(old) == 1
    solver.write_text(solver.read_text().replace(old, "    np.sqrt(-1.0)\n" + old))
    result = run_ab_sweep(ROOT / "src", change, ("sod200",))
    line = re.match(
        r"sod200: final cells differ in (\d+) of 22 runs.*; largest change of final cells"
        r" (\S+) absolute, (\S+) relative; warnings differ: parent 0, change 22$",
        result.stdout.splitlines()[0],
    )
    assert line is not None, result.stdout
    assert int(line[1]) > 0
    assert float(line[2]) > 0.0 and float(line[3]) > 0.0


def load_record_bench():
    spec = importlib.util.spec_from_file_location("record_bench", ROOT / "tools" / "record_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stub_result(metrics, trace):
    """The shape of a perfbench/out result file; no workload is run."""
    return {
        "correct": True,
        "attempted": 10,
        "failed": 0,
        "fixes": [],
        "samples": {},
        "metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in metrics},
        "env": {
            "python": "3.x",
            "numpy": "2.x",
            "nproc": 2,
            "cpu_model": "stub",
            "pass_s_min": 0.5,
            "pass_s_max": 0.6,
            "cpu_over_wall": 1.0,
            "kernel_ms": [1.0, 2.0, 3.0] if trace == 0 else None,
        },
    }


class TestRecordBench:
    def test_stub_record_passes_the_schema_check(self, tmp_path, monkeypatch):
        rb = load_record_bench()
        spec = rb.benchmark_spec()
        runs = []

        def runner(workload, trace):
            runs.append((workload, trace))
            return stub_result(spec["end_to_end"] if trace == 0 else spec["per_layer"], trace)

        monkeypatch.setattr(rb, "git", lambda *args: "0" * 40 if args[0] == "rev-parse" else "")
        out = tmp_path / "BENCH_stub.json"
        assert rb.main(["--out", str(out)], runner=runner) == 0
        names = [w["name"] for w in spec["workloads"]]
        assert runs == [(w, t) for w in names for t in (0, 1)]
        record = json.loads(out.read_text())
        assert rb.check_record(record, spec) == []
        assert record["commit"] == {"base_sha": "0" * 40, "dirty": False, "src_sha256": rb.source_digest()}
        assert (record["seed"], record["seconds"]) == (rb.SEED, rb.SECONDS)
        assert list(record["workloads"]) == names
        entry = record["workloads"][names[0]]
        assert set(entry["end_to_end"]) == {m["name"] for m in spec["end_to_end"]}
        assert set(entry["per_layer"]) == {m["name"] for m in spec["per_layer"]}
        assert entry["trace0"]["kernel_ms"] == [1.0, 2.0, 3.0]

    def test_schema_check_names_what_is_wrong(self):
        rb = load_record_bench()
        spec = rb.benchmark_spec()
        results = {
            w["name"]: {t: stub_result(spec["end_to_end"] if t == 0 else spec["per_layer"], t) for t in (0, 1)}
            for w in spec["workloads"]
        }
        commit = {"base_sha": "0" * 40, "dirty": True, "src_sha256": "0" * 64}
        record = rb.build_record(commit, results)
        sod = record["workloads"]["sod200-sweep"]
        del sod["end_to_end"]["sweep_s"]
        sod["per_layer"]["riemann.newton_iters"]["unit"] = "s"
        sod["trace1"]["failed"] = 2
        del record["workloads"]["toro-suite"]
        problems = rb.check_record(record, spec)
        assert problems == [
            "sod200-sweep end_to_end sweep_s is {}",
            "sod200-sweep per_layer riemann.newton_iters is {'value': 1.0, 'unit': 's'}",
            "sod200-sweep trace 1 is not correct: 2 failed",
            "workload toro-suite is missing",
        ]
