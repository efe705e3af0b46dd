"""Smoke tests of the scripts in tools/."""

import json
import re
import shutil
import subprocess
import sys

import pytest

from conftest import ROOT, load_script
from sodbench.fluxes import FluxMethod


def run_ab_sweep(parent, change, suites, *options):
    """tools/ab_sweep.py on two source trees, one rep of the given suites;
    it leaves no ``sodbench`` module behind."""
    script = (
        f"import sys; import ab_sweep; ab_sweep.SUITES = {tuple(suites)!r};"
        " code = ab_sweep.main(sys.argv[1:]);"
        " assert not [m for m in sys.modules if m.split('.')[0] == 'sodbench'];"
        " sys.exit(code)"
    )
    return subprocess.run(
        [sys.executable, "-c", script, str(parent), str(change), "--reps", "1", *options],
        cwd=ROOT / "tools",
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )


def ops_lines(stdout):
    """suite -> (parent, change, the rest) of the --ops lines."""
    found = {}
    for line in stdout.splitlines():
        match = re.fullmatch(
            r"(\S+) numpy ops per step over \d+ methods: parent (\S+), change ([^;]+)(.*)", line
        )
        if match:
            found[match[1]] = (float(match[2]), float(match[3]), match[4])
    return found


def layer_lines(stdout):
    """suite -> each side's {layer: ops per step} of the --ops layer lines."""
    found = {}
    for line in stdout.splitlines():
        match = re.fullmatch(r"(\S+) numpy ops per step by layer: parent (.*); change (.*)", line)
        if match:
            found[match[1]] = tuple(
                {layer: float(n) for layer, n in (item.split() for item in side.split(", "))}
                for side in (match[2], match[3])
            )
    return found


def test_ab_sweep_same_tree_counts_equal_ops():
    src = ROOT / "src"
    # The full seven suites take minutes; one of each workload covers the
    # three kinds.
    suites = ("sod200-sweep", "sod20k-bulk", "toro-suite/test2")
    result = run_ab_sweep(src, src, suites, "--ops")
    # Toro's test 2 kills six methods (tests/test_solver.py, TORO_FAILURES)
    lines = result.stdout.splitlines()
    assert lines[0].startswith(
        "sod200-sweep: final cells differ in 0 of 22 runs (0 failing on both sides skipped)"
        "; scores differ in 0 of 22 runs;"
    )
    assert lines[1].startswith(
        "sod20k-bulk: final cells differ in 0 of 22 runs (0 failing on both sides skipped)"
        "; scores differ in 0 of 22 runs;"
    )
    assert lines[2].startswith(
        "toro-suite/test2: final cells differ in 0 of 16 runs (6 failing on both sides skipped)"
        "; scores differ in 0 of 16 runs;"
    )
    assert "fields differ" not in result.stdout
    assert "warnings differ" not in result.stdout
    for line in lines[:3]:
        assert line.endswith("; largest change of final cells 0.00e+00 absolute, 0.00e+00 relative")
    assert lines[3] == "wave reports differ in 0 of 6 problems"
    assert lines[4] == "exact profiles differ in 0 of 3 suites"
    assert "ratio change/parent: median" in result.stdout
    # the --ops lines follow the method ratio line, which names all 22
    # methods, lowest ratio first
    (by_method,) = [line for line in lines if line.startswith("method median ratio")]
    match = re.fullmatch(
        r"method median ratio change/parent: " + ", ".join([r"([a-z0-9-]+) (\d\.\d{4})"] * 22),
        by_method,
    )
    assert match is not None, by_method
    names, ratios = match.groups()[::2], [float(r) for r in match.groups()[1::2]]
    assert sorted(names) == sorted(m.value for m in FluxMethod)
    assert ratios == sorted(ratios)
    found = ops_lines(result.stdout)
    assert tuple(found) == suites, result.stdout
    for parent, change, rest in found.values():
        # about 2 000 operations per sweep-step on Sod-200
        assert parent == change > 500.0
        # no method's count differs, and every counted run gave the
        # uncounted run's bytes
        assert rest == ""
    # each operation counts toward the package module that made it, and
    # the five layers make up the total
    layers = layer_lines(result.stdout)
    assert tuple(layers) == suites, result.stdout
    for suite, (parent, change) in layers.items():
        assert parent == change
        assert list(parent) == ["solver", "gas", "muscl", "fluxes", "riemann"]
        assert sum(parent.values()) == pytest.approx(found[suite][0], abs=0.03)
        assert parent["riemann"] > 0.0
    # the last lines: each side's minor page faults per run, per suite, in
    # the solve and in the scoring
    faults = [
        re.fullmatch(
            r"(\S+) minor page faults per run over 22 runs, solve \+ scoring:"
            r" parent \d+\.\d \+ \d+\.\d, change \d+\.\d \+ \d+\.\d",
            line,
        )
        for line in lines[-3:]
    ]
    assert tuple(match and match[1] for match in faults) == suites, result.stdout


def test_ab_sweep_counts_runs_a_change_moves(tmp_path):
    # A negative control of the bitwise gate, of the score comparison, of the
    # warning count and of the workload check: a looser Newton tolerance in
    # the exact solver stops its iteration early, which moves the Sod-200
    # result of the exact flux and the exact profile every run is scored on.
    # Its density RMSE, 0.0079794262867, leaves the seed table's
    # 0.00797942617047 by more than the benchmark's rtol of 1e-8
    change = tmp_path / "src"
    shutil.copytree(ROOT / "src", change, ignore=shutil.ignore_patterns("__pycache__"))
    riemann = change / "sodbench" / "riemann.py"
    text, count = re.subn(r"^NEWTON_RTOL = .*$", "NEWTON_RTOL = 1e-3", riemann.read_text(), flags=re.M)
    assert count == 1
    riemann.write_text(text)
    # and a square root of -1 warns once per run of the 22
    solver = change / "sodbench" / "solver.py"
    old = "    return _march(q, lo, hi, cfg, n_steps, 0.0, 0.0)\n"
    assert solver.read_text().count(old) == 1
    solver.write_text(solver.read_text().replace(old, "    np.sqrt(-1.0)\n" + old))
    result = run_ab_sweep(ROOT / "src", change, ("sod200-sweep",), "--ops")
    line = re.match(
        r"sod200-sweep: final cells differ in (\d+) of 22 runs \(0 failing on both sides skipped\)"
        r"; scores differ in 22 of 22 runs; .*; largest change of final cells"
        r" (\S+) absolute, (\S+) relative; warnings differ: parent 0, change 22"
        r"; workload check fails: parent 0, change 1$",
        result.stdout.splitlines()[0],
    )
    assert line is not None, result.stdout
    assert int(line[1]) > 0
    assert float(line[2]) > 0.0 and float(line[3]) > 0.0
    # the looser tolerance moves the star state the profile is sampled from
    assert "exact profiles differ in 1 of 1 suites" in result.stdout.splitlines()
    # Fewer Newton iterations are fewer operations of the exact flux; the
    # square root adds one operation to each run of every method
    parent, change, rest = ops_lines(result.stdout)["sod200-sweep"]
    assert "counted runs differ" not in rest
    exact = re.search(r"riemann (\S+) -> (\S+?)(,|$)", rest)
    assert exact is not None, rest
    assert float(exact[2]) < float(exact[1])
    others = re.findall(r"([a-z0-9-]+) (\S+) -> (\S+?)(?:,|$)", rest)
    assert len(others) == 22
    for method, before, after in others:
        if method != "riemann":
            assert float(after) == pytest.approx(float(before) + 1 / 200, abs=0.006), method


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
        rb = load_script(ROOT / "tools" / "record_bench.py")
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
        rb = load_script(ROOT / "tools" / "record_bench.py")
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
