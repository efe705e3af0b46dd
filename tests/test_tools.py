"""Smoke tests of the scripts in tools/."""

import json
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from conftest import ROOT, load_script
from sodbench import solver
from sodbench.fluxes import FluxMethod
from sodbench.solver import RunConfig


def run_ab_sweep(parent, change, suites):
    """tools/ab_sweep.py on two source trees, one rep of the given suites;
    it leaves no ``sodbench`` module behind."""
    script = (
        f"import sys; import ab_sweep; ab_sweep.SUITES = {tuple(suites)!r};"
        " code = ab_sweep.main(sys.argv[1:]);"
        " assert not [m for m in sys.modules if m.split('.')[0] == 'sodbench'];"
        " sys.exit(code)"
    )
    return subprocess.run(
        [sys.executable, "-c", script, str(parent), str(change), "--reps", "1"],
        cwd=ROOT / "tools",
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )


def ops_lines(stdout):
    """suite -> (parent, change, the rest) of the operation count lines."""
    found = {}
    for line in stdout.splitlines():
        match = re.fullmatch(
            r"(\S+) numpy ops per step over \d+ methods: parent (\S+), change ([^;]+)(.*)", line
        )
        if match:
            found[match[1]] = (float(match[2]), float(match[3]), match[4])
    return found


def method_ops(rest):
    """method -> (parent, change) of an operation count line's by-method
    part, each method listed once, as ``m p`` or, where its count moved,
    ``m p -> c``."""
    by_method = rest.removeprefix("; by method: ")
    found = {}
    for item in by_method.split(", "):
        method, parent, *moved = item.split()
        found[method] = (float(parent), float(moved[-1] if moved else parent))
    return found


def layer_lines(stdout):
    """suite -> each side's {layer: ops per step} of the operation layer lines."""
    found = {}
    for line in stdout.splitlines():
        match = re.fullmatch(r"(\S+) numpy ops per step by layer: parent (.*); change (.*)", line)
        if match:
            found[match[1]] = tuple(
                {layer: float(n) for layer, n in (item.split() for item in side.split(", "))}
                for side in (match[2], match[3])
            )
    return found


# Operations per step over the methods of a suite, in all and by layer
# (solver, gas, muscl, fluxes, riemann).  A change that moves a count
# declares its new one here.
PINNED_OPS = {
    "sod200-sweep": (1557.43, (69.78, 392.26, 242.00, 654.02, 199.37)),
    "sod20k-bulk": (1607.25, (82.50, 418.35, 242.00, 660.25, 204.15)),
    "toro-suite/test2": (1140.01, (51.54, 280.23, 176.00, 451.00, 181.25)),
}
# Each method's operations per Sod-200 step, exact to the printed digits:
# a run's count over its 200 steps
SOD200_METHOD_OPS = {
    "riemann": 234.740,
    "roe": 96.375,
    "knp": 49.375,
    "kt": 42.375,
    "sw": 66.375,
    "van-leer": 43.145,
    "ausm": 57.275,
    "ausm-plus": 70.225,
    "ausm-plus-up": 99.405,
    "aufs": 51.375,
    "hll-davis1": 47.375,
    "hll-davis2": 49.375,
    "hll-roe": 62.375,
    "hll-einfeldt": 64.375,
    "hll-pbased": 63.375,
    "hllc-davis1": 66.375,
    "hllc-davis2": 68.375,
    "hllc-roe": 81.375,
    "hllc-einfeldt": 83.375,
    "hllc-pbased": 82.375,
    "lf": 35.645,
    "rusanov": 42.375,
}


def test_ab_sweep_same_tree_counts_equal_ops():
    src = ROOT / "src"
    # The full seven suites take minutes; one of each workload covers the
    # three kinds.
    suites = ("sod200-sweep", "sod20k-bulk", "toro-suite/test2")
    result = run_ab_sweep(src, src, suites)
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
    # the operation count lines follow the method ratio line, which names
    # all 22 methods, lowest ratio first
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
    for suite, (parent, change, rest) in found.items():
        # every method is listed, no method's count differs, and every timed
        # run of the first rep gave its counted run's bytes
        assert "counted runs differ" not in rest
        counts = method_ops(rest)
        assert len(counts) == (16 if suite == "toro-suite/test2" else 22)
        assert all(p == c for p, c in counts.values()), rest
        if suite == "sod200-sweep":
            assert {m: p for m, (p, _) in counts.items()} == SOD200_METHOD_OPS
        assert parent == change == PINNED_OPS[suite][0]
    # each operation counts toward the package module that made it, and
    # the five layers make up the total
    layers = layer_lines(result.stdout)
    assert tuple(layers) == suites, result.stdout
    for suite, (parent, change) in layers.items():
        assert parent == change
        assert list(parent) == ["solver", "gas", "muscl", "fluxes", "riemann"]
        assert tuple(parent.values()) == PINNED_OPS[suite][1]
        assert sum(parent.values()) == pytest.approx(found[suite][0], abs=0.03)
        assert parent["riemann"] > 0.0


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
    # and a square root of -1 warns once per run of the 22; and where np
    # is numpy itself, not the counter's stand-in, cell 0's density is
    # doubled, which moves only the timed runs: a negative control of the
    # check of the counted runs against the first timed rep
    solver = change / "sodbench" / "solver.py"
    old = "    return _march(q, lo, hi, cfg, n_steps, 0.0, 0.0)\n"
    assert solver.read_text().count(old) == 1
    perturb = "    if isinstance(np, type(math)):\n        q[0, 1] *= 2.0\n"
    solver.write_text(solver.read_text().replace(old, "    np.sqrt(-1.0)\n" + perturb + old))
    result = run_ab_sweep(ROOT / "src", change, ("sod200-sweep",))
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
    rest, _, counted_differ = rest.partition("; counted runs differ: ")
    assert counted_differ == ", ".join(f"{m.value} (change)" for m in FluxMethod)
    exact = re.search(r"riemann (\S+) -> (\S+?)(,|$)", rest)
    assert exact is not None, rest
    assert float(exact[2]) < float(exact[1])
    others = re.findall(r"([a-z0-9-]+) (\S+) -> (\S+?)(?:,|$)", rest)
    assert len(others) == 22
    for method, before, after in others:
        if method != "riemann":
            assert float(after) == pytest.approx(float(before) + 1 / 200, abs=0.006), method


def test_ab_sweep_times_only_runs_that_complete_on_both_sides(tmp_path):
    # A run that fails on one side only: Lax-Friedrichs's flux made NaN on
    # the change side, so its run dies there and completes on the parent's.
    # It counts as differing, and its scores, times and operations are left
    # out; the other 21 runs are unchanged
    change = tmp_path / "src"
    shutil.copytree(ROOT / "src", change, ignore=shutil.ignore_patterns("__pycache__"))
    fluxes = change / "sodbench" / "fluxes.py"
    old = "    return _central_flux(faces, speed, g)\n"
    assert fluxes.read_text().count(old) == 1
    fluxes.write_text(fluxes.read_text().replace(old, "    return _central_flux(faces, speed, g) * np.nan\n"))
    result = run_ab_sweep(ROOT / "src", change, ("sod200-sweep",))
    lines = result.stdout.splitlines()
    assert lines[0].startswith(
        "sod200-sweep: final cells differ in 1 of 22 runs (0 failing on both sides skipped)"
        "; scores differ in 0 of 21 runs;"
    ), result.stdout
    assert lines[0].endswith("; largest change of final cells 0.00e+00 absolute, 0.00e+00 relative")
    (by_method,) = [line for line in lines if line.startswith("method median ratio")]
    names = [item.split()[0] for item in by_method.split(": ")[1].split(", ")]
    assert sorted(names) == sorted(m.value for m in FluxMethod if m is not FluxMethod.LF)
    parent, change_ops, rest = ops_lines(result.stdout)["sod200-sweep"]
    assert "counted runs differ" not in rest
    assert method_ops(rest) == {m: (n, n) for m, n in SOD200_METHOD_OPS.items() if m != "lf"}
    assert parent == change_ops == pytest.approx(PINNED_OPS["sod200-sweep"][0] - SOD200_METHOD_OPS["lf"], abs=0.01)
    assert "sod200-sweep numpy ops per step over 21 methods:" in result.stdout


def test_perfbench_tracer_sees_every_layer_of_sod200_runs(monkeypatch):
    # perfbench/spans.py wraps seven names that the package looks up at call
    # time, and counts the exact flux's faces from the first two arguments
    # of riemann.interface_states, the two sides.  A change that calls one
    # of those names through another binding, or hands interface_states
    # other arguments, would show only in the benchmark's traced run.  So
    # the tracer runs here as perfbench installs it, on Sod-200 runs of
    # three methods; the exact one is needed, since layer_metrics divides
    # by its riemann calls.
    spans = load_script(ROOT / "perfbench" / "spans.py")
    # The exact run's faces and active faces (two sides that differ), as
    # the solver hands them to the flux
    faces = [0, 0]
    compute_face_flux = solver.compute_face_flux

    def count_faces(method, block, *args, **kwargs):
        if method is FluxMethod.RIEMANN:
            faces[0] += block.shape[-1]
            faces[1] += int(np.count_nonzero((block[:, 0] != block[:, 1]).any(axis=0)))
        return compute_face_flux(method, block, *args, **kwargs)

    monkeypatch.setattr(solver, "compute_face_flux", count_faces)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for run_id, method in enumerate((FluxMethod.RIEMANN, FluxMethod.RUSANOV, FluxMethod.HLLC_ROE)):
            cfg = solver.sweep_config(RunConfig(), method)
            tracer.begin_run(run_id, method.value, solver.step_count(cfg), 0)
            solver.run(cfg)
            tracer.end_run(1.0, None)
    finally:
        tracer.uninstall()
    # raises MissingSpans where a run bypassed a wrapped name
    metrics = spans.layer_metrics(tracer)
    assert metrics["solver.steps"] == (600.0, "count")
    # one recovery per step and one of the step data per run
    assert metrics["gas.primitive_array.calls_per_step"] == (1.005, "calls/step")
    assert (tracer.faces, tracer.active_faces) == tuple(faces) == (13_864, 13_064)


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
