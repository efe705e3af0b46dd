"""Smoke tests of the scripts in tools/."""

import json
import re
import shutil
import statistics
import sys

import numpy as np
import pytest

from conftest import ROOT, load_script
from sodbench import solver
from sodbench.fluxes import FluxMethod
from sodbench.solver import RunConfig


AB_SWEEP = load_script(ROOT / "tools" / "ab_sweep.py")


def compare(parent, change, suites):
    """tools/ab_sweep.py's report on two source trees, one rep of the given
    suites; it leaves sys.path and the ``sodbench*`` modules as they were."""
    state = lambda: (list(sys.path), {k: m for k, m in sys.modules.items() if k.startswith("sodbench")})
    before = state()
    report = AB_SWEEP.compare(parent, change, 1, suites)
    assert state() == before
    return report


# Operations per step over the methods of a suite, in all and by layer
# (solver, gas, muscl, fluxes, riemann), to the printed digits.  A change
# that moves a count declares its new one here.
PINNED_OPS = {
    "sod200-sweep": (1557.55, (69.89, 392.26, 242.00, 654.02, 199.37)),
    "sod20k-bulk": (1608.35, (83.60, 418.35, 242.00, 660.25, 204.15)),
    "toro-suite/test2": (1140.09, (51.61, 280.23, 176.00, 451.00, 181.25)),
}
# Sod-200's calls per sweep-step with a Python int or float operand, and
# with strided or mixed-shape operands: 305.24 and 279.10 while the step
# path's literals were Python floats and MUSCL summed strided views
# (notes/decisions.md section 29)
SOD200_SLOW_CALLS = (108.29, 235.10)
# Each method's operations per Sod-200 step, exact: a run's count over its
# 200 steps
SOD200_METHOD_OPS = {
    "riemann": 234.745,
    "roe": 96.380,
    "knp": 49.380,
    "kt": 42.380,
    "sw": 66.380,
    "van-leer": 43.150,
    "ausm": 57.280,
    "ausm-plus": 70.230,
    "ausm-plus-up": 99.410,
    "aufs": 51.380,
    "hll-davis1": 47.380,
    "hll-davis2": 49.380,
    "hll-roe": 62.380,
    "hll-einfeldt": 64.380,
    "hll-pbased": 63.380,
    "hllc-davis1": 66.380,
    "hllc-davis2": 68.380,
    "hllc-roe": 81.380,
    "hllc-einfeldt": 83.380,
    "hllc-pbased": 82.380,
    "lf": 35.650,
    "rusanov": 42.380,
}


def test_ab_sweep_same_tree_counts_equal_ops():
    src = ROOT / "src"
    # The full seven suites take minutes; one of each workload covers the
    # three kinds.
    suites = ("sod200-sweep", "sod20k-bulk", "toro-suite/test2")
    report = compare(src, src, suites)
    assert tuple(report.suites) == suites
    for name, suite in report.suites.items():
        # Toro's test 2 kills six methods (tests/test_solver.py, TORO_FAILURES)
        skipped = 6 if name == "toro-suite/test2" else 0
        tallies = (suite.runs, suite.skipped, suite.differ, suite.scores_differ, len(suite.records), suite.change)
        assert tallies == (22, skipped, 0, 0, 22 - skipped, [0.0, 0.0])
        assert (suite.moved, suite.failing, suite.profiles_differ) == ([], [0, 0], False)
        assert suite.warned[0] == suite.warned[1]
        # no method's count differs, and every timed run of the first rep
        # gave its counted run's bytes
        assert all(r.ops()[0] == r.ops()[1] and r.drifted == [] for r in suite.records)
        ops, layers = suite.ops(), suite.layers()
        assert ops[0] == ops[1] and round(ops[0], 2) == PINNED_OPS[name][0]
        # each operation counts toward the package module that made it, and
        # the five layers make up the total
        assert layers[0] == layers[1] and set(layers[0]) == set(AB_SWEEP.LAYERS)
        assert tuple(round(layers[0][k], 2) for k in AB_SWEEP.LAYERS) == PINNED_OPS[name][1]
        assert sum(layers[0].values()) == pytest.approx(ops[0], rel=1e-12)
        assert layers[0]["riemann"] > 0.0
        assert all(p == c for p, c in suite.slow_calls().values())
    sod = report.suites["sod200-sweep"]
    assert {r.method: r.ops()[0] for r in sod.records} == SOD200_METHOD_OPS
    assert tuple(round(p, 2) for p, _ in sod.slow_calls().values()) == SOD200_SLOW_CALLS
    assert len(report.waves) == 6 and all(p == c for p, c in report.waves)
    # every method has a ratio, lowest first
    by_ratio = report.method_ratios()
    assert sorted(m for _, m in by_ratio) == sorted(m.value for m in FluxMethod)
    assert by_ratio == sorted(by_ratio)

    # The printed lines, from these values
    median = lambda records: statistics.median(AB_SWEEP.ratios(records))
    expected = [
        f"{name}: final cells differ in 0 of {len(s.records)} runs ({s.skipped} failing on both sides skipped)"
        f"; scores differ in 0 of {len(s.records)} runs; median ratio change/parent {median(s.records):.4f}"
        "; largest change of final cells 0.00e+00 absolute, 0.00e+00 relative"
        for name, s in report.suites.items()
    ]
    sweeps, overall = AB_SWEEP.summed(report.records), median(report.records)
    expected += [
        "wave reports differ in 0 of 6 problems",
        "exact profiles differ in 0 of 3 suites",
        f"parent: median sweep {sweeps[0][0]:.4f} s over 1 reps",
        f"change: median sweep {sweeps[1][0]:.4f} s over 1 reps",
        f"ratio change/parent: median {overall:.4f} min {overall:.4f} max {overall:.4f}",
        "method median ratio change/parent: " + ", ".join(f"{m} {r:.4f}" for r, m in by_ratio),
    ]
    for name, s in report.suites.items():
        total, layers = PINNED_OPS[name]
        layers = ", ".join(f"{k} {n:.2f}" for k, n in zip(AB_SWEEP.LAYERS, layers))
        scalar, strided = (f"{p:.2f} -> {p:.2f}" for p, _ in s.slow_calls().values())
        expected += [
            f"{name} numpy ops per step over {len(s.records)} methods: parent {total:.2f}, change {total:.2f}"
            "; by method: " + ", ".join(f"{r.method} {r.ops()[0]:.3f}" for r in s.records),
            f"{name} numpy ops per step by layer: parent {layers}; change {layers}",
            f"{name} slow-path calls per step: Python scalar operand {scalar}"
            f"; strided or mixed-shape operands {strided}",
        ]
    assert AB_SWEEP.render(report) == expected


# The timed runs of the change warn outside the counted pass
@pytest.mark.filterwarnings("ignore:invalid value encountered in sqrt:RuntimeWarning")
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
    # A negative control of the unload: a call on the same tree first (on
    # the cheapest suite), whose packages the second call must not measure
    compare(ROOT / "src", ROOT / "src", ("sod20k-bulk",))
    sod = compare(ROOT / "src", change, ("sod200-sweep",)).suites["sod200-sweep"]
    assert (sod.runs, sod.skipped, sod.scores_differ, len(sod.records)) == (22, 0, 22, 22)
    assert sod.differ > 0 and min(sod.change) > 0.0
    assert (sod.moved, sod.warned, sod.failing) == ([], [0, 22], [0, 1])
    # the looser tolerance moves the star state the profile is sampled from
    assert sod.profiles_differ
    # Every timed run of the change differs from its counted run
    assert [(r.method, r.drifted) for r in sod.records] == [(m.value, ["change"]) for m in FluxMethod]
    # Fewer Newton iterations are fewer operations of the exact flux; the
    # square root adds one operation to each run of every method
    for r in sod.records:
        before, after = (sum(c.values()) for c in r.counts)
        if r.method == "riemann":
            assert after < before
        else:
            assert after == before + 1, r.method


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
    report = compare(ROOT / "src", change, ("sod200-sweep",))
    sod = report.suites["sod200-sweep"]
    assert (sod.runs, sod.skipped, sod.differ, sod.scores_differ, len(sod.records)) == (22, 0, 1, 0, 21)
    assert (sod.change, sod.moved, sod.failing) == ([0.0, 0.0], [], [0, 0])
    assert sod.warned[0] == sod.warned[1]
    assert sorted(m for _, m in report.method_ratios()) == sorted(m.value for m in FluxMethod if m is not FluxMethod.LF)
    assert all(r.drifted == [] for r in sod.records)
    assert {r.method: tuple(r.ops()) for r in sod.records} == {
        m: (n, n) for m, n in SOD200_METHOD_OPS.items() if m != "lf"
    }
    ops = sod.ops()
    assert ops[0] == ops[1] == pytest.approx(PINNED_OPS["sod200-sweep"][0] - SOD200_METHOD_OPS["lf"], abs=0.01)


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
