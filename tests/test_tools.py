"""Smoke tests of the scripts in tools/."""

import json
import re
import shutil
import statistics
import sys
import warnings

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


def assert_pinned_ops(name, suite, side):
    """A side's operations per step over the suite's methods, in all and by
    layer, against PINNED_OPS."""
    ops, layers = suite.ops()[side], suite.layers()[side]
    assert round(ops, 2) == PINNED_OPS[name][0]
    # each operation counts toward the package module that made it, and the
    # five layers make up the total
    assert set(layers) == set(AB_SWEEP.LAYERS)
    assert tuple(round(layers[k], 2) for k in AB_SWEEP.LAYERS) == PINNED_OPS[name][1]
    assert sum(layers.values()) == pytest.approx(ops, rel=1e-12)
    assert layers["riemann"] > 0.0


def median_ratio(records):
    return statistics.median(AB_SWEEP.ratios(records))


def summary_lines(report, waves_differ, profiles_differ):
    """The lines ``render`` prints between the suites' first lines and
    their operation lines, from the report's values at one rep."""
    sweeps, overall = AB_SWEEP.summed(report.records), median_ratio(report.records)
    return [
        f"wave reports differ in {waves_differ} of 6 problems",
        f"exact profiles differ in {profiles_differ} of {len(report.suites)} suites",
        f"parent: median sweep {sweeps[0][0]:.4f} s over 1 reps",
        f"change: median sweep {sweeps[1][0]:.4f} s over 1 reps",
        f"ratio change/parent: median {overall:.4f} min {overall:.4f} max {overall:.4f}",
        "method median ratio change/parent: " + ", ".join(f"{m} {r:.4f}" for r, m in report.method_ratios()),
    ]


@pytest.fixture(scope="module")
def same_tree():
    """The tree against itself on its cheapest suite."""
    return compare(ROOT / "src", ROOT / "src", ("sod20k-bulk",))


@pytest.fixture(scope="module")
def joint(same_tree, tmp_path_factory):
    """The tree against a copy with four changes, each a negative control,
    on Sod and Toro's test 2 at 200 cells and on sod20k-bulk, the one suite
    whose dx is below 1e-3, with RuntimeWarnings as errors.  Its parent side
    is the one counted pass of the unchanged Sod-200 and Toro 2.  It is made
    after ``same_tree``, whose packages it must not measure: a negative
    control of ``compare``'s unload."""
    change = tmp_path_factory.mktemp("joint") / "src"
    shutil.copytree(ROOT / "src", change, ignore=shutil.ignore_patterns("__pycache__"))
    march = "    return _march(q, lo, hi, cfg, n_steps, 0.0, 0.0)\n"
    for module, old, new in (
        # A looser tolerance stops the exact solver's Newton iteration
        # early, which moves the exact flux's result and the exact profile
        # a run is scored on: the Sod-200 density RMSE, 0.0079794262867,
        # leaves the seed table's 0.00797942617047 by more than the
        # benchmark's rtol of 1e-8
        ("riemann", "NEWTON_RTOL = 1e-12\n", "NEWTON_RTOL = 1e-3\n"),
        # A square root of -1 warns once per run; and where np is numpy
        # itself, not the counter's stand-in, cell 0's density is doubled,
        # which moves only the timed runs: a negative control of the check
        # of the counted runs against the first timed rep
        ("solver", march, "    np.sqrt(-1.0)\n    if isinstance(np, type(math)):\n        q[0, 1] *= 2.0\n" + march),
        # Lax-Friedrichs's flux is NaN where dx < 1e-3, so its sod20k-bulk
        # run fails on the change side alone, and no pinned count is lost
        ("fluxes", "    return _central_flux(faces, speed, g)\n",
         "    flux = _central_flux(faces, speed, g)\n    return flux * np.nan if dx < 1e-3 else flux\n"),
    ):
        path = change / "sodbench" / f"{module}.py"
        assert path.read_text().count(old) == 1
        path.write_text(path.read_text().replace(old, new))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return compare(ROOT / "src", change, ("sod200-sweep", "toro-suite/test2", "sod20k-bulk"))


def test_ab_sweep_same_tree_counts_equal_ops(same_tree):
    (name, bulk), = same_tree.suites.items()
    assert name == "sod20k-bulk"
    tallies = (bulk.runs, bulk.skipped, bulk.differ, bulk.scores_differ, len(bulk.records), bulk.change)
    assert tallies == (22, 0, 0, 0, 22, [0.0, 0.0])
    assert (bulk.moved, bulk.failing, bulk.profiles_differ) == ([], [0, 0], False)
    assert bulk.warned[0] == bulk.warned[1]
    # no method's count differs, and every timed run of the first rep gave
    # its counted run's bytes
    assert all(r.ops()[0] == r.ops()[1] and r.drifted == [] for r in bulk.records)
    assert bulk.ops()[0] == bulk.ops()[1] and bulk.layers()[0] == bulk.layers()[1]
    assert_pinned_ops(name, bulk, 0)
    assert all(p == c for p, c in bulk.slow_calls().values())
    assert len(same_tree.waves) == 6 and all(p == c for p, c in same_tree.waves)
    # every method has a ratio, lowest first
    by_ratio = same_tree.method_ratios()
    assert sorted(m for _, m in by_ratio) == sorted(m.value for m in FluxMethod)
    assert by_ratio == sorted(by_ratio)

    # The printed lines, from these values
    total, layers = PINNED_OPS[name]
    layers = ", ".join(f"{k} {n:.2f}" for k, n in zip(AB_SWEEP.LAYERS, layers))
    scalar, strided = (f"{p:.2f} -> {p:.2f}" for p, _ in bulk.slow_calls().values())
    assert AB_SWEEP.render(same_tree) == [
        f"{name}: final cells differ in 0 of 22 runs (0 failing on both sides skipped)"
        f"; scores differ in 0 of 22 runs; median ratio change/parent {median_ratio(bulk.records):.4f}"
        "; largest change of final cells 0.00e+00 absolute, 0.00e+00 relative",
        *summary_lines(same_tree, 0, 0),
        f"{name} numpy ops per step over 22 methods: parent {total:.2f}, change {total:.2f}"
        "; by method: " + ", ".join(f"{r.method} {r.ops()[0]:.3f}" for r in bulk.records),
        f"{name} numpy ops per step by layer: parent {layers}; change {layers}",
        f"{name} slow-path calls per step: Python scalar operand {scalar}; strided or mixed-shape operands {strided}",
    ]


def test_ab_sweep_counts_what_a_change_moves(joint, same_tree):
    sod, toro, bulk = joint.suites.values()
    assert_pinned_ops("sod200-sweep", sod, 0)
    assert_pinned_ops("toro-suite/test2", toro, 0)
    assert {r.method: r.ops()[0] for r in sod.records} == SOD200_METHOD_OPS
    assert tuple(round(p, 2) for p, _ in sod.slow_calls().values()) == SOD200_SLOW_CALLS
    # Only the exact flux's final cells move (Toro 2's six pinned deaths are
    # skipped), but the moved profiles move every Sod score, and Sod-200's
    # exact run fails its check.  The NaN flux kills sod20k-bulk's
    # Lax-Friedrichs run on the change side: it counts as differing, and its
    # scores, times and operations are left out
    tallies = [(s.runs, s.skipped, s.differ, s.scores_differ, len(s.records)) for s in (sod, toro, bulk)]
    assert tallies == [(22, 0, 1, 22, 22), (22, 6, 1, 1, 16), (22, 0, 2, 21, 21)]
    assert [r.method for s in (sod, toro, bulk) for r in s.records if r.stamps[0] != r.stamps[1]] == ["riemann"] * 3
    assert [(s.moved, s.warned, s.failing, s.profiles_differ) for s in (sod, toro, bulk)] == [
        ([], [0, 22], [0, 1], True), ([], [0, 22], [0, 0], False), ([], [0, 22], [0, 0], True)
    ]
    assert min(sod.change) > 0.0 and sum(p != c for p, c in joint.waves) == 3
    same = same_tree.suites["sod20k-bulk"].records
    assert {r.method: r.ops()[0] for r in bulk.records} == {r.method: r.ops()[0] for r in same if r.method != "lf"}
    for r in sod.records + toro.records + bulk.records:
        # Every timed run of the change differs from its counted run
        assert r.drifted == ["change"]
        # Fewer Newton iterations are fewer operations of the exact flux;
        # the square root adds one operation to each run of every method
        before, after = (sum(c.values()) for c in r.counts)
        assert after < before if r.method == "riemann" else after == before + 1, r.method


def test_ab_sweep_renders_what_a_change_moves(joint):
    # The parts of the lines that only a change prints: the warnings and
    # failed checks, the moved counts, and the runs that drifted
    lines = [
        f"{name}: final cells differ in {s.differ} of {s.runs - s.skipped} runs ({s.skipped} failing on both sides"
        f" skipped); scores differ in {s.scores_differ} of {len(s.records)} runs; median ratio change/parent"
        f" {median_ratio(s.records):.4f}; largest change of final cells {s.change[0]:.2e} absolute,"
        f" {s.change[1]:.2e} relative; warnings differ: parent 0, change 22"
        + ("; workload check fails: parent 0, change 1" if name == "sod200-sweep" else "")
        for name, s in joint.suites.items()
    ]
    lines += summary_lines(joint, 3, 2)
    for name, s in joint.suites.items():
        lines += [
            "{} numpy ops per step over {} methods: parent {:.2f}, change {:.2f}".format(name, len(s.records), *s.ops())
            + "; by method: " + ", ".join("{} {:.3f} -> {:.3f}".format(r.method, *r.ops()) for r in s.records)
            + "; counted runs differ: " + ", ".join(f"{r.method} (change)" for r in s.records),
            f"{name} numpy ops per step by layer: " + "; ".join(
                f"{side} " + ", ".join(f"{k} {counts[k]:.2f}" for k in AB_SWEEP.LAYERS)
                for side, counts in zip(AB_SWEEP.SIDES, s.layers())
            ),
            "{} slow-path calls per step: Python scalar operand {:.2f} -> {:.2f}"
            "; strided or mixed-shape operands {:.2f} -> {:.2f}".format(name, *sum(s.slow_calls().values(), [])),
        ]
    assert AB_SWEEP.render(joint) == lines


def test_ab_sweep_rejects_its_arguments_before_comparing(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        AB_SWEEP.main([str(ROOT), str(ROOT), "--reps", "0"])
    assert exc.value.code == 2 and "--reps must be at least 1" in capsys.readouterr().err
    with pytest.raises(SystemExit, match=re.escape(f"no sodbench package under {tmp_path} or {tmp_path}/src")):
        AB_SWEEP.main([str(tmp_path), str(ROOT)])


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
