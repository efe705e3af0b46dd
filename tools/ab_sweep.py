"""Paired in-process timing of the 22-method sweeps on two source trees.

    python3 tools/ab_sweep.py PARENT_SRC CHANGE_SRC [--reps N]

Each SRC is a checkout root or its ``src`` directory.  The two ``sodbench``
packages are copied into one temporary directory as ``sodbench_parent`` and
``sodbench_change`` and imported into this process.  A suite is Sod's
problem at 200 cells (``sod200``, the paper's table), Sod's problem at 20 000
cells for 20 steps of dt = 0.4 dx / 2 (``sod20k``, as ``perfbench``'s
``sod20k-bulk``), or one of Toro's tests 1-5 (``toro1`` .. ``toro5``) at 200
cells, with dt from Courant 0.4 on the exact solution's fastest wave,
shortened so that the final time is a whole number of steps.  Each side
takes a suite's fields, that dt too, from its own tree and runs with them.

One untimed pass runs every method of every suite once on each side.  A run
that fails on both sides with the same error (Toro's 13 pinned failures) is
skipped.  A run whose error, or whose final cells, time or Courant maximum
compared byte for byte, differ between the sides is counted as differing,
and is timed only if it completes on both.  After that, each rep runs every
timed run once on each side, back to back, and alternates the side that
goes first from run to run and from rep to rep.  A side's sweep time is the
sum of its run times in a rep.  The script prints, per suite, how many runs
differ or were skipped, the median of the per-rep ratio change/parent, and
which fields differ between the sides if any do.  Then it prints in how many
of six problems (Sod's and Toro's 1-5) the exact solver's wave report
(``bench.wave_report``'s lines, or its error) differs, each side's median
sweep over all seven suites, and the median, min and max of that ratio.
Last, it names the methods with the lowest and the highest median ratio,
each method's time summed over all suites in a rep.

The host's speed drifts by tens of percent from one process to the next,
while pairing run by run inside one process reads a gain within a few
percent.  This sizes a change; ``perfbench/run.py`` is what measures it.
"""

from __future__ import annotations

import argparse
import importlib
import math
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
# Toro, Riemann Solvers and Numerical Methods for Fluid Dynamics (3rd ed.),
# Table 4.1: left and right (rho, u, p), initial jump position, final time.
TORO_TESTS = {
    1: ((1.0, 0.75, 1.0), (0.125, 0.0, 0.1), 0.3, 0.2),
    2: ((1.0, -2.0, 0.4), (1.0, 2.0, 0.4), 0.5, 0.15),
    3: ((1.0, 0.0, 1000.0), (1.0, 0.0, 0.01), 0.5, 0.012),
    4: ((5.99924, 19.5975, 460.894), (5.99242, -6.19633, 46.0950), 0.4, 0.035),
    5: ((1.0, -19.59745, 1000.0), (1.0, -19.59745, 0.01), 0.8, 0.012),
}
SUITES = ("sod200", "sod20k") + tuple(f"toro{test}" for test in TORO_TESTS)
# Sod's states and Toro's, whose exact wave reports are compared
WAVE_PROBLEMS = [((1.0, 0.0, 1.0), (0.125, 0.0, 0.1))] + [t[:2] for t in TORO_TESTS.values()]
COURANT = 0.4
BULK_CELLS = 20_000
BULK_STEPS = 20


def package_dir(src: str) -> Path:
    for candidate in (Path(src) / "sodbench", Path(src) / "src" / "sodbench"):
        if (candidate / "__init__.py").is_file():
            return candidate
    raise SystemExit(f"no sodbench package under {src} or {src}/src")


def load(srcs: list[str], tmp: Path) -> list:
    """Import each tree's package under the side's name."""
    packages = []
    for side, src in zip(SIDES, srcs):
        name = f"sodbench_{side}"
        shutil.copytree(package_dir(src), tmp / name, ignore=shutil.ignore_patterns("__pycache__"))
        packages.append(importlib.import_module(name))
    return packages


def suite_fields(package, suite: str) -> dict:
    """The RunConfig fields of a suite other than the method, with states as
    (rho, u, p) tuples and the grid as its cell count; a Toro test's dt comes
    from the given tree's exact solver."""
    if suite == "sod200":
        return {}
    if suite == "sod20k":
        # dt from Courant 0.4 on a wave speed estimate of 2, as sod20k-bulk
        dt = COURANT * package.Grid1D(n_cells=BULK_CELLS).dx / 2.0
        return {"grid": BULK_CELLS, "dt": dt, "t_final": BULK_STEPS * dt}
    left, right, x0, t_final = TORO_TESTS[int(suite.removeprefix("toro"))]
    problem = package.RiemannInput(package.PrimitiveState(*left), package.PrimitiveState(*right))
    s = package.solve_star(problem).speeds
    s_max = max(abs(v) for v in (s.left_head, s.left_tail, s.contact, s.right_tail, s.right_head))
    dx = package.Grid1D().dx
    dt = t_final / math.ceil(t_final * s_max / (COURANT * dx))
    return {"left": left, "right": right, "jump_position": x0, "t_final": t_final, "dt": dt}


def wave_lines(package, states):
    """The lines of one side's wave report of a problem, or its error."""
    problem = package.RiemannInput(*(package.PrimitiveState(*w) for w in states))
    try:
        return package.wave_report(problem).lines()
    except package.SodbenchError as exc:
        return type(exc).__name__, str(exc)


def side_config(package, fields: dict, method: str):
    """The configuration built from one side's own classes."""
    values = dict(fields)
    for k in ("left", "right"):
        if k in values:
            values[k] = package.PrimitiveState(*values[k])
    if "grid" in values:
        values["grid"] = package.Grid1D(n_cells=values["grid"])
    return package.RunConfig(method=package.FluxMethod(method), **values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--reps", type=int, default=10, help="timed sweeps per side")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        packages = load([args.parent_src, args.change_src], Path(tmp))
        methods = [m.value for m in packages[0].FluxMethod]

        def run(cfg, side: int):
            start = time.perf_counter()
            try:
                final = packages[side].run(cfg)
            except packages[side].SodbenchError as exc:
                return time.perf_counter() - start, (type(exc).__name__, str(exc))
            elapsed = time.perf_counter() - start
            # Bytes, so that -0.0 and 0.0 (equal under !=) count as differing
            stamp = np.array([final.time, final.max_courant_observed])
            return elapsed, final.cells.tobytes() + stamp.tobytes()

        kept = {}  # suite -> (config pairs, runs that differ, runs skipped, fields that differ)
        for suite in SUITES:
            fields = [suite_fields(p, suite) for p in packages]
            moved = [k for k in {**fields[0], **fields[1]} if fields[0].get(k) != fields[1].get(k)]
            pairs, differ, skipped = [], 0, 0
            for method in methods:
                pair = [side_config(p, f, method) for p, f in zip(packages, fields)]
                results = [run(cfg, side)[1] for side, cfg in enumerate(pair)]
                failed = [isinstance(r, tuple) for r in results]
                if all(failed) and results[0] == results[1]:
                    skipped += 1
                    continue
                if results[0] != results[1]:
                    differ += 1
                if not any(failed):
                    pairs.append(pair)
            kept[suite] = (pairs, differ, skipped, moved)
        reports = [[wave_lines(p, problem) for p in packages] for problem in WAVE_PROBLEMS]

        sweeps = {suite: [[0.0] * args.reps for _ in SIDES] for suite in SUITES}
        by_method = {method: [[0.0] * args.reps for _ in SIDES] for method in methods}
        for rep in range(args.reps):
            i = 0
            for suite, (pairs, *_) in kept.items():
                for pair in pairs:
                    first = (i + rep) % 2
                    for side in (first, 1 - first):
                        elapsed = run(pair[side], side)[0]
                        sweeps[suite][side][rep] += elapsed
                        by_method[pair[0].method.value][side][rep] += elapsed
                    i += 1

    def ratios(times):
        return [c / p for p, c in zip(*times)]

    for suite, (pairs, differ, skipped, moved) in kept.items():
        ratio = f"{statistics.median(ratios(sweeps[suite])):.4f}" if pairs else "n/a"
        print(
            f"{suite}: final cells differ in {differ} of {len(methods) - skipped} runs"
            f" ({skipped} failing on both sides skipped); median ratio change/parent {ratio}"
            + (f"; fields differ: {', '.join(moved)}" if moved else "")
        )
    differ = sum(parent != change for parent, change in reports)
    print(f"wave reports differ in {differ} of {len(reports)} problems")
    total = [
        [sum(s[side][rep] for s in sweeps.values()) for rep in range(args.reps)] for side in (0, 1)
    ]
    for side, times in zip(SIDES, total):
        print(f"{side}: median sweep {statistics.median(times):.4f} s over {args.reps} reps")
    overall = ratios(total)
    print(
        f"ratio change/parent: median {statistics.median(overall):.4f}"
        f" min {min(overall):.4f} max {max(overall):.4f}"
    )
    # A method timed in no suite (it failed everywhere) has no ratio
    by_ratio = sorted(
        (statistics.median(ratios(times)), method) for method, times in by_method.items() if times[0][0]
    )
    print(
        f"method median ratio change/parent: lowest {by_ratio[0][1]} {by_ratio[0][0]:.4f}"
        f", highest {by_ratio[-1][1]} {by_ratio[-1][0]:.4f}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
