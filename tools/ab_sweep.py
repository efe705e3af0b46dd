"""Paired in-process timing of the 22-method sweeps on two source trees.

    python3 tools/ab_sweep.py PARENT_SRC CHANGE_SRC [--reps N] [--ops]

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
and is timed only if it completes on both.  The pass also counts each side's
``RuntimeWarning``s per suite, every occurrence, so that a change which
computes on cells the parent never reached shows even when its results
agree, and each side's minor page faults (``getrusage``) around each run and
around its scoring, so that an allocation change shows next to the op
counts.  A run is scored as ``perfbench`` scores it: ``bench.rmse`` of its
final primitives against the exact profile on its grid, built once per
suite from the side's own tree.  Over the runs that complete on both sides,
the largest absolute change of a final cell is kept, and the largest
relative one: a conserved row's largest change over that row's largest
magnitude on the parent side.
After that, each rep runs every timed run once on each side, back to back,
and alternates the side that goes first from run to run and from rep to
rep.  A side's sweep time is the sum of its run times in a rep.  The script
prints, per suite, how many runs differ or were skipped, the median of the
per-rep ratio change/parent, the two largest changes, which fields differ
between the sides if any do, and the two warning counts if they differ.
Then it prints in how many of six problems (Sod's and Toro's 1-5) the exact
solver's wave report (``bench.wave_report``'s lines, or its error) differs,
in how many suites the two sides' exact profiles (positions and values,
compared byte for byte) differ, each side's median sweep over all seven
suites, and the median, min and max of that ratio.
Then it prints every method's median ratio, lowest first, each method's
time summed over all suites in a rep, so that a change shows where its
saving lands.  Last, it prints per suite each side's minor page faults per
run of the untimed pass, in the solve and in the scoring.

With ``--ops`` the untimed pass also runs each timed run once more per side
with its numpy operations counted, and prints per suite each side's
operations per step summed over the methods, and each method whose count
differs.  An operation is one call of a numpy function or ufunc (a method
such as ``reduce`` included) that the package makes, or one ufunc or
array-function call on an array the package computed (``a * b``,
``x.max()``); calls made inside a counted one do not count again.  The
count divides by the run's steps, so set-up is spread over them.  A counted
run whose result is not byte for byte that of the uncounted one is named.
Each operation also counts toward the layer that made it: the package module
(``solver``, ``gas``, ``muscl``, ``fluxes``, ``riemann``) of the innermost
package frame on the stack at the call.  A second line per suite gives each
side's operations per step by layer, summed over the methods, so the exact
flux's own ``riemann`` operations are read off it.

The host's speed drifts by tens of percent from one process to the next,
while pairing run by run inside one process reads a gain within a few
percent.  This sizes a change; ``perfbench/run.py`` is what measures it.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
# Toro, Riemann Solvers and Numerical Methods for Fluid Dynamics (3rd ed.),
# Table 4.1: left and right (rho, u, p), initial jump position, final time.
# Plain tuples, since each side's states are built from its own tree's
# classes; tests/test_solver.py holds them and the dt rule below equal to
# perfbench/workloads.py's.
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


LAYERS = ("solver", "gas", "muscl", "fluxes", "riemann")


class OpCounter:
    """Counts operations by layer, the module of the innermost frame of the
    counted package; a call made inside a counted one is not counted."""

    def __init__(self):
        self.ops = Counter()
        self.depth = 0
        self.package = ""

    def layer(self) -> str:
        prefix = self.package + "."
        frame = sys._getframe(2)
        while frame is not None:
            name = frame.f_globals.get("__name__", "")
            if name.startswith(prefix):
                return name.removeprefix(prefix)
            frame = frame.f_back
        return "outside"

    @contextlib.contextmanager
    def op(self):
        if self.depth == 0:
            self.ops[self.layer()] += 1
        self.depth += 1
        try:
            yield
        finally:
            self.depth -= 1


COUNTER = OpCounter()


def plain(x):
    return x.view(np.ndarray) if isinstance(x, Counted) else x


def marked(result):
    """The arrays of a result as Counted views, so that what is computed
    from them counts too."""
    if isinstance(result, tuple):
        return tuple(marked(r) for r in result)
    return result.view(Counted) if type(result) is np.ndarray else result


class Counted(np.ndarray):
    """An array whose ufunc and array-function calls count."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        out = kwargs.get("out")
        with COUNTER.op():
            if out is not None:
                kwargs["out"] = tuple(map(plain, out))
            if "where" in kwargs:
                kwargs["where"] = plain(kwargs["where"])
            result = getattr(ufunc, method)(*map(plain, inputs), **kwargs)
        if out is not None:
            return out[0] if len(out) == 1 else out
        return marked(result)

    def __array_function__(self, func, types, args, kwargs):
        with COUNTER.op():
            result = super().__array_function__(func, types, args, kwargs)
        return marked(result)


def counted_call(f):
    def call(*args, **kwargs):
        with COUNTER.op():
            result = f(*args, **kwargs)
        return marked(result)

    return call


class CountedUfunc:
    """A ufunc whose calls, and calls of its methods, count."""

    def __init__(self, ufunc):
        self._ufunc = ufunc

    def __call__(self, *args, **kwargs):
        return counted_call(self._ufunc)(*args, **kwargs)

    def __getattr__(self, name):
        attr = getattr(self._ufunc, name)
        return counted_call(attr) if callable(attr) else attr


class CountedNumpy:
    """Stands for numpy in a module: its functions and ufuncs count."""

    def __getattr__(self, name):
        attr = getattr(np, name)
        if isinstance(attr, np.ufunc):
            return CountedUfunc(attr)
        if callable(attr) and not isinstance(attr, type):
            return counted_call(attr)
        return attr


@contextlib.contextmanager
def counting(package):
    """Numpy counted in every module of the package while the block runs."""
    modules = [
        m for name, m in list(sys.modules.items())
        if name.startswith(package.__name__ + ".") and getattr(m, "np", None) is np
    ]
    for m in modules:
        m.np = CountedNumpy()
    COUNTER.package = package.__name__
    try:
        yield
    finally:
        for m in modules:
            m.np = np


def reference_profile(package, cfg):
    """The exact profile a run of ``cfg`` is scored against."""
    problem = package.RiemannInput(cfg.left, cfg.right, cfg.gas)
    return package.exact_profile(problem, cfg.grid.centers(), cfg.jump_position, cfg.t_final)


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
    parser.add_argument("--ops", action="store_true", help="count numpy operations per step")
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
            return time.perf_counter() - start, final

        def minor_faults():
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

        def counted_run(cfg, side: int, reference):
            # The untimed pass: the result, the RuntimeWarnings it raised and
            # the minor page faults its solve and its scoring took
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                start = minor_faults()
                result = run(cfg, side)[1]
                solved = minor_faults()
            scored = solved
            if not isinstance(result, tuple):
                packages[side].rmse(result.primitives(cfg.gas), reference.w)
                scored = minor_faults()
            warned = sum(issubclass(w.category, RuntimeWarning) for w in caught)
            return result, warned, (solved - start, scored - solved)

        def stamp(final):
            # Bytes, so that -0.0 and 0.0 (equal under !=) count as differing
            return final.cells.tobytes() + np.array([final.time, final.max_courant_observed]).tobytes()

        def ops_per_step(cfg, side: int, final):
            # One more run with numpy counted, checked against the uncounted
            # one; its operations per step by layer
            COUNTER.ops = Counter()
            with counting(packages[side]), warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                result = run(cfg, side)[1]
            same = not isinstance(result, tuple) and stamp(result) == stamp(final)
            steps = packages[side].solver.step_count(cfg)
            by_layer = {layer: n / steps for layer, n in COUNTER.ops.items()}
            return sum(COUNTER.ops.values()) / steps, by_layer, same

        # suite -> (config pairs, runs that differ, runs skipped, fields that
        # differ, largest absolute and relative change of final cells, each
        # side's RuntimeWarnings)
        kept = {}
        # suite -> each side's minor page faults over the untimed pass, in the
        # solves and in the scoring
        faulted = {}
        # suite -> method -> each side's operations per step, in all and by
        # layer, and the counted runs that differ from their uncounted one
        ops, layer_ops = {suite: {} for suite in SUITES}, {suite: {} for suite in SUITES}
        ops_differ = {suite: [] for suite in SUITES}
        # suites whose two exact profiles are not byte for byte the same
        profiles_differ = 0
        for suite in SUITES:
            fields = [suite_fields(p, suite) for p in packages]
            moved = [k for k in {**fields[0], **fields[1]} if fields[0].get(k) != fields[1].get(k)]
            pairs, differ, skipped, change, warned = [], 0, 0, [0.0, 0.0], [0, 0]
            faulted[suite] = [[0, 0], [0, 0]]
            references = [
                reference_profile(p, side_config(p, f, methods[0])) for p, f in zip(packages, fields)
            ]
            stamps = [r.x.tobytes() + r.w.tobytes() for r in references]
            profiles_differ += stamps[0] != stamps[1]
            for method in methods:
                pair = [side_config(p, f, method) for p, f in zip(packages, fields)]
                results = []
                for side, cfg in enumerate(pair):
                    result, count, faults = counted_run(cfg, side, references[side])
                    results.append(result)
                    warned[side] += count
                    for k, n in enumerate(faults):
                        faulted[suite][side][k] += n
                failed = [isinstance(r, tuple) for r in results]
                if all(failed) and results[0] == results[1]:
                    skipped += 1
                    continue
                if any(failed):
                    differ += 1
                    continue
                if stamp(results[0]) != stamp(results[1]):
                    differ += 1
                parent, gap = results[0].cells, np.abs(results[1].cells - results[0].cells)
                change[0] = max(change[0], float(gap.max()))
                change[1] = max(change[1], float((gap.max(axis=1) / np.abs(parent).max(axis=1)).max()))
                pairs.append(pair)
                if args.ops:
                    counts = [ops_per_step(cfg, side, results[side]) for side, cfg in enumerate(pair)]
                    ops[suite][method] = [count for count, _, _ in counts]
                    layer_ops[suite][method] = [by_layer for _, by_layer, _ in counts]
                    ops_differ[suite] += [f"{method} ({SIDES[side]})" for side, (*_, same) in enumerate(counts) if not same]
            kept[suite] = (pairs, differ, skipped, moved, change, warned)
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

    for suite, (pairs, differ, skipped, moved, change, warned) in kept.items():
        ratio = f"{statistics.median(ratios(sweeps[suite])):.4f}" if pairs else "n/a"
        print(
            f"{suite}: final cells differ in {differ} of {len(methods) - skipped} runs"
            f" ({skipped} failing on both sides skipped); median ratio change/parent {ratio}"
            f"; largest change of final cells {change[0]:.2e} absolute, {change[1]:.2e} relative"
            + (f"; fields differ: {', '.join(moved)}" if moved else "")
            + (f"; warnings differ: parent {warned[0]}, change {warned[1]}" if warned[0] != warned[1] else "")
        )
    differ = sum(parent != change for parent, change in reports)
    print(f"wave reports differ in {differ} of {len(reports)} problems")
    print(f"exact profiles differ in {profiles_differ} of {len(SUITES)} suites")
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
    print("method median ratio change/parent: " + ", ".join(f"{m} {r:.4f}" for r, m in by_ratio))
    if args.ops:
        for suite, by_method_ops in ops.items():
            total = [sum(counts[side] for counts in by_method_ops.values()) for side in (0, 1)]
            moved = [f"{m} {p:.2f} -> {c:.2f}" for m, (p, c) in by_method_ops.items() if p != c]
            print(
                f"{suite} numpy ops per step over {len(by_method_ops)} methods:"
                f" parent {total[0]:.2f}, change {total[1]:.2f}"
                + (f"; by method: {', '.join(moved)}" if moved else "")
                + (f"; counted runs differ: {', '.join(ops_differ[suite])}" if ops_differ[suite] else "")
            )
            by_layer = [Counter() for _ in SIDES]
            for sides in layer_ops[suite].values():
                for side, layers in enumerate(sides):
                    by_layer[side].update(layers)
            # a layer outside the five (a new module, or "outside") is listed too
            names = [*LAYERS, *sorted({k for c in by_layer for k in c} - set(LAYERS))]
            print(
                f"{suite} numpy ops per step by layer: "
                + "; ".join(
                    f"{name} " + ", ".join(f"{layer} {counts[layer]:.2f}" for layer in names)
                    for name, counts in zip(SIDES, by_layer)
                )
            )
    for suite, sides in faulted.items():
        per_run = [f"{SIDES[i]} {solve / len(methods):.1f} + {scoring / len(methods):.1f}" for i, (solve, scoring) in enumerate(sides)]
        print(f"{suite} minor page faults per run over {len(methods)} runs, solve + scoring: {', '.join(per_run)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
