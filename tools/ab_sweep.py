"""Paired in-process timing of the 22-method sweeps on two source trees.

    python3 tools/ab_sweep.py PARENT_SRC CHANGE_SRC [--reps N] [--ops]

Each SRC is a checkout root or its ``src`` directory.  The two ``sodbench``
packages are copied into one temporary directory as ``sodbench_parent`` and
``sodbench_change`` and imported into this process.  The suites are the
benchmark's workloads: ``sod200-sweep``, ``sod20k-bulk``, and ``toro-suite``
split by Toro's test into ``toro-suite/test1`` .. ``toro-suite/test5``.
``perfbench/workloads.py`` is executed once per side with ``sodbench``
bound to the side's package, so each side builds the runs (a Toro test's dt
included), their exact references and checks from its own tree.

One untimed pass runs every method of every suite once on each side.  A run
that fails on both sides with the same error (Toro's 13 pinned failures) is
skipped.  A run whose error, or whose final cells, time or Courant maximum
compared byte for byte, differ between the sides is counted as differing,
and is timed only if it completes on both.  The pass also counts each side's
``RuntimeWarning``s per suite, every occurrence, so that a change which
computes on cells the parent never reached shows even when its results
agree, and each side's minor page faults (``getrusage``) around each run and
around its scoring, so that an allocation change shows next to the op
counts.  A run is scored and checked as ``perfbench`` does it: the
workload's check of ``bench.rmse`` against its side's exact reference.  Over
the runs that complete on both sides, the two sides' RMSE triples are
compared byte for byte, and the largest absolute change of a final cell is
kept, and the largest relative one: a conserved row's largest change over
that row's largest magnitude on the parent side.
After that, each rep runs every timed run once on each side, back to back,
and alternates the side that goes first from run to run and from rep to
rep.  A side's sweep time is the sum of its run times in a rep.  The script
prints, per suite, how many runs differ or were skipped, in how many of the
runs that complete on both sides the scores differ, the median of the
per-rep ratio change/parent, the two largest changes, which fields differ
between the sides if any do, the two warning counts if they differ, and
each side's count of completed runs that fail their workload's check if
either is not 0.  Then it prints in how many of the workloads' six Riemann
problems (Sod's and Toro's 1-5) the exact solver's wave report
(``bench.wave_report``'s lines, or its error) differs, in how many suites
the two sides' exact profiles (positions and values, compared byte for
byte) differ, each side's median sweep over the suites, and the median, min
and max of that ratio.
Then it prints every method's median ratio, lowest first, each method's
time summed over all suites in a rep, so that a change shows where its
saving lands.  Last, it prints per suite each side's minor page faults per
run of the untimed pass, in the solve and in the scoring.  These follow the
heap's history in the one process as much as the code: a same-tree run read
44.5 + 3.5 per ``sod20k-bulk`` run on the parent side, 0.0 + 5.3 on the
change side.

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
import importlib.util
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
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
# The suites to run, by name; None runs all seven
SUITES = None


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


def side_suites(package) -> tuple[dict, list]:
    """One side's suites, built by ``perfbench/workloads.py`` from the side's
    own package: suite -> (its workload, its runs), a Toro test's runs being
    a suite of their own; and the Riemann problems of the workloads'
    references, each once.  While the script runs, ``sodbench`` and its
    submodules are the package's in sys.modules; what was there is restored."""
    name = f"workloads_{package.__name__}"
    spec = importlib.util.spec_from_file_location(name, WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    bound = {
        "sodbench" + k.removeprefix(package.__name__): m
        for k, m in list(sys.modules.items()) if k.partition(".")[0] == package.__name__
    }
    bound[name] = module  # dataclasses look their module up
    saved = {k: sys.modules.get(k) for k in bound}
    sys.modules.update(bound)
    try:
        spec.loader.exec_module(module)
        workloads = [factory() for factory in module.FACTORIES.values()]
    finally:
        for k in saved:
            del sys.modules[k]
        sys.modules.update({k: m for k, m in saved.items() if m is not None})
    suites = {}
    for workload in workloads:
        for run in workload.runs:
            test = run.label.rpartition("/")[0]
            suite = f"{workload.name}/{test}" if test else workload.name
            suites.setdefault(suite, (workload, []))[1].append(run)
    problems = dict.fromkeys(call[0] for workload in workloads for call in workload.reference_calls)
    return suites, list(problems)


def wave_lines(package, problem):
    """The lines of one side's wave report of a problem, or its error."""
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

        def timed(cfg, side: int):
            start = time.perf_counter()
            try:
                final = packages[side].run(cfg)
            except packages[side].SodbenchError as exc:
                return time.perf_counter() - start, (type(exc).__name__, str(exc))
            return time.perf_counter() - start, final

        def minor_faults():
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

        def counted_run(run, side: int, workload):
            # The untimed pass: the result, its scores, the RuntimeWarnings it
            # raised, the minor page faults its solve and its scoring took, and
            # whether it fails its workload's check
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                start = minor_faults()
                result = timed(run.cfg, side)[1]
                solved = minor_faults()
            scores, scored, failed = None, solved, False
            if not isinstance(result, tuple):
                scores = packages[side].rmse(result.primitives(run.cfg.gas), run.reference.w)
                scored = minor_faults()
                failed = workload.check(run, result, scores) is not None
            warned = sum(issubclass(w.category, RuntimeWarning) for w in caught)
            return result, scores, warned, (solved - start, scored - solved), failed

        def stamp(final):
            # Bytes, so that -0.0 and 0.0 (equal under !=) count as differing
            return final.cells.tobytes() + np.array([final.time, final.max_courant_observed]).tobytes()

        def ops_per_step(cfg, side: int, final):
            # One more run with numpy counted, checked against the uncounted
            # one; its operations per step by layer
            COUNTER.ops = Counter()
            with counting(packages[side]), warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                result = timed(cfg, side)[1]
            same = not isinstance(result, tuple) and stamp(result) == stamp(final)
            steps = packages[side].solver.step_count(cfg)
            by_layer = {layer: n / steps for layer, n in COUNTER.ops.items()}
            return sum(COUNTER.ops.values()) / steps, by_layer, same

        suite_sides, problem_sides = zip(*(side_suites(p) for p in packages))
        suites = list(suite_sides[0]) if SUITES is None else list(SUITES)
        # suite -> (config pairs, runs compared, runs that differ, runs
        # skipped, fields that differ, largest absolute and relative change of
        # final cells, each side's RuntimeWarnings and runs failing the check)
        kept = {}
        # suite -> each side's minor page faults over the untimed pass, in the
        # solves and in the scoring
        faulted = {}
        # suite -> method -> each side's operations per step, in all and by
        # layer, and the counted runs that differ from their uncounted one
        ops, layer_ops = {suite: {} for suite in suites}, {suite: {} for suite in suites}
        ops_differ = {suite: [] for suite in suites}
        # suites whose two exact profiles are not byte for byte the same
        profiles_differ = 0
        for suite in suites:
            workloads = [sides[suite][0] for sides in suite_sides]
            run_pairs = list(zip(*(sides[suite][1] for sides in suite_sides)))
            # The configuration fields that differ between the sides (a Toro
            # test's dt comes from each side's exact solver): a suite's runs
            # share all but the method, and reprs compare the sides' classes
            cfgs = [vars(r.cfg) for r in run_pairs[0]]
            moved = [k for k in cfgs[0] if repr(cfgs[0][k]) != repr(cfgs[1][k])]
            pairs, differ, skipped, change, warned, failing = [], 0, 0, [0.0, 0.0], [0, 0], [0, 0]
            scores_differ = 0
            faulted[suite] = [[0, 0], [0, 0]]
            stamps = [r.reference.x.tobytes() + r.reference.w.tobytes() for r in run_pairs[0]]
            profiles_differ += stamps[0] != stamps[1]
            for run_pair in run_pairs:
                pair = [r.cfg for r in run_pair]
                results, scores = [], []
                for side, run in enumerate(run_pair):
                    result, score, count, faults, fails_check = counted_run(run, side, workloads[side])
                    results.append(result)
                    scores.append(score)
                    warned[side] += count
                    failing[side] += fails_check
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
                # Bytes, as in stamp
                scores_differ += np.array(scores[0]).tobytes() != np.array(scores[1]).tobytes()
                parent, gap = results[0].cells, np.abs(results[1].cells - results[0].cells)
                change[0] = max(change[0], float(gap.max()))
                change[1] = max(change[1], float((gap.max(axis=1) / np.abs(parent).max(axis=1)).max()))
                pairs.append(pair)
                if args.ops:
                    method = pair[0].method.value
                    counts = [ops_per_step(cfg, side, results[side]) for side, cfg in enumerate(pair)]
                    ops[suite][method] = [count for count, _, _ in counts]
                    layer_ops[suite][method] = [by_layer for _, by_layer, _ in counts]
                    ops_differ[suite] += [f"{method} ({SIDES[side]})" for side, (*_, same) in enumerate(counts) if not same]
            kept[suite] = (pairs, len(run_pairs), differ, skipped, scores_differ, moved, change, warned, failing)
        reports = [[wave_lines(p, problem) for p, problem in zip(packages, pair)] for pair in zip(*problem_sides)]

        sweeps = {suite: [[0.0] * args.reps for _ in SIDES] for suite in suites}
        by_method = {method: [[0.0] * args.reps for _ in SIDES] for method in methods}
        for rep in range(args.reps):
            i = 0
            for suite, (pairs, *_) in kept.items():
                for pair in pairs:
                    first = (i + rep) % 2
                    for side in (first, 1 - first):
                        elapsed = timed(pair[side], side)[0]
                        sweeps[suite][side][rep] += elapsed
                        by_method[pair[0].method.value][side][rep] += elapsed
                    i += 1

    def ratios(times):
        return [c / p for p, c in zip(*times)]

    for suite, (pairs, n_runs, differ, skipped, scores_differ, moved, change, warned, failing) in kept.items():
        ratio = f"{statistics.median(ratios(sweeps[suite])):.4f}" if pairs else "n/a"
        print(
            f"{suite}: final cells differ in {differ} of {n_runs - skipped} runs"
            f" ({skipped} failing on both sides skipped); scores differ in {scores_differ} of {len(pairs)} runs"
            f"; median ratio change/parent {ratio}"
            f"; largest change of final cells {change[0]:.2e} absolute, {change[1]:.2e} relative"
            + (f"; fields differ: {', '.join(moved)}" if moved else "")
            + (f"; warnings differ: parent {warned[0]}, change {warned[1]}" if warned[0] != warned[1] else "")
            + (f"; workload check fails: parent {failing[0]}, change {failing[1]}" if any(failing) else "")
        )
    differ = sum(parent != change for parent, change in reports)
    print(f"wave reports differ in {differ} of {len(reports)} problems")
    print(f"exact profiles differ in {profiles_differ} of {len(suites)} suites")
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
        n_runs = kept[suite][1]
        per_run = [f"{SIDES[i]} {solve / n_runs:.1f} + {scoring / n_runs:.1f}" for i, (solve, scoring) in enumerate(sides)]
        print(f"{suite} minor page faults per run over {n_runs} runs, solve + scoring: {', '.join(per_run)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
