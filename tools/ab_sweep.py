"""Paired in-process timing of the 22-method sweeps on two source trees.

    python3 tools/ab_sweep.py PARENT_SRC CHANGE_SRC [--reps N]

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
agree.  A run is scored and checked as ``perfbench`` does it: the
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
Last, it prints every method's median ratio, lowest first, each method's
time summed over all suites in a rep, so that a change shows where its
saving lands.  One rep cannot size a change: with ``--reps 1`` a same-tree
run read per-method ratios of 0.95 to 1.10.

The untimed pass also counts each run's numpy operations as the run makes
them, and the script prints per suite each side's operations per step
summed over the methods, and each method's count, as ``parent -> change``
where the two differ.  An operation is one call of a numpy function or
ufunc (a method such as ``reduce`` included) that the package makes, or one
ufunc or array-function call on an array the package computed or keeps at
module level (``a * b``, ``x.max()``, ``_SIGN * 0.25``); calls made inside a
counted one do not count again.  The count divides by the run's steps, so
set-up is spread over them.  The first timed rep checks the instrument: a
timed run whose result is not byte for byte that of its counted run is
named.
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
import dataclasses
import functools
import importlib.util
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

    def call(self, f, *args, **kwargs):
        """``f(*args, **kwargs)`` as one operation, its arrays returned as
        Counted views, so that what is computed from them counts too."""
        if self.depth == 0:
            self.ops[self.layer()] += 1
        self.depth += 1
        try:
            result = f(*args, **kwargs)
        finally:
            self.depth -= 1
        if isinstance(result, tuple):
            return tuple(r.view(Counted) if type(r) is np.ndarray else r for r in result)
        return result.view(Counted) if type(result) is np.ndarray else result


COUNTER = OpCounter()


def plain(x):
    return x.view(np.ndarray) if isinstance(x, Counted) else x


class Counted(np.ndarray):
    """An array whose ufunc and array-function calls count."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        out = kwargs.get("out")
        if out is not None:
            kwargs["out"] = tuple(map(plain, out))
        if "where" in kwargs:
            kwargs["where"] = plain(kwargs["where"])
        result = COUNTER.call(getattr(ufunc, method), *map(plain, inputs), **kwargs)
        if out is not None:
            return out[0] if len(out) == 1 else out
        return result

    def __array_function__(self, func, types, args, kwargs):
        return COUNTER.call(super().__array_function__, func, types, args, kwargs)


class CountedUfunc:
    """A ufunc whose calls, and calls of its methods, count."""

    def __init__(self, ufunc):
        self._ufunc = ufunc

    def __call__(self, *args, **kwargs):
        return COUNTER.call(self._ufunc, *args, **kwargs)

    def __getattr__(self, name):
        attr = getattr(self._ufunc, name)
        return functools.partial(COUNTER.call, attr) if callable(attr) else attr


class CountedNumpy:
    """Stands for numpy in a module: its functions and ufuncs count."""

    def __getattr__(self, name):
        attr = getattr(np, name)
        if isinstance(attr, np.ufunc):
            return CountedUfunc(attr)
        if callable(attr) and not isinstance(attr, type):
            return functools.partial(COUNTER.call, attr)
        return attr


@contextlib.contextmanager
def counting(package):
    """Numpy counted in every module of the package while the block runs,
    and each module-level array viewed as Counted; yields the counts by
    layer, which stop growing when the block ends."""
    modules = [m for name, m in list(sys.modules.items()) if name.startswith(package.__name__ + ".")]
    users = [m for m in modules if getattr(m, "np", None) is np]
    arrays = [(m, k, v) for m in modules for k, v in vars(m).items() if type(v) is np.ndarray]
    for m in users:
        m.np = CountedNumpy()
    for m, k, v in arrays:
        setattr(m, k, v.view(Counted))
    COUNTER.package, COUNTER.ops = package.__name__, Counter()
    try:
        yield COUNTER.ops
    finally:
        # What is computed later from the block's Counted arrays (a run's
        # scoring) counts into a counter that nothing reads
        COUNTER.ops = Counter()
        for m in users:
            m.np = np
        for m, k, v in arrays:
            setattr(m, k, v)


def timed(package, cfg):
    """The seconds one run takes on a side, and its final field or its
    error's type and message."""
    start = time.perf_counter()
    try:
        final = package.run(cfg)
    except package.SodbenchError as exc:
        return time.perf_counter() - start, (type(exc).__name__, str(exc))
    return time.perf_counter() - start, final


def untimed(package, run, workload):
    """The untimed pass of one run on a side: its result, its operations by
    layer, the RuntimeWarnings it raised, its scores, and whether it fails
    its workload's check."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        with counting(package) as counts:
            result = timed(package, run.cfg)[1]
    warned = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    scores, failed = None, False
    if not isinstance(result, tuple):
        scores = package.rmse(result.primitives(run.cfg.gas), run.reference.w)
        failed = workload.check(run, result, scores) is not None
    return result, counts, warned, scores, failed


def stamp(final) -> bytes:
    # Bytes, so that -0.0 and 0.0 (equal under !=) count as differing
    return final.cells.tobytes() + np.array([final.time, final.max_courant_observed]).tobytes()


@dataclasses.dataclass
class Record:
    """A run that completes on both sides, and so is timed.  Each list holds
    the parent's entry, then the change's: the configs, the counted runs'
    stamps, their operations by layer over the run, the steps, and the
    timed reps' seconds.  ``drifted`` names the sides whose first timed run
    is not byte for byte their counted one."""

    suite: str
    method: str
    cfgs: list
    stamps: list
    counts: list
    steps: list
    times: list = dataclasses.field(default_factory=lambda: [[], []])
    drifted: list = dataclasses.field(default_factory=list)


def summed(records) -> list:
    """Each side's time of the records, summed in each rep."""
    return [[sum(rep) for rep in zip(*(r.times[side] for r in records))] for side in (0, 1)]


def ratios(records) -> list:
    """The per-rep ratio change/parent of the records' summed times."""
    return [c / p for p, c in zip(*summed(records))]


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
        suite_sides, problem_sides = zip(*(side_suites(p) for p in packages))
        suites = list(suite_sides[0]) if SUITES is None else list(SUITES)
        kept = []
        # suite -> its line's text before and after the median ratio
        lines = {}
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
            differ, skipped, scores_differ, change, warned, failing = 0, 0, 0, [0.0, 0.0], [0, 0], [0, 0]
            profiles = [r.reference.x.tobytes() + r.reference.w.tobytes() for r in run_pairs[0]]
            profiles_differ += profiles[0] != profiles[1]
            records = []
            for run_pair in run_pairs:
                results, counts, n_warned, scores, fails_check = zip(
                    *(untimed(packages[side], run, workloads[side]) for side, run in enumerate(run_pair))
                )
                warned = [a + b for a, b in zip(warned, n_warned)]
                failing = [a + b for a, b in zip(failing, fails_check)]
                failed = [isinstance(r, tuple) for r in results]
                if all(failed) and results[0] == results[1]:
                    skipped += 1
                    continue
                if any(failed):
                    differ += 1
                    continue
                stamps = [stamp(r) for r in results]
                differ += stamps[0] != stamps[1]
                # Bytes, as in stamp
                scores_differ += np.array(scores[0]).tobytes() != np.array(scores[1]).tobytes()
                parent, gap = results[0].cells, np.abs(results[1].cells - results[0].cells)
                change[0] = max(change[0], float(gap.max()))
                change[1] = max(change[1], float((gap.max(axis=1) / np.abs(parent).max(axis=1)).max()))
                pair = [r.cfg for r in run_pair]
                steps = [packages[side].solver.step_count(cfg) for side, cfg in enumerate(pair)]
                records.append(Record(suite, pair[0].method.value, pair, stamps, counts, steps))
            kept += records
            lines[suite] = (
                f"{suite}: final cells differ in {differ} of {len(run_pairs) - skipped} runs"
                f" ({skipped} failing on both sides skipped)"
                f"; scores differ in {scores_differ} of {len(records)} runs",
                f"; largest change of final cells {change[0]:.2e} absolute, {change[1]:.2e} relative"
                + (f"; fields differ: {', '.join(moved)}" if moved else "")
                + (f"; warnings differ: parent {warned[0]}, change {warned[1]}" if warned[0] != warned[1] else "")
                + (f"; workload check fails: parent {failing[0]}, change {failing[1]}" if any(failing) else ""),
            )
        reports = [[wave_lines(p, problem) for p, problem in zip(packages, pair)] for pair in zip(*problem_sides)]

        for rep in range(args.reps):
            for i, record in enumerate(kept):
                first = (i + rep) % 2
                finals = [None, None]
                for side in (first, 1 - first):
                    elapsed, finals[side] = timed(packages[side], record.cfgs[side])
                    record.times[side].append(elapsed)
                if rep == 0:
                    record.drifted = [
                        name
                        for name, final, counted in zip(SIDES, finals, record.stamps)
                        if isinstance(final, tuple) or stamp(final) != counted
                    ]

    by_suite = {suite: [r for r in kept if r.suite == suite] for suite in suites}
    for suite, (before, after) in lines.items():
        ratio = f"{statistics.median(ratios(by_suite[suite])):.4f}" if by_suite[suite] else "n/a"
        print(f"{before}; median ratio change/parent {ratio}{after}")
    differ = sum(parent != change for parent, change in reports)
    print(f"wave reports differ in {differ} of {len(reports)} problems")
    print(f"exact profiles differ in {profiles_differ} of {len(suites)} suites")
    total = summed(kept)
    for side, times in zip(SIDES, total):
        print(f"{side}: median sweep {statistics.median(times):.4f} s over {args.reps} reps")
    overall = ratios(kept)
    print(
        f"ratio change/parent: median {statistics.median(overall):.4f}"
        f" min {min(overall):.4f} max {max(overall):.4f}"
    )
    # Each method's time summed over the suites; a method timed in no suite
    # (it failed everywhere) has no ratio
    by_method = {}
    for record in kept:
        by_method.setdefault(record.method, []).append(record)
    by_ratio = sorted((statistics.median(ratios(records)), method) for method, records in by_method.items())
    print("method median ratio change/parent: " + ", ".join(f"{m} {r:.4f}" for r, m in by_ratio))
    for suite, records in by_suite.items():
        ops = [[sum(c.values()) / n for c, n in zip(r.counts, r.steps)] for r in records]
        total = [sum(counts[side] for counts in ops) for side in (0, 1)]
        each = [f"{r.method} {p:.3f}" + (f" -> {c:.3f}" if p != c else "") for r, (p, c) in zip(records, ops)]
        drifted = [f"{r.method} ({name})" for r in records for name in r.drifted]
        print(
            f"{suite} numpy ops per step over {len(records)} methods:"
            f" parent {total[0]:.2f}, change {total[1]:.2f}"
            + (f"; by method: {', '.join(each)}" if each else "")
            + (f"; counted runs differ: {', '.join(drifted)}" if drifted else "")
        )
        by_layer = [Counter() for _ in SIDES]
        for r in records:
            for side, (counts, n) in enumerate(zip(r.counts, r.steps)):
                by_layer[side].update({k: v / n for k, v in counts.items()})
        # a layer outside the five (a new module, or "outside") is listed too
        names = [*LAYERS, *sorted({k for c in by_layer for k in c} - set(LAYERS))]
        print(
            f"{suite} numpy ops per step by layer: "
            + "; ".join(
                f"{name} " + ", ".join(f"{layer} {counts[layer]:.2f}" for layer in names)
                for name, counts in zip(SIDES, by_layer)
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
