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
rep.  The reps ignore RuntimeWarnings, which the untimed pass counted, so
a comparison completes where warnings are errors.  A side's sweep time is
the sum of its run times in a rep.  The script
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
A third line per suite gives, as ``parent -> change``, the operations per
step that take one of numpy's slower paths, summed over the methods: those
with a Python int or float operand beside an array, and those with a
multi-dimensional array operand whose array operands (``out`` included) are
not all C-contiguous with one shape, a strided view or a broadcast.  At 200
cells an operation's cost is its overhead, and these two kinds of operand
raise it (a 0-d array operand does not), so this count shows where a change
of operands lands its saving.

``compare(parent_src, change_src, reps, suites=None)`` returns all this as
a ``Report``: each problem's two wave reports, and a ``Suite`` of tallies per
suite named (all seven by default), with a ``Record`` of operations and times
per timed run.  ``render`` makes the lines above from it, ``main`` prints
them.  ``compare`` unloads both packages, so a second call loads its own.

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


def slow_paths(args, out) -> tuple[bool, bool]:
    """Whether a call with the positional operands ``args`` and the output
    ``out`` (None, an array or a tuple of them) takes numpy's slower paths:
    a Python int or float operand beside an array, and, where an array
    operand is multi-dimensional, array operands that are not all
    C-contiguous with one shape (strided views, broadcasting).  A 0-d array
    is neither."""
    outs = out if isinstance(out, tuple) else (out,)
    arrays = [x for x in (*args, *outs) if isinstance(x, np.ndarray)]
    scalar = bool(arrays) and any(type(x) in (int, float) for x in args)
    shaped = [x for x in arrays if x.ndim]
    strided = any(x.ndim > 1 for x in shaped) and any(
        not x.flags.c_contiguous or x.shape != shaped[0].shape for x in shaped
    )
    return scalar, strided


class OpCounter:
    """Counts operations by layer, the module of the innermost frame of the
    counted package, and the operations that take a slow path (``slow``:
    "scalar" and "strided", as ``slow_paths`` reads their operands); a call
    made inside a counted one is not counted."""

    def __init__(self):
        self.ops = Counter()
        self.slow = Counter()
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
        """``f(*args, **kwargs)`` as one operation on the operands ``args``
        and ``out``, its arrays returned as Counted views, so that what is
        computed from them counts too."""
        if self.depth == 0:
            self.ops[self.layer()] += 1
            scalar, strided = slow_paths(args, kwargs.get("out"))
            self.slow["scalar"] += scalar
            self.slow["strided"] += strided
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
    layer and the slow-path counts, which stop growing when the block
    ends."""
    modules = [m for name, m in list(sys.modules.items()) if name.startswith(package.__name__ + ".")]
    users = [m for m in modules if getattr(m, "np", None) is np]
    arrays = [(m, k, v) for m in modules for k, v in vars(m).items() if type(v) is np.ndarray]
    for m in users:
        m.np = CountedNumpy()
    for m, k, v in arrays:
        setattr(m, k, v.view(Counted))
    COUNTER.package, COUNTER.ops, COUNTER.slow = package.__name__, Counter(), Counter()
    try:
        yield COUNTER.ops, COUNTER.slow
    finally:
        # What is computed later from the block's Counted arrays (a run's
        # scoring) counts into counters that nothing reads
        COUNTER.ops, COUNTER.slow = Counter(), Counter()
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
    layer and by slow path, the RuntimeWarnings it raised, its scores, and
    whether it fails its workload's check."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        with counting(package) as (counts, slow):
            result = timed(package, run.cfg)[1]
    warned = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    scores, failed = None, False
    if not isinstance(result, tuple):
        scores = package.rmse(result.primitives(run.cfg.gas), run.reference.w)
        failed = workload.check(run, result, scores) is not None
    return result, counts, slow, warned, scores, failed


def stamp(final) -> bytes:
    # Bytes, so that -0.0 and 0.0 (equal under !=) count as differing
    return final.cells.tobytes() + np.array([final.time, final.max_courant_observed]).tobytes()


@dataclasses.dataclass
class Record:
    """A run that completes on both sides, and so is timed.  Each list holds
    the parent's entry, then the change's: the configs, the counted runs'
    stamps, their operations by layer and by slow path over the run, the
    steps, and the timed reps' seconds.  ``drifted`` names the sides whose
    first timed run is not byte for byte their counted one."""

    method: str
    cfgs: list
    stamps: list
    counts: list
    slow: list
    steps: list
    times: list = dataclasses.field(default_factory=lambda: [[], []])
    drifted: list = dataclasses.field(default_factory=list)

    def ops(self) -> list:
        """Each side's operations per step."""
        return [sum(c.values()) / n for c, n in zip(self.counts, self.steps)]


@dataclasses.dataclass
class Suite:
    """One suite's untimed pass: its runs, the differing fields of their
    configs, whether the exact profiles differ, the runs skipped and those
    that differ, of the timed runs those whose scores differ, the largest
    absolute and relative change of a final cell, each side's warnings and
    failed checks, and the timed runs' Records."""

    runs: int
    moved: list
    profiles_differ: bool
    skipped: int = 0
    differ: int = 0
    scores_differ: int = 0
    change: list = dataclasses.field(default_factory=lambda: [0.0, 0.0])
    warned: list = dataclasses.field(default_factory=lambda: [0, 0])
    failing: list = dataclasses.field(default_factory=lambda: [0, 0])
    records: list = dataclasses.field(default_factory=list)

    def ops(self) -> list:
        """Each side's operations per step, summed over the methods."""
        return [sum(r.ops()[side] for r in self.records) for side in (0, 1)]

    def layers(self) -> list:
        """Each side's operations per step by layer, summed over the methods."""
        by_layer = [Counter() for _ in SIDES]
        for r in self.records:
            for side, (counts, n) in enumerate(zip(r.counts, r.steps)):
                by_layer[side].update({k: v / n for k, v in counts.items()})
        return by_layer

    def slow_calls(self) -> dict:
        """Each side's "scalar" and "strided" operations per step, summed over the methods."""
        return {
            path: [sum(r.slow[side][path] / r.steps[side] for r in self.records) for side in (0, 1)]
            for path in ("scalar", "strided")
        }


@dataclasses.dataclass
class Report:
    """Each suite by name, and each Riemann problem's two wave reports."""

    suites: dict
    waves: list

    @property
    def records(self) -> list:
        return [r for suite in self.suites.values() for r in suite.records]

    def method_ratios(self) -> list:
        """(median ratio, method) of each timed method's time over the suites, lowest first."""
        by_method = {}
        for record in self.records:
            by_method.setdefault(record.method, []).append(record)
        return sorted((statistics.median(ratios(records)), method) for method, records in by_method.items())


def summed(records) -> list:
    """Each side's time of the records, summed in each rep."""
    return [[sum(rep) for rep in zip(*(r.times[side] for r in records))] for side in (0, 1)]


def ratios(records) -> list:
    """The per-rep ratio change/parent of the records' summed times."""
    return [c / p for p, c in zip(*summed(records))]


def untimed_suite(name, packages, suite_sides) -> Suite:
    """The untimed pass of a suite's runs on both sides."""
    workloads = [sides[name][0] for sides in suite_sides]
    run_pairs = list(zip(*(sides[name][1] for sides in suite_sides)))
    # The configuration fields that differ between the sides (a Toro test's
    # dt comes from each side's exact solver): a suite's runs share all but
    # the method, and reprs compare the sides' classes
    cfgs = [vars(r.cfg) for r in run_pairs[0]]
    moved = [k for k in cfgs[0] if repr(cfgs[0][k]) != repr(cfgs[1][k])]
    profiles = [r.reference.x.tobytes() + r.reference.w.tobytes() for r in run_pairs[0]]
    suite = Suite(len(run_pairs), moved, profiles[0] != profiles[1])
    for run_pair in run_pairs:
        results, counts, slow, warned, scores, failing = zip(
            *(untimed(packages[side], run, workloads[side]) for side, run in enumerate(run_pair))
        )
        suite.warned = [a + b for a, b in zip(suite.warned, warned)]
        suite.failing = [a + b for a, b in zip(suite.failing, failing)]
        failed = [isinstance(r, tuple) for r in results]
        if all(failed) and results[0] == results[1]:
            suite.skipped += 1
            continue
        if any(failed):
            suite.differ += 1
            continue
        stamps = [stamp(r) for r in results]
        suite.differ += stamps[0] != stamps[1]
        # Bytes, as in stamp
        suite.scores_differ += np.array(scores[0]).tobytes() != np.array(scores[1]).tobytes()
        parent, gap = results[0].cells, np.abs(results[1].cells - results[0].cells)
        suite.change[0] = max(suite.change[0], float(gap.max()))
        suite.change[1] = max(suite.change[1], float((gap.max(axis=1) / np.abs(parent).max(axis=1)).max()))
        pair = [r.cfg for r in run_pair]
        steps = [packages[side].solver.step_count(cfg) for side, cfg in enumerate(pair)]
        suite.records.append(Record(pair[0].method.value, pair, stamps, counts, slow, steps))
    return suite


def compare(parent_src, change_src, reps: int, suites=None) -> Report:
    """The untimed pass and ``reps`` timed reps of the suites named (all
    seven if None) on the two trees, the packages unloaded on return."""
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            packages = load([parent_src, change_src], Path(tmp))
            suite_sides, problem_sides = zip(*(side_suites(p) for p in packages))
            names = list(suite_sides[0]) if suites is None else list(suites)
            report = Report(
                {name: untimed_suite(name, packages, suite_sides) for name in names},
                [[wave_lines(p, problem) for p, problem in zip(packages, pair)] for pair in zip(*problem_sides)],
            )
            # The untimed pass counted the RuntimeWarnings
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                for rep in range(reps):
                    for i, record in enumerate(report.records):
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
        finally:
            sys.path.remove(tmp)
            for name in [m for m in sys.modules if m.startswith(("sodbench_parent", "sodbench_change"))]:
                del sys.modules[name]
    return report


def render(report: Report) -> list:
    """The lines the module docstring describes."""
    lines = []
    for name, s in report.suites.items():
        ratio = f"{statistics.median(ratios(s.records)):.4f}" if s.records else "n/a"
        lines.append(
            f"{name}: final cells differ in {s.differ} of {s.runs - s.skipped} runs"
            f" ({s.skipped} failing on both sides skipped)"
            f"; scores differ in {s.scores_differ} of {len(s.records)} runs"
            f"; median ratio change/parent {ratio}"
            f"; largest change of final cells {s.change[0]:.2e} absolute, {s.change[1]:.2e} relative"
            + (f"; fields differ: {', '.join(s.moved)}" if s.moved else "")
            + (f"; warnings differ: parent {s.warned[0]}, change {s.warned[1]}" if s.warned[0] != s.warned[1] else "")
            + (f"; workload check fails: parent {s.failing[0]}, change {s.failing[1]}" if any(s.failing) else "")
        )
    differ = sum(parent != change for parent, change in report.waves)
    lines.append(f"wave reports differ in {differ} of {len(report.waves)} problems")
    differ = sum(s.profiles_differ for s in report.suites.values())
    lines.append(f"exact profiles differ in {differ} of {len(report.suites)} suites")
    for side, times in zip(SIDES, summed(report.records)):
        lines.append(f"{side}: median sweep {statistics.median(times):.4f} s over {len(times)} reps")
    overall = ratios(report.records)
    lines.append(
        f"ratio change/parent: median {statistics.median(overall):.4f}"
        f" min {min(overall):.4f} max {max(overall):.4f}"
    )
    lines.append(
        "method median ratio change/parent: " + ", ".join(f"{m} {r:.4f}" for r, m in report.method_ratios())
    )
    for name, s in report.suites.items():
        total = s.ops()
        each = [f"{r.method} {p:.3f}" + (f" -> {c:.3f}" if p != c else "") for r in s.records for p, c in [r.ops()]]
        drifted = [f"{r.method} ({side})" for r in s.records for side in r.drifted]
        lines.append(
            f"{name} numpy ops per step over {len(s.records)} methods:"
            f" parent {total[0]:.2f}, change {total[1]:.2f}"
            + (f"; by method: {', '.join(each)}" if each else "")
            + (f"; counted runs differ: {', '.join(drifted)}" if drifted else "")
        )
        by_layer = s.layers()
        # a layer outside the five (a new module, or "outside") is listed too
        names = [*LAYERS, *sorted({k for c in by_layer for k in c} - set(LAYERS))]
        lines.append(
            f"{name} numpy ops per step by layer: "
            + "; ".join(
                f"{side} " + ", ".join(f"{layer} {counts[layer]:.2f}" for layer in names)
                for side, counts in zip(SIDES, by_layer)
            )
        )
        scalar, strided = (f"{p:.2f} -> {c:.2f}" for p, c in s.slow_calls().values())
        lines.append(
            f"{name} slow-path calls per step: Python scalar operand {scalar}"
            f"; strided or mixed-shape operands {strided}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--reps", type=int, default=10, help="timed sweeps per side")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    print("\n".join(render(compare(args.parent_src, args.change_src, args.reps))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
