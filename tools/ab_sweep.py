"""Paired in-process timing of the 22-method Sod-200 sweep on two source trees.

    python3 tools/ab_sweep.py PARENT_SRC CHANGE_SRC [--reps N]

Each SRC is a checkout root or its ``src`` directory.  The two ``sodbench``
packages are copied into one temporary directory as ``sodbench_parent`` and
``sodbench_change`` and imported into this process.  After one untimed pass,
each rep runs every method once on each side, back to back, and alternates
the side that goes first from run to run and from rep to rep.  A side's sweep
time is the sum of its 22 run times in a rep.  The script prints how many
methods end in different cells, each side's median sweep, and the median,
min and max of the per-rep ratio change/parent.

The host's speed drifts by tens of percent from one process to the next,
while pairing run by run inside one process reads a gain within a few
percent.  This sizes a change; ``perfbench/run.py`` is what measures it.
"""

from __future__ import annotations

import argparse
import importlib
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")


def package_dir(src: str) -> Path:
    for candidate in (Path(src) / "sodbench", Path(src) / "src" / "sodbench"):
        if (candidate / "__init__.py").is_file():
            return candidate
    raise SystemExit(f"no sodbench package under {src} or {src}/src")


def load(srcs: list[str], tmp: Path) -> list:
    """Import each tree's ``solver`` module, its package under the side's name."""
    solvers = []
    for side, src in zip(SIDES, srcs):
        name = f"sodbench_{side}"
        shutil.copytree(package_dir(src), tmp / name, ignore=shutil.ignore_patterns("__pycache__"))
        solvers.append(importlib.import_module(f"{name}.solver"))
    return solvers


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
        solvers = load([args.parent_src, args.change_src], Path(tmp))
        methods = [m.value for m in solvers[0].FluxMethod]
        configs = [[s.RunConfig(method=s.FluxMethod(name)) for s in solvers] for name in methods]

        def run(i: int, side: int):
            start = time.perf_counter()
            field = solvers[side].run(configs[i][side])
            return time.perf_counter() - start, field.cells

        differ = sum((run(i, 0)[1] != run(i, 1)[1]).any() for i in range(len(methods)))
        sweeps = [[0.0] * args.reps for _ in SIDES]
        for rep in range(args.reps):
            for i in range(len(methods)):
                first = (i + rep) % 2
                for side in (first, 1 - first):
                    sweeps[side][rep] += run(i, side)[0]

    ratios = [c / p for p, c in zip(*sweeps)]
    print(f"methods with differing final cells: {differ} of {len(methods)}")
    for side, times in zip(SIDES, sweeps):
        print(f"{side}: median sweep {statistics.median(times):.4f} s over {args.reps} reps")
    print(
        f"ratio change/parent: median {statistics.median(ratios):.4f}"
        f" min {min(ratios):.4f} max {max(ratios):.4f}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
