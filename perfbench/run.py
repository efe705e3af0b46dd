#!/usr/bin/env python3
"""sodbench benchmark: one workload, single-threaded processes one at a time, closed loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sod200-sweep --seed 1 --seconds 30 --trace 0

It runs passes over the workload's runs (each a ``solver.run`` call, scored
against the exact profile and checked) one after another until ``--seconds``
have passed.  The seed shuffles the order of the runs in every pass.  With
``--trace 0`` it prints the end-to-end metrics.  They are measured in up to
WORKERS fresh processes, one after another, each for a share of
``--seconds``, so that no one process's own speed sets the result.  Each
timing is scaled to a reference host speed by a fixed numpy kernel timed
before every run (see ``reference_kernel``); the unscaled wall times are
printed too.  With
``--trace 1`` every run goes untraced and then traced, back to back; it prints
the per-layer metrics and writes the traced spans under ``perfbench/out``.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Not taken from workloads.FACTORIES: parsing the arguments must import neither
# numpy nor sodbench, whose import a worker times.
WORKLOADS = ("sod200-sweep", "sod20k-bulk", "toro-suite")
# Most sequential worker processes of a trace-0 run.  One process's speed is
# off that of the next, with the same code and host, by about 5% (sd, Sod-200).
WORKERS = 5
# p90 is reported only with at least ten samples above it.
MIN_LATENCY_SAMPLES = 100
REFERENCE_REPEATS = 5
# The end-to-end timings are given at the speed of a host that runs
# reference_kernel in exactly this time.
REF_KERNEL_S = 0.003
# Up to this many cells a solver step costs mostly numpy call overhead (about
# 2.4 us per cell-step at 200 cells); above it, arithmetic and array traffic.
CALL_BOUND_CELLS = 2_000
# A run's host speed is the median kernel time over the runs this many places
# before and after it: about 1 s of Sod-200 runs, 2 s of 20k-cell runs.
REF_WINDOW = 8
# Seen on the 2-core development host (Intel Xeon, Python 3.11.7, numpy
# 2.4.6), with CPU time equal to wall time and steal near 0, so the drift
# comes from the host.  See README.md.
HOST_NOISE_NOTE = (
    "2-core dev host: 30 sod200 sweeps took 0.98-1.73 s, cpu = wall, steal ~0; "
    "ten 30 s toro-suite runs gave sweep_s 6.2-10.0 s; the reference kernel "
    "follows these swings, see README.md"
)


class SetupError(RuntimeError):
    pass


def import_package() -> None:
    """Import sodbench from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "sodbench" / "__init__.py").is_file():
        raise SetupError(f"no sodbench sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sodbench

    if Path(sodbench.__file__).resolve().parent != SRC / "sodbench":
        raise SetupError(f"imported sodbench from {sodbench.__file__}, not from {SRC}")


def reference_kernel(n_cells: int) -> float:
    """Seconds taken by a fixed numpy workload on ``n_cells`` that does not
    touch sodbench, about 3 ms on the development host.

    The host's speed swings by up to ±40% in episodes of seconds to minutes,
    with CPU time equal to wall time.  This kernel, timed before each run,
    swings with it, so a run's time over the kernel's is steady while a
    change to the package moves it in full.  Up to CALL_BOUND_CELLS cells the
    kernel is a few steps of a minmod-MUSCL Rusanov scheme on a Sod tube;
    above, a loop of elementwise ufuncs.  Each is the one whose time followed
    the solver's more closely at its size (README.md).
    """
    import numpy as np

    start = time.perf_counter()
    if n_cells <= CALL_BOUND_CELLS:
        _rusanov_steps(np, n_cells, steps=max(1, round(5_000 / n_cells)))
    else:
        a = np.linspace(0.1, 1.0, n_cells)
        b = a[::-1].copy()
        for _ in range(max(1, round(400_000 / n_cells))):
            c = a * b + 1.0
            d = np.sqrt(c)
            e = np.where(d > 1.1, d, c)
            a = np.abs(e - 0.5 * b) + 0.1
            a[1:] = np.maximum(a[1:], a[:-1])
    return time.perf_counter() - start


def _rusanov_steps(np, n_cells: int, steps: int) -> None:
    gamma, dx = 1.4, 1.0 / n_cells
    left = (np.arange(n_cells) + 0.5) * dx < 0.5
    q = np.stack([np.where(left, 1.0, 0.125), np.zeros(n_cells), np.where(left, 2.5, 0.25)])

    def flux(w):
        rho, u, p = w
        e = p / (gamma - 1.0) + 0.5 * rho * u * u
        return np.stack([rho * u, rho * u * u + p, u * (e + p)]), np.stack([rho, rho * u, e])

    for _ in range(steps):
        u = q[1] / q[0]
        w = np.stack([q[0], u, (gamma - 1.0) * (q[2] - 0.5 * q[0] * u * u)])
        d = np.diff(w, axis=1)
        slope = np.where(d[:, :-1] * d[:, 1:] > 0.0,
                         np.sign(d[:, 1:]) * np.minimum(np.abs(d[:, :-1]), np.abs(d[:, 1:])), 0.0)
        wl = w[:, 1:-2] + 0.5 * slope[:, :-1]
        wr = w[:, 2:-1] - 0.5 * slope[:, 1:]
        (fl, ql), (fr, qr) = flux(wl), flux(wr)
        speed = np.maximum(np.abs(wl[1]) + np.sqrt(gamma * wl[2] / wl[0]),
                           np.abs(wr[1]) + np.sqrt(gamma * wr[2] / wr[0]))
        q[:, 2:-2] -= 0.2 * np.diff(0.5 * (fl + fr) - 0.5 * speed * (qr - ql), axis=1)


@dataclass
class Outcome:
    solve_s: float
    rmse_s: float = 0.0
    raised: bool = False
    problem: str | None = None  # set when the run is wrong, not merely pinned to fail
    kernel_s: float | None = None  # reference_kernel just before the run


@dataclass
class Record:
    pass_index: int
    traced: bool
    run: object
    out: Outcome


@dataclass
class PassResult:
    traced: bool
    sweep_s: float = 0.0
    stepping_s: float = 0.0
    cell_steps: int = 0
    latencies_s: list = field(default_factory=list)
    rmse_s: list = field(default_factory=list)
    attempted: int = 0
    failed_runs: int = 0  # raised or failed the check, pinned failures included
    problems: list = field(default_factory=list)
    fixes: list = field(default_factory=list)

    @property
    def ns_per_cell_step(self) -> float:
        return self.stepping_s / self.cell_steps * 1e9

    def add(self, run, out: Outcome, scale: float) -> None:
        """Count one run; its times are multiplied by ``scale``."""
        self.attempted += 1
        self.failed_runs += out.raised or out.problem is not None
        if out.problem is not None:
            self.problems.append(out.problem)
        if run.pinned_failure:
            if not out.raised:
                self.fixes.append(run.label)
            # Pinned runs stay out of the timings, so a fix that lets one
            # finish does not read as a slowdown.
            return
        if not out.raised:
            solve_s, rmse_s = out.solve_s * scale, out.rmse_s * scale
            self.sweep_s += solve_s + rmse_s
            self.stepping_s += solve_s
            self.cell_steps += run.cell_steps
            self.latencies_s.append(solve_s)
            self.rmse_s.append(rmse_s)


def solve_and_check(workload, run, tracer, run_id: int, pass_index: int) -> Outcome:
    from sodbench import bench, solver
    from sodbench.errors import SodbenchError

    if tracer is not None:
        tracer.begin_run(run_id, run.cfg.method.value, solver.step_count(run.cfg), pass_index)
    error = None
    start = time.perf_counter()
    try:
        final = solver.run(run.cfg)
    except Exception as exc:  # a run that dies is an outcome to check, not a crash
        error = exc
    solve_s = time.perf_counter() - start
    if tracer is not None:
        tracer.end_run(solve_s, error)
    if error is not None:
        if run.pinned_failure and isinstance(error, SodbenchError):
            return Outcome(solve_s, raised=True)
        detail = "".join(traceback.format_exception_only(type(error), error)).strip()
        return Outcome(solve_s, raised=True, problem=f"{run.label}: {detail}")
    start = time.perf_counter()
    scores = bench.rmse(final.primitives(run.cfg.gas), run.reference.w)
    rmse_s = time.perf_counter() - start
    problem = workload.check(run, final, scores)
    return Outcome(solve_s, rmse_s, problem=None if problem is None else f"{run.label}: {problem}")


def run_pass(workload, order, pass_index: int, tracer) -> list[Record]:
    """One pass over the runs in ``order``.  Without a tracer, the reference
    kernel is timed before every run.  With one, every run goes untraced and
    then traced, back to back, so that host drift cancels out of the tracing
    overhead."""
    records = []
    for i in order:
        run = workload.runs[i]
        kernel_s = None if tracer is not None else reference_kernel(run.cfg.grid.n_cells)
        out = solve_and_check(workload, run, None, -1, pass_index)
        out.kernel_s = kernel_s
        records.append(Record(pass_index, False, run, out))
        if tracer is not None:
            tracer.install()
            try:
                out = solve_and_check(workload, run, tracer, pass_index * len(order) + i, pass_index)
            finally:
                tracer.uninstall()
            records.append(Record(pass_index, True, run, out))
    return records


def speed_scales(records: list[Record]) -> list[float]:
    """Per record, REF_KERNEL_S over the median kernel time of the records
    within REF_WINDOW places of it; 1 where no kernel was timed."""
    timed = [(i, r.out.kernel_s) for i, r in enumerate(records) if r.out.kernel_s is not None]
    scales = [1.0] * len(records)
    for j, (i, _) in enumerate(timed):
        window = timed[max(0, j - REF_WINDOW) : j + REF_WINDOW + 1]
        scales[i] = REF_KERNEL_S / statistics.median(k for _, k in window)
    return scales


def group_passes(records: list[Record], scaled: bool) -> list[PassResult]:
    """The records as one PassResult per pass and tracing mode, with their
    times at the reference host speed when ``scaled``."""
    scales = speed_scales(records) if scaled else [1.0] * len(records)
    passes: dict[tuple, PassResult] = {}
    for record, scale in zip(records, scales):
        key = (record.pass_index, record.traced)
        passes.setdefault(key, PassResult(traced=record.traced)).add(record.run, record.out, scale)
    return list(passes.values())


def warm_up(workload) -> None:
    """Two steps of every run, so lazy set-up is done before timing."""
    from sodbench import solver
    from sodbench.errors import SodbenchError

    for run in workload.runs:
        with contextlib.suppress(SodbenchError):
            solver.run(dataclasses.replace(run.cfg, t_final=2 * run.cfg.dt))


def measure(workload, seed: int, seconds: float, tracer) -> list[Record]:
    """Passes until the pass boundary nearest to ``seconds``, at least one."""
    rng = random.Random(seed)
    records: list[Record] = []
    start = end = time.perf_counter()
    for pass_index in itertools.count():
        order = list(range(len(workload.runs)))
        rng.shuffle(order)
        records += run_pass(workload, order, pass_index, tracer)
        last_pass_s, end = time.perf_counter() - end, time.perf_counter()
        if end - start + last_pass_s / 2 >= seconds:
            return records


def worker(name: str, seed: int, seconds: float) -> dict:
    """One fresh process's share of a trace-0 run.

    It first times what the process pays before its first run: imports,
    configs and exact reference profiles, then REF_WINDOW reference kernels
    for the host speed at that moment.  Then it measures for ``seconds``.
    """
    start = time.perf_counter()
    import_package()
    import workloads

    workload = workloads.FACTORIES[name]()
    setup_s = time.perf_counter() - start
    n_cells = workload.runs[0].cfg.grid.n_cells
    reference_kernel(n_cells)  # warm-up
    setup_kernel_s = statistics.median(reference_kernel(n_cells) for _ in range(REF_WINDOW))
    warm_up(workload)
    cpu0, wall0 = time.process_time(), time.perf_counter()
    records = measure(workload, seed, seconds, None)
    return {
        "setup_s": setup_s * REF_KERNEL_S / setup_kernel_s,
        "wall_setup_s": setup_s,
        "passes": [dataclasses.asdict(p) for p in group_passes(records, scaled=True)],
        "wall_passes": [dataclasses.asdict(p) for p in group_passes(records, scaled=False)],
        "kernel_s": [r.out.kernel_s for r in records],
        "cpu_s": time.process_time() - cpu0,
        "wall_s": time.perf_counter() - wall0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_workers(name: str, seed: int, seconds: float) -> list[dict]:
    """Worker processes, one after another and each waited for.  Each
    measures for a WORKERS-th of ``seconds``, or one pass if that is longer.
    They run until ``seconds`` of measuring are done or WORKERS have run, and
    until MIN_LATENCY_SAMPLES runs have been timed."""
    share = seconds / WORKERS
    results: list[dict] = []

    def more() -> bool:
        measured_s = sum(r["wall_s"] for r in results)
        timed = sum(len(p["latencies_s"]) for r in results for p in r["passes"])
        return (len(results) < WORKERS and measured_s + share / 2 < seconds) or timed < MIN_LATENCY_SAMPLES

    while more():
        index = len(results)
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed * WORKERS + index), "--seconds", str(share), "--worker"]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=share + 60, cwd=ROOT, check=False)
        if proc.returncode != 0:
            raise SetupError(f"worker {index} exited with {proc.returncode}: {proc.stderr.strip()}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


def environment(pass_s: list[float], kernel_s: list[float], cpu_s: float, wall_s: float) -> dict:
    import numpy

    cpu_model = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "pass_s_min": min(pass_s),
        "pass_s_max": max(pass_s),
        "cpu_over_wall": cpu_s / wall_s,
        "kernel_ms": [1e3 * f(kernel_s) for f in (min, statistics.median, max)] if kernel_s else None,
        "host_noise": HOST_NOISE_NOTE,
    }


def end_to_end(passes: list[PassResult], setup: list[float], rss_mb: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics of the untraced passes, the setup samples and
    the workers' peak memory."""
    latencies = sorted(s for p in passes for s in p.latencies_s)
    deciles = statistics.quantiles(latencies, n=10)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "sweep_s": (statistics.median(p.sweep_s for p in passes), "s"),
        "ns_per_cell_step": (statistics.median(p.ns_per_cell_step for p in passes), "ns"),
        "solve_p50_ms": (deciles[4] * 1e3, "ms"),
        "solve_p90_ms": (deciles[8] * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(rss_mb), "MB"),
    }
    samples = {
        "setup_s": len(setup),
        "sweep_s": len(passes),
        "ns_per_cell_step": len(passes),
        "solve_p50_ms": len(latencies),
        "solve_p90_ms": len(latencies),
    }
    return metrics, samples


def cli_bench(workloads) -> tuple[float, str | None]:
    """One in-process ``sodbench bench --out`` run, checked against the seed table."""
    from sodbench import cli

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        path = Path(tmp) / "table.csv"
        start = time.perf_counter()
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.parse_and_run(["bench", "--out", str(path)])
        elapsed = time.perf_counter() - start
        if code != 0:
            return elapsed, f"sodbench bench exited with {code}"
        got, want = workloads.read_seed_table(path), workloads.read_seed_table()
        bad = [m for m in want if m not in got or workloads.table_mismatch(want[m], got[m])]
    return elapsed, f"sodbench bench rows differ from the seed table: {bad}" if bad else None


def per_layer(workload, passes: list[PassResult], tracer, workloads) -> tuple[dict, list[str]]:
    from sodbench import riemann

    import spans

    metrics = spans.layer_metrics(tracer)
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    metrics["bench.failed_frac"] = (
        sum(p.failed_runs for p in traced) / sum(p.attempted for p in traced), "ratio"
    )
    metrics["bench.fixed_runs"] = (statistics.mean(len(p.fixes) for p in traced), "count")
    profile_s = []
    for call in workload.reference_calls:
        for _ in range(REFERENCE_REPEATS):
            start = time.perf_counter()
            riemann.exact_profile(*call)
            profile_s.append(time.perf_counter() - start)
    metrics["bench.exact_profile_ms"] = (statistics.median(profile_s) * 1e3, "ms")
    metrics["bench.rmse_us"] = (statistics.median(s for p in traced for s in p.rmse_s) * 1e6, "us")
    cli_s, cli_problem = cli_bench(workloads)
    metrics["cli.bench_s"] = (cli_s, "s")
    ratio = statistics.median(p.ns_per_cell_step for p in traced) / statistics.median(
        p.ns_per_cell_step for p in untraced
    )
    metrics["trace.overhead_frac"] = (ratio - 1.0, "ratio")
    return metrics, [cli_problem] if cli_problem else []


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        if args.worker:
            print(json.dumps(worker(args.workload, args.seed, args.seconds)))
            return 0
        import_package()
        results = [] if args.trace else run_workers(args.workload, args.seed, args.seconds)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    import spans
    import workloads

    if args.trace:
        workload = workloads.FACTORIES[args.workload]()
        warm_up(workload)
        tracer = spans.Tracer()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        passes = group_passes(measure(workload, args.seed, args.seconds, tracer), scaled=False)
        cpu_s, wall_s = time.process_time() - cpu0, time.perf_counter() - wall0
        env = environment([p.sweep_s for p in passes if not p.traced], [], cpu_s, wall_s)
    else:
        tracer = None
        passes = [PassResult(**d) for r in results for d in r["passes"]]
        wall_passes = [PassResult(**d) for r in results for d in r["wall_passes"]]
        env = environment(
            [p.sweep_s for p in wall_passes],
            [k for r in results for k in r["kernel_s"]],
            sum(r["cpu_s"] for r in results),
            sum(r["wall_s"] for r in results),
        )

    problems = [msg for p in passes for msg in p.problems]
    for msg in problems[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    if any(p.cell_steps == 0 for p in passes):
        print("perfbench: a pass completed no timed run, so nothing can be timed", file=sys.stderr)
        return 1
    attempted = sum(p.attempted for p in passes)
    if args.trace:
        try:
            metrics, extra = per_layer(workload, passes, tracer, workloads)
        except spans.MissingSpans as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        for msg in extra:
            print(f"FAILED {msg}", file=sys.stderr)
        problems += extra
        attempted += 1
        samples = {"traced_passes": sum(p.traced for p in passes), "untraced_passes": sum(not p.traced for p in passes)}
    else:
        rss_mb = [r["peak_rss_mb"] for r in results]
        metrics, samples = end_to_end(passes, [r["setup_s"] for r in results], rss_mb)
        wall, _ = end_to_end(wall_passes, [r["wall_setup_s"] for r in results], rss_mb)
        for name, (value, unit) in wall.items():
            print(f"wall: {name} = {value:.6g} {unit}")
        env["wall_metrics"] = {name: value for name, (value, _) in wall.items()}

    fixes = sorted({label for p in passes for label in p.fixes})
    for label in fixes:
        print(f"fix: pinned failure {label} now completes")
    for name, (value, unit) in metrics.items():
        count = f"  (n={samples[name]})" if name in samples else ""
        print(f"{name} = {value:.6g} {unit}{count}")
    print("env: " + json.dumps(env))

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  samples=samples, env=env, fixes=fixes, problems=problems)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.json.gz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
