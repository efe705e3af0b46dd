"""Record one benchmark point: every perfbench workload at trace 0 and trace 1.

    python3 tools/record_bench.py --out BENCH_<n>.json

It runs ``perfbench/run.py`` of this checkout, unchanged, once per workload
and trace level, one run after another, always with seed ``SEED`` and a
``SECONDS`` budget so that every recorded point is comparable, and writes one
JSON file with:

- ``commit``: ``base_sha``, the checked-out commit; ``dirty`` when ``src/``
  or ``perfbench/`` differ from it (a file recorded before its change is
  committed, so the measured code is ``base_sha`` plus that change); and
  ``src_sha256``, a digest of the measured ``src/sodbench`` sources that
  identifies the code and that any checkout can recompute with
  ``source_digest``;
- ``env``: Python, numpy, core count and CPU model of the host;
- ``seed`` and ``seconds`` of the runs;
- per workload, the end-to-end metrics of the trace-0 run, the per-layer
  metrics of the trace-1 run, and each run's ``correct``, ``attempted``,
  ``failed``, ``fixes`` and host-noise fields.

A run that exits non-zero or checks incorrect stops the script with exit code
1 and writes no file.  A full recording takes about 4 minutes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SCHEMA = 1
SEED = 1
SECONDS = 30.0
ENV_KEYS = ("python", "numpy", "nproc", "cpu_model")
# Kept from each run's result file, next to its metrics: the outcome and the
# host-noise fields of its env.
RUN_KEYS = ("correct", "attempted", "failed", "fixes", "samples")
NOISE_KEYS = ("pass_s_min", "pass_s_max", "cpu_over_wall", "kernel_ms", "wall_metrics")


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def source_digest() -> str:
    """sha256 over the names and bytes of src/sodbench/*.py."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sodbench").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def run_perfbench(workload: str, trace: int) -> dict:
    """One ``perfbench/run.py`` run; its result file from ``perfbench/out``."""
    result = PERFBENCH / "out" / f"{workload}-seed{SEED}-trace{trace}.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
    print("+ " + " ".join(cmd[1:]), file=sys.stderr, flush=True)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0 or not result.is_file():
        raise SystemExit(
            f"record_bench: {workload} trace {trace} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(result.read_text())


def build_record(commit: dict, results: dict) -> dict:
    """``results[workload][trace]`` is the result file of that run."""
    first = next(iter(results.values()))[0]
    workloads = {}
    for name, by_trace in results.items():
        entry = {
            "end_to_end": by_trace[0]["metrics"],
            "per_layer": by_trace[1]["metrics"],
        }
        for trace, result in by_trace.items():
            run = {key: result[key] for key in RUN_KEYS}
            run.update({key: result["env"].get(key) for key in NOISE_KEYS})
            entry[f"trace{trace}"] = run
        workloads[name] = entry
    return {
        "schema": SCHEMA,
        "commit": commit,
        "env": {key: first["env"][key] for key in ENV_KEYS},
        "seed": SEED,
        "seconds": SECONDS,
        "command": f"python3 perfbench/run.py --workload W --seed {SEED} --seconds {SECONDS:g} --trace 0|1",
        "workloads": workloads,
    }


def check_record(record: dict, spec: dict) -> list[str]:
    """What is missing or malformed in a record, against BENCHMARK.json."""
    problems = []
    if record.get("schema") != SCHEMA:
        problems.append(f"schema is {record.get('schema')!r}, not {SCHEMA}")
    commit = record.get("commit", {})
    if not (isinstance(commit.get("base_sha"), str) and len(commit.get("src_sha256", "")) == 64):
        problems.append("commit needs a base_sha and a 64-digit src_sha256")
    missing_env = [key for key in ENV_KEYS if key not in record.get("env", {})]
    if missing_env:
        problems.append(f"env lacks {missing_env}")
    for workload in (w["name"] for w in spec["workloads"]):
        entry = record.get("workloads", {}).get(workload)
        if entry is None:
            problems.append(f"workload {workload} is missing")
            continue
        for level, names in (("end_to_end", spec["end_to_end"]), ("per_layer", spec["per_layer"])):
            metrics = entry.get(level, {})
            for metric in names:
                value = metrics.get(metric["name"], {})
                if not isinstance(value.get("value"), (int, float)) or value.get("unit") != metric["unit"]:
                    problems.append(f"{workload} {level} {metric['name']} is {value!r}")
        for trace in (0, 1):
            run = entry.get(f"trace{trace}", {})
            if run.get("correct") is not True or run.get("failed") != 0:
                problems.append(f"{workload} trace {trace} is not correct: {run.get('failed')} failed")
    return problems


def main(argv=None, runner=run_perfbench) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="output JSON path, e.g. BENCH_6.json")
    args = parser.parse_args(argv)

    spec = benchmark_spec()
    results = {w["name"]: {t: runner(w["name"], t) for t in (0, 1)} for w in spec["workloads"]}
    commit = {
        "base_sha": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--", "src", "perfbench")),
        "src_sha256": source_digest(),
    }
    record = build_record(commit, results)
    problems = check_record(record, spec)
    for problem in problems:
        print(f"record_bench: {problem}", file=sys.stderr)
    if problems:
        return 1
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}: {len(results)} workloads at trace 0 and 1")
    return 0


if __name__ == "__main__":
    sys.exit(main())
