"""Span tracer that wraps sodbench's entry points from outside the package.

Only the traced run installs it, and only for the traced passes.  A wrapper
replaces a module attribute that the package looks up at call time, so the
callers inside the package reach it exactly as they reach the original.  Each
call records ``(name, span id, parent id, start ns, end ns, run id)``; spans
stay in memory and are written out when the benchmark ends.  A span's self
time is its duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from sodbench import riemann, solver

# (module, attribute, span name); the layer is the span name's first part.
ENTRY_POINTS = (
    (solver, "run", "solver.run"),
    (solver, "primitive_array", "gas.primitive_array"),
    (solver, "reconstruct_faces", "muscl.reconstruct_faces"),
    (solver, "compute_face_flux", "fluxes.compute_face_flux"),
    (riemann, "interface_states", "riemann.interface_states"),
    (riemann, "star_state_arrays", "riemann.star_state_arrays"),
    (riemann, "pressure_function", "riemann.pressure_function"),
)
LAYERS = ("gas", "muscl", "fluxes", "riemann", "solver")

RUN = "solver.run"
PRIM = "gas.primitive_array"
MUSCL = "muscl.reconstruct_faces"
FLUX = "fluxes.compute_face_flux"
IFACE = "riemann.interface_states"
STAR = "riemann.star_state_arrays"
PFUN = "riemann.pressure_function"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.runs: dict[int, dict] = {}  # run id -> method, steps, outcome, wall
        self.run_id = -1
        self.active_faces = 0
        self.faces = 0
        self._raised_by: dict[int, str] = {}
        self._stack: list[int] = []
        self._next_id = 0
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module, attr, name in ENTRY_POINTS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name: str):
        layer = name.split(".")[0]
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        count_faces = name == IFACE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                # The innermost wrapper the exception leaves names the layer.
                self._raised_by.setdefault(id(exc), layer)
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((name, sid, parent, start, end, self.run_id))
                if count_faces and self.run_id >= 0:
                    wl, wr = np.asarray(args[0]), np.asarray(args[1])
                    self.active_faces += int(np.count_nonzero((wl != wr).any(axis=0)))
                    self.faces += wl[0].size

        return traced

    def begin_run(self, run_id: int, method: str, n_steps: int, pass_index: int) -> None:
        self.run_id = run_id
        self._raised_by.clear()
        self.runs[run_id] = {"method": method, "steps": n_steps, "pass": pass_index}

    def end_run(self, wall_s: float, exc: BaseException | None) -> None:
        info = self.runs[self.run_id]
        info["wall_ns"] = int(wall_s * 1e9)
        info["failed_layer"] = None if exc is None else self._raised_by[id(exc)]
        self.run_id = -1

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "id", "parent", "start_ns", "end_ns", "run"],
                       "spans": self.spans, "runs": self.runs}, fh)


class MissingSpans(RuntimeError):
    """A completed run did not reach a wrapped entry point once per step."""


def _expected_counts(method: str, steps: int) -> dict[str, int]:
    expected = {PRIM: steps, MUSCL: steps, FLUX: steps}
    if method == "riemann":  # only the exact flux reaches the riemann entry points
        expected.update({IFACE: steps, STAR: steps, PFUN: 2 * steps})
    return expected


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer (value, unit) over every span recorded inside a ``solver.run``."""
    children = defaultdict(int)
    for name, sid, parent, start, end, run in tracer.spans:
        if parent >= 0:
            children[parent] += end - start
    total = Counter()  # name -> summed duration (ns)
    self_ns = Counter()
    calls = Counter()
    per_run = defaultdict(Counter)  # run id -> name -> calls
    run_ns = {}
    flux_ns, flux_calls = Counter(), Counter()
    iface_self = 0
    for name, sid, parent, start, end, run in tracer.spans:
        if run < 0:
            continue
        d = end - start
        total[name] += d
        self_ns[name] += d - children[sid]
        calls[name] += 1
        per_run[run][name] += 1
        if name == RUN:
            run_ns[run] = d
        elif name == FLUX:
            method = tracer.runs[run]["method"]
            flux_ns[method] += d
            flux_calls[method] += 1
        elif name == IFACE:
            iface_self += d - children[sid]

    runs = tracer.runs
    missing = []
    for run, info in runs.items():
        if info["failed_layer"] is None:
            for name, need in _expected_counts(info["method"], info["steps"]).items():
                if per_run[run][name] < need:
                    missing.append(f"{info['method']}: {name} {per_run[run][name]} < {need}")
    if missing:
        raise MissingSpans("traced run lost layer spans: " + "; ".join(missing[:8]))

    # Steps taken, failed runs included (each step calls the flux once).
    steps = sum(info["steps"] if info["failed_layer"] is None else per_run[r][FLUX]
                for r, info in runs.items())
    passes = sorted({info["pass"] for info in runs.values()})
    methods = sorted({info["method"] for info in runs.values()})
    failed = Counter(info["failed_layer"] for info in runs.values() if info["failed_layer"])

    def us(ns: float) -> float:
        return ns / 1e3

    m = {
        "solver.steps": (steps / len(passes), "count"),
        "solver.self_us_per_step": (us(self_ns[RUN] / steps), "us"),
    }
    for method in methods:
        m[f"solver.run_ms.{method}"] = (statistics.median(
            sum(run_ns.get(r, 0) for r, i in runs.items() if i["method"] == method and i["pass"] == p)
            for p in passes
        ) / 1e6, "ms")
    for layer in LAYERS:
        m[f"solver.failures.{layer}"] = (failed[layer] / len(passes), "count")
    m["gas.primitive_array.us_per_call"] = (us(total[PRIM] / calls[PRIM]), "us")
    m["gas.primitive_array.calls_per_step"] = (calls[PRIM] / steps, "calls/step")
    m["muscl.reconstruct_faces.us_per_call"] = (us(total[MUSCL] / calls[MUSCL]), "us")
    m["muscl.step_share"] = (total[MUSCL] / total[RUN], "ratio")
    for method in methods:
        m[f"fluxes.compute_face_flux.us_per_call.{method}"] = (us(flux_ns[method] / flux_calls[method]), "us")
    m["fluxes.step_share"] = (total[FLUX] / total[RUN], "ratio")
    m["riemann.star_state_arrays.us_per_call"] = (us(total[STAR] / calls[STAR]), "us")
    m["riemann.sample_us_per_call"] = (us(iface_self / calls[IFACE]), "us")
    # star_state_arrays evaluates the pressure function twice per Newton
    # iteration and twice more for the contact velocity.
    m["riemann.newton_iters"] = ((calls[PFUN] - 2 * calls[STAR]) / (2 * calls[STAR]), "count")
    m["riemann.active_face_frac"] = (tracer.active_faces / tracer.faces, "ratio")
    # Layer self times plus the wrapper around solver.run make up the wall
    # time the harness measured around each call.
    wall = sum(info["wall_ns"] for info in runs.values())
    m["trace.unaccounted_frac"] = (1.0 - sum(self_ns.values()) / wall, "ratio")
    return m
