"""Fixtures and loaders shared by the test modules."""

import functools
import importlib.util
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from sodbench import riemann
from sodbench.bench import run_all_methods
from sodbench.solver import RunConfig

ROOT = Path(__file__).resolve().parents[1]


@functools.cache
def load_script(path: Path):
    """A module of the repository that is not in the package, by its path,
    loaded once; registered, since dataclasses look their module up."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def sides(wl, wr):
    """Two face states, single (a length-3 array or a PrimitiveState) or
    (3, m), as the one (3, 2, ...) array the flux kernels take."""
    return np.stack([np.asarray(getattr(w, "array", w), dtype=float) for w in (wl, wr)], axis=1)


def assert_same_bytes(got, expected):
    assert (np.shape(got), np.asarray(got).dtype) == (np.shape(expected), np.asarray(expected).dtype)
    assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


@pytest.fixture(scope="session")
def sweep():
    """The 22-method Sod-200 sweep, run once per session, and its seconds.
    A RuntimeWarning in it is an error, whichever test asks first."""
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        reports = run_all_methods(RunConfig())
    return reports, time.perf_counter() - start


@pytest.fixture
def newton_iterations(monkeypatch):
    """Newton iterations of each star-state solve made while the test runs.

    They are counted from the module's pressure-function calls: one per
    iteration, for both sides, and one more for u* (``notes/decisions.md``
    sections 4 and 22).
    """
    iterations = []
    calls = 0
    star_state_arrays = riemann.star_state_arrays
    pressure_function = riemann.pressure_function

    def count_pfun(*args):
        nonlocal calls
        calls += 1
        return pressure_function(*args)

    def count_star(*args):
        nonlocal calls
        calls = 0
        result = star_state_arrays(*args)
        assert calls >= 2, f"{calls} pressure-function calls in one solve"
        iterations.append(calls - 1)
        return result

    monkeypatch.setattr(riemann, "star_state_arrays", count_star)
    monkeypatch.setattr(riemann, "pressure_function", count_pfun)
    return iterations
