"""Fixtures and loaders shared by the test modules."""

import functools
import importlib.util
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

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


# Special values: signed zeros, infinities, NaN, the smallest subnormal and
# magnitudes whose products, or sums, overflow or underflow
SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e-300, 1e300, -1e300, 1.7e308]
# Those a face's density and pressure can take: the kernels run on faces
# that passed the face check, rho > 0 and p > 0 (muscl.reconstruct_faces)
POSITIVE_SPECIAL = [np.inf, 5e-324, 1e-300, 1e300, 1.7e308]


@st.composite
def special_face_arrays(draw, positive=True):
    """A (3, 2) face or a (3, 2, m) block of 1 to 24 faces at gamma 1.4:
    densities and pressures in 10^[-3, 3], Mach numbers in [-3, 3], and some
    entries replaced by special values; with ``positive``, a density or
    pressure only by a positive one."""
    m = draw(st.integers(1, 24))
    drawn = draw(st.lists(st.floats(-3.0, 3.0), min_size=6 * m, max_size=6 * m))
    log_rho, mach, log_p = np.array(drawn).reshape(3, 2, m)
    rho, p = 10.0**log_rho, 10.0**log_p
    faces = np.array([rho, mach * np.sqrt(1.4 * p / rho), p])
    flat = faces.reshape(-1)
    for i in draw(st.lists(st.integers(0, flat.size - 1), max_size=flat.size)):
        row = i // (2 * m)
        values = POSITIVE_SPECIAL if positive and row != 1 else SPECIAL
        flat[i] = draw(st.sampled_from(values))
    return faces[:, :, 0] if m == 1 and draw(st.booleans()) else faces


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
