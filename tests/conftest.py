"""Fixtures shared by the test modules."""

import pytest

from sodbench import riemann


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
