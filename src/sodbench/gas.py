"""Calorically perfect gas model, the primitive state, and the Euler kernels.

``GasModel`` and ``PrimitiveState`` are validated single-state values: the
run and Riemann problem configurations hold them.  The ``*_array`` functions
are the vectorized kernels everything computes with, single states included;
they take ``(3, ...)`` float arrays laid out as rows of density, velocity,
pressure (or mass, momentum, energy for conserved data).  The conserved
state and the Euler flux are written once, in ``_state_and_flux_rows``.

The literals that meet arrays on the step path are the 0-d float64 arrays
below: numpy takes a 0-d array operand on a faster path than a Python
float, with the same bits (notes/decisions.md section 29).  So a kernel
given float64 arrays returns float64; ``fluxes.compute_face_flux`` converts
any other block once.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig

__all__ = [
    "GasModel",
    "PrimitiveState",
    "sound_speed_array",
    "state_and_flux_array",
    "conserved_array",
    "primitive_array",
    "flux_array",
    "enthalpy_array",
    "internal_energy_array",
]


def require_real(config, *names) -> None:
    """Raise ``InvalidConfig`` naming the first of ``config``'s fields
    ``names`` whose value is not a real number, before any arithmetic on it
    fails with a bare ``TypeError``."""
    for name in names:
        value = getattr(config, name)
        if not isinstance(value, numbers.Real):
            raise InvalidConfig(f"{name} must be a real number, got {value!r}")


@dataclass(frozen=True)
class GasModel:
    """Ratio of specific heats; 1.4 is diatomic air and the benchmark default."""

    gamma: float = 1.4

    def __post_init__(self):
        require_real(self, "gamma")
        if not (math.isfinite(self.gamma) and self.gamma > 1.0):
            raise InvalidConfig(f"gamma must be finite and > 1, got {self.gamma}")


@dataclass(frozen=True)
class PrimitiveState:
    """Density, velocity, pressure (SI units by convention). Vacuum excluded."""

    rho: float
    u: float
    p: float

    def __post_init__(self):
        require_real(self, "rho", "u", "p")
        if not (math.isfinite(self.rho) and math.isfinite(self.u) and math.isfinite(self.p)):
            raise InvalidConfig(f"non-finite primitive state ({self.rho}, {self.u}, {self.p})")
        if self.rho <= 0.0 or self.p <= 0.0:
            raise InvalidConfig(
                f"density and pressure must be positive, got rho={self.rho}, p={self.p}"
            )

    @property
    def array(self) -> np.ndarray:
        return np.array([self.rho, self.u, self.p])


# The step path's literals (see the module docstring)
_ZERO, _TENTH, _EIGHTH, _QUARTER, _HALF, _ONE, _TWO = map(
    np.array, (0.0, 0.1, 0.125, 0.25, 0.5, 1.0, 2.0)
)


# ---------------------------------------------------------------------------
# Array kernels.  w is (3, ...) primitive data; q is (3, ...) conserved data.
# ---------------------------------------------------------------------------

def sound_speed_array(w: np.ndarray, gamma: float) -> np.ndarray:
    return np.sqrt(gamma * w[2] / w[0])


def _state_and_flux_rows(w: np.ndarray, gamma: float):
    """Rows of the conserved state (rho, rho u, E) and of the Euler flux
    (rho u, rho u^2 + p, (E + p) u), with E = p/(gamma - 1) + rho u^2/2."""
    rho, u, p = w[0], w[1], w[2]
    mom = rho * u
    mom_u = mom * u
    energy = p / (gamma - 1.0) + _HALF * mom_u
    return (rho, mom, energy), (mom, mom_u + p, (energy + p) * u)


def state_and_flux_array(w: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    q, f = _state_and_flux_rows(w, gamma)
    return np.array(q), np.array(f)


def conserved_array(w: np.ndarray, gamma: float) -> np.ndarray:
    return state_and_flux_array(w, gamma)[0]


def primitive_array(q: np.ndarray, gamma: float) -> np.ndarray:
    """Convert conserved rows to primitive rows. No positivity check here;
    callers that can blow up are expected to inspect the result."""
    w = np.array(q, dtype=float)
    w[1] /= q[0]
    # p = (gamma - 1) (E - (0.5 m) u), rounded as the formula reads
    t = _HALF * q[1]
    t *= w[1]
    w[2] -= t
    w[2] *= gamma - 1.0
    return w


def flux_array(w: np.ndarray, gamma: float) -> np.ndarray:
    return np.array(_state_and_flux_rows(w, gamma)[1])


def enthalpy_array(w: np.ndarray, gamma: float) -> np.ndarray:
    return _HALF * w[1] * w[1] + gamma / (gamma - 1.0) * w[2] / w[0]


def internal_energy_array(w: np.ndarray, gamma: float) -> np.ndarray:
    return w[2] / (w[0] * (gamma - 1.0))
