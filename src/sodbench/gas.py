"""Calorically perfect gas model, flow-state containers, and the Euler flux.

Two layers live here.  The dataclasses (``GasModel``, ``PrimitiveState``,
``ConservedState``) are validated single-state values: the run and Riemann
problem configurations hold them, and ``conserved_to_primitive`` checks a
conserved state on its way back.  The ``*_array`` functions are the
vectorized kernels everything computes with, single states included; they
take ``(3, ...)`` float arrays laid out as rows of density, velocity,
pressure (or mass, momentum, energy for conserved data).  The conserved
state and the Euler flux are written once, in ``state_and_flux_array``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, NonPhysicalState

__all__ = [
    "GasModel",
    "PrimitiveState",
    "ConservedState",
    "primitive_to_conserved",
    "conserved_to_primitive",
    "sound_speed_array",
    "state_and_flux_array",
    "conserved_array",
    "primitive_array",
    "flux_array",
    "enthalpy_array",
    "internal_energy_array",
]


@dataclass(frozen=True)
class GasModel:
    """Ratio of specific heats; 1.4 is diatomic air and the benchmark default."""

    gamma: float = 1.4

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma > 1.0):
            raise InvalidConfig(f"gamma must be finite and > 1, got {self.gamma}")


@dataclass(frozen=True)
class PrimitiveState:
    """Density, velocity, pressure (SI units by convention). Vacuum excluded."""

    rho: float
    u: float
    p: float

    def __post_init__(self):
        if not (math.isfinite(self.rho) and math.isfinite(self.u) and math.isfinite(self.p)):
            raise ValueError(f"non-finite primitive state ({self.rho}, {self.u}, {self.p})")
        if self.rho <= 0.0 or self.p <= 0.0:
            raise ValueError(
                f"density and pressure must be positive, got rho={self.rho}, p={self.p}"
            )

    @property
    def array(self) -> np.ndarray:
        return np.array([self.rho, self.u, self.p])


@dataclass(frozen=True)
class ConservedState:
    """Mass, momentum, and total energy per unit volume.

    Not validated at construction, so that a state with non-positive density
    or internal energy can be held: ``conserved_to_primitive`` rejects it.
    The solver works on ``(3, n)`` arrays and never builds one.
    """

    mass: float
    momentum: float
    energy: float

    @property
    def array(self) -> np.ndarray:
        return np.array([self.mass, self.momentum, self.energy])


def primitive_to_conserved(w: PrimitiveState, gas: GasModel = GasModel()) -> ConservedState:
    return ConservedState(*conserved_array(w.array, gas.gamma).tolist())


def conserved_to_primitive(q: ConservedState, gas: GasModel = GasModel()) -> PrimitiveState:
    """Exact inverse of :func:`primitive_to_conserved`.

    Raises ``NonPhysicalState`` when the recovered density or pressure is not
    positive.
    """
    if q.mass <= 0.0:
        raise NonPhysicalState(f"non-positive density {q.mass}")
    rho, u, p = primitive_array(q.array, gas.gamma).tolist()
    if p <= 0.0:
        raise NonPhysicalState(f"non-positive pressure {p}")
    return PrimitiveState(rho=rho, u=u, p=p)


# ---------------------------------------------------------------------------
# Array kernels.  w is (3, ...) primitive data; q is (3, ...) conserved data.
# ---------------------------------------------------------------------------

def sound_speed_array(w: np.ndarray, gamma: float) -> np.ndarray:
    return np.sqrt(gamma * w[2] / w[0])


def state_and_flux_array(w: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Conserved state (rho, rho u, E) and Euler flux (rho u, rho u^2 + p,
    (E + p) u) of primitive rows ``w``, sharing rho u and
    E = p/(gamma - 1) + rho u^2/2."""
    rho, u, p = w[0], w[1], w[2]
    mom = rho * u
    energy = p / (gamma - 1.0) + 0.5 * rho * u * u
    return np.array([rho, mom, energy]), np.array([mom, mom * u + p, (energy + p) * u])


def conserved_array(w: np.ndarray, gamma: float) -> np.ndarray:
    return state_and_flux_array(w, gamma)[0]


def primitive_array(q: np.ndarray, gamma: float) -> np.ndarray:
    """Convert conserved rows to primitive rows. No positivity check here;
    callers that can blow up are expected to inspect the result."""
    w = np.array(q, dtype=float)
    w[1] /= q[0]
    # p = (gamma - 1) (E - (0.5 m) u), rounded as the formula reads
    t = 0.5 * q[1]
    t *= w[1]
    w[2] -= t
    w[2] *= gamma - 1.0
    return w


def flux_array(w: np.ndarray, gamma: float) -> np.ndarray:
    return state_and_flux_array(w, gamma)[1]


def enthalpy_array(w: np.ndarray, gamma: float) -> np.ndarray:
    return 0.5 * w[1] * w[1] + gamma / (gamma - 1.0) * w[2] / w[0]


def internal_energy_array(w: np.ndarray, gamma: float) -> np.ndarray:
    return w[2] / (w[0] * (gamma - 1.0))
